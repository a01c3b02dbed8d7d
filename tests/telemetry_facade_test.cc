// Engine-level telemetry tests (docs/DESIGN.md §8): DumpMetrics coverage
// in both formats, the audit-log differential invariant (every
// PermissionDenied from Smoqe::Update leaves exactly one kUpdateReject
// record carrying the explain string verbatim), trace span nesting under
// concurrent batches, and the telemetry-off engine.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/smoqe.h"
#include "tests/test_util.h"

namespace smoqe::core {
namespace {

namespace tel = ::smoqe::telemetry;

constexpr char kNursePolicy[] =
    "patient/pname   : N;\n"
    "patient/visit   : N;\n"
    "visit/treatment : Y;\n"
    "treatment/test  : Y;\n";

constexpr char kDoctorPolicy[] =
    "hospital/patient : Y;\n"
    "patient/pname    : Y;\n"
    "patient/visit    : Y;\n"
    "patient/parent   : Y;\n";

void SetupEngine(Smoqe* engine) {
  ASSERT_TRUE(engine
                  ->RegisterDtd("hospital", testutil::kHospitalDtd, "hospital")
                  .ok());
  ASSERT_TRUE(engine->LoadDocument("ward", testutil::kHospitalDoc).ok());
  ASSERT_TRUE(engine->DefineView("nurses", "hospital", kNursePolicy).ok());
  ASSERT_TRUE(engine->DefineView("doctors", "hospital", kDoctorPolicy).ok());
}

TEST(TelemetryFacade, DumpMetricsCoversEverySurface) {
  EngineOptions options;
  options.max_threads = 4;
  Smoqe engine(options);
  SetupEngine(&engine);

  QueryOptions nurse;
  nurse.view = "nurses";
  ASSERT_TRUE(engine.Query("ward", "//treatment", nurse).ok());
  ASSERT_TRUE(engine.Query("ward", "//treatment", nurse).ok());  // cache hit
  std::vector<BatchQueryItem> items;
  QueryOptions stax = nurse;
  stax.mode = EvalMode::kStax;
  items.push_back({"//treatment", stax});
  items.push_back({"//treatment/test", stax});
  items.push_back({"//pname", {}});
  ASSERT_TRUE(engine.QueryBatch("ward", items).ok());
  UpdateOptions up;
  up.view = "nurses";
  ASSERT_TRUE(engine
                  .Update("ward",
                          "replace //treatment[medication = 'headache'] with "
                          "<treatment><medication>x</medication></treatment>",
                          up)
                  .ok());
  ASSERT_FALSE(engine.Update("ward", "delete hospital/patient", up).ok());

  const std::string json = engine.DumpMetrics(tel::DumpFormat::kJson);
  for (const char* key :
       {"\"query.count\": 2", "\"batch.count\": 1", "\"batch.items\": 3",
        "\"update.count\": 2", "\"update.accepted\": 1",
        "\"update.rejected\": 1", "\"plan_cache.hits\"",
        "\"plan_cache.misses\"", "\"query.latency_ns\"",
        "\"update.latency_ns\"", "\"eval.nodes_visited\"",
        "\"snapshot.live\"", "\"doc.epoch.ward\": 1", "\"audit.total\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key
                                                 << " in:\n" << json;
  }
  const std::string prom = engine.DumpMetrics(tel::DumpFormat::kPrometheus);
  EXPECT_NE(prom.find("smoqe_query_count 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE smoqe_update_latency_ns summary"),
            std::string::npos);
}

TEST(TelemetryFacade, AuditDifferentialEveryDenialHasOneRecord) {
  Smoqe engine;
  SetupEngine(&engine);
  UpdateOptions nurse;
  nurse.view = "nurses";
  // A mix of rejected, accepted and error-status updates. Each rejected
  // statement is unique so records can be matched 1:1.
  const std::vector<const char*> denied = {
      "delete hospital/patient",
      "delete //patient",
      "insert into hospital/patient <visit><treatment><test>x</test>"
      "</treatment><date>d9</date></visit>",
      "replace hospital/patient with <patient><pname>Zed</pname></patient>",
  };
  std::vector<std::string> expected_explains;
  for (const char* stmt : denied) {
    auto r = engine.Update("ward", stmt, nurse);
    ASSERT_FALSE(r.ok()) << stmt;
    ASSERT_EQ(r.status().code(), StatusCode::kPermissionDenied) << stmt;
    expected_explains.push_back(std::string(r.status().message()));
  }
  // Interleave decisions that must NOT produce kUpdateReject records.
  ASSERT_TRUE(engine
                  .Update("ward",
                          "replace //treatment[medication = 'headache'] with "
                          "<treatment><medication>x</medication></treatment>",
                          nurse)
                  .ok());
  auto not_found = engine.Update("ward", "delete //nosuch", UpdateOptions{});
  ASSERT_TRUE(not_found.ok());  // empty target set: successful no-op

  tel::AuditFilter rejects;
  const tel::AuditKind kind = tel::AuditKind::kUpdateReject;
  rejects.kind = &kind;
  const auto records = engine.telemetry()->audit().Query(rejects);
  ASSERT_EQ(records.size(), denied.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].statement, denied[i]);
    EXPECT_EQ(records[i].explain, expected_explains[i])
        << "audit explain must match the returned status verbatim";
    EXPECT_FALSE(records[i].allowed);
    EXPECT_EQ(records[i].view, "nurses");
    EXPECT_EQ(records[i].doc, "ward");
  }
  // The accepted update contributed exactly one kUpdateAccept.
  tel::AuditFilter accepts;
  const tel::AuditKind akind = tel::AuditKind::kUpdateAccept;
  accepts.kind = &akind;
  EXPECT_EQ(engine.telemetry()->audit().Query(accepts).size(), 1u);
}

TEST(TelemetryFacade, QueryTraceHasPipelineSpans) {
  Smoqe engine;
  SetupEngine(&engine);
  QueryOptions nurse;
  nurse.view = "nurses";
  auto r = engine.Query("ward", "//treatment/test", nurse);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->trace_id, 0u);
  auto trace = engine.telemetry()->traces().Find(r->trace_id);
  ASSERT_NE(trace, nullptr);
  std::set<std::string> names;
  for (const tel::SpanRecord& s : trace->spans()) names.insert(s.name);
  for (const char* stage : {"parse", "cache_lookup", "rewrite", "evaluate"}) {
    EXPECT_NE(names.find(stage), names.end()) << "missing span " << stage;
  }
  // A repeat of the same query compiles from the cache: no rewrite span.
  auto r2 = engine.Query("ward", "//treatment/test", nurse);
  ASSERT_TRUE(r2.ok());
  auto trace2 = engine.telemetry()->traces().Find(r2->trace_id);
  ASSERT_NE(trace2, nullptr);
  for (const tel::SpanRecord& s : trace2->spans()) {
    EXPECT_NE(s.name, "rewrite");
    EXPECT_NE(s.name, "compile");
  }
}

/// Span names of the newest finished trace, in start order.
std::vector<std::string> NewestTraceSpans(const Smoqe& engine) {
  auto recent = engine.telemetry()->traces().Recent(1);
  EXPECT_EQ(recent.size(), 1u);
  std::vector<std::string> names;
  if (recent.empty()) return names;
  for (const tel::SpanRecord& s : recent.front()->spans()) {
    names.push_back(s.name);
  }
  return names;
}

TEST(TelemetryFacade, UpdateTraceClonesOnlyToCommit) {
  Smoqe engine;
  SetupEngine(&engine);
  UpdateOptions nurse;
  nurse.view = "nurses";
  nurse.dtd_name = "hospital";
  constexpr char kReplace[] =
      "replace //treatment[medication = 'headache'] "
      "with <treatment><test>mri</test></treatment>";

  // A dry run authorizes and validates on the published snapshot and
  // copies nothing.
  UpdateOptions dry = nurse;
  dry.dry_run = true;
  ASSERT_TRUE(engine.Update("ward", kReplace, dry).ok());
  EXPECT_EQ(NewestTraceSpans(engine),
            (std::vector<std::string>{"parse", "resolve", "authorize",
                                      "validate"}));

  // A rejected update stops at authorization: no clone either.
  ASSERT_FALSE(engine.Update("ward", "delete hospital/patient", nurse).ok());
  EXPECT_EQ(NewestTraceSpans(engine),
            (std::vector<std::string>{"parse", "resolve", "authorize"}));

  // Only an accepted commit clones, then applies and publishes.
  auto r = engine.Update("ward", kReplace, nurse);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(NewestTraceSpans(engine),
            (std::vector<std::string>{"parse", "resolve", "authorize",
                                      "validate", "clone", "apply",
                                      "publish"}));
}

TEST(TelemetryFacade, BatchTraceNestsItemsUnderEvaluate) {
  EngineOptions options;
  options.max_threads = 4;
  Smoqe engine(options);
  SetupEngine(&engine);
  std::vector<BatchQueryItem> items;
  for (const char* q : {"//pname", "//medication", "//visit/date"}) {
    items.push_back({q, {}});  // DOM items fan out across the pool
  }
  auto r = engine.QueryBatch("ward", items);
  ASSERT_TRUE(r.ok());
  ASSERT_NE((*r)[0].trace_id, 0u);
  auto trace = engine.telemetry()->traces().Find((*r)[0].trace_id);
  ASSERT_NE(trace, nullptr);
  const auto spans = trace->spans();
  int32_t dom_span = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].end_ns, spans[i].start_ns);
    EXPECT_LT(spans[i].parent, static_cast<int32_t>(i));
    if (spans[i].name == "evaluate.dom_items") {
      dom_span = static_cast<int32_t>(i);
    }
  }
  ASSERT_NE(dom_span, -1);
  size_t nested_items = 0;
  for (const tel::SpanRecord& s : spans) {
    if (s.name == "item" && s.parent == dom_span) ++nested_items;
  }
  EXPECT_EQ(nested_items, items.size());
}

TEST(TelemetryFacade, ConcurrentQueriesKeepCountersExact) {
  EngineOptions options;
  options.max_threads = 4;
  Smoqe engine(options);
  SetupEngine(&engine);
  constexpr int kThreads = 8, kPer = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine] {
      QueryOptions nurse;
      nurse.view = "nurses";
      for (int i = 0; i < kPer; ++i) {
        ASSERT_TRUE(engine.Query("ward", "//treatment", nurse).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  tel::MetricsRegistry& reg = engine.telemetry()->registry();
  EXPECT_EQ(reg.GetCounter("query.count").Value(),
            static_cast<uint64_t>(kThreads) * kPer);
  EXPECT_EQ(reg.GetCounter("query.errors").Value(), 0u);
  EXPECT_EQ(reg.GetHistogram("query.latency_ns").Count(),
            static_cast<uint64_t>(kThreads) * kPer);
  // Every query was a view query → one kQueryRewrite audit record each
  // (bounded by the audit capacity; 200 < 4096 so nothing dropped).
  EXPECT_EQ(engine.telemetry()->audit().total(),
            static_cast<uint64_t>(kThreads) * kPer);
  EXPECT_EQ(engine.telemetry()->audit().dropped(), 0u);
}

TEST(TelemetryFacade, DisabledTelemetryRecordsNothing) {
  EngineOptions options;
  options.telemetry.enabled = false;
  Smoqe engine(options);
  SetupEngine(&engine);
  QueryOptions nurse;
  nurse.view = "nurses";
  auto r = engine.Query("ward", "//treatment", nurse);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->trace_id, 0u);
  EXPECT_EQ(engine.telemetry(), nullptr);
  EXPECT_EQ(engine.DumpMetrics(tel::DumpFormat::kJson), "{}\n");
  EXPECT_EQ(engine.DumpMetrics(tel::DumpFormat::kPrometheus), "");
  UpdateOptions up;
  up.view = "nurses";
  auto denied = engine.Update("ward", "delete hospital/patient", up);
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
}

TEST(TelemetryFacade, EpochLagObservedAfterUpdate) {
  Smoqe engine;
  SetupEngine(&engine);
  ASSERT_TRUE(engine.Query("ward", "//pname", {}).ok());
  ASSERT_TRUE(engine
                  .Update("ward",
                          "replace //treatment[medication = 'headache'] with "
                          "<treatment><medication>x</medication></treatment>",
                          UpdateOptions{})
                  .ok());
  ASSERT_TRUE(engine.Query("ward", "//pname", {}).ok());
  tel::MetricsRegistry& reg = engine.telemetry()->registry();
  // Both queries saw the freshest epoch → lag samples exist and are 0.
  EXPECT_EQ(reg.GetHistogram("query.epoch_lag").Count(), 2u);
  EXPECT_EQ(reg.GetHistogram("query.epoch_lag").Max(), 0u);
  // The update timed its apply phase (TAX repair included) once.
  EXPECT_EQ(reg.GetHistogram("update.tax_repair_ns").Count(), 1u);
}

}  // namespace
}  // namespace smoqe::core
