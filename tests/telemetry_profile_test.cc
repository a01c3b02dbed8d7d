// PROFILE model + slow-query log unit tests, and the in-process
// differential that anchors the observability surface: a profiled
// query's total_ns is the SAME number the latency histogram recorded,
// so the per-request view (PROFILE) and the aggregate view (metrics)
// can never drift apart.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/smoqe.h"
#include "src/telemetry/profile.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "tests/server_test_util.h"
#include "tests/test_util.h"

namespace smoqe::telemetry {
namespace {

TEST(ProfileRendererTest, JsonCarriesEveryField) {
  Profile p;
  p.trace_id = 42;
  p.op = "query";
  p.doc = "ward";
  p.view = "nurses";
  p.statement = "//pname";
  p.canonical_query = "(*)*/pname";
  p.plan_cache_hit = true;
  p.doc_epoch = 3;
  p.total_ns = 1000;
  p.guard_ticks = 7;
  p.stages.push_back({"parse", -1, 200});
  p.stages.push_back({"evaluate", -1, 700});
  p.stages.push_back({"item 0", 1, 650});
  p.stats.dom_parts = 5;
  const std::string json = ProfileRenderer::Json(p);
  EXPECT_NE(json.find("\"trace_id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"query\""), std::string::npos);
  EXPECT_NE(json.find("\"canonical_query\": \"(*)*/pname\""),
            std::string::npos);
  EXPECT_NE(json.find("\"plan_cache_hit\": true"), std::string::npos);
  EXPECT_NE(json.find("\"doc_epoch\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"guard_ticks\": 7"), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"item 0\", \"parent\": 1, \"ns\": 650}"),
            std::string::npos);
  EXPECT_NE(json.find("\"dom_parts\": 5"), std::string::npos);
  const std::string text = ProfileRenderer::Text(p);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("evaluate"), std::string::npos);
  EXPECT_NE(text.find("dom_parts=5"), std::string::npos);
}

TEST(SlowQueryLogTest, BoundedRingEvictsOldestAndKeepsSeq) {
  SlowQueryLog log(/*capacity=*/2);
  ASSERT_TRUE(log.enabled());
  for (int i = 0; i < 3; ++i) {
    Profile p;
    p.op = "query";
    p.total_ns = 100 + static_cast<uint64_t>(i);
    EXPECT_GT(log.Append(std::move(p), "nurses", /*threshold_ns=*/0), 0u);
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.dropped(), 1u);
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_LT(entries[0].seq, entries[1].seq);  // strictly increasing
  EXPECT_EQ(entries[0].profile.total_ns, 101u);  // oldest (100) evicted
  EXPECT_EQ(entries[0].role, "nurses");
  const std::string json = log.RenderJson();
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  EXPECT_NE(json.find("\"seq\": "), std::string::npos);
  EXPECT_NE(json.find("\"threshold_ns\": 0"), std::string::npos);
}

TEST(SlowQueryLogTest, ZeroCapacityDisablesAppend) {
  SlowQueryLog log(/*capacity=*/0);
  EXPECT_FALSE(log.enabled());
  Profile p;
  EXPECT_EQ(log.Append(std::move(p), "", 0), 0u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.RenderJson().substr(0, 1), "[");
}

TEST(TraceRecorderTest, BeginAdoptsCallerIdAndFindReturnsNewest) {
  TraceRecorder rec(8);
  auto t1 = rec.Begin("first", 777);
  EXPECT_EQ(t1->id(), 777u);
  rec.Finish(t1);
  auto t2 = rec.Begin("second", 777);  // id collision: caller's problem
  rec.Finish(t2);
  auto found = rec.Find(777);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name(), "second") << "Find must return the newest match";
  // id 0 still mints fresh ids.
  auto t3 = rec.Begin("minted", 0);
  EXPECT_NE(t3->id(), 0u);
}

TEST(TraceRecorderTest, AddCompletedSpanBackdatesAndSaturates) {
  TraceRecorder rec(8);
  auto t = rec.Begin("q", 0);
  // Duration far longer than the trace has lived: start saturates at 0.
  const int32_t i = t->AddCompletedSpan("queue_wait", 1'000'000'000'000ull);
  EXPECT_EQ(i, 0);
  const auto spans = t->spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_ns, 0u);
  EXPECT_GT(spans[0].end_ns, 0u);
  EXPECT_EQ(spans[0].name, "queue_wait");
}

// The differential: each profiled call's total_ns is byte-identical to
// the sample the latency histogram took, so Σ profile totals == the
// histogram's sum and the counts match 1:1.
TEST(ProfileDifferentialTest, ProfileTotalsEqualHistogramSamples) {
  core::Smoqe engine(server::testutil2::ServerEngineOptions());
  server::testutil2::SetupHospitalEngine(engine, /*gen_nodes=*/0);

  core::QueryOptions opts;
  opts.view = "autism-group";
  uint64_t profile_sum = 0;
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    core::RequestOptions req;
    req.profile = true;
    auto r = engine.Query("ward", "//patient/pname", opts, req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->profile, nullptr);
    EXPECT_GT(r->profile->total_ns, 0u);
    EXPECT_FALSE(r->profile->canonical_query.empty());
    EXPECT_EQ(r->profile->doc_epoch, r->doc_epoch);
    profile_sum += r->profile->total_ns;
  }
  const std::string dump = engine.DumpMetrics(DumpFormat::kJson);
  const std::string needle = "\"query.latency_ns\": {";
  const size_t pos = dump.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const std::string line = dump.substr(pos, dump.find('}', pos) - pos);
  auto field = [&](const char* key) {
    const std::string k = std::string("\"") + key + "\": ";
    const size_t p = line.find(k);
    EXPECT_NE(p, std::string::npos) << key;
    return std::strtoull(line.c_str() + p + k.size(), nullptr, 10);
  };
  EXPECT_EQ(field("count"), static_cast<uint64_t>(kQueries));
  EXPECT_EQ(field("sum"), profile_sum)
      << "profile totals and histogram samples drifted apart";
}

// QueryBatchMulti carries its batch-level profile on the first answer,
// exactly as QueryBatch does, and the profile's total_ns is the same
// number the call's batch.latency_ns sample recorded.
TEST(ProfileDifferentialTest, QueryBatchMultiAttachesBatchProfile) {
  core::Smoqe engine(server::testutil2::ServerEngineOptions());
  server::testutil2::SetupHospitalEngine(engine, /*gen_nodes=*/500);
  core::QueryOptions opts;
  opts.view = "autism-group";
  const std::vector<core::DocBatchItem> items = {
      {"ward", "//patient/pname", opts},
      {"gen", "//patient/pname", opts},
      {"ward", "//medication", opts}};
  core::RequestOptions req;
  req.profile = true;
  auto r = engine.QueryBatchMulti(items, req);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), items.size());
  ASSERT_NE((*r)[0].profile, nullptr) << "PROFILE must ride on item 0";
  EXPECT_EQ((*r)[1].profile, nullptr);
  EXPECT_EQ((*r)[2].profile, nullptr);
  const Profile& p = *(*r)[0].profile;
  EXPECT_EQ(p.op, "query_batch_multi");
  EXPECT_EQ(p.statement, "3 items");
  EXPECT_EQ(p.trace_id, (*r)[0].trace_id);
  EXPECT_NE(p.trace_id, 0u);
  EXPECT_EQ(p.doc_epoch, (*r)[0].doc_epoch);
  EXPECT_FALSE(p.stages.empty());
  uint64_t answers = 0;
  for (const core::QueryAnswer& a : *r) answers += a.stats.answers;
  EXPECT_EQ(p.stats.answers, answers);

  const Histogram& latency =
      engine.telemetry()->registry().GetHistogram("batch.latency_ns");
  ASSERT_EQ(latency.Count(), 1u);
  EXPECT_EQ(p.total_ns, latency.Sum())
      << "profile total and histogram sample drifted apart";

  // Without the flag no profile is attached.
  auto plain = engine.QueryBatchMulti(items);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)[0].profile, nullptr);
}

// In-process trace-id adoption mirrors the wire path: an explicit
// trace_id forces recording (no sampling flakiness) under that id.
TEST(ProfileDifferentialTest, ExplicitTraceIdForcesRecording) {
  core::Smoqe engine(server::testutil2::ServerEngineOptions());
  server::testutil2::SetupHospitalEngine(engine, /*gen_nodes=*/0);
  core::QueryOptions opts;
  opts.view = "autism-group";
  core::RequestOptions req;
  req.trace_id = 987654;
  auto r = engine.Query("ward", "//patient/pname", opts, req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->trace_id, 987654u);
  auto trace = engine.telemetry()->traces().Find(987654);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->name(), "query");
}

// Slow-query capture through the facade: threshold 0 logs every call —
// including failures — with role and threshold recorded; the engine's
// DumpSlowQueries renders the same entries the telemetry object holds.
TEST(ProfileDifferentialTest, ThresholdZeroCapturesAllOutcomes) {
  core::EngineOptions o = server::testutil2::ServerEngineOptions();
  o.slow_query_threshold_ms = 0;
  core::Smoqe engine(o);
  server::testutil2::SetupHospitalEngine(engine, /*gen_nodes=*/0);
  core::QueryOptions opts;
  opts.view = "autism-group";
  ASSERT_TRUE(engine.Query("ward", "//patient/pname", opts).ok());
  ASSERT_FALSE(engine.Query("no-such-doc", "//pname", opts).ok());

  const auto entries = engine.telemetry()->slow().Entries();
  ASSERT_GE(entries.size(), 2u);
  const std::string json = engine.DumpSlowQueries();
  EXPECT_NE(json.find("\"role\": \"autism-group\""), std::string::npos);
  EXPECT_NE(json.find("\"doc\": \"no-such-doc\""), std::string::npos)
      << "failed calls must be captured too";
  // The metrics tree exposes the log's occupancy.
  const std::string dump = engine.DumpMetrics(DumpFormat::kJson);
  EXPECT_NE(dump.find("\"slowlog.total\": "), std::string::npos);
}

}  // namespace
}  // namespace smoqe::telemetry
