// smoqe-stat: run a small hospital workload through the engine facade and
// dump what the telemetry subsystem saw (docs/DESIGN.md §8).
//
//   ./build/smoqe_stat              # metrics as JSON (default)
//   ./build/smoqe_stat --format prom    # Prometheus text exposition
//   ./build/smoqe_stat --format traces  # recent trace trees (text)
//   ./build/smoqe_stat --format audit   # security audit log (JSON)
//   ./build/smoqe_stat --format slow    # slow-query log (JSON; the demo
//                                       # run sets threshold 0 so every
//                                       # request of the workload lands)
//
// A *running* smoqed is drained over the STAT opcode by
// `smoqe-cli stat --format json|prom|slow` — same render path as this
// in-process dump, so the two can be diffed structurally.
//
// The workload covers every instrumented surface: direct and view
// queries (DOM + StAX), a QueryBatch over the thread pool, accepted and
// rejected view updates, plan-cache hits, and a dry run. CI pipes the
// JSON output through tools/check_metrics.py to assert the counters are
// present and mutually consistent.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/smoqe.h"
#include "src/workload/workloads.h"

namespace {

constexpr char kWard[] =
    "<hospital>"
    "<patient>"
    "<pname>Alice</pname>"
    "<visit><treatment><medication>autism</medication></treatment>"
    "<date>2006-01-02</date></visit>"
    "<parent><patient>"
    "<pname>Bob</pname>"
    "<visit><treatment><test>blood</test></treatment>"
    "<date>2006-02-03</date></visit>"
    "</patient></parent>"
    "</patient>"
    "<patient>"
    "<pname>Carol</pname>"
    "<visit><treatment><medication>headache</medication></treatment>"
    "<date>2006-03-04</date></visit>"
    "</patient>"
    "</hospital>";

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

int Fail(const char* what, const smoqe::Status& status) {
  std::fprintf(stderr, "smoqe-stat: %s: %s\n", what,
               status.ToString().c_str());
  return 1;
}

// Drives every instrumented code path once. Errors on paths that are
// *expected* to succeed abort; the deliberate rejections must fail.
int RunWorkload(smoqe::core::Smoqe& engine) {
  using smoqe::core::BatchQueryItem;
  using smoqe::core::EvalMode;
  using smoqe::core::QueryOptions;
  using smoqe::core::UpdateOptions;

  auto s = engine.RegisterDtd("hospital", smoqe::workload::kHospitalDtd,
                              "hospital");
  if (!s.ok()) return Fail("RegisterDtd", s);
  s = engine.LoadDocument("ward", kWard);
  if (!s.ok()) return Fail("LoadDocument", s);
  s = engine.BuildIndex("ward");
  if (!s.ok()) return Fail("BuildIndex", s);
  s = engine.DefineView("nurses", "hospital", kNursePolicy);
  if (!s.ok()) return Fail("DefineView(nurses)", s);
  s = engine.DefineView("doctors", "hospital", kDoctorPolicy);
  if (!s.ok()) return Fail("DefineView(doctors)", s);

  // Queries: direct DOM, view DOM (rewrite audit records), view StAX,
  // and a repeat of each so the plan cache records hits.
  QueryOptions direct;
  QueryOptions nurse_dom;
  nurse_dom.view = "nurses";
  QueryOptions nurse_stax = nurse_dom;
  nurse_stax.mode = EvalMode::kStax;
  for (int round = 0; round < 2; ++round) {
    auto q1 = engine.Query("ward", "//patient/pname", direct);
    if (!q1.ok()) return Fail("Query(direct)", q1.status());
    auto q2 = engine.Query("ward", "//treatment", nurse_dom);
    if (!q2.ok()) return Fail("Query(nurse,dom)", q2.status());
    auto q3 = engine.Query("ward", "//treatment/test", nurse_stax);
    if (!q3.ok()) return Fail("Query(nurse,stax)", q3.status());
  }

  // A multi-user batch: one shared StAX scan plus DOM items on the pool.
  std::vector<BatchQueryItem> items;
  items.push_back({"//treatment", nurse_stax});
  items.push_back({"//treatment/test", nurse_stax});
  items.push_back({"//patient/pname", direct});
  items.push_back({"//visit/date", direct});
  auto batch = engine.QueryBatch("ward", items);
  if (!batch.ok()) return Fail("QueryBatch", batch.status());

  // Updates: a rejected one (nurse deletes a patient — removes hidden
  // data), an accepted one, and a dry run. The rejection MUST fail with
  // PermissionDenied; that denial is the audit log's reason to exist.
  UpdateOptions nurse_up;
  nurse_up.view = "nurses";
  auto rejected = engine.Update("ward", "delete hospital/patient", nurse_up);
  if (rejected.ok() ||
      rejected.status().code() != smoqe::StatusCode::kPermissionDenied) {
    std::fprintf(stderr, "smoqe-stat: expected PermissionDenied, got %s\n",
                 rejected.ok() ? "OK" : rejected.status().ToString().c_str());
    return 1;
  }
  auto accepted = engine.Update(
      "ward",
      "replace //treatment[medication = 'headache'] with "
      "<treatment><medication>ibuprofen</medication></treatment>",
      nurse_up);
  if (!accepted.ok()) return Fail("Update(accepted)", accepted.status());
  UpdateOptions doctor_dry;
  doctor_dry.view = "doctors";
  doctor_dry.dry_run = true;
  auto dry = engine.Update(
      "ward",
      "insert into hospital/patient[pname = 'Carol'] "
      "<visit><treatment><test>mri</test></treatment>"
      "<date>2006-07-08</date></visit>",
      doctor_dry);
  if (!dry.ok()) return Fail("Update(dry_run)", dry.status());

  // One query after the update so epoch-lag has a non-trivial sample.
  auto q = engine.Query("ward", "//treatment", nurse_dom);
  if (!q.ok()) return Fail("Query(post-update)", q.status());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--format") == 0 && i + 1 < argc) {
      format = argv[++i];
    } else if (std::strncmp(argv[i], "--format=", 9) == 0) {
      format = argv[i] + 9;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--format json|prom|traces|audit|slow]\n",
                   argv[0]);
      return 2;
    }
  }

  smoqe::core::EngineOptions options;
  // The dev/CI container may expose a single core; force a real pool so
  // the pool.* metrics and parallel batch paths are exercised.
  options.max_threads = 4;
  // The demo workload is far faster than any sane slow threshold; zero
  // it so --format slow has entries to show (threshold 0 = log all).
  if (format == "slow") options.slow_query_threshold_ms = 0;
  smoqe::core::Smoqe engine(options);

  int rc = RunWorkload(engine);
  if (rc != 0) return rc;

  // Quiesce the pool before dumping: ParallelFor returns once every
  // iteration is claimed, but leftover helper tasks may still be queued
  // (they run, find no work, exit). Wait for executed == submitted so
  // the pool.* counters in the dump describe a settled engine.
  if (smoqe::ThreadPool* pool = engine.pool()) {
    for (int spin = 0; spin < 10000; ++spin) {
      const smoqe::ThreadPool::Stats st = pool->stats();
      if (st.executed == st.submitted) break;
      std::this_thread::yield();
    }
  }

  namespace tel = smoqe::telemetry;
  if (format == "json") {
    std::fputs(engine.DumpMetrics(tel::DumpFormat::kJson).c_str(), stdout);
  } else if (format == "prom") {
    std::fputs(engine.DumpMetrics(tel::DumpFormat::kPrometheus).c_str(),
               stdout);
  } else if (format == "traces") {
    for (const auto& trace : engine.telemetry()->traces().Recent(16)) {
      std::fputs(tel::TraceRecorder::RenderText(*trace).c_str(), stdout);
      std::fputs("\n", stdout);
    }
  } else if (format == "audit") {
    std::fputs("[\n", stdout);
    const auto records = engine.telemetry()->audit().Query();
    for (size_t i = 0; i < records.size(); ++i) {
      std::fprintf(stdout, "  %s%s\n",
                   tel::AuditLog::RenderJson(records[i]).c_str(),
                   i + 1 < records.size() ? "," : "");
    }
    std::fputs("]\n", stdout);
  } else if (format == "slow") {
    std::fputs(engine.DumpSlowQueries().c_str(), stdout);
  } else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 2;
  }
  return 0;
}
