// Experiment E15 (DESIGN.md §9.5): guardrail overhead and deadline
// precision on the facade hot path.
//
// The guardrail budget is <2% on the repeated-query path — the
// plan-cache-hit Query() where per-call work is smallest and the
// relative cost of the deadline clock reads and budget flushes is
// largest. Configs:
//
//   * guard_off — no RequestOptions: MakeGuard returns null and the
//                 evaluators run their null-ticker fast path;
//   * guard_on  — a deadline and a memory budget that never trip (60s /
//                 1 GiB), so every amortized check runs and the arena /
//                 run-expansion charges flow into the budget.
//
// Both rows merge into BENCH_eval.json as engine="guard_query" (its own
// key, so E14's facade_query rows survive an E15 run and vice versa),
// measured in interleaved rounds (bench::InterleavedAB): the recorded
// result is an on/off ratio, and sequential windows turn clock drift
// into fake overhead.
//
// A third row records deadline *precision*: a governed batch whose
// ungoverned runtime is calibrated to several times the 50ms deadline;
// p50/p99_ns hold the measured overshoot past the deadline (detection
// latency), which DESIGN.md §9 bounds at the +20ms slack.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/smoqe.h"
#include "src/telemetry/metrics.h"

namespace smoqe {
namespace {

using bench::Corpus;
using Clock = std::chrono::steady_clock;

constexpr char kHotQuery[] =
    "//patient[visit/treatment/medication = 'autism']/pname";

core::RequestOptions NeverTrips() {
  core::RequestOptions req;
  req.deadline_ms = 60'000;
  req.max_memory_bytes = 1ull << 30;
  return req;
}

std::unique_ptr<core::Smoqe> MakeEngine(size_t size) {
  core::EngineOptions o;
  o.max_threads = 1;  // serial: measure the guard, not the pool
  auto engine = std::make_unique<core::Smoqe>(o);
  Corpus::Check(
      engine->RegisterDtd("hospital", workload::kHospitalDtd, "hospital")
          .ok(),
      "dtd");
  Corpus::Check(
      engine->LoadDocument("ward", Corpus::Get().HospitalText(size)).ok(),
      "doc");
  return engine;
}

void FacadeQueryGuard(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const bool guarded = state.range(1) != 0;
  auto engine = MakeEngine(size);
  const core::RequestOptions req = NeverTrips();
  for (auto _ : state) {
    auto r = guarded ? engine->Query("ward", kHotQuery, {}, req)
                     : engine->Query("ward", kHotQuery, {});
    Corpus::Check(r.ok(), "query");
    benchmark::DoNotOptimize(*r);
  }
  state.SetLabel(guarded ? "guard_on" : "guard_off");
}

void RegisterAll() {
  for (long size : {10000, 100000}) {
    for (long guarded : {1, 0}) {
      benchmark::RegisterBenchmark("FacadeQueryGuard", &FacadeQueryGuard)
          ->Args({size, guarded})
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace

// E15 trajectory: guard_on / guard_off interleaved rounds per size, plus
// the deadline-precision row at the largest size.
void WriteGuardrailTrajectory(const char* path) {
  bench::JsonReport report;
  for (size_t size : bench::TrajectorySizes()) {
    const uint64_t nodes = Corpus::Get().Hospital(size).num_nodes();
    constexpr int kConfigs = 2;
    const char* config_names[kConfigs] = {"guard_on", "guard_off"};
    const core::RequestOptions reqs[kConfigs] = {NeverTrips(), {}};

    std::unique_ptr<core::Smoqe> engines[kConfigs];
    uint64_t answers = 0;
    for (int c = 0; c < kConfigs; ++c) {
      engines[c] = MakeEngine(size);
      auto r = engines[c]->Query("ward", kHotQuery, {});  // warm the cache
      Corpus::Check(r.ok(), "warm query");
      answers = r->stats.answers;
    }

    int rounds = 0;
    const std::vector<bench::ABResult> ab = bench::InterleavedAB(
        kConfigs,
        [&](size_t c) {
          auto r = engines[c]->Query("ward", kHotQuery, {}, reqs[c]);
          Corpus::Check(r.ok(), "query");
        },
        &rounds);

    for (int c = 0; c < kConfigs; ++c) {
      bench::TrajectoryRow row;
      row.engine = "guard_query";
      row.workload = "hospital";
      row.query = "hot-pred";
      row.config = config_names[c];
      row.answers = answers;
      ab[c].FillRow(nodes, &row);
      report.Add(std::move(row));
    }
    std::fprintf(stderr,
                 "guardrail size=%zu: on %.1f us, off %.1f us "
                 "(overhead %.2f%%, %d rounds)\n",
                 size, ab[0].best_ns / 1e3, ab[1].best_ns / 1e3,
                 (ab[0].best_ns / ab[1].best_ns - 1.0) * 100.0, rounds);
  }

  // Deadline precision: calibrate a StAX batch to several times the 50ms
  // deadline, then repeatedly measure how far past the deadline the
  // DeadlineExceeded return lands.
  {
    const size_t size = bench::TrajectorySizes().back();
    auto engine = MakeEngine(size);
    core::QueryOptions stax;
    stax.mode = core::EvalMode::kStax;
    std::vector<core::BatchQueryItem> items;
    for (int i = 0; i < 8; ++i) items.push_back({kHotQuery, stax});
    while (items.size() < 1024) {
      const auto t0 = Clock::now();
      Corpus::Check(engine->QueryBatch("ward", items).ok(), "calibrate");
      if (std::chrono::duration<double>(Clock::now() - t0).count() >= 0.25) {
        break;
      }
      const std::vector<core::BatchQueryItem> half = items;
      items.insert(items.end(), half.begin(), half.end());
    }
    constexpr uint64_t kDeadlineMs = 50;
    core::RequestOptions req;
    req.deadline_ms = kDeadlineMs;
    telemetry::Histogram overshoot;
    for (int i = 0; i < 12; ++i) {
      const auto t0 = Clock::now();
      auto r = engine->QueryBatch("ward", items, req);
      const double elapsed_ns =
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e9;
      Corpus::Check(!r.ok() && r.status().code() ==
                                   StatusCode::kDeadlineExceeded,
                    "deadline must trip");
      const double over = elapsed_ns - static_cast<double>(kDeadlineMs) * 1e6;
      overshoot.Record(over > 0 ? static_cast<uint64_t>(over) : 0);
    }
    bench::TrajectoryRow row;
    row.engine = "guard_query";
    row.workload = "hospital";
    row.query = "hot-pred";
    row.config = "deadline_precision_50ms";
    row.nodes = Corpus::Get().Hospital(size).num_nodes();
    row.answers = 0;  // the call is cut off — by design it returns none
    row.p50_ns = overshoot.Quantile(0.5);
    row.p99_ns = overshoot.Quantile(0.99);
    std::fprintf(stderr,
                 "deadline precision (%zu-item batch): overshoot p50 %.2fms "
                 "p99 %.2fms past the 50ms deadline\n",
                 items.size(), row.p50_ns / 1e6, row.p99_ns / 1e6);
    report.Add(std::move(row));
  }

  if (!report.WriteFileMerged(path, {"guard_query"})) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "merged %zu guardrail trajectory rows into %s\n",
                 report.size(), path);
  }
}

}  // namespace smoqe

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteGuardrailTrajectory("BENCH_eval.json");
  }
  return 0;
}
