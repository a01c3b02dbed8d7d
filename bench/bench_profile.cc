// Experiment E17 (DESIGN.md §11): PROFILE surface overhead on the facade
// hot path.
//
// PR 9 threads per-request observability (RequestOptions, trace adoption,
// profile assembly, slow-query capture) through Query(); the budget is
// <2% on the plan-cache-hit path for a request that does NOT ask for a
// profile — observability must be free when not in use. Configs:
//
//   * profile_off   — default RequestOptions: the post-PR hot path every
//                     normal request takes (the ≤2% claim is this config
//                     against the pre-PR facade, which E14's telemetry_on
//                     rows pin);
//   * profile_on    — RequestOptions.profile = true: forced trace, stage
//                     assembly, EvalStats copy, profile attached to the
//                     answer — the price a caller opts into;
//   * slow_log_all  — slow_query_threshold_ms = 0: every call assembles a
//                     profile and appends to the bounded ring, the
//                     worst-case capture regime.
//
// Rows merge into BENCH_eval.json as engine="profile_query" with the
// config naming the observability state. Configs are measured in
// interleaved rounds (bench::InterleavedAB: the result is a ratio, and
// sequential windows on a shared container showed ~7% fake drift that
// round-robin windows do not).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/smoqe.h"

namespace smoqe {
namespace {

using bench::Corpus;

// The E10/E14 hot-path query: recursion + predicate, cache-hit after the
// first call, DOM mode.
constexpr char kHotQuery[] =
    "//patient[visit/treatment/medication = 'autism']/pname";

std::unique_ptr<core::Smoqe> MakeEngine(size_t size,
                                        uint64_t slow_threshold_ms) {
  core::EngineOptions o;
  o.max_threads = 1;  // serial: measure instrumentation, not the pool
  o.slow_query_threshold_ms = slow_threshold_ms;
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

void ProfileQuery(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const bool profile = state.range(1) != 0;
  auto engine = MakeEngine(size, /*slow_threshold_ms=*/50);
  core::RequestOptions req;
  req.profile = profile;
  for (auto _ : state) {
    auto r = engine->Query("ward", kHotQuery, {}, req);
    Corpus::Check(r.ok(), "query");
    if (profile) Corpus::Check(r->profile != nullptr, "profile attached");
    benchmark::DoNotOptimize(*r);
  }
  state.SetLabel(profile ? "profile_on" : "profile_off");
}

void RegisterAll() {
  for (long size : {10000, 100000}) {
    for (long on : {0, 1}) {
      benchmark::RegisterBenchmark("ProfileQuery", &ProfileQuery)
          ->Args({size, on})
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace

// E17 trajectory: profile_query rows, one per observability config.
void WriteProfileTrajectory(const char* path) {
  bench::JsonReport report;
  for (size_t size : bench::TrajectorySizes()) {
    const uint64_t nodes = Corpus::Get().Hospital(size).num_nodes();
    struct Config {
      const char* name;
      bool profile;
      uint64_t slow_threshold_ms;  // 0 = capture every call
    };
    constexpr int kConfigs = 3;
    const Config configs[kConfigs] = {
        {"profile_off", false, 50},
        {"profile_on", true, 50},
        {"slow_log_all", false, 0},
    };

    std::unique_ptr<core::Smoqe> engines[kConfigs];
    core::RequestOptions reqs[kConfigs];
    uint64_t answers = 0;
    for (int c = 0; c < kConfigs; ++c) {
      engines[c] = MakeEngine(size, configs[c].slow_threshold_ms);
      reqs[c].profile = configs[c].profile;
      // Warm the plan cache so every measured call is the hot path.
      auto r = engines[c]->Query("ward", kHotQuery, {});
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
      row.engine = "profile_query";
      row.workload = "hospital";
      row.query = "hot-pred";
      row.config = configs[c].name;
      row.answers = answers;
      ab[c].FillRow(nodes, &row);
      report.Add(std::move(row));
    }
    std::fprintf(stderr,
                 "profile size=%zu: off %.1f us, on %.1f us, slow-all "
                 "%.1f us (profile overhead %.2f%%, slow-log overhead "
                 "%.2f%%, %d rounds)\n",
                 size, ab[0].best_ns / 1e3, ab[1].best_ns / 1e3,
                 ab[2].best_ns / 1e3,
                 (ab[1].best_ns / ab[0].best_ns - 1.0) * 100.0,
                 (ab[2].best_ns / ab[0].best_ns - 1.0) * 100.0, rounds);
  }
  if (!report.WriteFileMerged(path, {"profile_query"})) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "merged %zu profile trajectory rows into %s\n",
                 report.size(), path);
  }
}

}  // namespace smoqe

// Custom main: after the google-benchmark run, record the E17 overhead
// rows into the shared trajectory file.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteProfileTrajectory("BENCH_eval.json");
  }
  return 0;
}
