// Experiment E14 (DESIGN.md §8.6): telemetry overhead on the facade hot
// path.
//
// The subsystem's budget is <2% on the repeated-query path — the
// plan-cache-hit Query() where per-call work is smallest and the relative
// cost of instrumentation largest. Configs:
//
//   * telemetry_on   — EngineOptions default: counters + histograms +
//                      trace spans + audit records on every call;
//   * telemetry_off  — telemetry.enabled = false: the facade runs the
//                      *Impl bodies with a null trace and no registry;
//   * metrics_only   — tracing sampled out (trace_sample_every huge), so
//                      the span/audit share of the overhead is visible.
//
// Rows merge into BENCH_eval.json as engine="facade_query" with the
// config naming the telemetry state; the on/off ns_per_node ratio is the
// recorded overhead. The google-benchmark section gives the interactive
// view of the same comparison.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/smoqe.h"

namespace smoqe {
namespace {

using bench::Corpus;

// The E10 hot-path query: recursion + predicate, cache-hit after the
// first call, DOM mode.
constexpr char kHotQuery[] =
    "//patient[visit/treatment/medication = 'autism']/pname";

std::unique_ptr<core::Smoqe> MakeEngine(size_t size, bool telemetry_on,
                                        uint64_t trace_sample_every = 1) {
  core::EngineOptions o;
  o.max_threads = 1;  // serial: measure instrumentation, not the pool
  o.telemetry.enabled = telemetry_on;
  o.telemetry.trace_sample_every = trace_sample_every;
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

void FacadeQuery(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const bool telemetry_on = state.range(1) != 0;
  auto engine = MakeEngine(size, telemetry_on);
  for (auto _ : state) {
    auto r = engine->Query("ward", kHotQuery, {});
    Corpus::Check(r.ok(), "query");
    benchmark::DoNotOptimize(*r);
  }
  state.SetLabel(telemetry_on ? "telemetry_on" : "telemetry_off");
}

void RegisterAll() {
  for (long size : {10000, 100000}) {
    for (long on : {1, 0}) {
      benchmark::RegisterBenchmark("FacadeQuery", &FacadeQuery)
          ->Args({size, on})
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace

// E14 trajectory: facade_query rows, one per telemetry config, with the
// measured per-call latency percentiles. The configs are timed in
// interleaved rounds (bench::InterleavedAB): the recorded result is an
// on/off ratio, and the interleaved estimate agrees with the
// google-benchmark section at <1%.
void WriteTelemetryTrajectory(const char* path) {
  bench::JsonReport report;
  for (size_t size : bench::TrajectorySizes()) {
    const uint64_t nodes = Corpus::Get().Hospital(size).num_nodes();
    struct Config {
      const char* name;
      bool enabled;
      uint64_t sample_every;
    };
    constexpr int kConfigs = 3;
    const Config configs[kConfigs] = {
        {"telemetry_on", true, 1},
        {"telemetry_off", false, 1},
        {"metrics_only", true, 1u << 30},  // spans sampled out
    };

    std::unique_ptr<core::Smoqe> engines[kConfigs];
    uint64_t answers = 0;
    for (int c = 0; c < kConfigs; ++c) {
      engines[c] = MakeEngine(size, configs[c].enabled,
                              configs[c].sample_every);
      // Warm the plan cache so every measured call is the hot path.
      auto r = engines[c]->Query("ward", kHotQuery, {});
      Corpus::Check(r.ok(), "warm query");
      answers = r->stats.answers;
    }

    int rounds = 0;
    const std::vector<bench::ABResult> ab = bench::InterleavedAB(
        kConfigs,
        [&](size_t c) {
          auto r = engines[c]->Query("ward", kHotQuery, {});
          Corpus::Check(r.ok(), "query");
        },
        &rounds);

    for (int c = 0; c < kConfigs; ++c) {
      bench::TrajectoryRow row;
      row.engine = "facade_query";
      row.workload = "hospital";
      row.query = "hot-pred";
      row.config = configs[c].name;
      row.answers = answers;
      ab[c].FillRow(nodes, &row);
      report.Add(std::move(row));
    }
    std::fprintf(stderr,
                 "telemetry size=%zu: on %.1f us, off %.1f us "
                 "(overhead %.2f%%, %d rounds)\n",
                 size, ab[0].best_ns / 1e3, ab[1].best_ns / 1e3,
                 (ab[0].best_ns / ab[1].best_ns - 1.0) * 100.0, rounds);
  }
  if (!report.WriteFileMerged(path, {"facade_query"})) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "merged %zu telemetry trajectory rows into %s\n",
                 report.size(), path);
  }
}

}  // namespace smoqe

// Custom main: after the google-benchmark run, record the E14 overhead
// rows into the shared trajectory file.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteTelemetryTrajectory("BENCH_eval.json");
  }
  return 0;
}
