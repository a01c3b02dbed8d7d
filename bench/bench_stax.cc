// Experiment E5 (DESIGN.md §4): DOM mode vs StAX mode.
//
// Paper claim: "the StAX mode allows to process larger documents
// efficiently", needing one sequential scan and no tree. Rows: mode ×
// document size; DOM rows include the parse (a fair end-to-end comparison
// from raw text), and memory counters show tree bytes vs peak answer
// buffer bytes.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/eval/hype_dom.h"
#include "src/eval/hype_stax.h"
#include "src/xml/parser.h"

namespace smoqe {
namespace {

using bench::Corpus;

constexpr char kQuery[] =
    "//patient[visit/treatment/medication = 'autism']/visit/date";

void DomFromText(benchmark::State& state) {
  const std::string& text =
      Corpus::Get().HospitalText(static_cast<size_t>(state.range(0)));
  const automata::Mfa& mfa = Corpus::Get().Mfa(kQuery);
  size_t tree_bytes = 0;
  for (auto _ : state) {
    xml::ParseOptions opts;
    opts.names = Corpus::Get().names();
    auto doc = xml::ParseDocument(text, opts);
    Corpus::Check(doc.ok(), "parse");
    tree_bytes = doc->memory_bytes();
    auto r = eval::EvalHypeDom(mfa, *doc);
    Corpus::Check(r.ok(), "eval");
    benchmark::DoNotOptimize(r->answers);
  }
  state.counters["doc_bytes"] = static_cast<double>(text.size());
  state.counters["engine_mem_bytes"] = static_cast<double>(tree_bytes);
}

void DomPreparsed(benchmark::State& state) {
  const xml::Document& doc =
      Corpus::Get().Hospital(static_cast<size_t>(state.range(0)));
  const automata::Mfa& mfa = Corpus::Get().Mfa(kQuery);
  for (auto _ : state) {
    auto r = eval::EvalHypeDom(mfa, doc);
    Corpus::Check(r.ok(), "eval");
    benchmark::DoNotOptimize(r->answers);
  }
  state.counters["engine_mem_bytes"] = static_cast<double>(doc.memory_bytes());
}

void Stax(benchmark::State& state) {
  const std::string& text =
      Corpus::Get().HospitalText(static_cast<size_t>(state.range(0)));
  const automata::Mfa& mfa = Corpus::Get().Mfa(kQuery);
  size_t peak = 0;
  for (auto _ : state) {
    auto r = eval::EvalHypeStax(mfa, text);
    Corpus::Check(r.ok(), "stax eval");
    peak = r->stats.buffered_bytes;
    benchmark::DoNotOptimize(r->answers);
  }
  state.counters["doc_bytes"] = static_cast<double>(text.size());
  state.counters["engine_mem_bytes"] = static_cast<double>(peak);
}

void RegisterAll() {
  for (long size : {1000, 10000, 100000, 400000}) {
    benchmark::RegisterBenchmark(
        ("E5_DOM_parse+eval/n=" + std::to_string(size)).c_str(), DomFromText)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("E5_DOM_eval_only/n=" + std::to_string(size)).c_str(), DomPreparsed)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("E5_StAX_scan/n=" + std::to_string(size)).c_str(), Stax)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

// BENCH_stax.json: StAX-mode trajectory (ns/node, nodes/sec, peak active
// pairs), config key "opt_all" as in BENCH_eval.json. Extern: called from
// main below.
void WriteStaxTrajectory(const char* path) {
  bench::JsonReport report;
  for (size_t size : bench::TrajectorySizes()) {
    const xml::Document& doc = Corpus::Get().Hospital(size);
    const std::string& text = Corpus::Get().HospitalText(size);
    const automata::Mfa& mfa = Corpus::Get().Mfa(kQuery);
    EvalStats stats;
    size_t answers = 0;
    double ns = bench::MeasureNsPerIter([&] {
      auto r = eval::EvalHypeStax(mfa, text);
      Corpus::Check(r.ok(), "stax trajectory eval");
      stats = r->stats;
      answers = r->answers.size();
    });
    bench::TrajectoryRow row;
    row.engine = "hype_stax";
    row.workload = "hospital";
    row.query = "autism-dates";
    row.config = "opt_all";
    row.nodes = doc.num_nodes();
    row.answers = answers;
    row.ns_per_node = ns / static_cast<double>(doc.num_nodes());
    row.nodes_per_sec = static_cast<double>(doc.num_nodes()) * 1e9 / ns;
    row.max_active_pairs = stats.max_active_pairs;
    row.guard_pool_entries = stats.guard_pool_entries;
    row.guard_pool_hits = stats.guard_pool_hits;
    row.run_dedup_probes = stats.run_dedup_probes;
    report.Add(std::move(row));
  }
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "wrote %zu trajectory rows to %s\n", report.size(),
                 path);
  }
}

namespace {

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace smoqe

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteStaxTrajectory("BENCH_stax.json");
  }
  return 0;
}
