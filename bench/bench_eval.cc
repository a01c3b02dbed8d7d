// Experiment E2/E3 (DESIGN.md §4): evaluator engine comparison.
//
// Paper claims reproduced: "SMOQE … outperforms popular XPath engines such
// as Xalan" (E2 — HyPE vs the per-step node-set materializing evaluator)
// and "previous systems require at least two passes of XML tree traversal"
// (E3 — HyPE vs the Arb-style three-pass baseline; pass counts are in the
// tree_passes counter).
//
// Rows: engine × query × document size. The shape to check: HyPE ≥
// competitive on every query and increasingly ahead as predicates and
// recursion get heavier; TwoPass pays its extra passes; Naive degrades
// with intermediate result sizes.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/eval/hype_dom.h"
#include "src/eval/two_pass.h"
#include "src/rxpath/naive_eval.h"

namespace smoqe {
namespace {

using bench::Corpus;

const std::vector<workload::BenchQuery>& Queries() {
  static const std::vector<workload::BenchQuery> queries =
      workload::HospitalQueries();
  return queries;
}

void HyPE(benchmark::State& state) {
  const auto& bq = Queries()[static_cast<size_t>(state.range(0))];
  const xml::Document& doc =
      Corpus::Get().Hospital(static_cast<size_t>(state.range(1)));
  const automata::Mfa& mfa = Corpus::Get().Mfa(bq.text);
  size_t answers = 0;
  for (auto _ : state) {
    auto r = eval::EvalHypeDom(mfa, doc);
    Corpus::Check(r.ok(), "hype eval");
    answers = r->answers.size();
    benchmark::DoNotOptimize(r->answers);
  }
  state.SetLabel(std::string(bq.id) + "/" + bq.selectivity);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
  state.counters["tree_passes"] = 1;
}

void Naive(benchmark::State& state) {
  const auto& bq = Queries()[static_cast<size_t>(state.range(0))];
  const xml::Document& doc =
      Corpus::Get().Hospital(static_cast<size_t>(state.range(1)));
  auto q = rxpath::ParseQuery(bq.text);
  Corpus::Check(q.ok(), "parse");
  size_t answers = 0;
  for (auto _ : state) {
    rxpath::NaiveEvaluator ev(doc);
    auto r = ev.Eval(**q);
    answers = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(std::string(bq.id) + "/" + bq.selectivity);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
}

void TwoPass(benchmark::State& state) {
  const auto& bq = Queries()[static_cast<size_t>(state.range(0))];
  const xml::Document& doc =
      Corpus::Get().Hospital(static_cast<size_t>(state.range(1)));
  const automata::Mfa& mfa = Corpus::Get().Mfa(bq.text);
  size_t answers = 0;
  for (auto _ : state) {
    auto r = eval::EvalTwoPass(mfa, doc);
    Corpus::Check(r.ok(), "two-pass eval");
    answers = r->answers.size();
    benchmark::DoNotOptimize(r->answers);
  }
  state.SetLabel(std::string(bq.id) + "/" + bq.selectivity);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
  state.counters["tree_passes"] = 3;
}

// ---------------------------------------------------------------------
// BENCH_eval.json — the recorded perf trajectory (ns/node, nodes/sec,
// peak active pairs) per workload × size. The engine has one hot path;
// rows keep the "opt_all" config key of the retired E10 sweep. Its
// no_dispatch / no_interning / no_hashdedup / opt_none rows live in the
// git history of BENCH_eval.json (a re-run replaces every hype_dom row).
// ---------------------------------------------------------------------

void SweepDom(const char* workload, const xml::Document& doc,
              const workload::BenchQuery& bq, bench::JsonReport* report) {
  const automata::Mfa& mfa = Corpus::Get().Mfa(bq.text);
  EvalStats stats;
  size_t answers = 0;
  double ns = bench::MeasureNsPerIter([&] {
    auto r = eval::EvalHypeDom(mfa, doc);
    Corpus::Check(r.ok(), "trajectory eval");
    stats = r->stats;
    answers = r->answers.size();
  });
  bench::TrajectoryRow row;
  row.engine = "hype_dom";
  row.workload = workload;
  row.query = bq.id;
  row.config = "opt_all";
  row.nodes = doc.num_nodes();
  row.answers = answers;
  row.ns_per_node = ns / static_cast<double>(doc.num_nodes());
  row.nodes_per_sec = static_cast<double>(doc.num_nodes()) * 1e9 / ns;
  row.max_active_pairs = stats.max_active_pairs;
  row.guard_pool_entries = stats.guard_pool_entries;
  row.guard_pool_hits = stats.guard_pool_hits;
  row.run_dedup_probes = stats.run_dedup_probes;
  report->Add(std::move(row));
}

}  // namespace

// Extern (not in the anonymous namespace): called from main below.
void WriteTrajectory(const char* path) {
  bench::JsonReport report;
  for (size_t size : bench::TrajectorySizes()) {
    const xml::Document& hospital = Corpus::Get().Hospital(size);
    const xml::Document& deep = Corpus::Get().HospitalDeep(size);
    for (const auto& bq : Queries()) {
      // The recursive-predicate query (Q0) and the mid-selectivity text
      // predicate cover the guard-heavy and scan-heavy regimes without
      // blowing up sweep time. The descendant-predicate queries run over
      // the deep-genealogy document, where every nested patient's
      // instance shares its ancestors' obligation runs: their
      // max_active_pairs must stay flat as the document grows (CI's bench
      // smoke fails a desc-* row above 8).
      std::string id(bq.id);
      if (id == "Q0" || id == "pred-text") {
        SweepDom("hospital", hospital, bq, &report);
      } else if (id == "desc-pred" || id == "desc-neg") {
        SweepDom("hospital", deep, bq, &report);
      }
    }
    const xml::Document& org = Corpus::Get().Org(size);
    for (const auto& bq : workload::OrgQueries()) {
      if (std::string(bq.id) != "div-chain" &&
          std::string(bq.id) != "pred-salary") {
        continue;
      }
      SweepDom("org", org, bq, &report);
    }
  }
  // Merged write: bench_batch's hype_stax_batch/seq rows in the same file
  // survive a bench_eval re-run (and vice versa).
  if (!report.WriteFileMerged(path, {"hype_dom"})) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "wrote %zu trajectory rows to %s\n", report.size(),
                 path);
  }
}

namespace {

void RegisterAll() {
  const auto& queries = Queries();
  for (size_t q = 0; q < queries.size(); ++q) {
    for (long size : {1000, 10000, 100000}) {
      benchmark::RegisterBenchmark(
          (std::string("E2_HyPE/") + queries[q].id + "/n=" +
           std::to_string(size))
              .c_str(),
          HyPE)
          ->Args({static_cast<long>(q), size})
          ->Unit(benchmark::kMicrosecond);
      benchmark::RegisterBenchmark(
          (std::string("E2_Naive/") + queries[q].id + "/n=" +
           std::to_string(size))
              .c_str(),
          Naive)
          ->Args({static_cast<long>(q), size})
          ->Unit(benchmark::kMicrosecond);
      // The three-pass baseline is O(nodes × automaton) per pass with big
      // constants; cap its size so the suite stays fast.
      if (size <= 10000) {
        benchmark::RegisterBenchmark(
            (std::string("E3_TwoPass/") + queries[q].id + "/n=" +
             std::to_string(size))
                .c_str(),
            TwoPass)
            ->Args({static_cast<long>(q), size})
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace smoqe

// Custom main (not benchmark_main): after the google-benchmark run, sweep
// record BENCH_eval.json.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteTrajectory("BENCH_eval.json");
  }
  return 0;
}
