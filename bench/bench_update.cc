// Experiment E12 (DESIGN.md §4, §6): cost of keeping derived state fresh
// under writes.
//
//  * Maintenance: one insert+delete edit pair against a TAX-indexed
//    document — incremental ancestor-chain repair vs full TaxIndex::Build
//    per update. The repair touches O(depth · fanout) sets where the
//    rebuild touches all of them, so the gap widens with document size.
//  * Service mix: an authorized view update riding with a plan-cached
//    read burst (15 reads : 1 write) through the Smoqe facade — the
//    read/write regime the epoch-invalidation design targets.
//
// Trajectory rows merge into BENCH_eval.json under the engines
// "update_incr", "update_rebuild" and "update_rwmix". Field mapping for
// the update rows (the row schema is read-oriented): `answers` = nodes
// inserted+deleted per op, `max_active_pairs` = TAX sets recomputed per
// op, `ns_per_node`/`nodes_per_sec` = per-op time normalized by document
// size / ops per second × document size as usual.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/core/smoqe.h"
#include "src/index/tax.h"
#include "src/update/applier.h"
#include "src/update/update_lang.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace smoqe {
namespace {

using bench::Corpus;

constexpr char kVisitFragment[] =
    "insert into x "
    "<visit><treatment><medication>bench</medication></treatment>"
    "<date>dB</date></visit>";

/// A mutable copy of the corpus hospital document at `nodes` with a built
/// TAX index (corpus documents are shared and must stay immutable).
struct MutableDoc {
  xml::Document doc;
  index::TaxIndex tax;
  xml::Node* target;  // one mid-document patient the edit pair hits

  explicit MutableDoc(size_t nodes)
      : doc([&] {
          xml::ParseOptions opts;
          opts.names = Corpus::Get().names();
          auto d = xml::ParseDocument(Corpus::Get().HospitalText(nodes), opts);
          Corpus::Check(d.ok(), "bench_update parse");
          return d.MoveValue();
        }()),
        tax(index::TaxIndex::Build(doc)) {
    // Deepest patient reachable by first-child descent: repairs walk a
    // real ancestor chain, not just the root's children.
    xml::Node* deepest = nullptr;
    xml::Node* cur = doc.mutable_node(doc.root()->node_id);
    const xml::NameId patient = doc.names()->Intern("patient");
    while (cur != nullptr) {
      if (cur->label == patient) deepest = cur;
      xml::Node* next = nullptr;
      for (xml::Node* c = cur->first_child; c != nullptr;
           c = c->next_sibling) {
        if (c->is_element()) {
          next = c;
          break;
        }
      }
      cur = next;
    }
    Corpus::Check(deepest != nullptr, "bench_update target");
    target = deepest;
  }
};

/// One maintenance op: graft a visit under the target, then delete it.
/// Document size is invariant across iterations (ids/sets grow, content
/// does not). `rebuild` applies the edits without TAX and rebuilds the
/// index with a full TaxIndex::Build after each one; otherwise the
/// applier repairs it incrementally. Returns the per-op maintenance
/// counters.
update::ApplyStats EditPair(MutableDoc* m, const update::UpdateStatement& stmt,
                            bool rebuild) {
  update::ApplierOptions opts;
  opts.tax = rebuild ? nullptr : &m->tax;
  update::UpdateApplier applier(&m->doc, opts);
  auto maintain = [&] {
    if (rebuild) m->tax = index::TaxIndex::Build(m->doc);
  };
  auto ins = applier.Run({update::ResolvedEdit{update::OpKind::kInsert,
                                               m->target, &*stmt.fragment}});
  Corpus::Check(ins.ok(), "bench insert");
  maintain();
  // The grafted copy is the newest id in the document.
  xml::Node* grafted = m->doc.mutable_node(m->doc.num_nodes() - 1);
  while (grafted->parent != m->target) grafted = grafted->parent;
  auto del = applier.Run(
      {update::ResolvedEdit{update::OpKind::kDelete, grafted, nullptr}});
  Corpus::Check(del.ok(), "bench delete");
  maintain();
  update::ApplyStats stats = *ins;
  stats.nodes_deleted += del->nodes_deleted;
  stats.tax_sets_recomputed += del->tax_sets_recomputed;
  return stats;
}

const update::UpdateStatement& VisitStatement() {
  static const update::UpdateStatement* stmt = [] {
    auto s = update::ParseUpdate(kVisitFragment, Corpus::Get().names());
    Corpus::Check(s.ok(), "bench stmt parse");
    return new update::UpdateStatement(s.MoveValue());
  }();
  return *stmt;
}

void Maintain(benchmark::State& state) {
  const bool rebuild = state.range(1) != 0;
  MutableDoc m(static_cast<size_t>(state.range(0)));
  update::ApplyStats stats;
  for (auto _ : state) {
    stats = EditPair(&m, VisitStatement(), rebuild);
    benchmark::DoNotOptimize(m.tax);
  }
  state.SetLabel(rebuild ? "rebuild" : "incremental");
  state.counters["tax_sets_per_op"] =
      static_cast<double>(stats.tax_sets_recomputed);
}
BENCHMARK(Maintain)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------
// Service mix: authorized view writes inside a plan-cached read stream.
// ---------------------------------------------------------------------

constexpr char kResearchPolicy[] =
    "patient/pname : N;\n"
    "patient/visit : N;\n"
    "visit/treatment : Y;\n"
    "treatment/test : Y;\n";

std::unique_ptr<core::Smoqe> MakeEngine(size_t nodes) {
  auto engine = std::make_unique<core::Smoqe>();
  Corpus::Check(
      engine->RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok(),
      "bench dtd");
  Corpus::Check(engine->LoadDocument("ward", Corpus::Get().HospitalText(nodes))
                    .ok(),
                "bench load");
  Corpus::Check(engine->BuildIndex("ward").ok(), "bench index");
  Corpus::Check(
      engine->DefineView("research", "hospital", kResearchPolicy).ok(),
      "bench view");
  return engine;
}

/// 15 plan-cached reads (direct + view) and 1 authorized research-view
/// write. The write's target predicate re-matches its own replacement, so
/// every iteration does real work.
uint64_t MixRound(core::Smoqe* engine) {
  core::QueryOptions direct;
  core::QueryOptions research;
  research.view = "research";
  const char* direct_queries[] = {"//patient[visit/treatment/test]",
                                  "//medication", "hospital/patient/pname"};
  uint64_t answers = 0;
  for (int rep = 0; rep < 5; ++rep) {
    for (const char* q : direct_queries) {
      auto r = engine->Query("ward", q, direct);
      Corpus::Check(r.ok(), "mix read");
      answers += r->answers_xml.size();
    }
  }
  core::UpdateOptions w;
  w.view = "research";
  auto u = engine->Update("ward",
                          "replace //treatment[test] with "
                          "<treatment><test>bench</test></treatment>",
                          w);
  Corpus::Check(u.ok(), "mix write");
  answers += u->stats.edits_applied;
  return answers;
}

void ReadWriteMix(benchmark::State& state) {
  auto engine = MakeEngine(static_cast<size_t>(state.range(0)));
  uint64_t answers = 0;
  for (auto _ : state) {
    answers += MixRound(engine.get());
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["plan_hits"] =
      static_cast<double>(engine->plan_cache().stats().hits);
}
BENCHMARK(ReadWriteMix)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace

// Extern: called from main after the google-benchmark run.
void WriteUpdateTrajectory(const char* path) {
  bench::JsonReport report;
  for (size_t size : bench::TrajectorySizes()) {
    // Maintenance rows: incremental vs rebuild. Retired ids are never
    // reused, so the id space grows as iterations accumulate; the row
    // records the *initial* node count, and the min-of-iters estimator
    // naturally reads from early (least-grown) iterations.
    for (bool rebuild : {false, true}) {
      MutableDoc m(size);
      const uint64_t nodes0 = static_cast<uint64_t>(m.doc.num_nodes());
      update::ApplyStats stats;
      double ns = bench::MeasureMinNsPerIter([&] {
        stats = EditPair(&m, VisitStatement(), rebuild);
      });
      ns /= 2;  // EditPair applies two updates
      bench::TrajectoryRow row;
      row.engine = rebuild ? "update_rebuild" : "update_incr";
      row.workload = "hospital";
      row.query = "visit-ins-del";
      row.config = rebuild ? "rebuild" : "incremental";
      row.nodes = nodes0;
      row.answers = stats.nodes_inserted + stats.nodes_deleted;
      row.ns_per_node = ns / static_cast<double>(nodes0);
      row.nodes_per_sec = static_cast<double>(nodes0) * 1e9 / ns;
      row.max_active_pairs = stats.tax_sets_recomputed / 2;
      report.Add(std::move(row));
    }
    // Read/write service mix through the facade.
    {
      auto engine = MakeEngine(size);
      double ns = bench::MeasureMinNsPerIter([&] { MixRound(engine.get()); });
      bench::TrajectoryRow row;
      row.engine = "update_rwmix";
      row.workload = "hospital";
      row.query = "15r1w";
      row.config = "authorized";
      row.nodes = size;
      row.answers = 16;  // ops per round
      row.ns_per_node = ns / static_cast<double>(size);
      row.nodes_per_sec = static_cast<double>(size) * 1e9 / ns;
      report.Add(std::move(row));
    }
  }
  if (!report.WriteFileMerged(path, {"update_incr", "update_rebuild",
                                     "update_rwmix"})) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "wrote %zu update trajectory rows to %s\n",
                 report.size(), path);
  }
}

}  // namespace smoqe

int main(int argc, char** argv) {
  smoqe::bench::RequireReleaseBuild();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteUpdateTrajectory("BENCH_eval.json");
  }
  return 0;
}
