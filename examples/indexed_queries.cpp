// TAX — the type-aware XML index (paper §3, Indexer): build it over a
// generated org chart, dump its content (cf. Fig. 6), persist the
// compressed form to disk, reload it, and compare query evaluation with
// the indexer on vs off (subtree pruning statistics).
//
// Run:   ./build/indexed_queries [target_nodes]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/automata/mfa.h"
#include "src/eval/hype_dom.h"
#include "src/index/tax_io.h"
#include "src/rxpath/parser.h"
#include "src/workload/workloads.h"

namespace {

double Ms(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  size_t target = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

  auto names = smoqe::xml::NameTable::Create();
  auto doc = smoqe::workload::GenOrg(7, target, names);
  if (!doc.ok()) {
    std::printf("generation failed: %s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::printf("org document: %d nodes\n", doc->num_nodes());

  // Build, dump, persist, reload.
  auto t0 = std::chrono::steady_clock::now();
  smoqe::index::TaxIndex tax = smoqe::index::TaxIndex::Build(*doc);
  auto t1 = std::chrono::steady_clock::now();
  std::string encoded = smoqe::index::TaxIo::Encode(tax);
  std::printf("TAX: built in %.1f ms; raw %zu bytes, compressed %zu bytes "
              "(%.1fx)\n",
              Ms(t0, t1), tax.memory_bytes(), encoded.size(),
              static_cast<double>(tax.memory_bytes()) /
                  static_cast<double>(encoded.size()));
  std::printf("\n== index content, first levels (cf. Fig. 6) ==\n%s\n",
              tax.Dump(*doc, 12).c_str());

  const std::string path = "/tmp/smoqe_example_tax.idx";
  if (!smoqe::index::TaxIo::Save(tax, path).ok()) return 1;
  auto loaded = smoqe::index::TaxIo::Load(path, doc->names()->size());
  if (!loaded.ok()) return 1;
  std::printf("persisted and reloaded from %s\n\n", path.c_str());

  // Indexer off vs on, over the workload queries.
  std::printf("%-14s %10s %10s %12s %12s  answers\n", "query", "off(ms)",
              "on(ms)", "visited-off", "visited-on");
  for (const auto& bq : smoqe::workload::OrgQueries()) {
    auto q = smoqe::rxpath::ParseQuery(bq.text);
    auto mfa = smoqe::automata::Mfa::Compile(**q, names);

    auto t2 = std::chrono::steady_clock::now();
    auto off = smoqe::eval::EvalHypeDom(*mfa, *doc);
    auto t3 = std::chrono::steady_clock::now();

    smoqe::eval::DomEvalOptions with;
    with.tax = &*loaded;
    auto t4 = std::chrono::steady_clock::now();
    auto on = smoqe::eval::EvalHypeDom(*mfa, *doc, with);
    auto t5 = std::chrono::steady_clock::now();

    if (!off.ok() || !on.ok() ||
        off->answers.size() != on->answers.size()) {
      std::printf("%-14s MISMATCH — this is a bug\n", bq.id);
      return 1;
    }
    std::printf("%-14s %10.2f %10.2f %12llu %12llu  %zu\n", bq.id, Ms(t2, t3),
                Ms(t4, t5),
                static_cast<unsigned long long>(off->stats.nodes_visited),
                static_cast<unsigned long long>(on->stats.nodes_visited),
                on->answers.size());
  }
  std::printf("\n(the indexer prunes subtrees that cannot contain the "
              "types a query still needs)\n");
  return 0;
}
