// Experiment E7 (DESIGN.md §4): TAX index lifecycle.
//
// Paper claim: "the SMOQE indexer constructs the TAX index, compresses it
// before it is stored in disk, and uploads it from disk when needed."
// Rows: build time, encode (compress) time + ratio, decode (load) time,
// per document size. `raw_bytes` is the sets stored one bitset per id,
// the form the encoding compresses; `memory_bytes` is the interned
// in-memory index (DESIGN.md §6.4), about 4 bytes per id.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/index/tax_io.h"

namespace smoqe {
namespace {

using bench::Corpus;

void Build(benchmark::State& state) {
  const xml::Document& doc =
      Corpus::Get().Hospital(static_cast<size_t>(state.range(0)));
  size_t memory = 0;
  for (auto _ : state) {
    index::TaxIndex idx = index::TaxIndex::Build(doc);
    memory = idx.memory_bytes();
    benchmark::DoNotOptimize(idx);
  }
  state.counters["nodes"] = static_cast<double>(doc.num_nodes());
  state.counters["memory_bytes"] = static_cast<double>(memory);
}

void Encode(benchmark::State& state) {
  const xml::Document& doc =
      Corpus::Get().Hospital(static_cast<size_t>(state.range(0)));
  index::TaxIndex idx = index::TaxIndex::Build(doc);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string encoded = index::TaxIo::Encode(idx);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  const double raw = static_cast<double>(doc.num_nodes()) *
                     static_cast<double>((idx.type_width() + 63) / 64 * 8);
  state.counters["raw_bytes"] = raw;
  state.counters["memory_bytes"] = static_cast<double>(idx.memory_bytes());
  state.counters["compressed_bytes"] = static_cast<double>(bytes);
  state.counters["ratio"] = raw / static_cast<double>(bytes);
}

void Decode(benchmark::State& state) {
  const xml::Document& doc =
      Corpus::Get().Hospital(static_cast<size_t>(state.range(0)));
  index::TaxIndex idx = index::TaxIndex::Build(doc);
  std::string encoded = index::TaxIo::Encode(idx);
  for (auto _ : state) {
    auto back = index::TaxIo::Decode(encoded, idx.type_width());
    Corpus::Check(back.ok(), "decode");
    benchmark::DoNotOptimize(back);
  }
  state.counters["compressed_bytes"] = static_cast<double>(encoded.size());
}

void RegisterAll() {
  for (long size : {1000, 10000, 100000, 400000}) {
    benchmark::RegisterBenchmark(
        ("E7_build/n=" + std::to_string(size)).c_str(), Build)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("E7_compress/n=" + std::to_string(size)).c_str(), Encode)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("E7_load/n=" + std::to_string(size)).c_str(), Decode)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace smoqe
