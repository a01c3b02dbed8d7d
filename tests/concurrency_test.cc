// Concurrency differential suite (docs/DESIGN.md §7): parallel execution
// must be *invisible* except in wall-clock —
//
//  * N threads of Query / QueryBatch against one document produce answers
//    byte-identical to sequential evaluation;
//  * the parallel StAX batch driver (RunParallel) is byte-identical to
//    the serial shared scan, chunk boundaries included;
//  * readers racing an updater each see one consistent epoch: every
//    answer matches the sequential reference answers *of the epoch the
//    reader reports* — a torn snapshot would mismatch every reference;
//  * the plan cache under concurrent compiles of one key converges every
//    caller on a single shared plan, with nothing leaked or replaced.
//
// The engine is built with max_threads = 4 even on small CI hosts so the
// pool paths run regardless of core count; under the TSan CI job this
// suite is the main race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/mfa.h"
#include "src/core/smoqe.h"
#include "src/eval/batch.h"
#include "src/rxpath/parser.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "src/xml/stax.h"
#include "tests/test_util.h"

namespace smoqe::core {
namespace {

using testutil::kHospitalDoc;

EngineOptions ParallelOptions() {
  EngineOptions o;
  o.max_threads = 4;
  return o;
}

/// The facade's StAX chunk grain: BatchParallelOptions' default.
const size_t kChunkEvents = eval::BatchParallelOptions().chunk_events;

/// Events the StAX batch drivers see in a loaded document (start tags,
/// end tags and non-whitespace text), so a test can assert that its
/// scans span several chunks.
size_t StaxEventCount(const Smoqe& engine, const std::string& doc_name) {
  auto text = engine.DocumentXml(doc_name);
  if (!text.ok()) return 0;
  xml::StaxReader reader(*text);
  size_t events = 0;
  for (;;) {
    auto ev = reader.Next();
    if (!ev.ok() || *ev == xml::StaxEvent::kEndDocument) return events;
    if (*ev != xml::StaxEvent::kStartDocument) ++events;
  }
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Smoqe>(ParallelOptions());
    ASSERT_TRUE(
        engine_->RegisterDtd("hospital", testutil::kHospitalDtd, "hospital")
            .ok());
    ASSERT_TRUE(engine_->LoadDocument("ward", kHospitalDoc).ok());
    ASSERT_TRUE(engine_
                    ->DefineView("autism-group", "hospital",
                                 workload::kHospitalPolicyAutism)
                    .ok());
    ASSERT_TRUE(engine_
                    ->DefineView("research-group", "hospital",
                                 workload::kHospitalPolicyResearch)
                    .ok());
    // A bigger generated document so scans outlast a few context switches
    // and the parallel StAX batch runs several fork/join chunks.
    ASSERT_TRUE(
        engine_->GenerateDocument("gen", "hospital", /*seed=*/7, 16000).ok());
    ASSERT_GE(StaxEventCount(*engine_, "gen"), 3 * kChunkEvents);
  }

  std::unique_ptr<Smoqe> engine_;
};

std::vector<BatchQueryItem> ServiceMix() {
  std::vector<BatchQueryItem> items;
  auto add = [&](const char* q, const char* view, EvalMode mode) {
    BatchQueryItem it;
    it.query = q;
    it.options.view = view;
    it.options.mode = mode;
    items.push_back(std::move(it));
  };
  add("hospital/patient/pname", "", EvalMode::kDom);
  add("//medication", "", EvalMode::kStax);
  add("//patient[visit/treatment/medication = 'autism']/pname", "",
      EvalMode::kStax);
  add("hospital/patient/treatment/medication", "autism-group", EvalMode::kDom);
  add("//treatment", "research-group", EvalMode::kStax);
  add("//visit/date", "", EvalMode::kStax);
  add("//patient[not(visit/treatment/test)]/pname", "", EvalMode::kDom);
  add("//pname | //date", "", EvalMode::kStax);
  return items;
}

TEST_F(ConcurrencyTest, ThreadedQueriesMatchSequential) {
  const std::vector<BatchQueryItem> mix = ServiceMix();
  // Sequential reference, per item.
  std::vector<std::vector<std::string>> expected;
  for (const BatchQueryItem& it : mix) {
    auto r = engine_->Query("gen", it.query, it.options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(r->answers_xml);
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t q = static_cast<size_t>(t + i) % mix.size();
        auto r = engine_->Query("gen", mix[q].query, mix[q].options);
        if (!r.ok() || r->answers_xml != expected[q]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, ParallelQueryBatchMatchesPerItemQueries) {
  const std::vector<BatchQueryItem> mix = ServiceMix();
  auto batch = engine_->QueryBatch("gen", mix);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    auto single = engine_->Query("gen", mix[i].query, mix[i].options);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i].answers_xml, single->answers_xml) << "item " << i;
    EXPECT_EQ((*batch)[i].doc_epoch, single->doc_epoch);
  }
}

TEST_F(ConcurrencyTest, ConcurrentQueryBatchesMatchSequential) {
  const std::vector<BatchQueryItem> mix = ServiceMix();
  auto reference = engine_->QueryBatch("gen", mix);
  ASSERT_TRUE(reference.ok());

  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        auto r = engine_->QueryBatch("gen", mix);
        if (!r.ok() || r->size() != reference->size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t k = 0; k < r->size(); ++k) {
          if ((*r)[k].answers_xml != (*reference)[k].answers_xml) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, QueryBatchMultiMatchesPerDocQueries) {
  std::vector<DocBatchItem> items;
  for (const BatchQueryItem& it : ServiceMix()) {
    items.push_back(DocBatchItem{"gen", it.query, it.options});
    items.push_back(DocBatchItem{"ward", it.query, it.options});
  }
  auto multi = engine_->QueryBatchMulti(items);
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  ASSERT_EQ(multi->size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto single = engine_->Query(items[i].doc, items[i].query,
                                 items[i].options);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*multi)[i].answers_xml, single->answers_xml) << "item " << i;
  }

  // Single document: QueryBatch is QueryBatchMulti over one document, so
  // both agree item by item — failing items included — and move the
  // batch/query/audit counters by the same amounts.
  std::vector<BatchQueryItem> one_doc = ServiceMix();
  BatchQueryItem bad_parse{"a[[", {}};
  BatchQueryItem bad_view{"//pname", {}};
  bad_view.options.view = "ghost";
  BatchQueryItem stax_tax{"//pname", {}};
  stax_tax.options.mode = EvalMode::kStax;
  stax_tax.options.use_tax = true;
  BatchQueryItem dom_tax{"//pname", {}};
  dom_tax.options.use_tax = true;  // "ward" has no TAX index
  for (const BatchQueryItem& bad : {bad_parse, bad_view, stax_tax, dom_tax}) {
    one_doc.push_back(bad);
  }
  std::vector<DocBatchItem> one_doc_multi;
  for (const BatchQueryItem& it : one_doc) {
    one_doc_multi.push_back(DocBatchItem{"ward", it.query, it.options});
  }
  tel::MetricsRegistry& reg = engine_->telemetry()->registry();
  struct Tally {
    uint64_t batches, errors, answers, audits;
  };
  auto tally = [&] {
    return Tally{reg.GetCounter("batch.count").Value(),
                 reg.GetCounter("query.errors").Value(),
                 reg.GetCounter("query.answers").Value(),
                 engine_->telemetry()->audit().total()};
  };
  const Tally t0 = tally();
  auto batch = engine_->QueryBatch("ward", one_doc);
  const Tally t1 = tally();
  auto as_multi = engine_->QueryBatchMulti(one_doc_multi);
  const Tally t2 = tally();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(as_multi.ok()) << as_multi.status().ToString();
  ASSERT_EQ(batch->size(), one_doc.size());
  ASSERT_EQ(as_multi->size(), one_doc.size());
  for (size_t i = 0; i < one_doc.size(); ++i) {
    const QueryAnswer& b = (*batch)[i];
    const QueryAnswer& m = (*as_multi)[i];
    EXPECT_EQ(b.answers_xml, m.answers_xml) << "item " << i;
    EXPECT_EQ(b.status.code(), m.status.code()) << "item " << i;
    EXPECT_EQ(b.status.message(), m.status.message()) << "item " << i;
  }
  EXPECT_FALSE((*batch)[one_doc.size() - 1].status.ok());
  EXPECT_EQ(t1.batches - t0.batches, t2.batches - t1.batches);
  EXPECT_EQ(t1.errors - t0.errors, 4u);
  EXPECT_EQ(t1.errors - t0.errors, t2.errors - t1.errors);
  EXPECT_EQ(t1.answers - t0.answers, t2.answers - t1.answers);
  EXPECT_EQ(t1.audits - t0.audits, t2.audits - t1.audits);

  // An unknown document fails QueryBatch whole, with the plain catalog
  // message — no "batch item N" context, even for an empty batch.
  for (const auto& items_for_missing :
       {one_doc, std::vector<BatchQueryItem>{}}) {
    auto missing = engine_->QueryBatch("no-such-doc", items_for_missing);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(missing.status().message(),
              "document 'no-such-doc' is not loaded");
  }
}

TEST_F(ConcurrencyTest, QueryBatchMultiUnknownDocumentNamesItem) {
  std::vector<DocBatchItem> items;
  items.push_back(DocBatchItem{"gen", "//pname", {}});
  items.push_back(DocBatchItem{"nope", "//pname", {}});
  auto r = engine_->QueryBatchMulti(items);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("batch item 1"), std::string::npos);
}

// The readers-during-update contract: every reader answer is *exactly*
// the sequential answer of the epoch the reader reports. A torn snapshot
// (half-applied update, stale TAX row, text of a different epoch) would
// produce an answer set matching no epoch.
TEST_F(ConcurrencyTest, ReadersDuringUpdateSeeOneConsistentEpoch) {
  constexpr int kUpdates = 6;
  const std::string probe = "//medication";
  const std::string update_stmt =
      "insert into hospital/patient "
      "<visit><treatment><medication>conc</medication></treatment>"
      "<date>dX</date></visit>";

  // Sequential reference: replay the same update sequence on a serial
  // engine, recording the probe's answers at every epoch.
  std::map<uint64_t, std::vector<std::string>> expected;
  {
    Smoqe ref(/*plan_cache_capacity=*/64);
    ASSERT_TRUE(
        ref.RegisterDtd("hospital", testutil::kHospitalDtd, "hospital").ok());
    ASSERT_TRUE(ref.LoadDocument("ward", kHospitalDoc).ok());
    auto record = [&] {
      auto r = ref.Query("ward", probe);
      ASSERT_TRUE(r.ok());
      expected[r->doc_epoch] = r->answers_xml;
    };
    record();
    for (int u = 0; u < kUpdates; ++u) {
      auto ur = ref.Update("ward", update_stmt);
      ASSERT_TRUE(ur.ok()) << ur.status().ToString();
      record();
    }
  }
  ASSERT_EQ(expected.size(), static_cast<size_t>(kUpdates) + 1);

  // Concurrent run: one writer, several DOM + StAX readers.
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reads{0};
  auto reader = [&](EvalMode mode) {
    QueryOptions opts;
    opts.mode = mode;
    while (!done.load(std::memory_order_acquire)) {
      auto r = engine_->Query("ward", probe, opts);
      if (!r.ok()) {
        mismatches.fetch_add(1);
        continue;
      }
      reads.fetch_add(1);
      auto it = expected.find(r->doc_epoch);
      if (it == expected.end() || it->second != r->answers_xml) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  readers.emplace_back(reader, EvalMode::kDom);
  readers.emplace_back(reader, EvalMode::kDom);
  readers.emplace_back(reader, EvalMode::kStax);
  readers.emplace_back(reader, EvalMode::kStax);

  uint64_t final_epoch = 0;
  for (int u = 0; u < kUpdates; ++u) {
    auto ur = engine_->Update("ward", update_stmt);
    ASSERT_TRUE(ur.ok()) << ur.status().ToString();
    final_epoch = ur->stats.doc_epoch;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(final_epoch, static_cast<uint64_t>(kUpdates));
  // After the writer finishes, readers see the final epoch's answers.
  auto last = engine_->Query("ward", probe);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->doc_epoch, final_epoch);
  EXPECT_EQ(last->answers_xml, expected[final_epoch]);
}

TEST_F(ConcurrencyTest, ViewUpdateChecksReadTheSnapshotReadersPin) {
  // Authorization and validation of a view update read the published
  // snapshot in place, beside readers pinned to it: rejections and dry
  // runs leave it at epoch 0, and only the accepted commit copies it and
  // publishes epoch 1.
  const std::string probe = "//treatment/test";
  const std::string replace =
      "replace //treatment[medication] "
      "with <treatment><test>conc</test></treatment>";
  UpdateOptions research;
  research.view = "research-group";
  UpdateOptions dry = research;
  dry.dry_run = true;
  QueryOptions view_query;
  view_query.view = "research-group";
  auto before = engine_->Query("gen", probe, view_query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const size_t tests_before = before->answers_xml.size();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> reads{0};
  std::atomic<size_t> tests_after{0};  // answers seen at epoch 1
  auto reader = [&](EvalMode mode) {
    QueryOptions opts = view_query;
    opts.mode = mode;
    while (!done.load(std::memory_order_acquire)) {
      auto r = engine_->Query("gen", probe, opts);
      if (!r.ok() || r->doc_epoch > 1 ||
          (r->doc_epoch == 0 && r->answers_xml.size() != tests_before)) {
        failures.fetch_add(1);
        continue;
      }
      if (r->doc_epoch == 1) tests_after.store(r->answers_xml.size());
      reads.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  readers.emplace_back(reader, EvalMode::kDom);
  readers.emplace_back(reader, EvalMode::kStax);

  // The writer records what it saw; assertions wait for the join.
  size_t targets = 0;
  int rejections = 0;
  Status commit_status;
  for (int round = 0; round < 4; ++round) {
    auto rejected = engine_->Update("gen", "delete //patient", research);
    if (rejected.status().code() == StatusCode::kPermissionDenied) {
      ++rejections;
    }
    auto checked = engine_->Update("gen", replace, dry);
    if (checked.ok()) targets = checked->stats.targets;
  }
  const uint64_t epoch_after_checks = *engine_->DocumentEpoch("gen");
  if (targets > 0) {
    auto committed = engine_->Update("gen", replace, research);
    commit_status = committed.status();
    // Let the readers see the new epoch before stopping them.
    while (committed.ok() && tests_after.load() == 0 &&
           failures.load() == 0) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(rejections, 4);
  EXPECT_EQ(epoch_after_checks, 0u);
  ASSERT_GT(targets, 0u);
  ASSERT_TRUE(commit_status.ok()) << commit_status.ToString();
  EXPECT_EQ(*engine_->DocumentEpoch("gen"), 1u);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(tests_after.load(), tests_before + targets);
}

TEST_F(ConcurrencyTest, ConcurrentCompilesConvergeOnOneCachedPlan) {
  engine_->plan_cache().Clear();
  const std::vector<std::string> queries = {
      "//patient[visit/treatment/test]/pname",
      "hospital/patient/visit/treatment/medication",
      "//patient[parent]/pname",
  };
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string& q = queries[static_cast<size_t>(t) % queries.size()];
      auto r = engine_->Query("ward", q);
      if (!r.ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats stats = engine_->plan_cache().stats();
  // All racers accounted for, and the cache kept exactly one entry per
  // distinct query (the losing compiles were dropped, not inserted).
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.size, queries.size());
  // Repeat queries now all hit.
  for (const std::string& q : queries) {
    auto r = engine_->Query("ward", q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stats.plan_cache_hits, 1u);
  }
}

TEST(PlanCacheRaceTest, SecondInsertKeepsIncumbentPlan) {
  PlanCache cache(8);
  PlanCache::Key key;
  key.normalized_query = "//a";
  auto first = std::make_shared<const CompiledPlan>();
  auto second = std::make_shared<const CompiledPlan>();
  EXPECT_EQ(cache.Insert(key, first).get(), first.get());
  // Simulated lost race: the later Insert must hand back the incumbent.
  EXPECT_EQ(cache.Insert(key, second).get(), first.get());
  EXPECT_EQ(cache.Lookup(key).get(), first.get());
  EXPECT_EQ(cache.stats().size, 1u);
}

// Eval-layer differential: the chunked parallel StAX driver against the
// serial shared scan, byte-for-byte, across chunk-boundary shapes.
TEST(BatchParallelTest, RunParallelMatchesRunByteForByte) {
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospital(/*seed=*/11, 3000, names);
  ASSERT_TRUE(doc.ok());
  const std::string text = xml::SerializeDocument(*doc);

  const std::vector<std::string> queries = {
      "hospital/patient/pname",
      "//medication",
      "//patient[visit/treatment/medication = 'autism']/pname",
      "//visit/date",
      "//patient[not(visit/treatment/test)]/pname",
      "//pname | //date",
      "//treatment[medication]",
      "//patient[.//medication = 'autism']/pname",
  };
  std::vector<std::unique_ptr<automata::Mfa>> mfas;
  eval::BatchEvaluator batch;
  for (const std::string& q : queries) {
    auto parsed = rxpath::ParseQuery(q);
    ASSERT_TRUE(parsed.ok());
    auto mfa = automata::Mfa::Compile(**parsed, names);
    ASSERT_TRUE(mfa.ok());
    mfas.push_back(std::make_unique<automata::Mfa>(mfa.MoveValue()));
    batch.AddPlan(mfas.back().get());
  }

  auto serial = batch.Run(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ThreadPool pool(4);
  for (size_t chunk : {size_t{7}, size_t{256}, size_t{1 << 20}}) {
    eval::BatchParallelOptions par;
    par.pool = &pool;
    par.chunk_events = chunk;
    auto parallel = batch.RunParallel(text, par);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t k = 0; k < serial->size(); ++k) {
      const auto& s = (*serial)[k];
      const auto& p = (*parallel)[k];
      ASSERT_EQ(p.answers.size(), s.answers.size())
          << "plan " << k << " chunk " << chunk;
      for (size_t a = 0; a < s.answers.size(); ++a) {
        EXPECT_EQ(p.answers[a].engine_id, s.answers[a].engine_id);
        EXPECT_EQ(p.answers[a].xml, s.answers[a].xml)
            << "plan " << k << " answer " << a << " chunk " << chunk;
      }
      // Per-plan engine work is identical, not merely equivalent.
      EXPECT_EQ(p.stats.nodes_visited, s.stats.nodes_visited);
      EXPECT_EQ(p.stats.nodes_pruned, s.stats.nodes_pruned);
      EXPECT_EQ(p.stats.cans_entries, s.stats.cans_entries);
      EXPECT_EQ(p.stats.buffered_bytes, s.stats.buffered_bytes);
    }
  }
}

TEST(BatchParallelTest, AggregateStatsIdenticalSerialAndParallel) {
  // Batch-level stats are the MergeFrom fold of the per-plan stats, and
  // the fold must not depend on how the batch executed: the aggregate of
  // a parallel run equals the aggregate of the serial run field by field.
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospital(/*seed=*/17, 2000, names);
  ASSERT_TRUE(doc.ok());
  const std::string text = xml::SerializeDocument(*doc);
  std::vector<std::unique_ptr<automata::Mfa>> mfas;
  eval::BatchEvaluator batch;
  for (const char* q : {"//medication", "//visit/date",
                        "hospital/patient/pname",
                        "//patient[visit/treatment/test]/pname"}) {
    auto parsed = rxpath::ParseQuery(q);
    ASSERT_TRUE(parsed.ok());
    auto mfa = automata::Mfa::Compile(**parsed, names);
    ASSERT_TRUE(mfa.ok());
    mfas.push_back(std::make_unique<automata::Mfa>(mfa.MoveValue()));
    batch.AddPlan(mfas.back().get());
  }
  auto serial = batch.Run(text);
  ASSERT_TRUE(serial.ok());

  // The fold itself: additive fields sum, peak fields take the max.
  const EvalStats agg = eval::BatchEvaluator::AggregateStats(*serial);
  uint64_t visited = 0, answers = 0, cans = 0, peak_pairs = 0, buffered = 0;
  for (const auto& r : *serial) {
    visited += r.stats.nodes_visited;
    answers += r.stats.answers;
    cans += r.stats.cans_entries;
    peak_pairs = std::max(peak_pairs, r.stats.max_active_pairs);
    buffered = std::max(buffered, r.stats.buffered_bytes);
  }
  EXPECT_EQ(agg.nodes_visited, visited);
  EXPECT_EQ(agg.answers, answers);
  EXPECT_EQ(agg.cans_entries, cans);
  EXPECT_EQ(agg.max_active_pairs, peak_pairs);
  EXPECT_EQ(agg.buffered_bytes, buffered);

  ThreadPool pool(4);
  eval::BatchParallelOptions par;
  par.pool = &pool;
  par.chunk_events = 64;
  auto parallel = batch.RunParallel(text, par);
  ASSERT_TRUE(parallel.ok());
  const EvalStats pagg = eval::BatchEvaluator::AggregateStats(*parallel);
  EXPECT_EQ(pagg.nodes_visited, agg.nodes_visited);
  EXPECT_EQ(pagg.answers, agg.answers);
  EXPECT_EQ(pagg.cans_entries, agg.cans_entries);
  EXPECT_EQ(pagg.obligations, agg.obligations);
  EXPECT_EQ(pagg.max_active_pairs, agg.max_active_pairs);
  EXPECT_EQ(pagg.buffered_bytes, agg.buffered_bytes);
}

TEST(BatchParallelTest, FacadeBatchCountersEqualAggregatedItemStats) {
  // Facade invariant: after one QueryBatch, the engine's eval.* telemetry
  // counters equal the MergeFrom aggregate of the per-answer stats — the
  // registry and the returned answers tell one story.
  Smoqe engine(ParallelOptions());
  ASSERT_TRUE(
      engine.RegisterDtd("hospital", testutil::kHospitalDtd, "hospital").ok());
  ASSERT_TRUE(
      engine.GenerateDocument("ward", "hospital", /*seed=*/7, 16000).ok());
  ASSERT_GE(StaxEventCount(engine, "ward"), 3 * kChunkEvents);
  std::vector<BatchQueryItem> items;
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  items.push_back({"//medication", stax});
  items.push_back({"//pname", stax});
  items.push_back({"//visit/date", {}});  // DOM item on the pool
  auto r = engine.QueryBatch("ward", items);
  ASSERT_TRUE(r.ok());

  EvalStats agg;
  for (const QueryAnswer& a : *r) agg.MergeFrom(a.stats);
  auto& reg = engine.telemetry()->registry();
  EXPECT_EQ(reg.GetCounter("eval.nodes_visited").Value(), agg.nodes_visited);
  EXPECT_EQ(reg.GetCounter("eval.answers").Value(), agg.answers);
  EXPECT_EQ(reg.GetCounter("eval.subtrees_pruned").Value(),
            agg.subtrees_pruned);
  EXPECT_EQ(reg.GetCounter("query.answers").Value(), agg.answers);
  EXPECT_EQ(reg.GetCounter("batch.items").Value(), items.size());
  // Every item, StAX mode included, is one serial DOM walk.
  EXPECT_EQ(agg.dom_parts, items.size());
}

TEST(BatchParallelTest, NestedRunParallelOnSaturatedPoolCompletes) {
  // Regression: RunParallel's join claims its own unclaimed chunk groups
  // (ThreadPool::Fork). With a join that only blocks, two nested batches
  // on a 1-worker pool deadlock — the worker blocks in its own join
  // while the other batch's chunk tasks sit unclaimed in the queue.
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospital(/*seed=*/5, 600, names);
  ASSERT_TRUE(doc.ok());
  const std::string text = xml::SerializeDocument(*doc);
  std::vector<std::unique_ptr<automata::Mfa>> mfas;
  eval::BatchEvaluator batch;
  for (const char* q : {"//medication", "//visit/date",
                        "hospital/patient/pname", "//treatment"}) {
    auto parsed = rxpath::ParseQuery(q);
    ASSERT_TRUE(parsed.ok());
    auto mfa = automata::Mfa::Compile(**parsed, names);
    ASSERT_TRUE(mfa.ok());
    mfas.push_back(std::make_unique<automata::Mfa>(mfa.MoveValue()));
    batch.AddPlan(mfas.back().get());
  }
  auto serial = batch.Run(text);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(2);  // one worker: maximum contention for the queue
  eval::BatchParallelOptions par;
  par.pool = &pool;
  par.chunk_events = 16;
  std::atomic<int> mismatches{0};
  pool.ParallelFor(3, [&](size_t) {
    auto r = batch.RunParallel(text, par);
    if (!r.ok() || r->size() != serial->size()) {
      mismatches.fetch_add(1);
      return;
    }
    for (size_t k = 0; k < r->size(); ++k) {
      if ((*r)[k].answers.size() != (*serial)[k].answers.size()) {
        mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BatchParallelTest, SerialEngineOptionMatchesParallelEngine) {
  // The facade-level differential knob: identical batches through a
  // serial engine (max_threads = 1) and a parallel one.
  auto make_engine = [&](int threads) {
    EngineOptions o;
    o.max_threads = threads;
    auto e = std::make_unique<Smoqe>(o);
    EXPECT_TRUE(
        e->RegisterDtd("hospital", testutil::kHospitalDtd, "hospital").ok());
    EXPECT_TRUE(e->GenerateDocument("gen", "hospital", /*seed=*/3, 16000).ok());
    return e;
  };
  auto serial = make_engine(1);
  auto parallel = make_engine(4);
  ASSERT_GE(StaxEventCount(*parallel, "gen"), 3 * kChunkEvents);
  EXPECT_EQ(serial->pool(), nullptr);
  ASSERT_NE(parallel->pool(), nullptr);

  std::vector<BatchQueryItem> mix = ServiceMix();
  // Drop the view items — these engines define no views.
  mix.erase(std::remove_if(mix.begin(), mix.end(),
                           [](const BatchQueryItem& it) {
                             return !it.options.view.empty();
                           }),
            mix.end());
  auto rs = serial->QueryBatch("gen", mix);
  auto rp = parallel->QueryBatch("gen", mix);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  ASSERT_EQ(rs->size(), rp->size());
  for (size_t i = 0; i < rs->size(); ++i) {
    EXPECT_EQ((*rs)[i].answers_xml, (*rp)[i].answers_xml) << "item " << i;
  }
}

}  // namespace
}  // namespace smoqe::core
