// Heap allocations and budget charges of HyPE evaluation.
//
// This binary replaces the global operator new/delete (and the array
// forms) with a counting pair (test-only): every thread tallies its own
// allocations, and a process-wide live/peak byte count follows the heap.
// Two properties are checked on a predicate-heavy workload:
//
//  * HyPE keeps its per-node bookkeeping in engine arenas, so heap
//    allocations per entered node per plan stay far below one — on DOM,
//    on StAX and in a 16-plan parallel batch;
//  * the request budget sees what the engine holds: a MemoryBudget just
//    below a query's charged peak trips, with no partial answers, on
//    every driver, and the charge covers the engine's measured heap.
//
// A third property covers updates: checking a view update (authorizing
// and validating it) reads the published snapshot, so a rejected update
// and a dry run allocate far less than one copy of the document.

#include <malloc.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "src/automata/mfa.h"
#include "src/common/thread_pool.h"
#include "src/core/smoqe.h"
#include "src/eval/batch.h"
#include "src/eval/hype_dom.h"
#include "src/eval/hype_stax.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "src/xml/stax.h"
#include "tests/test_util.h"

namespace {

/// One thread's allocation count. Written only by its thread; read by
/// the test thread once the work has joined (relaxed atomics keep the
/// cross-thread reads well-defined).
struct Tally {
  std::atomic<uint64_t> news{0};
};

constexpr int kMaxTallies = 256;
Tally g_tallies[kMaxTallies];
std::atomic<int> g_next_tally{0};
thread_local Tally* t_tally = nullptr;
/// Bytes live on the heap (usable sizes), their high-water mark, and
/// every byte ever allocated.
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
std::atomic<int64_t> g_allocated{0};

Tally& MyTally() {
  if (t_tally == nullptr) {
    // Threads past the table share its last slot (the counts stay exact;
    // only the per-thread split blurs).
    const int i = g_next_tally.fetch_add(1, std::memory_order_relaxed);
    t_tally = &g_tallies[std::min(i, kMaxTallies - 1)];
  }
  return *t_tally;
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  const int64_t usable = static_cast<int64_t>(malloc_usable_size(p));
  MyTally().news.fetch_add(1, std::memory_order_relaxed);
  g_allocated.fetch_add(usable, std::memory_order_relaxed);
  const int64_t live =
      g_live.fetch_add(usable, std::memory_order_relaxed) + usable;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

// The array forms route through the counting pair too: sanitizer
// runtimes intercept them separately, and arena blocks are arrays.
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

namespace smoqe::eval {
namespace {

using automata::Mfa;
using testutil::MustQuery;

/// Σ of every thread's allocation count.
uint64_t TotalAllocations() {
  uint64_t n = 0;
  for (const Tally& t : g_tallies) n += t.news.load(std::memory_order_relaxed);
  return n;
}

/// Allocations made (on any thread) while `fn` runs.
template <typename Fn>
uint64_t AllocationsDuring(Fn&& fn) {
  const uint64_t before = TotalAllocations();
  fn();
  return TotalAllocations() - before;
}

/// Heap bytes allocated (on any thread) while `fn` runs, freed or not.
template <typename Fn>
int64_t BytesAllocatedDuring(Fn&& fn) {
  const int64_t before = g_allocated.load(std::memory_order_relaxed);
  fn();
  return g_allocated.load(std::memory_order_relaxed) - before;
}

/// The most heap bytes live at once while `fn` runs, above the level at
/// its start (single-threaded callers only).
template <typename Fn>
int64_t PeakBytesDuring(Fn&& fn) {
  const int64_t base = g_live.load(std::memory_order_relaxed);
  g_peak.store(base, std::memory_order_relaxed);
  fn();
  return g_peak.load(std::memory_order_relaxed) - base;
}

/// Predicate-heavy queries: a negated path (one instance per patient and
/// a witness per treatment) and a nested predicate whose instances wait
/// on each other.
constexpr const char* kQueries[] = {"//patient[not(treatment/test)]",
                                    "//patient[parent/patient[treatment]]"};

/// Heap allocations per entered node per plan. The engine's share is a
/// few hundred allocations per evaluation (frame buffers per depth, arena
/// growth), a few hundredths per node; one allocation per predicate
/// instance or per witness alone would pass 0.05. Streaming also pays
/// one string per answer, which for a query that stages and answers
/// every patient comes to about 0.3; its tokenizer and its captures
/// (one shared byte buffer, one span record per capture) add only
/// geometric buffer growth, so a pass with no answers stays under the
/// DOM bound.
constexpr double kMaxDomAllocsPerNode = 0.05;
constexpr double kMaxStreamAllocsPerNode = 0.4;
/// Allocations a StaxReader may make draining the whole fixture: its
/// event strings are views of the input, so only the open-element stack,
/// the attribute vector and the decoded-byte buffer grow, each a handful
/// of times whatever the document size.
constexpr uint64_t kMaxReaderAllocs = 64;

class EvalAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    names_ = xml::NameTable::Create();
    auto doc = workload::GenHospital(7, 30000, names_);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = new xml::Document(doc.MoveValue());
    text_ = new std::string(xml::SerializeDocument(*doc_));
  }
  static void TearDownTestSuite() {
    delete text_;
    delete doc_;
    names_.reset();
  }

  static Mfa Compile(const char* q) {
    auto mfa = Mfa::Compile(*MustQuery(q), names_);
    EXPECT_TRUE(mfa.ok()) << mfa.status().ToString();
    return mfa.MoveValue();
  }

  static std::shared_ptr<xml::NameTable> names_;
  static xml::Document* doc_;
  static std::string* text_;
};

std::shared_ptr<xml::NameTable> EvalAllocTest::names_;
xml::Document* EvalAllocTest::doc_ = nullptr;
std::string* EvalAllocTest::text_ = nullptr;

TEST_F(EvalAllocTest, DocumentIsLargeEnough) {
  EXPECT_GE(doc_->num_nodes(), 10000);
}

TEST_F(EvalAllocTest, DomAllocationsPerNodeStayBounded) {
  for (const char* q : kQueries) {
    const Mfa mfa = Compile(q);
    Result<DomEvalResult> r = Status::Internal("not run");
    const uint64_t allocs =
        AllocationsDuring([&] { r = EvalHypeDom(mfa, *doc_); });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(r->stats.pred_instances, 1000u) << q;
    const double per_node = static_cast<double>(allocs) /
                            static_cast<double>(r->stats.nodes_visited);
    EXPECT_LT(per_node, kMaxDomAllocsPerNode)
        << q << ": " << allocs << " allocations over "
        << r->stats.nodes_visited << " entered nodes";
  }
}

TEST_F(EvalAllocTest, StaxAllocationsPerNodeStayBounded) {
  for (const char* q : kQueries) {
    const Mfa mfa = Compile(q);
    Result<StaxEvalResult> r = Status::Internal("not run");
    const uint64_t allocs =
        AllocationsDuring([&] { r = EvalHypeStax(mfa, *text_); });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(r->stats.pred_instances, 1000u) << q;
    const double per_node = static_cast<double>(allocs) /
                            static_cast<double>(r->stats.nodes_visited);
    EXPECT_LT(per_node, kMaxStreamAllocsPerNode)
        << q << ": " << allocs << " allocations over "
        << r->stats.nodes_visited << " entered nodes";
  }
}

TEST_F(EvalAllocTest, ReaderDrainAllocatesIndependentlyOfDocumentSize) {
  size_t events = 0;
  const uint64_t allocs = AllocationsDuring([&] {
    xml::StaxReader reader(*text_);
    for (;;) {
      Result<xml::StaxEvent> ev = reader.Next();
      ASSERT_TRUE(ev.ok()) << ev.status().ToString();
      if (*ev == xml::StaxEvent::kEndDocument) break;
      ++events;
    }
  });
  ASSERT_GT(events, 20000u);
  EXPECT_LT(allocs, kMaxReaderAllocs) << "over " << events << " events";
}

TEST_F(EvalAllocTest, StaxPassWithoutAnswersAllocatesLikeDom) {
  // Every patient is a candidate (staged and captured); none has a
  // parent with a treated patient, so nothing is answered and only the
  // tokenizer, the engine and the capture stream allocate.
  const Mfa mfa = Compile("//patient[parent/patient[treatment]]");
  Result<StaxEvalResult> r = Status::Internal("not run");
  const uint64_t allocs =
      AllocationsDuring([&] { r = EvalHypeStax(mfa, *text_); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->answers.empty());
  ASSERT_GT(r->stats.cans_entries, 1000u);
  const double per_node = static_cast<double>(allocs) /
                          static_cast<double>(r->stats.nodes_visited);
  EXPECT_LT(per_node, kMaxDomAllocsPerNode)
      << allocs << " allocations over " << r->stats.nodes_visited
      << " entered nodes";
}

TEST_F(EvalAllocTest, ParallelBatchAllocationsPerNodeStayBounded) {
  constexpr size_t kPlans = 16;
  std::vector<Mfa> mfas;
  for (size_t k = 0; k < kPlans; ++k) mfas.push_back(Compile(kQueries[k % 2]));
  BatchEvaluator batch;
  for (const Mfa& m : mfas) batch.AddPlan(&m);
  ThreadPool pool(4);
  BatchParallelOptions par;
  par.pool = &pool;
  Result<std::vector<StaxEvalResult>> r = Status::Internal("not run");
  const uint64_t allocs =
      AllocationsDuring([&] { r = batch.RunParallel(*text_, par); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), kPlans);
  uint64_t entered = 0;
  for (const StaxEvalResult& plan : *r) entered += plan.stats.nodes_visited;
  const double per_node =
      static_cast<double>(allocs) / static_cast<double>(entered);
  EXPECT_LT(per_node, kMaxStreamAllocsPerNode)
      << allocs << " allocations over " << entered
      << " entered nodes (Σ over plans)";
}

// --- Budget charges -----------------------------------------------------

/// Runs `eval` under an accounting-only budget, then under a budget one
/// byte below what that run charged: the second run must fail with
/// kResourceExhausted (a Result carries no answers then).
template <typename Eval>
void ExpectTripsJustBelowChargedPeak(const char* what, Eval&& eval) {
  MemoryBudget accounting;
  Guardrail open(Deadline(), nullptr, &accounting);
  Status ok = eval(&open);
  ASSERT_TRUE(ok.ok()) << what << ": " << ok.ToString();
  const uint64_t peak = accounting.used();
  ASSERT_GT(peak, 0u) << what;
  MemoryBudget tight(peak - 1);
  Guardrail guard(Deadline(), nullptr, &tight);
  Status st = eval(&guard);
  ASSERT_FALSE(st.ok()) << what << ": charged " << peak
                        << " bytes, yet a budget of " << peak - 1
                        << " did not trip";
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted)
      << what << ": " << st.ToString();
}

TEST_F(EvalAllocTest, BudgetJustBelowChargedPeakTripsOnEveryDriver) {
  const Mfa mfa = Compile(kQueries[1]);
  const Mfa other = Compile(kQueries[0]);
  ExpectTripsJustBelowChargedPeak("dom", [&](const Guardrail* g) {
    DomEvalOptions opts;
    opts.guard = g;
    return EvalHypeDom(mfa, *doc_, opts).status();
  });
  // A document shorter than one guard tick: only the walk's tail charge
  // reaches the budget.
  const xml::Document small = testutil::MustDoc(testutil::kHospitalDoc, names_);
  ASSERT_LT(small.num_nodes(), 256);
  ExpectTripsJustBelowChargedPeak("dom, one tick", [&](const Guardrail* g) {
    DomEvalOptions opts;
    opts.guard = g;
    return EvalHypeDom(mfa, small, opts).status();
  });
  ExpectTripsJustBelowChargedPeak("stax", [&](const Guardrail* g) {
    return EvalHypeStax(mfa, *text_, g).status();
  });
  ExpectTripsJustBelowChargedPeak("serial batch", [&](const Guardrail* g) {
    BatchEvaluator batch(g);
    batch.AddPlan(&mfa);
    batch.AddPlan(&other);
    return batch.Run(*text_).status();
  });
  ThreadPool pool(4);
  ExpectTripsJustBelowChargedPeak("parallel batch", [&](const Guardrail* g) {
    BatchEvaluator batch(g);
    for (int k = 0; k < 4; ++k) batch.AddPlan(k % 2 == 0 ? &mfa : &other);
    BatchParallelOptions par;
    par.pool = &pool;
    return batch.RunParallel(*text_, par).status();
  });
}

TEST_F(EvalAllocTest, DomChargeCoversTheEngineHeap) {
  // Everything the DOM walk holds at its peak is the engine's state plus
  // the driver's node map (one pointer per entered node, plus slack); the
  // budget must see at least half of the engine's share.
  for (const char* q : kQueries) {
    const Mfa mfa = Compile(q);
    MemoryBudget accounting;
    Guardrail guard(Deadline(), nullptr, &accounting);
    DomEvalOptions opts;
    opts.guard = &guard;
    Result<DomEvalResult> r = Status::Internal("not run");
    const int64_t peak =
        PeakBytesDuring([&] { r = EvalHypeDom(mfa, *doc_, opts); });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const int64_t driver = static_cast<int64_t>(
        2 * r->stats.nodes_visited * sizeof(const xml::Node*));
    const int64_t engine = std::max<int64_t>(peak - driver, 0);
    EXPECT_GE(static_cast<int64_t>(accounting.used()), engine / 2)
        << q << ": charged " << accounting.used() << " bytes, heap peak "
        << peak << " (driver share " << driver << ")";
  }
}

// --- Update checks -----------------------------------------------------

TEST_F(EvalAllocTest, UpdateChecksAllocateLessThanHalfAClone) {
  core::Smoqe engine;
  ASSERT_TRUE(
      engine.RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok());
  ASSERT_TRUE(engine.LoadDocument("ward", *text_).ok());
  ASSERT_TRUE(engine
                  .DefineView("research", "hospital",
                              workload::kHospitalPolicyResearch)
                  .ok());
  const int64_t clone_bytes =
      BytesAllocatedDuring([&] { xml::Document copy = doc_->Clone(); });
  ASSERT_GT(clone_bytes, 0);

  core::UpdateOptions research;
  research.view = "research";
  core::UpdateOptions dry = research;
  dry.dry_run = true;
  // Every patient holds a pname the research view hides: rejected whole.
  constexpr char kRejected[] = "delete //patient";
  constexpr char kDryRun[] =
      "replace //treatment[medication = 'autism'] "
      "with <treatment><test>x</test></treatment>";
  // Warm the plan cache so the measured calls compile nothing.
  ASSERT_FALSE(engine.Update("ward", kRejected, research).ok());
  ASSERT_TRUE(engine.Update("ward", kDryRun, dry).ok());

  Result<core::UpdateResult> rejected = Status::Internal("not run");
  const int64_t rejected_bytes = BytesAllocatedDuring(
      [&] { rejected = engine.Update("ward", kRejected, research); });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(rejected.status().message().find("'patient/pname : N'"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_LT(rejected_bytes, clone_bytes / 2)
      << "rejected update allocated " << rejected_bytes
      << " bytes; Document::Clone allocates " << clone_bytes;

  Result<core::UpdateResult> dry_run = Status::Internal("not run");
  const int64_t dry_bytes = BytesAllocatedDuring(
      [&] { dry_run = engine.Update("ward", kDryRun, dry); });
  ASSERT_TRUE(dry_run.ok()) << dry_run.status().ToString();
  EXPECT_GT(dry_run->stats.targets, 100u);
  EXPECT_LT(dry_bytes, clone_bytes / 2)
      << "dry run allocated " << dry_bytes
      << " bytes; Document::Clone allocates " << clone_bytes;
  EXPECT_EQ(*engine.DocumentEpoch("ward"), 0u);
}

}  // namespace
}  // namespace smoqe::eval
