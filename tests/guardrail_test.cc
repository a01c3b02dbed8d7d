// Guardrail tests (docs/DESIGN.md §9): unit coverage of the primitives
// (Deadline, CancelToken, MemoryBudget, Guardrail, GuardTicker,
// FaultInjector), the split DOM walk under a guard, facade-level
// deadline / budget / cancellation / admission semantics, and the
// deterministic fault matrix — after every injected failure the engine
// must answer the *next* request byte-identically to an engine that
// never faulted.

#include "src/common/guardrail.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/smoqe.h"
#include "src/eval/hype_dom.h"
#include "src/rewrite/rewriter.h"
#include "src/view/annotation.h"
#include "src/view/derive.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe {
namespace {

using Millis = std::chrono::milliseconds;

void SleepMs(int ms) { std::this_thread::sleep_for(Millis(ms)); }

// --- primitives ---

TEST(DeadlineTest, DefaultAndZeroAreUnlimited) {
  EXPECT_TRUE(Deadline().unlimited());
  EXPECT_FALSE(Deadline().Expired());
  EXPECT_TRUE(Deadline::After(0).unlimited());
  Deadline far = Deadline::After(60'000);
  EXPECT_FALSE(far.unlimited());
  EXPECT_FALSE(far.Expired());
}

TEST(DeadlineTest, HugeDeadlinesSaturateToUnlimited) {
  // u64 garbage (the server fuzzer feeds mutated wire values straight
  // into RequestOptions) must not overflow the clock's signed
  // nanosecond representation — anything past ~10 years is unlimited.
  EXPECT_TRUE(Deadline::After(~0ull).unlimited());
  EXPECT_TRUE(Deadline::After(0xFF00000000000000ull).unlimited());
  EXPECT_FALSE(Deadline::After(~0ull).Expired());
  EXPECT_FALSE(Deadline::After(60'000).unlimited());
}

TEST(DeadlineTest, ExpiresAfterItsWindow) {
  Deadline d = Deadline::After(1);
  SleepMs(5);
  EXPECT_TRUE(d.Expired());
}

TEST(CancelTokenTest, CancelSticksUntilReset) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  t.Cancel();
  EXPECT_TRUE(t.cancelled());
  t.Cancel();  // idempotent
  EXPECT_TRUE(t.cancelled());
  t.Reset();
  EXPECT_FALSE(t.cancelled());
}

TEST(MemoryBudgetTest, ChargesAndSticksOnceExceeded) {
  MemoryBudget b(100);
  EXPECT_TRUE(b.Charge(60));
  EXPECT_FALSE(b.exceeded());
  EXPECT_FALSE(b.Charge(60));  // 120 > 100
  EXPECT_TRUE(b.exceeded());
  EXPECT_FALSE(b.Charge(1)) << "an exceeded budget must stay exceeded";
  EXPECT_EQ(b.used(), 121u);
  b.Reset(50);
  EXPECT_FALSE(b.exceeded());
  EXPECT_EQ(b.used(), 0u);
  EXPECT_EQ(b.limit(), 50u);
}

TEST(MemoryBudgetTest, UnlimitedStillAccounts) {
  MemoryBudget b;
  EXPECT_TRUE(b.Charge(1'000'000));
  EXPECT_FALSE(b.exceeded());
  EXPECT_EQ(b.used(), 1'000'000u);
  b.ForceExceed();  // the fault-injection hook works even when unlimited
  EXPECT_TRUE(b.exceeded());
}

TEST(GuardrailTest, CheckOrderIsCancelBudgetDeadline) {
  CancelToken cancel;
  cancel.Cancel();
  MemoryBudget budget(1);
  budget.ForceExceed();
  Guardrail g(Deadline::After(1), &cancel, &budget);
  SleepMs(5);  // all three conditions now hold
  EXPECT_EQ(g.Check().code(), StatusCode::kCancelled);
  cancel.Reset();
  EXPECT_EQ(g.Check().code(), StatusCode::kResourceExhausted);
  budget.Reset(1);
  EXPECT_EQ(g.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(GuardrailTest, DefaultGuardrailNeverTrips) {
  Guardrail g;
  EXPECT_TRUE(g.Check().ok());
  g.ChargeBytes(1 << 20);  // null budget: charge is a no-op
  EXPECT_TRUE(g.Check().ok());
}

TEST(GuardTickerTest, DueEveryPeriodAndNeverForNullGuard) {
  Guardrail g;
  GuardTicker ticker(&g, 4);
  int due = 0;
  for (int i = 0; i < 12; ++i) {
    if (ticker.Due()) ++due;
  }
  EXPECT_EQ(due, 3);

  GuardTicker null_ticker(nullptr, 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(null_ticker.Due());
    EXPECT_TRUE(null_ticker.Tick().ok());
  }
  EXPECT_TRUE(null_ticker.Now().ok());
}

TEST(GuardTickerTest, TickSurfacesTheGuardError) {
  CancelToken cancel;
  Guardrail g(Deadline(), &cancel, nullptr);
  GuardTicker ticker(&g, 2);
  EXPECT_TRUE(ticker.Tick().ok());  // not due yet
  cancel.Cancel();
  EXPECT_EQ(ticker.Tick().code(), StatusCode::kCancelled);  // due
  EXPECT_EQ(ticker.Now().code(), StatusCode::kCancelled);
}

#ifdef SMOQE_FAULT_INJECTION

TEST(FaultInjectorTest, FiresOnExactlyTheKthHit) {
  auto& inj = fault::FaultInjector::Instance();
  inj.Reset();
  inj.Arm("test.site", 3);
  EXPECT_FALSE(fault::At("test.site"));
  EXPECT_FALSE(fault::At("test.site"));
  EXPECT_TRUE(fault::At("test.site"));
  EXPECT_FALSE(fault::At("test.site")) << "a site fires exactly once";
  EXPECT_EQ(inj.Hits("test.site"), 4u);
  EXPECT_FALSE(fault::At("never.armed"));
  inj.Reset();
  EXPECT_FALSE(fault::At("test.site")) << "Reset disarms";
}

TEST(FaultInjectorTest, SeededArmIsDeterministic) {
  auto& inj = fault::FaultInjector::Instance();
  auto fire_index = [&inj](uint64_t seed) -> int {
    inj.Reset();
    inj.ArmSeeded("test.seeded", seed, 8);
    for (int i = 1; i <= 8; ++i) {
      if (fault::At("test.seeded")) return i;
    }
    return -1;
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    int first = fire_index(seed);
    EXPECT_GE(first, 1) << "seed " << seed << " must fire within max_k";
    EXPECT_EQ(first, fire_index(seed)) << "seed " << seed;
  }
  inj.Reset();
}

#endif  // SMOQE_FAULT_INJECTION

}  // namespace
}  // namespace smoqe

// ---------------------------------------------------------------------
// A DOM walk split across a pool (docs/DESIGN.md §3.7) under a guard:
// every part charges the shared budget and polls the shared guard, and a
// trip in any part fails the whole call with no answer.
// ---------------------------------------------------------------------

namespace smoqe::eval {
namespace {

// Per-node obligations under every element: about 25 ms serially on a
// 100k-node ward (4 vCPU, Release), so a split walk is still running
// well after a 1 ms deadline.
constexpr char kHeavyQuery[] = "hospital//*[not(.//medication = 'zz')]";

class SplitWalkGuardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    names_ = new std::shared_ptr<xml::NameTable>(xml::NameTable::Create());
    ward_ = new xml::Document(testutil::MakeWard(false, 9, 100000, *names_));
  }
  static void TearDownTestSuite() {
    delete ward_;
    delete names_;
  }

  automata::Mfa Compile(const char* q) {
    auto mfa = automata::Mfa::Compile(*testutil::MustQuery(q), *names_);
    EXPECT_TRUE(mfa.ok()) << mfa.status().ToString();
    return std::move(*mfa);
  }

  /// Options that split `mfa`'s walk of the ward on `pool_`; asserts
  /// that an ungoverned walk does split.
  DomEvalOptions SplitOptions(const automata::Mfa& mfa) {
    DomEvalOptions opts;
    opts.pool = &pool_;
    auto r = EvalHypeDom(mfa, *ward_, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      EXPECT_GT(r->stats.dom_parts, 1u);
    }
    return opts;
  }

  static std::shared_ptr<xml::NameTable>* names_;
  static xml::Document* ward_;
  ThreadPool pool_{4};
};

std::shared_ptr<xml::NameTable>* SplitWalkGuardTest::names_ = nullptr;
xml::Document* SplitWalkGuardTest::ward_ = nullptr;

TEST_F(SplitWalkGuardTest, BudgetTheSerialWalkTripsTripsTheSplitWalk) {
  ASSERT_GE(ward_->num_nodes(), 100000);
  const automata::Mfa mfa = Compile("//*");
  DomEvalOptions opts = SplitOptions(mfa);
  opts.pool = nullptr;
  MemoryBudget accounting;
  Guardrail counted(Deadline(), nullptr, &accounting);
  opts.guard = &counted;
  ASSERT_TRUE(EvalHypeDom(mfa, *ward_, opts).ok());
  ASSERT_GT(accounting.used(), 0u);

  MemoryBudget serial_budget(accounting.used() / 2);
  Guardrail serial_guard(Deadline(), nullptr, &serial_budget);
  opts.guard = &serial_guard;
  auto serial = EvalHypeDom(mfa, *ward_, opts);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kResourceExhausted);

  MemoryBudget split_budget(accounting.used() / 2);
  Guardrail split_guard(Deadline(), nullptr, &split_budget);
  opts.guard = &split_guard;
  opts.pool = &pool_;
  auto split = EvalHypeDom(mfa, *ward_, opts);
  ASSERT_FALSE(split.ok()) << "the split walk must trip the same budget";
  EXPECT_EQ(split.status().code(), serial.status().code())
      << split.status().ToString();
}

TEST_F(SplitWalkGuardTest, CancelFromAnotherThreadStopsEveryPart) {
  const automata::Mfa mfa = Compile(kHeavyQuery);
  DomEvalOptions opts = SplitOptions(mfa);
  bool cancelled = false;
  // The canceller waits for the walk's first guard ticks; should a walk
  // finish before its cancel lands, try again.
  for (int attempt = 0; attempt < 5 && !cancelled; ++attempt) {
    CancelToken token;
    Guardrail guard(Deadline(), &token, nullptr);
    opts.guard = &guard;
    std::atomic<bool> done{false};
    std::thread canceller([&] {
      while (guard.checks() < 4 && !done.load()) std::this_thread::yield();
      token.Cancel();
    });
    auto r = EvalHypeDom(mfa, *ward_, opts);
    done.store(true);
    canceller.join();
    if (r.ok()) continue;
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
    // Every part has returned with the call: none polls the guard later.
    const uint64_t checks = guard.checks();
    SleepMs(20);
    EXPECT_EQ(guard.checks(), checks) << "a part outlived the call";
    cancelled = true;
  }
  EXPECT_TRUE(cancelled) << "no walk saw the cancel";
}

TEST_F(SplitWalkGuardTest, OneMillisecondDeadlineStopsTheSplitWalkPromptly) {
  const automata::Mfa mfa = Compile(kHeavyQuery);
  DomEvalOptions opts = SplitOptions(mfa);
  Guardrail guard(Deadline::After(1), nullptr, nullptr);
  opts.guard = &guard;
  const auto t0 = std::chrono::steady_clock::now();
  auto r = EvalHypeDom(mfa, *ward_, opts);
  const auto elapsed = std::chrono::duration_cast<Millis>(
      std::chrono::steady_clock::now() - t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LE(elapsed.count(), 50);
}

}  // namespace
}  // namespace smoqe::eval

// ---------------------------------------------------------------------
// Facade semantics: admission, deadline precision, budgets, cancellation,
// and the fault matrix with its recovery differential.
// ---------------------------------------------------------------------

namespace smoqe::core {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kHotQuery[] =
    "//patient[visit/treatment/medication = 'autism']/pname";

constexpr char kNursePolicy[] =
    "patient/pname   : N;\n"
    "patient/visit   : N;\n"
    "visit/treatment : Y;\n"
    "treatment/test  : Y;\n";

int64_t ElapsedMs(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t0)
      .count();
}

// Deep-workload fixture: a generated ~100k-node hospital document. The
// batch returned by BigBatch() is calibrated so an ungoverned pass takes
// well past the deadlines the tests set — deadline trips can then be
// asserted without guessing host speed.
class GuardrailFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Instance().Reset();
    ASSERT_TRUE(
        engine_.RegisterDtd("hospital", testutil::kHospitalDtd, "hospital")
            .ok());
    ASSERT_TRUE(engine_.GenerateDocument("big", "hospital", 7, 100000).ok());
  }
  void TearDown() override { fault::FaultInjector::Instance().Reset(); }

  const std::vector<BatchQueryItem>& BigBatch() {
    static std::vector<BatchQueryItem>* cached = nullptr;
    if (cached == nullptr) {
      cached = new std::vector<BatchQueryItem>;
      QueryOptions stax;
      stax.mode = EvalMode::kStax;
      for (int i = 0; i < 8; ++i) cached->push_back({kHotQuery, stax});
      // Double the batch until an ungoverned pass takes ≥250ms: every
      // item is its own walk of the tree, so cost scales with the item
      // count.
      while (cached->size() < 1024) {
        Clock::time_point t0 = Clock::now();
        auto r = engine_.QueryBatch("big", *cached);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (ElapsedMs(t0) >= 250) break;
        const std::vector<BatchQueryItem> half = *cached;
        cached->insert(cached->end(), half.begin(), half.end());
      }
    }
    return *cached;
  }

  uint64_t GuardCounter(const char* name) {
    return engine_.telemetry()->registry().GetCounter(name).Value();
  }

  Smoqe engine_;
};

TEST_F(GuardrailFacadeTest, DeadlineExceededWithinSlack) {
  const auto& items = BigBatch();
  RequestOptions req;
  req.deadline_ms = 50;
  Clock::time_point t0 = Clock::now();
  auto r = engine_.QueryBatch("big", items, req);
  int64_t elapsed = ElapsedMs(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LE(elapsed, 50 + 20) << "detection latency must stay within slack";
  EXPECT_GE(GuardCounter("guard.deadline_exceeded"), 1u);
  // Recovery: the identical ungoverned batch still answers.
  auto again = engine_.QueryBatch("big", items);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE((*again)[0].answers_xml.empty() &&
               (*again)[0].status.ok() == false);
}

TEST_F(GuardrailFacadeTest, DeadlineCutsABatchOfShortWalks) {
  // Batch items walk the DOM one after another on a serial engine. On a
  // small ward a walk ends before its first guard tick, so once one item
  // has seen the deadline pass, the items after it must not run at all:
  // the call returns about when the deadline trips, not when the batch
  // would have finished.
  EngineOptions opts;
  opts.max_threads = 1;
  Smoqe serial(opts);
  ASSERT_TRUE(serial.LoadDocument("ward", testutil::kHospitalDoc).ok());
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  std::vector<BatchQueryItem> items(256, {"//patient[visit]/pname", stax});
  // Double the batch until an ungoverned call takes ≥ 200ms.
  int64_t full_ms = 0;
  while (items.size() < (size_t{1} << 18)) {
    Clock::time_point t0 = Clock::now();
    ASSERT_TRUE(serial.QueryBatch("ward", items).ok());
    full_ms = ElapsedMs(t0);
    if (full_ms >= 200) break;
    const std::vector<BatchQueryItem> half = items;
    items.insert(items.end(), half.begin(), half.end());
  }
  RequestOptions req;
  req.deadline_ms = static_cast<uint64_t>(full_ms / 4);
  Clock::time_point t0 = Clock::now();
  auto r = serial.QueryBatch("ward", items, req);
  const int64_t elapsed = ElapsedMs(t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LE(elapsed, full_ms / 2)
      << items.size() << " items, " << full_ms << " ms ungoverned";
}

TEST_F(GuardrailFacadeTest, SingleQueryDeadlineTripsDuringTheScan) {
  RequestOptions req;
  req.deadline_ms = 1;
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  auto r = engine_.Query("big", kHotQuery, stax, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
}

TEST_F(GuardrailFacadeTest, EngineDefaultDeadlineAppliesAndIsOverridable) {
  EngineOptions opts;
  opts.default_deadline_ms = 1;
  Smoqe strict(opts);
  auto xml = engine_.DocumentXml("big");
  ASSERT_TRUE(xml.ok());
  ASSERT_TRUE(strict.LoadDocument("big", *xml).ok());
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  auto tripped = strict.Query("big", kHotQuery, stax);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded);
  RequestOptions relaxed;
  relaxed.deadline_ms = 60'000;  // per-request beats the engine default
  EXPECT_TRUE(strict.Query("big", kHotQuery, stax, relaxed).ok());
}

TEST_F(GuardrailFacadeTest, MemoryBudgetUnwindsWithResourceExhausted) {
  RequestOptions req;
  req.max_memory_bytes = 4096;
  auto r = engine_.Query("big", kHotQuery, {}, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_GE(GuardCounter("guard.budget_exceeded"), 1u);
  // Recovery differential: ungoverned, the engine answers exactly like
  // an engine that never saw the over-budget request.
  auto probe = engine_.Query("big", kHotQuery);
  ASSERT_TRUE(probe.ok());
  Smoqe control;
  auto xml = engine_.DocumentXml("big");
  ASSERT_TRUE(xml.ok());
  ASSERT_TRUE(control.LoadDocument("big", *xml).ok());
  auto expected = control.Query("big", kHotQuery);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(probe->answers_xml, expected->answers_xml);
}

TEST_F(GuardrailFacadeTest, MaterializationChargesTheBudget) {
  // //patient through the nurses view on a deep genealogy returns every
  // visible patient and its visible ancestors: a few KB of evaluation
  // state, MBs of nested answer bytes. A budget between the two must
  // stop the request while its answers are serialized.
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospitalDeep(1, 8000, names);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_GE(doc->num_nodes(), 5000);
  constexpr char kQuery[] = "//patient";
  Smoqe e;
  ASSERT_TRUE(
      e.RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok());
  ASSERT_TRUE(e.LoadDocument("ward", xml::SerializeDocument(*doc)).ok());
  ASSERT_TRUE(
      e.DefineView("nurses", "hospital", workload::kHospitalPolicyAutism)
          .ok());
  QueryOptions nurses;
  nurses.view = "nurses";

  // What evaluation alone charges: the same rewritten plan run by HyPE
  // under an unlimited (still accounting) budget.
  const xml::Dtd dtd = workload::HospitalDtd();  // the policy points into it
  auto policy = view::Policy::Parse(dtd, workload::kHospitalPolicyAutism);
  ASSERT_TRUE(policy.ok());
  auto view = view::DeriveView(*policy);
  ASSERT_TRUE(view.ok());
  auto mfa = rewrite::RewriteToMfa(*testutil::MustQuery(kQuery), *view, names);
  ASSERT_TRUE(mfa.ok());
  MemoryBudget eval_budget;
  Guardrail eval_guard(Deadline(), nullptr, &eval_budget);
  eval::DomEvalOptions dom_opts;
  dom_opts.guard = &eval_guard;
  auto evaluated = eval::EvalHypeDom(*mfa, *doc, dom_opts);
  ASSERT_TRUE(evaluated.ok());
  const uint64_t eval_bytes = eval_budget.used();

  auto full = e.Query("ward", kQuery, nurses);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->answers_xml.size(), evaluated->answers.size());
  uint64_t answer_bytes = 0;
  for (const std::string& a : full->answers_xml) answer_bytes += a.size();

  RequestOptions req;
  req.max_memory_bytes = 2 * eval_bytes + (64 << 10);
  ASSERT_LT(req.max_memory_bytes, answer_bytes / 4);
  const uint64_t tripped_before = e.telemetry()
                                      ->registry()
                                      .GetCounter("guard.budget_exceeded")
                                      .Value();
  auto r = e.Query("ward", kQuery, nurses, req);
  ASSERT_FALSE(r.ok()) << "materialization must charge the budget";
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_GE(e.telemetry()->registry().GetCounter("guard.budget_exceeded")
                .Value(),
            tripped_before + 1);
}

// What a HyPE engine alone charges for one walk of `doc`: the same
// Enter / Text / Leave sequence a DOM walk without pruning drives,
// without the driver's own structures.
uint64_t EngineOnlyWalkBytes(const automata::Mfa& mfa,
                             const xml::Document& doc) {
  eval::HypeEngine engine(mfa);
  auto walk = [&](const auto& self, const xml::Node* n) -> void {
    if (n->is_text()) {
      engine.Text(n->text);
      return;
    }
    engine.Enter(n->label, eval::AttrProvider::None(), nullptr);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      self(self, c);
    }
    engine.Leave();
  };
  walk(walk, doc.root());
  return engine.TakeAllocBytes();
}

TEST_F(GuardrailFacadeTest, DomWalkChargesItsNodeMap) {
  // A direct //* visits and answers every element. The walk keeps one
  // 8-byte node pointer per entered element, and that map must count
  // against the request budget: a budget that covers the engine and the
  // materialized answers but only half the map stops the request; one
  // that covers twice the map (vector growth) does not.
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospital(7, 100000, names);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_GE(doc->num_elements(), 30000);
  const std::string text = xml::SerializeDocument(*doc);
  constexpr char kQuery[] = "//*";
  auto mfa = automata::Mfa::Compile(*testutil::MustQuery(kQuery), names);
  ASSERT_TRUE(mfa.ok());
  auto walked = eval::EvalHypeDom(*mfa, *doc);
  ASSERT_TRUE(walked.ok());
  const uint64_t visited = walked->stats.nodes_visited;
  ASSERT_EQ(visited, static_cast<uint64_t>(doc->num_elements()));
  MemoryBudget ser_budget;
  Guardrail ser_guard(Deadline(), nullptr, &ser_budget);
  ASSERT_TRUE(xml::SerializeNodes(walked->answers, *names, &ser_guard).ok());
  const uint64_t others = EngineOnlyWalkBytes(*mfa, *doc) + ser_budget.used();

  Smoqe e;
  ASSERT_TRUE(e.LoadDocument("ward", text).ok());
  RequestOptions req;
  req.max_memory_bytes = others + 4 * visited;
  auto tripped = e.Query("ward", kQuery, {}, req);
  ASSERT_FALSE(tripped.ok()) << "the walk's node map must charge the budget";
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted)
      << tripped.status().ToString();
  req.max_memory_bytes = others + 16 * visited;
  auto fits = e.Query("ward", kQuery, {}, req);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->answers_xml.size(), visited);
}

TEST_F(GuardrailFacadeTest, PreCancelledTokenFailsFast) {
  CancelToken token;
  token.Cancel();
  RequestOptions req;
  req.cancel = &token;
  Clock::time_point t0 = Clock::now();
  auto r = engine_.Query("big", kHotQuery, {}, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_LE(ElapsedMs(t0), 50) << "entry check must reject before any work";
  EXPECT_GE(GuardCounter("guard.cancelled"), 1u);
}

TEST_F(GuardrailFacadeTest, MidFlightCancellationUnwinds) {
  const auto& items = BigBatch();
  CancelToken token;
  RequestOptions req;
  req.cancel = &token;
  Result<std::vector<QueryAnswer>> result = Status::Internal("not run");
  std::thread worker(
      [&] { result = engine_.QueryBatch("big", items, req); });
  SleepMs(20);
  token.Cancel();
  worker.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
  // The engine is unharmed: the same batch completes afterwards.
  EXPECT_TRUE(engine_.QueryBatch("big", items).ok());
}

TEST_F(GuardrailFacadeTest, AdmissionGateRejectsWhenFull) {
  EngineOptions opts;
  opts.max_pending_requests = 1;
  Smoqe gated(opts);
  auto xml = engine_.DocumentXml("big");
  ASSERT_TRUE(xml.ok());
  ASSERT_TRUE(gated.LoadDocument("big", *xml).ok());

  const auto& items = BigBatch();
  CancelToken token;
  RequestOptions req;
  req.cancel = &token;
  Result<std::vector<QueryAnswer>> slow = Status::Internal("not run");
  std::thread worker([&] { slow = gated.QueryBatch("big", items, req); });

  // Handshake: probe only once the worker provably holds the only slot.
  // Probing earlier lets a probe take the slot first, and then the worker
  // is the one turned away — on any core count.
  auto inflight = [&] {
    gated.DumpMetrics();
    return gated.telemetry()->registry().GetGauge("admission.inflight")
        .Value();
  };
  for (int i = 0; i < 10000 && inflight() != 1; ++i) SleepMs(1);
  const int64_t held = inflight();

  // While the slow batch holds the only slot, every other request must
  // fast-fail with RejectedBusy (never block, never partially answer).
  bool saw_busy = false;
  std::string busy_message;
  for (int i = 0; i < 2000 && !saw_busy; ++i) {
    auto r = gated.Query("big", "//pname");
    if (!r.ok() && r.status().code() == StatusCode::kRejectedBusy) {
      saw_busy = true;
      busy_message = std::string(r.status().message());
    } else {
      SleepMs(1);
    }
  }
  token.Cancel();
  worker.join();
  ASSERT_EQ(held, 1) << "the worker never took the admission slot";
  ASSERT_TRUE(saw_busy);
  EXPECT_NE(busy_message.find("max_pending_requests"), std::string::npos);
  EXPECT_GE(
      gated.telemetry()->registry().GetCounter("guard.admission_rejected")
          .Value(),
      1u);
  // The slot is free again: the same query now runs.
  EXPECT_TRUE(gated.Query("big", "//pname").ok());
  EXPECT_EQ(inflight(), 0);
  // An unbounded gate counts nothing.
  engine_.DumpMetrics();
  EXPECT_EQ(
      engine_.telemetry()->registry().GetGauge("admission.inflight").Value(),
      0);
}

TEST_F(GuardrailFacadeTest, GuardTerminationFailsTheWholeBatchCall) {
  // Item-local errors fail per item (plan_cache_test BatchErrorPaths),
  // but a tripped guard is a request-level outcome: the whole call fails
  // and no partial answers escape.
  std::vector<BatchQueryItem> items = BigBatch();
  items.push_back({"a[[", items[0].options});  // would be item-local alone
  RequestOptions req;
  req.deadline_ms = 1;
  auto r = engine_.QueryBatch("big", items, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// --- update guard contract: abort strictly before Publish ---

TEST_F(GuardrailFacadeTest, UpdateBudgetAbortsPrePublish) {
  Smoqe e;
  ASSERT_TRUE(e.LoadDocument("d", "<r><item>t</item></r>").ok());
  const std::string before = *e.DocumentXml("d");
  // The grafted fragment's text forces arena growth on the clone, which
  // charges the request budget far past its limit.
  std::string stmt = "insert into r <item>" + std::string(1 << 20, 'x') +
                     "</item>";
  RequestOptions req;
  req.max_memory_bytes = 1024;
  auto r = e.Update("d", stmt, {}, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_EQ(*e.DocumentEpoch("d"), 0u) << "no snapshot may be published";
  EXPECT_EQ(*e.DocumentXml("d"), before);
  // Ungoverned, the identical update applies.
  ASSERT_TRUE(e.Update("d", stmt).ok());
  EXPECT_EQ(*e.DocumentEpoch("d"), 1u);
}

TEST_F(GuardrailFacadeTest, ViewUpdateResolutionChargesTheBudget) {
  // Target resolution runs HyPE over the document, governed like a query:
  // a budget too small for the walk fails the update closed, before any
  // authorization decision (so without an audit record either).
  Smoqe e;
  ASSERT_TRUE(
      e.RegisterDtd("hospital", testutil::kHospitalDtd, "hospital").ok());
  ASSERT_TRUE(e.GenerateDocument("ward", "hospital", 7, 14000).ok());
  ASSERT_TRUE(e.DefineView("research", "hospital", kNursePolicy).ok());
  const std::string before = *e.DocumentXml("ward");
  size_t elements = 0;
  for (size_t i = 0; i + 1 < before.size(); ++i) {
    if (before[i] == '<' && before[i + 1] != '/') ++elements;
  }
  ASSERT_GE(elements, 5000u);
  const uint64_t audit_before = e.telemetry()->audit().total();

  UpdateOptions research;
  research.view = "research";
  RequestOptions req;
  req.max_memory_bytes = 1024;
  auto r = e.Update("ward", "delete //treatment[test = 'unscheduled']",
                    research, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_EQ(*e.DocumentXml("ward"), before);
  EXPECT_EQ(*e.DocumentEpoch("ward"), 0u);
  EXPECT_EQ(e.telemetry()->audit().total(), audit_before);
}

TEST_F(GuardrailFacadeTest, CancelledUpdateLeavesNoAuditRecord) {
  Smoqe e;
  ASSERT_TRUE(
      e.RegisterDtd("hospital", testutil::kHospitalDtd, "hospital").ok());
  ASSERT_TRUE(e.LoadDocument("ward", testutil::kHospitalDoc).ok());
  ASSERT_TRUE(e.DefineView("nurses", "hospital", kNursePolicy).ok());
  const uint64_t audit_before = e.telemetry()->audit().total();

  CancelToken token;
  token.Cancel();
  RequestOptions req;
  req.cancel = &token;
  UpdateOptions nurse;
  nurse.view = "nurses";
  auto r = e.Update("ward", "delete hospital/patient", nurse, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(e.telemetry()->audit().total(), audit_before)
      << "guard rejections are not authorization decisions "
         "(docs/QUERY_LANGUAGE.md)";

  // A real denial, by contrast, appends exactly one reject record.
  auto denied = e.Update("ward", "delete hospital/patient", nurse);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(e.telemetry()->audit().total(), audit_before + 1);
}

#ifdef SMOQE_FAULT_INJECTION

// ---------------------------------------------------------------------
// Fault matrix: every injection site, each followed by the recovery
// differential — the next request answers byte-identically to a control
// engine that never faulted.
// ---------------------------------------------------------------------

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Instance().Reset();
    SetupEngine(&engine_);
    SetupEngine(&control_);
  }
  void TearDown() override { fault::FaultInjector::Instance().Reset(); }

  static void SetupEngine(Smoqe* e) {
    ASSERT_TRUE(
        e->RegisterDtd("hospital", testutil::kHospitalDtd, "hospital").ok());
    ASSERT_TRUE(e->LoadDocument("ward", testutil::kHospitalDoc).ok());
    ASSERT_TRUE(e->BuildIndex("ward").ok());
  }

  // Asserts engine_ and control_ agree byte-for-byte: document text,
  // epoch, and the answers to a probe query in both modes.
  void ExpectConverged() {
    EXPECT_EQ(*engine_.DocumentXml("ward"), *control_.DocumentXml("ward"));
    EXPECT_EQ(*engine_.DocumentEpoch("ward"), *control_.DocumentEpoch("ward"));
    for (EvalMode mode : {EvalMode::kDom, EvalMode::kStax}) {
      QueryOptions q;
      q.mode = mode;
      auto got = engine_.Query("ward", "//treatment", q);
      auto want = control_.Query("ward", "//treatment", q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->answers_xml, want->answers_xml);
    }
  }

  Smoqe engine_;
  Smoqe control_;
};

TEST_F(FaultMatrixTest, TokenizerFaultMidScan) {
  fault::FaultInjector::Instance().Arm("stax.read", 5);
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  auto r = engine_.Query("ward", "//treatment", stax);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status().ToString();
  ExpectConverged();
}

TEST_F(FaultMatrixTest, AllocFaultDuringRunExpansion) {
  // "engine.alloc" lives in Guardrail::ChargeBytes, so it needs a
  // budgeted request over a document big enough to reach a charge flush.
  ASSERT_TRUE(
      engine_.GenerateDocument("big", "hospital", 11, 20000).ok());
  ASSERT_TRUE(
      control_.GenerateDocument("big", "hospital", 11, 20000).ok());
  fault::FaultInjector::Instance().Arm("engine.alloc", 1);
  RequestOptions req;
  req.max_memory_bytes = 1ull << 30;  // never exceeded on its own
  auto r = engine_.Query("big", kHotQuery, {}, req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  auto got = engine_.Query("big", kHotQuery);
  auto want = control_.Query("big", kHotQuery);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->answers_xml, want->answers_xml);
}

TEST_F(FaultMatrixTest, StalledPoolWorkerOnlyDelays) {
  EngineOptions opts;
  opts.max_threads = 2;
  Smoqe pooled(opts);
  SetupEngine(&pooled);
  std::vector<BatchQueryItem> items = {
      {"//treatment", {}}, {"//pname", {}}, {"//medication", {}},
      {"//visit", {}}};
  auto clean = pooled.QueryBatch("ward", items);
  ASSERT_TRUE(clean.ok());
  fault::FaultInjector::Instance().Arm("pool.task", 1);
  auto stalled = pooled.QueryBatch("ward", items);
  ASSERT_TRUE(stalled.ok()) << "a stalled worker delays, it must not fail";
  ASSERT_EQ(stalled->size(), clean->size());
  for (size_t i = 0; i < clean->size(); ++i) {
    EXPECT_EQ((*stalled)[i].answers_xml, (*clean)[i].answers_xml) << i;
  }
}

TEST_F(FaultMatrixTest, IndexRepairFaultAbortsUpdatePrePublish) {
  const char* stmt =
      "insert into hospital/patient <visit><treatment><medication>m"
      "</medication></treatment><date>d9</date></visit>";
  fault::FaultInjector::Instance().Arm("tax.repair", 1);
  auto r = engine_.Update("ward", stmt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal) << r.status().ToString();
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
  ExpectConverged();  // nothing published, nothing torn
  // Disarmed now (a site fires once): the same update applies, and both
  // engines converge again.
  ASSERT_TRUE(engine_.Update("ward", stmt).ok());
  ASSERT_TRUE(control_.Update("ward", stmt).ok());
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 1u);
  ExpectConverged();
}

TEST_F(FaultMatrixTest, ApplyFaultAbortsUpdatePrePublish) {
  const char* stmt = "delete //treatment[medication = 'headache']";
  fault::FaultInjector::Instance().Arm("update.apply", 1);
  auto r = engine_.Update("ward", stmt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal) << r.status().ToString();
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
  ExpectConverged();
  ASSERT_TRUE(engine_.Update("ward", stmt).ok());
  ASSERT_TRUE(control_.Update("ward", stmt).ok());
  ExpectConverged();
}

TEST_F(FaultMatrixTest, SeededSweepOverTokenizerFaults) {
  // Matrix row: sweep deterministic (site, seed) pairs; every faulted
  // query fails cleanly and the engine recovers each time.
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  auto want = control_.Query("ward", "//treatment", stax);
  ASSERT_TRUE(want.ok());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // max_k = 8: well below the scan's event count, so the armed hit
    // always lands inside this query's pass.
    fault::FaultInjector::Instance().ArmSeeded("stax.read", seed, 8);
    auto r = engine_.Query("ward", "//treatment", stax);
    ASSERT_FALSE(r.ok()) << "seed " << seed;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError) << "seed " << seed;
    fault::FaultInjector::Instance().Reset();
    auto probe = engine_.Query("ward", "//treatment", stax);
    ASSERT_TRUE(probe.ok()) << "seed " << seed;
    EXPECT_EQ(probe->answers_xml, want->answers_xml) << "seed " << seed;
  }
}

#endif  // SMOQE_FAULT_INJECTION

}  // namespace
}  // namespace smoqe::core
