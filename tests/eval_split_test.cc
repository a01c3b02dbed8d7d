// Differential suite for the split DOM walk (docs/DESIGN.md §3.7): a walk
// split across a thread pool at the root must return the serial walk's
// answers — the same nodes, bytes and order — and its EvalStats walk
// counters. Covers large shallow and deep-genealogy wards, TAX off and
// on, pools of 2 and 4 threads, the direct benchmark queries and view
// queries rewritten through four security views. Root-anchored queries,
// whose qualifiers see the whole document, must stay serial.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/thread_pool.h"
#include "src/core/smoqe.h"
#include "src/eval/hype_dom.h"
#include "src/index/tax.h"
#include "src/rewrite/rewriter.h"
#include "src/view/annotation.h"
#include "src/view/derive.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe::eval {
namespace {

/// Queries whose root frame is open: a qualifier anchored at the root
/// (`.//test`, `not(patient/visit)`, a root text() test, a marker that
/// only the ward's last patient carries). Their walks must not split.
constexpr const char* kRootAnchored[] = {
    "hospital[.//test]//pname",
    "hospital[not(patient/visit)]/patient",
    "hospital[text() = '']//pname",
    "hospital[patient/pname = 'Zed']//pname",
};

/// The research-view queries of the benchmark's read mix.
constexpr const char* kResearchQueries[] = {
    "//treatment/test",
    "//patient[treatment/medication = 'autism']/treatment",
    "hospital/patient/(parent/patient)*/treatment/test",
    "//patient[not(treatment/test)]",
};

/// The walk counters a split walk must report exactly as the serial walk
/// does (the guard-pool and dedup-probe figures may differ).
const std::pair<const char*, uint64_t EvalStats::*> kWalkCounters[] = {
    {"nodes_visited", &EvalStats::nodes_visited},
    {"nodes_pruned", &EvalStats::nodes_pruned},
    {"subtrees_pruned", &EvalStats::subtrees_pruned},
    {"cans_entries", &EvalStats::cans_entries},
    {"pred_instances", &EvalStats::pred_instances},
    {"obligations", &EvalStats::obligations},
    {"runs_deduped", &EvalStats::runs_deduped},
    {"answers", &EvalStats::answers},
    {"max_active_pairs", &EvalStats::max_active_pairs},
};

struct Plan {
  std::string label;  // view name (or "direct") and query text
  automata::Mfa mfa;
  bool root_anchored;
};

std::vector<Plan> MakePlans(const std::shared_ptr<xml::NameTable>& names) {
  std::vector<Plan> plans;
  auto direct = [&](const std::string& q, bool root_anchored) {
    auto mfa = automata::Mfa::Compile(*testutil::MustQuery(q), names);
    EXPECT_TRUE(mfa.ok()) << q << ": " << mfa.status().ToString();
    if (mfa.ok()) {
      plans.push_back({"direct: " + q, std::move(*mfa), root_anchored});
    }
  };
  for (const workload::BenchQuery& q : workload::HospitalQueries()) {
    direct(q.text, false);
  }
  for (const char* q : kRootAnchored) direct(q, true);

  std::vector<std::string> view_queries(std::begin(kResearchQueries),
                                        std::end(kResearchQueries));
  for (const workload::BenchQuery& q : workload::HospitalViewQueries()) {
    view_queries.push_back(q.text);
  }
  const xml::Dtd dtd = workload::HospitalDtd();
  for (const testutil::NamedPolicy& p : testutil::PropertyPolicies()) {
    auto policy = view::Policy::Parse(dtd, p.text);
    EXPECT_TRUE(policy.ok()) << p.name << ": " << policy.status().ToString();
    if (!policy.ok()) continue;
    auto view = view::DeriveView(*policy);
    EXPECT_TRUE(view.ok()) << p.name << ": " << view.status().ToString();
    if (!view.ok()) continue;
    for (const std::string& q : view_queries) {
      auto mfa = rewrite::RewriteToMfa(*testutil::MustQuery(q), *view, names);
      EXPECT_TRUE(mfa.ok()) << p.name << ": " << q;
      if (mfa.ok()) {
        plans.push_back({std::string(p.name) + ": " + q, std::move(*mfa),
                         false});
      }
    }
  }
  return plans;
}

std::vector<std::string> Bytes(const DomEvalResult& r,
                               const xml::NameTable& names) {
  auto xml = xml::SerializeNodes(r.answers, names);
  EXPECT_TRUE(xml.ok()) << xml.status().ToString();
  return xml.ok() ? std::move(*xml) : std::vector<std::string>{};
}

class EvalSplitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    names_ = new std::shared_ptr<xml::NameTable>(xml::NameTable::Create());
    plans_ = new std::vector<Plan>(MakePlans(*names_));
  }
  static void TearDownTestSuite() {
    delete plans_;
    delete names_;
  }

  /// Walks every plan over a ward serially and split (pools of 2 and 4,
  /// TAX off and on) and compares. Returns how many walks split.
  int ExpectSplitMatchesSerial(bool deep, uint64_t seed) {
    const xml::Document ward = testutil::MakeWard(deep, seed, 20000, *names_);
    EXPECT_GE(ward.num_nodes(), 20000) << "seed " << seed;
    const index::TaxIndex tax = index::TaxIndex::Build(ward);
    ThreadPool pool2(2);
    ThreadPool pool4(4);
    int splits = 0;
    for (const Plan& plan : *plans_) {
      for (bool use_tax : {false, true}) {
        DomEvalOptions opts;
        if (use_tax) opts.tax = &tax;
        auto serial = EvalHypeDom(plan.mfa, ward, opts);
        EXPECT_TRUE(serial.ok()) << serial.status().ToString();
        if (!serial.ok()) continue;
        EXPECT_EQ(serial->stats.dom_parts, 1u);
        const std::vector<std::string> want = Bytes(*serial, **names_);
        for (ThreadPool* pool : {&pool2, &pool4}) {
          const std::string where =
              (deep ? "deep" : "shallow") + std::string(" seed ") +
              std::to_string(seed) + (use_tax ? " TAX" : "") + " pool " +
              std::to_string(pool->thread_count()) + " | " + plan.label;
          opts.pool = pool;
          auto split = EvalHypeDom(plan.mfa, ward, opts);
          EXPECT_TRUE(split.ok()) << where << ": "
                                  << split.status().ToString();
          if (!split.ok()) continue;
          if (plan.root_anchored) {
            EXPECT_EQ(split->stats.dom_parts, 1u) << where;
          }
          if (split->stats.dom_parts > 1) ++splits;
          EXPECT_EQ(testutil::IdsOf(split->answers),
                    testutil::IdsOf(serial->answers))
              << where;
          EXPECT_EQ(Bytes(*split, **names_), want) << where;
          for (const auto& [name, field] : kWalkCounters) {
            EXPECT_EQ(split->stats.*field, serial->stats.*field)
                << where << ": " << name;
          }
        }
      }
    }
    return splits;
  }

  static std::shared_ptr<xml::NameTable>* names_;
  static std::vector<Plan>* plans_;
};

std::shared_ptr<xml::NameTable>* EvalSplitTest::names_ = nullptr;
std::vector<Plan>* EvalSplitTest::plans_ = nullptr;

TEST_F(EvalSplitTest, ShallowWardsMatchSerial) {
  for (uint64_t seed : {1, 2, 3}) {
    // Most plans split: at least the direct benchmark queries, on both
    // pools, TAX off and on.
    EXPECT_GE(ExpectSplitMatchesSerial(/*deep=*/false, seed), 40)
        << "seed " << seed;
  }
}

TEST_F(EvalSplitTest, DeepWardsMatchSerial) {
  for (uint64_t seed : {1, 2, 3}) {
    EXPECT_GE(ExpectSplitMatchesSerial(/*deep=*/true, seed), 40)
        << "seed " << seed;
  }
}

TEST_F(EvalSplitTest, SmallDocumentsAndSerialPoolsDoNotSplit) {
  const xml::Document small = testutil::MakeWard(false, 4, 4000, *names_);
  ASSERT_LT(small.num_nodes(), kSplitNodes);
  const xml::Document big = testutil::MakeWard(false, 4, 20000, *names_);
  auto mfa = automata::Mfa::Compile(*testutil::MustQuery("//pname"), *names_);
  ASSERT_TRUE(mfa.ok());
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  DomEvalOptions opts;
  opts.pool = &pool4;
  auto r = EvalHypeDom(*mfa, small, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.dom_parts, 1u) << "below kSplitNodes";
  opts.pool = &pool1;
  r = EvalHypeDom(*mfa, big, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.dom_parts, 1u) << "one-thread pool";
  std::string tree;
  opts.pool = &pool4;
  r = EvalHypeDom(*mfa, big, opts, &tree);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.dom_parts, 1u) << "explain";
  r = EvalHypeDom(*mfa, big, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.dom_parts, 1u);
}

// The facade splits a single Query's walk on its pool, and runs batch
// items serially (they already fan out over the pool). Either way the
// answers are a serial engine's.
TEST(EvalSplitFacadeTest, SingleQueriesSplitAndBatchItemsDoNot) {
  core::EngineOptions par_opts;
  par_opts.max_threads = 4;
  core::Smoqe par(par_opts);
  core::EngineOptions ser_opts;
  ser_opts.max_threads = 1;
  core::Smoqe ser(ser_opts);
  const std::string text =
      xml::SerializeDocument(testutil::MakeWard(true, 5, 20000, nullptr));
  for (core::Smoqe* e : {&par, &ser}) {
    ASSERT_TRUE(
        e->RegisterDtd("hospital", testutil::kHospitalDtd, "hospital").ok());
    ASSERT_TRUE(e->LoadDocument("ward", text).ok());
    ASSERT_TRUE(e->DefineView("research", "hospital",
                              workload::kHospitalPolicyResearch)
                    .ok());
  }
  core::QueryOptions direct;
  core::QueryOptions research;
  research.view = "research";
  const std::vector<std::pair<const char*, core::QueryOptions>> queries = {
      {"//patient[.//medication = 'autism']/pname", direct},
      {"//patient[not(treatment/test)]", research},
  };
  for (const auto& [q, o] : queries) {
    auto want = ser.Query("ward", q, o);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(want->stats.dom_parts, 1u) << q;
    auto got = par.Query("ward", q, o);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(got->stats.dom_parts, 1u) << q;
    EXPECT_EQ(got->answers_xml, want->answers_xml) << q;
    EXPECT_EQ(got->answer_ids, want->answer_ids) << q;
    EXPECT_FALSE(want->answers_xml.empty()) << q;

    auto batch = par.QueryBatch("ward", {{q, o}, {q, o}});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const core::QueryAnswer& item : *batch) {
      EXPECT_EQ(item.stats.dom_parts, 1u) << q;
      EXPECT_EQ(item.answers_xml, want->answers_xml) << q;
      EXPECT_EQ(item.answer_ids, want->answer_ids) << q;
    }
  }
}

}  // namespace
}  // namespace smoqe::eval
