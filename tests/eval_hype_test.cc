#include "src/eval/hype_dom.h"

#include <gtest/gtest.h>

#include "src/automata/mfa.h"
#include "src/eval/guard_pool.h"
#include "tests/test_util.h"

namespace smoqe::eval {
namespace {

using automata::Mfa;
using testutil::HospitalQueryCorpus;
using testutil::IdsOf;
using testutil::kHospitalDoc;
using testutil::MustDoc;
using testutil::MustQuery;
using testutil::NaiveIds;

/// Sorted conjunction of predicate-instance ids.
using GuardSet = std::vector<InstId>;

std::vector<int32_t> HypeIds(const xml::Document& doc, std::string_view q,
                             const index::TaxIndex* tax = nullptr) {
  auto query = MustQuery(q);
  auto mfa = Mfa::Compile(*query, doc.names());
  EXPECT_TRUE(mfa.ok()) << mfa.status().ToString();
  DomEvalOptions opts;
  opts.tax = tax;
  auto r = EvalHypeDom(*mfa, doc, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return IdsOf(r->answers);
}

// ---------------------------------------------------------------------
// Differential suite: HyPE(DOM) must agree with the reference evaluator
// on every corpus query over the hand-written hospital instance.
// ---------------------------------------------------------------------

class HypeCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(HypeCorpusTest, MatchesNaiveOnHandWrittenDoc) {
  xml::Document doc = MustDoc(kHospitalDoc);
  auto query = MustQuery(GetParam());
  EXPECT_EQ(HypeIds(doc, GetParam()), NaiveIds(doc, *query))
      << "query: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Corpus, HypeCorpusTest,
                         ::testing::ValuesIn(testutil::HospitalQueryCorpus()));

// Property test: random generated hospital documents, every corpus query.
class HypeRandomDocTest : public ::testing::TestWithParam<int> {};

TEST_P(HypeRandomDocTest, MatchesNaiveOnGeneratedDocs) {
  xml::Document doc =
      testutil::GenHospital(static_cast<uint64_t>(GetParam()), 400);
  for (const char* q : HospitalQueryCorpus()) {
    auto query = MustQuery(q);
    EXPECT_EQ(HypeIds(doc, q), NaiveIds(doc, *query))
        << "seed " << GetParam() << " query: " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypeRandomDocTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------
// Targeted behaviours
// ---------------------------------------------------------------------

TEST(HypeTest, AttributePredicates) {
  xml::Document doc =
      MustDoc("<r><item id='a'/><item id='b' flag='1'/><item/></r>");
  EXPECT_EQ(HypeIds(doc, "r/item[@id]").size(), 2u);
  EXPECT_EQ(HypeIds(doc, "r/item[@id = 'b']").size(), 1u);
  EXPECT_EQ(HypeIds(doc, "r/item[not(@id)]").size(), 1u);
  EXPECT_EQ(HypeIds(doc, "r[item/@flag = '1']").size(), 1u);
  EXPECT_EQ(HypeIds(doc, "r/item[@missing]").size(), 0u);
}

TEST(HypeTest, AnswersAreDocOrderedAndUnique) {
  xml::Document doc = MustDoc(kHospitalDoc);
  auto ids = HypeIds(doc, "//patient | hospital/patient");
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(HypeTest, StatsReflectSinglePass) {
  xml::Document doc = MustDoc(kHospitalDoc);
  auto query = MustQuery("//patient[visit/treatment/medication = 'autism']");
  auto mfa = Mfa::Compile(*query, doc.names());
  ASSERT_TRUE(mfa.ok());
  auto r = EvalHypeDom(*mfa, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.tree_passes, 1u);
  EXPECT_EQ(r->stats.aux_passes, 1u);
  EXPECT_GT(r->stats.pred_instances, 0u);
  EXPECT_GT(r->stats.cans_entries, 0u);
  EXPECT_EQ(r->stats.answers, 1u);
}

TEST(HypeTest, DeadRunPruningSkipsSubtrees) {
  // Query touching only pname: visiting a visit subtree is unnecessary.
  xml::Document doc = MustDoc(kHospitalDoc);
  auto query = MustQuery("hospital/patient/pname");
  auto mfa = Mfa::Compile(*query, doc.names());
  ASSERT_TRUE(mfa.ok());
  auto r = EvalHypeDom(*mfa, doc);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.subtrees_pruned, 0u);
  EXPECT_GT(r->stats.nodes_pruned, 0u);
  // Visited + pruned accounts for part of the tree; visited < all elements.
  EXPECT_LT(r->stats.nodes_visited,
            static_cast<uint64_t>(doc.num_elements()));
}

TEST(HypeTest, MfaMustShareDocNameTable) {
  xml::Document doc = MustDoc("<a/>");
  auto query = MustQuery("a");
  auto mfa = Mfa::Compile(*query, xml::NameTable::Create());
  ASSERT_TRUE(mfa.ok());
  EXPECT_FALSE(EvalHypeDom(*mfa, doc).ok());
}

TEST(HypeTest, QueryLabelAbsentFromDocument) {
  xml::Document doc = MustDoc("<a><b/></a>");
  EXPECT_TRUE(HypeIds(doc, "a/zzz").empty());
  EXPECT_TRUE(HypeIds(doc, "zzz").empty());
  EXPECT_EQ(HypeIds(doc, "a[not(zzz)]").size(), 1u);
}

TEST(HypeTest, DeeplyNestedDocumentNoRecursionIssues) {
  // 5000-deep chain; the engine and driver are iterative.
  std::string open, close;
  for (int i = 0; i < 5000; ++i) {
    open += "<d>";
    close += "</d>";
  }
  xml::Document doc = MustDoc(open + "<leaf/>" + close);
  EXPECT_EQ(HypeIds(doc, "//leaf").size(), 1u);
}

// The iSMOQE explain tree (V=visited, P=pruned, C=candidate, A=answer)
// of `q` over `doc` with the TAX index on.
std::string ExplainTree(const xml::Document& doc, std::string_view q) {
  auto query = MustQuery(q);
  auto mfa = Mfa::Compile(*query, doc.names());
  EXPECT_TRUE(mfa.ok()) << mfa.status().ToString();
  index::TaxIndex tax = index::TaxIndex::Build(doc);
  DomEvalOptions opts;
  opts.tax = &tax;
  std::string tree;
  auto r = EvalHypeDom(*mfa, doc, opts, &tree);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return tree;
}

TEST(HypeTest, ExplainTreeMarksEveryNode) {
  // a#1 has a <c> child: answer. a#2 has a <c> only below <d>, so TAX
  // keeps it open but its predicate fails: candidate, not answer. <d>
  // holds no <a> and its <c> is no child of an <a>, so TAX prunes <d> and
  // the <c> under it is never entered.
  xml::Document doc = MustDoc("<r><a><b/><c/></a><a><d><c/></d></a></r>");
  EXPECT_EQ(ExplainTree(doc, "//a[c]"),
            "V... r\n"
            "V.CA   a\n"
            "VP..     b\n"
            "VP..     c\n"
            "V.C.   a\n"
            "VP..     d\n"
            "....       c\n");
}

// Cans unit behaviour.
TEST(CansTest, DominanceAndSelection) {
  Cans cans;
  std::vector<PredInstance> insts(3);
  insts[0] = {0, 0, true, true, {}};
  insts[1] = {1, 0, true, false, {}};
  insts[2] = {2, 0, true, true, {}};

  cans.Add(5, GuardSet{0, 1}.data(), 2);  // false (inst 1 false)
  // true — dominates the previous alternative
  cans.Add(5, GuardSet{0}.data(), 1);
  cans.Add(9, GuardSet{1}.data(), 1);     // false
  cans.Add(12, nullptr, 0);               // unconditional
  cans.Add(20, GuardSet{2}.data(), 1);    // true
  cans.Add(20, GuardSet{1, 2}.data(), 2);  // dominated, ignored

  auto sel = cans.Select(insts);
  EXPECT_EQ(sel, (std::vector<int32_t>{5, 12, 20}));
  EXPECT_EQ(cans.node_count(), 4u);
}

TEST(CansTest, UnsatisfiedGuardsDropNode) {
  Cans cans;
  std::vector<PredInstance> insts(1);
  insts[0] = {0, 0, true, false, {}};
  cans.Add(3, GuardSet{0}.data(), 1);
  EXPECT_TRUE(cans.Select(insts).empty());
}

// GuardPool: the append-only arena of immutable guard sets.

GuardSet Read(const GuardPool& pool, GuardRef g) {
  return GuardSet(pool.data(g), pool.data(g) + pool.size(g));
}

TEST(GuardPoolTest, MergeOfMemberReturnsBaseAndCountsHit) {
  GuardPool pool;
  GuardRef g = pool.Merge(pool.Merge(GuardPool::kEmpty, 4), 9);
  const size_t entries = pool.entry_count();
  const uint64_t hits = pool.hits();
  EXPECT_EQ(pool.Merge(g, 4), g);
  EXPECT_EQ(pool.Merge(g, 9), g);
  EXPECT_EQ(pool.hits(), hits + 2);
  EXPECT_EQ(pool.entry_count(), entries);  // no new storage
}

TEST(GuardPoolTest, MergesStaySortedAndDuplicateFree) {
  GuardPool pool;
  GuardRef g = GuardPool::kEmpty;
  for (InstId x : {7, 3, 11, 3, 0, 7, 5}) g = pool.Merge(g, x);
  EXPECT_EQ(Read(pool, g), (GuardSet{0, 3, 5, 7, 11}));
  EXPECT_EQ(pool.size(g), 5u);
  EXPECT_EQ(pool.size(GuardPool::kEmpty), 0u);
  // Extending a shared set leaves the original untouched.
  GuardRef base = pool.Merge(GuardPool::kEmpty, 2);
  GuardRef ext = pool.Merge(base, 1);
  EXPECT_EQ(Read(pool, base), (GuardSet{2}));
  EXPECT_EQ(Read(pool, ext), (GuardSet{1, 2}));
}

TEST(GuardPoolTest, IsSubsetOnDisjointEqualAndNestedSets) {
  GuardPool pool;
  auto make = [&](std::initializer_list<InstId> xs) {
    GuardRef g = GuardPool::kEmpty;
    for (InstId x : xs) g = pool.Merge(g, x);
    return g;
  };
  GuardRef a = make({1, 2});
  GuardRef b = make({3, 4});
  GuardRef a2 = make({2, 1});  // equal content, separate handle
  GuardRef c = make({1, 2, 3});
  EXPECT_NE(a, a2);
  // Disjoint.
  EXPECT_FALSE(pool.IsSubset(a, b));
  EXPECT_FALSE(pool.IsSubset(b, a));
  // Equal.
  EXPECT_TRUE(pool.IsSubset(a, a2));
  EXPECT_TRUE(pool.IsSubset(a2, a));
  EXPECT_TRUE(pool.IsSubset(a, a));
  // Nested, and the empty guard below everything.
  EXPECT_TRUE(pool.IsSubset(a, c));
  EXPECT_FALSE(pool.IsSubset(c, a));
  EXPECT_TRUE(pool.IsSubset(GuardPool::kEmpty, c));
  EXPECT_FALSE(pool.IsSubset(c, GuardPool::kEmpty));
}

TEST(GuardPoolTest, EarlyHandlesSurviveArenaGrowth) {
  GuardPool pool;
  std::vector<GuardRef> early;
  std::vector<GuardSet> want;
  GuardRef g = GuardPool::kEmpty;
  for (InstId x = 0; x < 32; ++x) {
    g = pool.Merge(g, x * 2);
    early.push_back(g);
    want.push_back(Read(pool, g));
  }
  // ≥10k appends of growing sets: the arena moves on to new blocks many
  // times, and the early sets must still read back unchanged.
  GuardRef h = GuardPool::kEmpty;
  for (InstId x = 0; x < 12000; ++x) {
    h = pool.Merge(x % 64 == 0 ? GuardPool::kEmpty : h, x);
  }
  EXPECT_GE(pool.entry_count(), 12000u);
  for (size_t i = 0; i < early.size(); ++i) {
    EXPECT_EQ(Read(pool, early[i]), want[i]) << "handle " << i;
    EXPECT_EQ(pool.data(early[i])[0], 0);
  }
}

}  // namespace
}  // namespace smoqe::eval
