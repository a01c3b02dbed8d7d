// Randomized path-agreement suite for the HyPE hot path: for every random
// query, each evaluation path — DOM, DOM with TAX pruning, and StAX over
// the serialized document — must return the reference naive evaluator's
// answers. Covers the hospital and org workloads, plus the deep-genealogy
// hospital variant: there, descendant predicates share obligation runs
// across the instances of every ancestor, and some anchored random
// queries still exceed the hashed-dedup threshold, so
// AddRunHashed/SeedRunIndex execute on every path (StAX and TAX included).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/automata/mfa.h"
#include "src/eval/hype_dom.h"
#include "src/eval/hype_stax.h"
#include "src/index/tax.h"
#include "src/rxpath/printer.h"
#include "src/rxpath/random_query.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe::eval {
namespace {

rxpath::RandomQueryOptions HospitalQueryOptions() {
  rxpath::RandomQueryOptions opts;
  opts.labels = {"hospital", "patient", "pname",      "visit",
                 "treatment", "test",   "medication", "parent",
                 "date"};
  opts.values = {"autism", "headache", "Alice", "blood", "2006-01-02"};
  opts.max_depth = 5;
  opts.pred_p = 0.35;
  return opts;
}

rxpath::RandomQueryOptions OrgQueryOptions() {
  rxpath::RandomQueryOptions opts;
  opts.labels = {"company", "division", "group",  "employee", "dname",
                 "gname",   "ename",    "salary", "review"};
  opts.values = {"50000", "ada", "r&d", "core", "exceeds"};
  opts.max_depth = 5;
  opts.pred_p = 0.35;
  return opts;
}

/// One document prepared for every evaluation path: its TAX index and its
/// serialized text for the StAX scan.
class PathAgreement {
 public:
  explicit PathAgreement(const xml::Document& doc)
      : doc_(doc),
        naive_(doc),
        tax_(index::TaxIndex::Build(doc)),
        text_(xml::SerializeDocument(doc)) {}

  /// Compiles `query` and asserts DOM, DOM+TAX and StAX all return the
  /// naive evaluator's answers.
  void Expect(const rxpath::PathExpr& query) {
    std::vector<const xml::Node*> want = naive_.Eval(query);
    auto mfa = automata::Mfa::Compile(query, doc_.names());
    ASSERT_TRUE(mfa.ok());

    auto dom = EvalHypeDom(*mfa, doc_);
    ASSERT_TRUE(dom.ok());
    EXPECT_EQ(testutil::IdsOf(dom->answers), testutil::IdsOf(want))
        << "HyPE DOM";

    DomEvalOptions with_tax;
    with_tax.tax = &tax_;
    auto taxed = EvalHypeDom(*mfa, doc_, with_tax);
    ASSERT_TRUE(taxed.ok());
    EXPECT_EQ(testutil::IdsOf(taxed->answers), testutil::IdsOf(want))
        << "HyPE DOM+TAX";

    auto stax = EvalHypeStax(*mfa, text_);
    ASSERT_TRUE(stax.ok()) << stax.status().ToString();
    ASSERT_EQ(stax->answers.size(), want.size()) << "HyPE StAX";
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(stax->answers[i].xml,
                xml::SerializeNode(want[i], *doc_.names()))
          << "HyPE StAX answer " << i;
    }
  }

 private:
  const xml::Document& doc_;
  rxpath::NaiveEvaluator naive_;
  index::TaxIndex tax_;
  std::string text_;
};

/// Checks each random query as generated and anchored at every element
/// (`(*)*/(q)`): most generated queries start below the root label and
/// select nothing from the document node, the anchored form reaches the
/// deep, wide frames.
void RunSuite(const xml::Document& doc, const rxpath::RandomQueryOptions& qopts,
              uint64_t seed_base, int num_queries) {
  PathAgreement paths(doc);
  for (int i = 0; i < num_queries; ++i) {
    std::unique_ptr<rxpath::PathExpr> query =
        rxpath::RandomQuery(seed_base + static_cast<uint64_t>(i), qopts);
    const std::string text = rxpath::ToString(*query);
    SCOPED_TRACE("seed " + std::to_string(seed_base + i) + " query " + text);
    paths.Expect(*query);
    auto anchored = rxpath::ParseQuery("(*)*/(" + text + ")");
    ASSERT_TRUE(anchored.ok());
    paths.Expect(**anchored);
  }
}

// 220 random queries across the three suites below; each one checks three
// evaluation paths vs naive, as generated and anchored.

TEST(HotPathEquivTest, HospitalRandomQueries) {
  auto names = xml::NameTable::Create();
  // Not seed 4242: it generates a bare <hospital/> (the root's patient*
  // draws zero children), which leaves nothing to check. The size guards
  // below keep a generator change from emptying a suite silently.
  xml::Document doc = testutil::GenHospital(1234, 1200, names);
  ASSERT_GT(doc.num_nodes(), 600u);
  RunSuite(doc, HospitalQueryOptions(), /*seed_base=*/9000, /*num_queries=*/80);
}

TEST(HotPathEquivTest, HospitalDeepRandomQueries) {
  auto names = xml::NameTable::Create();
  // Not seed 4242 either: the deep variant is a bare <hospital/> there too.
  auto doc = workload::GenHospitalDeep(1234, 2500, names);
  ASSERT_TRUE(doc.ok());
  ASSERT_GT(doc->num_nodes(), 2000u);
  RunSuite(*doc, HospitalQueryOptions(), /*seed_base=*/10000,
           /*num_queries=*/60);
}

TEST(HotPathEquivTest, OrgRandomQueries) {
  auto names = xml::NameTable::Create();
  auto doc = workload::GenOrg(777, 1200, names);
  ASSERT_TRUE(doc.ok());
  ASSERT_GT(doc->num_nodes(), 600u);
  RunSuite(*doc, OrgQueryOptions(), /*seed_base=*/11000, /*num_queries=*/80);
}

// The curated benchmark queries — including the descendant-predicate pair
// whose wide frames drive the trajectory numbers — on the deep document.
TEST(HotPathEquivTest, BenchQueriesOnDeepHospital) {
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospitalDeep(1234, 4000, names);
  ASSERT_TRUE(doc.ok());
  PathAgreement paths(*doc);
  for (const auto& bq : workload::HospitalQueries()) {
    auto query = rxpath::ParseQuery(bq.text);
    ASSERT_TRUE(query.ok()) << bq.text;
    SCOPED_TRACE(std::string(bq.id) + ": " + bq.text);
    paths.Expect(**query);
  }
}

// Nested descendant predicates make instances at every level of the deep
// genealogy share obligation runs with their ancestors' instances, each
// owner under its own guard; `not()` and `or` over `.//` paths resolve
// those owners at different elements. Every path must still agree with
// the naive evaluator.
TEST(HotPathEquivTest, SharedObligationRunsOnDeepHospital) {
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospitalDeep(1234, 4000, names);
  ASSERT_TRUE(doc.ok());
  ASSERT_GT(doc->num_nodes(), 3000u);
  PathAgreement paths(*doc);
  rxpath::NaiveEvaluator naive(*doc);
  size_t answered = 0;
  for (const char* text : {
           "//patient[.//patient[.//medication = 'autism']]/pname",
           "//patient[not(.//patient[treatment])]",
           "//patient[not(.//patient[visit/treatment/test])]/pname",
           "//patient[.//medication = 'autism' or .//test = 'blood']/pname",
           "//patient[.//patient[.//medication = 'autism'] and "
           "not(.//test)]/pname",
           "//patient[.//pname = 'Alice' or "
           "not(.//patient[.//medication = 'headache'])]/pname",
           "//patient[.//parent[.//test] and .//medication]/visit/date",
           "//parent[.//patient[not(.//parent)]]/patient/pname",
           "(*)*/patient[(parent/patient)*/visit[.//medication = "
           "'autism']]/pname",
       }) {
    SCOPED_TRACE(text);
    auto query = rxpath::ParseQuery(text);
    ASSERT_TRUE(query.ok());
    paths.Expect(**query);
    if (!naive.Eval(**query).empty()) ++answered;
  }
  EXPECT_GE(answered, 6u) << "most queries must select something";
}

// Obligation runs are keyed without their owner, so a descendant
// predicate evaluated at every level of the genealogy keeps one run per
// (obligation, leaf, state, guard): the frame width does not grow with
// the document's depth or size.
TEST(HotPathEquivTest, DescendantPredicatesStayNarrow) {
  auto names = xml::NameTable::Create();
  auto small = workload::GenHospitalDeep(1234, 1000, names);
  auto large = workload::GenHospitalDeep(1234, 16000, names);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  ASSERT_GT(large->num_nodes(), 10 * small->num_nodes());
  int checked = 0;
  for (const auto& bq : workload::HospitalQueries()) {
    const std::string id(bq.id);
    if (id != "desc-pred" && id != "desc-neg") continue;
    SCOPED_TRACE(id);
    auto query = rxpath::ParseQuery(bq.text);
    ASSERT_TRUE(query.ok());
    auto mfa = automata::Mfa::Compile(**query, names);
    ASSERT_TRUE(mfa.ok());
    auto on_small = EvalHypeDom(*mfa, *small);
    auto on_large = EvalHypeDom(*mfa, *large);
    ASSERT_TRUE(on_small.ok());
    ASSERT_TRUE(on_large.ok());
    EXPECT_EQ(on_small->stats.max_active_pairs,
              on_large->stats.max_active_pairs);
    EXPECT_LE(on_large->stats.max_active_pairs, 8u);
    ++checked;
  }
  EXPECT_EQ(checked, 2);
}

// Some random queries still widen frames past the hashed-dedup threshold
// (the anchored `(*)*` prefix over a `(*)*` body keeps many distinct
// selection states and guards alive), so the random suites above keep
// covering AddRunHashed/SeedRunIndex on every path.
TEST(HotPathEquivTest, DeepHospitalExercisesHashedDedup) {
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospitalDeep(1234, 2500, names);
  ASSERT_TRUE(doc.ok());
  auto query = rxpath::ParseQuery(
      "(*)*/(*[test]/(*)*/treatment/test/pname/date[text() = 'blood']/date/"
      "treatment[date | parent = 'headache']/((*)*/treatment)[test])");
  ASSERT_TRUE(query.ok());
  auto mfa = automata::Mfa::Compile(**query, names);
  ASSERT_TRUE(mfa.ok());
  auto r = EvalHypeDom(*mfa, *doc);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.max_active_pairs, 16u);  // above kRunIndexThreshold
  EXPECT_GT(r->stats.run_dedup_probes, 0u);
  PathAgreement(*doc).Expect(**query);
}

}  // namespace
}  // namespace smoqe::eval
