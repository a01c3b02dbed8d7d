// Fuzz-style differential suite: random Regular XPath queries over random
// hospital documents; every engine must agree with the reference
// evaluator — naive ≡ HyPE(DOM) ≡ HyPE(DOM+TAX) ≡ HyPE(StAX) ≡ TwoPass.

#include <gtest/gtest.h>

#include <set>

#include "src/automata/mfa.h"
#include "src/eval/hype_dom.h"
#include "src/eval/hype_stax.h"
#include "src/eval/two_pass.h"
#include "src/index/tax.h"
#include "src/rxpath/printer.h"
#include "src/rxpath/random_query.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe::eval {
namespace {

rxpath::RandomQueryOptions HospitalQueryOptions() {
  rxpath::RandomQueryOptions opts;
  opts.labels = {"hospital", "patient", "pname",  "visit",
                 "treatment", "test",   "medication", "parent", "date"};
  opts.values = {"autism", "headache", "Alice", "blood", "2006-01-02"};
  opts.max_depth = 5;
  opts.pred_p = 0.35;
  return opts;
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, AllEnginesAgreeOnRandomQueries) {
  // The generator's first draw is correlated across adjacent small
  // seeds, so whole seed blocks give a bare <hospital/> that checks
  // nothing (1001 and 1003–1007 do); 1020–1029 all grow. The size guard
  // keeps a re-seeding from silently emptying the suite.
  const uint64_t doc_seed = 1020 + static_cast<uint64_t>(GetParam());
  auto names = xml::NameTable::Create();
  xml::Document doc = testutil::GenHospital(doc_seed, 300, names);
  ASSERT_GE(doc.num_nodes(), 150u) << "doc seed " << doc_seed;
  std::string text = xml::SerializeDocument(doc);
  index::TaxIndex tax = index::TaxIndex::Build(doc);
  rxpath::RandomQueryOptions qopts = HospitalQueryOptions();

  rxpath::NaiveEvaluator naive(doc);
  for (uint64_t qseed = 0; qseed < 40; ++qseed) {
    std::unique_ptr<rxpath::PathExpr> query =
        rxpath::RandomQuery(doc_seed * 100 + qseed, qopts);
    SCOPED_TRACE("doc seed " + std::to_string(doc_seed) + " query " +
                 rxpath::ToString(*query));

    const std::vector<const xml::Node*> want_nodes = naive.Eval(*query);
    const std::vector<int32_t> want = testutil::IdsOf(want_nodes);

    auto mfa = automata::Mfa::Compile(*query, names);
    ASSERT_TRUE(mfa.ok());

    auto dom = EvalHypeDom(*mfa, doc);
    ASSERT_TRUE(dom.ok());
    EXPECT_EQ(testutil::IdsOf(dom->answers), want) << "HyPE DOM";

    DomEvalOptions with_tax;
    with_tax.tax = &tax;
    auto taxed = EvalHypeDom(*mfa, doc, with_tax);
    ASSERT_TRUE(taxed.ok());
    EXPECT_EQ(testutil::IdsOf(taxed->answers), want) << "HyPE DOM+TAX";

    auto stax = EvalHypeStax(*mfa, text);
    ASSERT_TRUE(stax.ok()) << stax.status().ToString();
    ASSERT_EQ(stax->answers.size(), want.size()) << "HyPE StAX";
    for (size_t i = 0; i < want_nodes.size(); ++i) {
      EXPECT_EQ(stax->answers[i].xml,
                xml::SerializeNode(want_nodes[i], *names))
          << "HyPE StAX answer " << i;
    }

    auto two = EvalTwoPass(*mfa, doc);
    ASSERT_TRUE(two.ok());
    EXPECT_EQ(testutil::IdsOf(two->answers), want) << "TwoPass";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 10));

TEST(FuzzDeterminismTest, SameSeedSameQuery) {
  rxpath::RandomQueryOptions opts = HospitalQueryOptions();
  for (uint64_t seed = 0; seed < 50; ++seed) {
    auto a = rxpath::RandomQuery(seed, opts);
    auto b = rxpath::RandomQuery(seed, opts);
    EXPECT_TRUE(a->Equals(*b));
  }
}

TEST(FuzzDeterminismTest, QueriesRoundTripThroughPrinter) {
  rxpath::RandomQueryOptions opts = HospitalQueryOptions();
  for (uint64_t seed = 0; seed < 200; ++seed) {
    auto q = rxpath::RandomQuery(seed, opts);
    std::string printed = rxpath::ToString(*q);
    auto back = rxpath::ParseQuery(printed);
    ASSERT_TRUE(back.ok()) << printed;
    EXPECT_TRUE((*back)->Equals(*q)) << printed;
  }
}

}  // namespace
}  // namespace smoqe::eval
