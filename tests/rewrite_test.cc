#include "src/rewrite/rewriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/automata/mfa.h"
#include "src/eval/hype_dom.h"
#include "src/index/tax.h"
#include "src/rewrite/expr_rewriter.h"
#include "src/rxpath/naive_eval.h"
#include "src/rxpath/printer.h"
#include "src/view/derive.h"
#include "src/view/materialize.h"
#include "tests/test_util.h"

namespace smoqe::rewrite {
namespace {

using testutil::kHospitalDoc;
using testutil::kHospitalDtd;
using testutil::MustDoc;
using testutil::MustDtd;
using testutil::MustQuery;
using testutil::NamedPolicy;
using testutil::kPolicyS0;
using testutil::PropertyPolicies;
using view::DeriveView;
using view::Materialize;
using view::Policy;
using view::ViewDefinition;

ViewDefinition MustView(const xml::Dtd& dtd, std::string_view policy_text) {
  auto policy = Policy::Parse(dtd, policy_text);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  auto view = DeriveView(*policy);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.MoveValue();
}

/// Queries users may pose against the *view* schema (hospital → patient →
/// treatment|parent → …).
std::vector<const char*> ViewQueryCorpus() {
  return {
      "hospital",
      "hospital/patient",
      "hospital/patient/treatment",
      "hospital/patient/treatment/medication",
      "//patient",
      "//medication",
      "//treatment[medication]",
      "//patient[treatment]",
      "//patient[not(treatment)]",
      "//patient[treatment/medication = 'autism']",
      "hospital/patient/(parent/patient)*",
      "hospital/patient/(parent/patient)*/treatment",
      "//parent/patient",
      "hospital/*",
      "hospital/*/treatment | //parent",
      "//patient[parent/patient[treatment]]",
      "//medication[text() = 'autism']",
      "//patient[treatment and parent]",
      "hospital/patient[not(parent)]/treatment/medication",
      "//*",
      "//*[medication = 'flu']",
  };
}

/// Ground truth: evaluate Q on the materialized view, map answers back to
/// source-document node ids through provenance, dedupe.
std::vector<int32_t> ViewTruth(const ViewDefinition& view,
                               const xml::Document& doc,
                               const rxpath::PathExpr& q) {
  auto mat = Materialize(view, doc);
  EXPECT_TRUE(mat.ok()) << mat.status().ToString();
  rxpath::NaiveEvaluator ev(mat->document);
  std::set<int32_t> ids;
  for (const xml::Node* n : ev.Eval(q)) {
    ids.insert(mat->source_node_id[n->node_id]);
  }
  return {ids.begin(), ids.end()};
}

/// Ids of the nodes HyPE selects on the document (TAX-pruned when `tax`
/// is set), deduped.
std::vector<int32_t> HypeIds(const automata::Mfa& mfa,
                             const xml::Document& doc,
                             const index::TaxIndex* tax = nullptr) {
  eval::DomEvalOptions opts;
  opts.tax = tax;
  auto r = eval::EvalHypeDom(mfa, doc, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::set<int32_t> ids;
  for (const xml::Node* n : r->answers) ids.insert(n->node_id);
  return {ids.begin(), ids.end()};
}

/// Rewritten query evaluated directly on the document with HyPE.
std::vector<int32_t> RewrittenAnswers(const ViewDefinition& view,
                                      const xml::Document& doc,
                                      const rxpath::PathExpr& q,
                                      const index::TaxIndex* tax = nullptr) {
  auto mfa = RewriteToMfa(q, view, doc.names());
  EXPECT_TRUE(mfa.ok()) << mfa.status().ToString();
  return HypeIds(*mfa, doc, tax);
}

// =====================================================================
// Central correctness property (paper §1): Q′(T) = Q(V(T)).
// =====================================================================

class RewriteCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RewriteCorpusTest, EquivalentToMaterializedEvaluation) {
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  ViewDefinition view = MustView(dtd, kPolicyS0);
  xml::Document doc = MustDoc(kHospitalDoc);
  auto q = MustQuery(GetParam());
  EXPECT_EQ(RewrittenAnswers(view, doc, *q), ViewTruth(view, doc, *q))
      << "query: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ViewQueries, RewriteCorpusTest,
                         ::testing::ValuesIn(ViewQueryCorpus()));

// Update target resolution (docs/DESIGN.md §6.1) rests on the same
// property: Smoqe::Update compiles a target path's printed form (the
// plan-cache key) — rewritten for a view, as-is for a trusted direct
// update — and evaluates it with HyPE, TAX-pruned when the document is
// indexed. These are the update targets of update_auth_test and of
// update_maintenance_test's statement pool, plus the shape of the
// benchmark writer's `//treatment[test = 'tK']`.
std::vector<const char*> UpdateTargetCorpus() {
  return {
      "hospital",
      "hospital/patient",
      "hospital/patient[pname = 'Carol']",
      "hospital/patient[pname = 'Eve']",
      "hospital/patient/pname[. = 'Carol']",
      "//pname",
      "//treatment",
      "//treatment[medication = 'headache']",
      "//treatment[test]",
      "//treatment[test = 'blood']",
      "//patient[not(visit)]",
      "//patient/visit[treatment/medication = 'cold']",
      "//parent[patient[not(visit) and not(parent)]]",
      "//medication[. = 'headache']",
      "//visit[date = 'dx']",
  };
}

TEST(RewriteTest, PropertyOverRandomDocs) {
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  std::vector<ViewDefinition> views;
  for (const NamedPolicy& p : PropertyPolicies()) {
    views.push_back(MustView(dtd, p.text));
  }
  // Update targets in printed form, as the facade compiles them.
  std::vector<std::string> targets;
  for (const char* qs : UpdateTargetCorpus()) {
    targets.push_back(rxpath::ToString(*MustQuery(qs)));
  }
  std::vector<std::string> paths = targets;
  for (const char* qs : ViewQueryCorpus()) paths.push_back(qs);
  std::vector<xml::Document> docs;
  docs.push_back(MustDoc(kHospitalDoc));
  for (uint64_t seed = 71; seed <= 78; ++seed) {
    docs.push_back(testutil::GenHospital(seed, 300));
    ASSERT_GE(docs.back().num_nodes(), 150) << "seed " << seed;
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    const xml::Document& doc = docs[d];
    const index::TaxIndex tax = index::TaxIndex::Build(doc);
    for (const std::string& qs : paths) {
      auto q = MustQuery(qs);
      for (size_t v = 0; v < views.size(); ++v) {
        const std::string where = "doc " + std::to_string(d) + ", " +
                                  PropertyPolicies()[v].name + ": " + qs;
        std::vector<int32_t> truth = ViewTruth(views[v], doc, *q);
        EXPECT_EQ(RewrittenAnswers(views[v], doc, *q), truth) << where;
        EXPECT_EQ(RewrittenAnswers(views[v], doc, *q, &tax), truth)
            << where << " (TAX)";
      }
    }
    // Direct updates: the compiled target ≡ the reference evaluator.
    for (const std::string& qs : targets) {
      auto q = MustQuery(qs);
      auto mfa = automata::Mfa::Compile(*q, doc.names());
      ASSERT_TRUE(mfa.ok()) << mfa.status().ToString();
      std::vector<int32_t> direct = testutil::NaiveIds(doc, *q);
      std::sort(direct.begin(), direct.end());
      EXPECT_EQ(HypeIds(*mfa, doc), direct) << "doc " << d << ": " << qs;
      EXPECT_EQ(HypeIds(*mfa, doc, &tax), direct)
          << "doc " << d << ": " << qs << " (TAX)";
    }
  }
}

TEST(RewriteTest, IdentityViewIsTransparent) {
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  Policy policy(&dtd);
  auto view = DeriveView(policy);
  ASSERT_TRUE(view.ok());
  xml::Document doc = MustDoc(kHospitalDoc);
  for (const char* qs : testutil::HospitalQueryCorpus()) {
    auto q = MustQuery(qs);
    std::vector<int32_t> direct = testutil::NaiveIds(doc, *q);
    std::vector<int32_t> rewritten = RewrittenAnswers(*view, doc, *q);
    std::set<int32_t> direct_set(direct.begin(), direct.end());
    EXPECT_EQ(rewritten,
              (std::vector<int32_t>{direct_set.begin(), direct_set.end()}))
        << qs;
  }
}

// Security: queries through the view can never select hidden nodes.
TEST(RewriteTest, HiddenNodesUnreachable) {
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  ViewDefinition view = MustView(dtd, kPolicyS0);
  for (uint64_t seed = 81; seed <= 84; ++seed) {
    xml::Document doc = testutil::GenHospital(seed, 400);
    xml::NameId pname = doc.names()->Lookup("pname");
    xml::NameId visit = doc.names()->Lookup("visit");
    xml::NameId test = doc.names()->Lookup("test");
    for (const char* qs :
         {"//*", "//pname", "//visit", "//test", "hospital//*",
          "//*[not(medication)]", "(hospital/*)*"}) {
      auto q = MustQuery(qs);
      auto mfa = RewriteToMfa(*q, view, doc.names());
      ASSERT_TRUE(mfa.ok());
      auto r = eval::EvalHypeDom(*mfa, doc);
      ASSERT_TRUE(r.ok());
      for (const xml::Node* n : r->answers) {
        EXPECT_NE(n->label, pname) << qs;
        EXPECT_NE(n->label, visit) << qs;
        EXPECT_NE(n->label, test) << qs;
      }
    }
  }
}

TEST(RewriteTest, MfaSizeLinearInQueryOverRecursiveView) {
  // The paper's headline: MFA representation of Q′ is linear in |Q| even
  // on a recursively defined view (expression form is exponential, E1).
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  ViewDefinition view = MustView(dtd, kPolicyS0);
  auto names = xml::NameTable::Create();
  std::vector<size_t> sizes;
  std::string q = "hospital";
  for (int k = 0; k < 10; ++k) {
    q += "/patient/(parent/patient)*";
    auto query = MustQuery(q);
    auto mfa = RewriteToMfa(*query, view, names);
    ASSERT_TRUE(mfa.ok());
    sizes.push_back(mfa->TotalStates());
  }
  // Linear growth: constant additive increments.
  std::vector<size_t> deltas;
  for (size_t i = 1; i < sizes.size(); ++i) {
    deltas.push_back(sizes[i] - sizes[i - 1]);
  }
  for (size_t i = 1; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i], deltas[i - 1]) << "growth must be exactly linear";
  }
}

TEST(RewriteTest, LabelsOutsideViewYieldEmpty) {
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  ViewDefinition view = MustView(dtd, kPolicyS0);
  xml::Document doc = MustDoc(kHospitalDoc);
  for (const char* qs : {"//pname", "//visit", "hospital/visit",
                         "//nonexistent", "hospital/patient/pname"}) {
    auto q = MustQuery(qs);
    EXPECT_TRUE(RewrittenAnswers(view, doc, *q).empty()) << qs;
  }
}

// ---------------------------------------------------------------------
// Expression-level rewriting baseline
// ---------------------------------------------------------------------

TEST(ExprRewriteTest, AgreesWithMfaRewriting) {
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  ViewDefinition view = MustView(dtd, kPolicyS0);
  xml::Document doc = MustDoc(kHospitalDoc);
  for (const char* qs : ViewQueryCorpus()) {
    auto q = MustQuery(qs);
    ExprRewriteStats stats;
    auto expr = RewriteToExpr(*q, view, 1u << 20, &stats);
    ASSERT_TRUE(expr.ok()) << qs << ": " << expr.status().ToString();
    // Evaluate the expression on the document with the naive engine.
    rxpath::NaiveEvaluator ev(doc);
    std::set<int32_t> ids;
    for (const xml::Node* n : ev.Eval(**expr)) ids.insert(n->node_id);
    EXPECT_EQ((std::vector<int32_t>{ids.begin(), ids.end()}),
              RewrittenAnswers(view, doc, *q))
        << qs << " rewrote to " << rxpath::ToString(**expr);
  }
}

// The blow-up family (paper: "the size of Q′, if directly represented as
// Regular XPath expressions, may be exponential in |Q|"): a view whose
// type graph has a reconvergent diamond inside a cycle
// (region → north|south → zone → region…). A wildcard chain must union
// one continuation per *type path*; the diamond doubles them every lap,
// while the MFA shares one state per (position, type) and stays linear.
// (The hospital view's type graph has no reconvergence, so even the
// expression form stays linear there — see bench_rewrite for both.)
constexpr char kDiamondDtd[] = R"(
  <!ELEMENT site (region)>
  <!ELEMENT region (north | south)>
  <!ELEMENT north (zone)>
  <!ELEMENT south (zone)>
  <!ELEMENT zone (region?, sensor*)>
  <!ELEMENT sensor (#PCDATA)>
)";

std::string WildcardChain(int k) {
  std::string q = "site";
  for (int i = 0; i < k; ++i) q += "/*";
  return q;
}

ViewDefinition DiamondIdentityView(const xml::Dtd& dtd) {
  Policy policy(&dtd);
  auto view = DeriveView(policy);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return view.MoveValue();
}

TEST(ExprRewriteTest, SizeCapTriggersCleanly) {
  xml::Dtd dtd = MustDtd(kDiamondDtd, "site");
  ViewDefinition view = DiamondIdentityView(dtd);
  auto q = MustQuery(WildcardChain(60));
  ExprRewriteStats stats;
  auto expr = RewriteToExpr(*q, view, 2000, &stats);
  ASSERT_FALSE(expr.ok());
  EXPECT_EQ(expr.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(stats.truncated);
}

TEST(ExprRewriteTest, GrowthIsExponentialWhereMfaIsLinear) {
  xml::Dtd dtd = MustDtd(kDiamondDtd, "site");
  ViewDefinition view = DiamondIdentityView(dtd);
  auto names = xml::NameTable::Create();
  std::vector<size_t> expr_sizes;
  std::vector<size_t> mfa_sizes;
  for (int k = 8; k <= 24; k += 8) {
    auto q = MustQuery(WildcardChain(k));
    ExprRewriteStats stats;
    auto expr = RewriteToExpr(*q, view, 1u << 24, &stats);
    ASSERT_TRUE(expr.ok()) << expr.status().ToString();
    expr_sizes.push_back(stats.result_size);
    auto mfa = RewriteToMfa(*q, view, names);
    ASSERT_TRUE(mfa.ok());
    mfa_sizes.push_back(mfa->TotalStates());
  }
  // Expression deltas grow sharply; MFA deltas stay constant.
  size_t ed1 = expr_sizes[1] - expr_sizes[0];
  size_t ed2 = expr_sizes[2] - expr_sizes[1];
  EXPECT_GT(ed2, 2 * ed1);
  size_t md1 = mfa_sizes[1] - mfa_sizes[0];
  size_t md2 = mfa_sizes[2] - mfa_sizes[1];
  EXPECT_EQ(md2, md1);
}

}  // namespace
}  // namespace smoqe::rewrite
