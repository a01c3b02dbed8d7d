// Randomized differential suite for incremental maintenance (acceptance
// gate of the update subsystem): over random hospital documents and
// random edit scripts,
//
//  * incremental TAX repair ≡ TaxIndex::Build of the mutated tree,
//  * the mutated DOM keeps every structural invariant (pre-order ranks,
//    DTD validity, stable ids) and evaluates identically to a fresh
//    parse of its serialization,
//  * epochs count applied scripts exactly,
//  * facade-level: after every update, MaterializeView equals a fresh
//    materialization of the mutated document.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/smoqe.h"
#include "src/eval/hype_dom.h"
#include "src/index/tax.h"
#include "src/update/applier.h"
#include "src/update/update_lang.h"
#include "src/workload/workloads.h"
#include "src/xml/dtd_validator.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe::update {
namespace {

using testutil::MustDtd;
using testutil::MustQuery;

/// Update statements a random script draws from. All fragments conform to
/// the hospital DTD; targets cover leaf swaps, optional-child deletes,
/// grafts of whole subtrees and recursive genealogy extension.
const std::vector<const char*>& StatementPool() {
  static const std::vector<const char*> pool = {
      "insert into //patient[not(visit)] "
      "<visit><treatment><medication>flu</medication></treatment>"
      "<date>dx</date></visit>",
      "insert into hospital/patient "
      "<parent><patient><pname>Gran</pname></patient></parent>",
      "insert into hospital "
      "<patient><pname>New</pname><visit><treatment><test>blood</test>"
      "</treatment><date>dn</date></visit></patient>",
      "delete //patient/visit[treatment/medication = 'cold']",
      "delete //parent[patient[not(visit) and not(parent)]]",
      "delete hospital/patient[pname = 'Eve']",
      "replace //medication[. = 'headache'] with <medication>zzz</medication>",
      "replace //treatment[test] with "
      "<treatment><medication>generic</medication></treatment>",
      "replace //visit[date = 'dx'] with "
      "<visit><treatment><test>xray</test></treatment><date>dy</date></visit>",
  };
  return pool;
}

void CheckOrderInvariant(const xml::Document& doc) {
  int32_t expected = 0;
  std::vector<const xml::Node*> stack = {doc.root()};
  std::vector<const xml::Node*> open;
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    if (n == nullptr) {
      ASSERT_EQ(open.back()->subtree_end, expected);
      open.pop_back();
      continue;
    }
    ASSERT_EQ(n->order, expected);
    ++expected;
    open.push_back(n);
    stack.push_back(nullptr);
    std::vector<const xml::Node*> kids;
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
}

/// Serialized answers of `query` — comparable across documents with
/// different id assignments.
std::vector<std::string> AnswersOf(const xml::Document& doc,
                                   const char* query) {
  rxpath::NaiveEvaluator eval(doc);
  std::vector<std::string> out;
  for (const xml::Node* n : eval.Eval(*MustQuery(query))) {
    out.push_back(xml::SerializeNode(n, *doc.names()));
  }
  return out;
}

TEST(UpdateMaintenance, RandomizedIncrementalTaxEqualsRebuild) {
  xml::Dtd dtd = MustDtd(testutil::kHospitalDtd, "hospital");
  const std::vector<const char*> check_queries = {
      "//patient", "//medication", "//patient[visit/treatment/test]",
      "hospital/patient/(parent/patient)*/pname",
      "//visit[treatment/medication = 'flu']"};

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto names = xml::NameTable::Create();
    xml::Document doc = testutil::GenHospital(seed * 77, 400, names);
    index::TaxIndex tax = index::TaxIndex::Build(doc);
    Rng rng(seed);
    uint64_t epochs = 0;

    for (int round = 0; round < 12; ++round) {
      const char* text =
          StatementPool()[rng.Next() % StatementPool().size()];
      auto stmt = ParseUpdate(text, names);
      ASSERT_TRUE(stmt.ok()) << text;

      rxpath::NaiveEvaluator eval(doc);
      std::vector<ResolvedEdit> script;
      for (const xml::Node* n : eval.Eval(*stmt->target)) {
        script.push_back(ResolvedEdit{
            stmt->kind, doc.mutable_node(n->node_id),
            stmt->fragment.has_value() ? &*stmt->fragment : nullptr});
      }
      if (script.empty()) continue;

      ApplierOptions opts;
      opts.dtd = &dtd;
      opts.tax = &tax;
      UpdateApplier applier(&doc, opts);
      auto stats = applier.Run(script);
      ASSERT_TRUE(stats.ok())
          << text << " (seed " << seed << "): " << stats.status().ToString();
      ++epochs;
      ASSERT_EQ(doc.epoch(), epochs);

      // Incremental repair ≡ full rebuild, every round.
      index::TaxIndex rebuilt = index::TaxIndex::Build(doc);
      ASSERT_TRUE(tax.EquivalentTo(rebuilt))
          << "TAX divergence after '" << text << "' (seed " << seed
          << ", round " << round << ")";

      // Structural invariants of the mutated tree.
      CheckOrderInvariant(doc);
      ASSERT_TRUE(xml::ValidateDocument(doc, dtd).ok()) << text;
    }

    // The mutated document answers queries exactly like a fresh parse of
    // its own serialization (orders/intervals fully consistent)...
    std::string serialized = xml::SerializeDocument(doc);
    xml::Document fresh = testutil::MustDoc(serialized);
    for (const char* q : check_queries) {
      EXPECT_EQ(AnswersOf(doc, q), AnswersOf(fresh, q)) << q;
    }
    // ...and the optimized evaluator agrees with the reference on the
    // mutated tree, with and without the repaired TAX index.
    for (const char* q : check_queries) {
      auto mfa = automata::Mfa::Compile(*MustQuery(q), names);
      ASSERT_TRUE(mfa.ok());
      eval::DomEvalOptions dom_opts;
      auto plain = eval::EvalHypeDom(*mfa, doc, dom_opts);
      ASSERT_TRUE(plain.ok());
      dom_opts.tax = &tax;
      auto pruned = eval::EvalHypeDom(*mfa, doc, dom_opts);
      ASSERT_TRUE(pruned.ok());
      std::vector<int32_t> naive_ids = testutil::NaiveIds(doc, *MustQuery(q));
      EXPECT_EQ(testutil::IdsOf(plain->answers), naive_ids) << q;
      EXPECT_EQ(testutil::IdsOf(pruned->answers), naive_ids) << q << " (tax)";
    }
  }
}

TEST(UpdateMaintenance, FacadeViewsAlwaysMatchFreshMaterialization) {
  core::Smoqe engine;
  ASSERT_TRUE(
      engine.RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok());
  // Seed 4242 generates a bare <hospital/>; 4243 a 210-element ward.
  ASSERT_TRUE(engine.GenerateDocument("ward", "hospital", 4243, 300).ok());
  const std::string ward = *engine.DocumentXml("ward");
  size_t elements = 0;
  for (size_t i = 0; i + 1 < ward.size(); ++i) {
    if (ward[i] == '<' && ward[i + 1] != '/') ++elements;
  }
  ASSERT_GE(elements, 150u);
  ASSERT_TRUE(engine
                  .DefineView("research", "hospital",
                              "patient/pname : N;\n"
                              "patient/visit : N;\n"
                              "visit/treatment : Y;\n"
                              "treatment/test : Y;\n")
                  .ok());
  ASSERT_TRUE(engine.BuildIndex("ward").ok());

  core::UpdateOptions direct;
  direct.dtd_name = "hospital";
  Rng rng(99);
  uint64_t applied = 0;
  for (int round = 0; round < 10; ++round) {
    // Materialize, update, compare the view against a from-scratch
    // materialization through a throwaway engine state (bypass:
    // DocumentXml → fresh doc → fresh view).
    auto before = engine.MaterializeView("ward", "research");
    ASSERT_TRUE(before.ok()) << before.status().ToString();

    const char* text = StatementPool()[rng.Next() % StatementPool().size()];
    auto r = engine.Update("ward", text, direct);
    ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    if (r->stats.edits_applied > 0) ++applied;
    EXPECT_EQ(*engine.DocumentEpoch("ward"), applied);

    auto after = engine.MaterializeView("ward", "research");
    ASSERT_TRUE(after.ok());
    // Reference: materialize the same view over a freshly loaded copy of
    // the mutated document.
    core::Smoqe fresh;
    ASSERT_TRUE(
        fresh.RegisterDtd("hospital", workload::kHospitalDtd, "hospital")
            .ok());
    ASSERT_TRUE(
        fresh.LoadDocument("copy", *engine.DocumentXml("ward")).ok());
    ASSERT_TRUE(fresh
                    .DefineView("research", "hospital",
                                "patient/pname : N;\n"
                                "patient/visit : N;\n"
                                "visit/treatment : Y;\n"
                                "treatment/test : Y;\n")
                    .ok());
    auto expect = fresh.MaterializeView("copy", "research");
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(after->xml, expect->xml)
        << "view diverged after '" << text << "'";
  }
}

}  // namespace
}  // namespace smoqe::update
