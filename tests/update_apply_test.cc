// UpdateApplier: atomic application of edit scripts to the mutable DOM —
// DTD-guided insert positions, nesting normalization, all-or-nothing
// validation, stable node ids, order-rank refresh and epoch bumps.

#include "src/update/applier.h"

#include <gtest/gtest.h>

#include "src/index/tax.h"
#include "src/update/update_lang.h"
#include "src/xml/dtd_validator.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe::update {
namespace {

using testutil::MustDoc;
using testutil::MustDtd;
using testutil::MustQuery;

xml::Node* Find(xml::Document* doc, const char* query) {
  auto ids = testutil::NaiveIds(*doc, *MustQuery(query));
  EXPECT_EQ(ids.size(), 1u) << query;
  return doc->mutable_node(ids[0]);
}

UpdateStatement MustParseWith(std::string_view text,
                              std::shared_ptr<xml::NameTable> names) {
  auto r = ParseUpdate(text, std::move(names));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Order ranks must be a pre-order numbering of the live tree with
/// correct subtree intervals.
void CheckOrderInvariant(const xml::Document& doc) {
  int32_t expected = 0;
  std::vector<const xml::Node*> stack = {doc.root()};
  std::vector<const xml::Node*> open;
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    if (n == nullptr) {
      EXPECT_EQ(open.back()->subtree_end, expected);
      open.pop_back();
      continue;
    }
    EXPECT_EQ(n->order, expected) << "pre-order rank mismatch";
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
  // Every live node slot is reachable, every retired slot is null.
  int32_t live = 0;
  for (int32_t id = 0; id < doc.num_nodes(); ++id) {
    if (doc.node(id) != nullptr) {
      ++live;
      EXPECT_EQ(doc.node(id)->node_id, id);
    }
  }
  EXPECT_EQ(live, expected);
}

TEST(UpdateApply, InsertSeeksValidPosition) {
  xml::Dtd dtd = MustDtd(testutil::kHospitalDtd, "hospital");
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  auto names = doc.names();
  // Alice already has a visit AND a parent: a blind append of the new
  // visit (…, parent, visit) would violate (pname, visit*, parent*); the
  // applier must slot it after the existing visits.
  UpdateStatement stmt = MustParseWith(
      "insert into hospital/patient[pname = 'Alice'] "
      "<visit><treatment><medication>flu</medication></treatment>"
      "<date>d4</date></visit>",
      names);
  ApplierOptions opts;
  opts.dtd = &dtd;
  UpdateApplier applier(&doc, opts);
  xml::Node* alice = Find(&doc, "hospital/patient[pname = 'Alice']");
  auto stats = applier.Run({ResolvedEdit{stmt.kind, alice, &*stmt.fragment}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->edits_applied, 1u);
  EXPECT_GT(stats->nodes_inserted, 0u);
  EXPECT_TRUE(xml::ValidateDocument(doc, dtd).ok());
  EXPECT_EQ(doc.epoch(), 1u);
  CheckOrderInvariant(doc);
  // The new visit sits between the old visit and the parent element.
  auto dates = testutil::NaiveIds(
      doc, *MustQuery("hospital/patient[pname = 'Alice']/visit/date"));
  EXPECT_EQ(dates.size(), 2u);
}

TEST(UpdateApply, DeleteRetiresIdsAndKeepsOthersStable) {
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  xml::Node* carol = Find(&doc, "hospital/patient[pname = 'Carol']");
  const int32_t carol_id = carol->node_id;
  xml::Node* alice = Find(&doc, "hospital/patient[pname = 'Alice']");
  const int32_t alice_id = alice->node_id;
  const int32_t before = doc.num_nodes();

  UpdateApplier applier(&doc, {});
  auto stats = applier.Run({ResolvedEdit{OpKind::kDelete, carol, nullptr}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(doc.node(carol_id), nullptr);             // retired
  EXPECT_EQ(doc.node(alice_id)->node_id, alice_id);   // stable
  EXPECT_EQ(doc.num_nodes(), before);                 // id space never shrinks
  EXPECT_EQ(stats->nodes_deleted, 9u);  // patient,pname,visit,treatment,
                                        // medication,date + 3 text nodes
  CheckOrderInvariant(doc);
  auto patients = testutil::NaiveIds(doc, *MustQuery("//patient"));
  EXPECT_EQ(patients.size(), 2u);  // Alice + Bob
}

TEST(UpdateApply, ReplaceSwapsSubtree) {
  xml::Dtd dtd = MustDtd(testutil::kHospitalDtd, "hospital");
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  auto names = doc.names();
  UpdateStatement stmt = MustParseWith(
      "replace hospital/patient[pname = 'Carol']/visit/treatment "
      "with <treatment><test>mri</test></treatment>",
      names);
  xml::Node* t =
      Find(&doc, "hospital/patient[pname = 'Carol']/visit/treatment");
  ApplierOptions opts;
  opts.dtd = &dtd;
  UpdateApplier applier(&doc, opts);
  auto stats = applier.Run({ResolvedEdit{stmt.kind, t, &*stmt.fragment}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(xml::ValidateDocument(doc, dtd).ok());
  CheckOrderInvariant(doc);
  auto mri = testutil::NaiveIds(doc, *MustQuery("//test[. = 'mri']"));
  EXPECT_EQ(mri.size(), 1u);
  auto headache = testutil::NaiveIds(
      doc, *MustQuery("//medication[. = 'headache']"));
  EXPECT_TRUE(headache.empty());
}

TEST(UpdateApply, NestedEditsDropOutermostWins) {
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  // Delete Alice (whose subtree contains Bob) and Bob: Bob's edit drops.
  xml::Node* alice = Find(&doc, "hospital/patient[pname = 'Alice']");
  xml::Node* bob = Find(&doc, "//parent/patient[pname = 'Bob']");
  UpdateApplier applier(&doc, {});
  auto stats = applier.Run({ResolvedEdit{OpKind::kDelete, alice, nullptr},
                            ResolvedEdit{OpKind::kDelete, bob, nullptr}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->edits_applied, 1u);
  EXPECT_EQ(stats->edits_dropped, 1u);
  CheckOrderInvariant(doc);
}

TEST(UpdateApply, InvalidEditLeavesDocumentUntouched) {
  xml::Dtd dtd = MustDtd(testutil::kHospitalDtd, "hospital");
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  auto names = doc.names();
  const std::string before = xml::SerializeDocument(doc);
  const uint64_t epoch_before = doc.epoch();

  // A pname under treatment fits no position of (test | medication).
  UpdateStatement bad = MustParseWith(
      "insert into //treatment <pname>X</pname>", names);
  xml::Node* t =
      Find(&doc, "hospital/patient[pname = 'Carol']/visit/treatment");
  ApplierOptions opts;
  opts.dtd = &dtd;
  UpdateApplier applier(&doc, opts);
  auto stats = applier.Run({ResolvedEdit{bad.kind, t, &*bad.fragment}});
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(xml::SerializeDocument(doc), before);
  EXPECT_EQ(doc.epoch(), epoch_before);

  // Atomicity across a script: a valid delete of Carol + an invalid
  // insert elsewhere (Alice's treatment — NOT nested in the delete, so
  // normalization keeps it) must apply neither.
  xml::Node* carol = Find(&doc, "hospital/patient[pname = 'Carol']");
  xml::Node* alice_t =
      Find(&doc, "hospital/patient[pname = 'Alice']/visit/treatment");
  auto both = applier.Run({ResolvedEdit{OpKind::kDelete, carol, nullptr},
                           ResolvedEdit{bad.kind, alice_t, &*bad.fragment}});
  EXPECT_FALSE(both.ok());
  EXPECT_EQ(xml::SerializeDocument(doc), before);
  EXPECT_EQ(doc.epoch(), epoch_before);
}

TEST(UpdateApply, StructuralRules) {
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  xml::Node* root = doc.mutable_node(doc.root()->node_id);
  UpdateApplier applier(&doc, {});
  // Deleting the root is refused.
  EXPECT_FALSE(applier.Run({ResolvedEdit{OpKind::kDelete, root, nullptr}}).ok());
  // Conflicting edits of one node are refused.
  xml::Node* carol = Find(&doc, "hospital/patient[pname = 'Carol']");
  auto names = doc.names();
  UpdateStatement repl = MustParseWith(
      "replace x with <patient><pname>Dee</pname></patient>", names);
  EXPECT_FALSE(applier
                   .Run({ResolvedEdit{OpKind::kDelete, carol, nullptr},
                         ResolvedEdit{OpKind::kReplace, carol, &*repl.fragment}})
                   .ok());
  // Same kind, same node, *different* fragments also conflict — neither
  // replacement may silently win.
  UpdateStatement repl2 = MustParseWith(
      "replace x with <patient><pname>Fi</pname></patient>", names);
  EXPECT_FALSE(
      applier
          .Run({ResolvedEdit{OpKind::kReplace, carol, &*repl.fragment},
                ResolvedEdit{OpKind::kReplace, carol, &*repl2.fragment}})
          .ok());
  // Exact duplicates (same kind and fragment) dedupe instead.
  auto dup = applier.Run({ResolvedEdit{OpKind::kDelete, carol, nullptr},
                          ResolvedEdit{OpKind::kDelete, carol, nullptr}});
  ASSERT_TRUE(dup.ok()) << dup.status().ToString();
  EXPECT_EQ(dup->edits_applied, 1u);
  EXPECT_EQ(dup->edits_dropped, 1u);
}

TEST(UpdateApply, ReplaceRootAllowed) {
  xml::Dtd dtd = MustDtd(testutil::kHospitalDtd, "hospital");
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  auto names = doc.names();
  UpdateStatement stmt = MustParseWith(
      "replace hospital with <hospital><patient><pname>Solo</pname>"
      "</patient></hospital>",
      names);
  xml::Node* root = doc.mutable_node(doc.root()->node_id);
  ApplierOptions opts;
  opts.dtd = &dtd;
  UpdateApplier applier(&doc, opts);
  auto stats = applier.Run({ResolvedEdit{stmt.kind, root, &*stmt.fragment}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(xml::ValidateDocument(doc, dtd).ok());
  CheckOrderInvariant(doc);
  auto solo = testutil::NaiveIds(doc, *MustQuery("//pname[. = 'Solo']"));
  EXPECT_EQ(solo.size(), 1u);
}

TEST(UpdateApply, MaintainsTaxIncrementally) {
  xml::Dtd dtd = MustDtd(testutil::kHospitalDtd, "hospital");
  xml::Document doc = MustDoc(testutil::kHospitalDoc);
  auto names = doc.names();
  index::TaxIndex tax = index::TaxIndex::Build(doc);

  UpdateStatement stmt = MustParseWith(
      "insert into hospital/patient[pname = 'Carol'] "
      "<visit><treatment><test>blood</test></treatment><date>d7</date>"
      "</visit>",
      names);
  xml::Node* carol = Find(&doc, "hospital/patient[pname = 'Carol']");
  ApplierOptions opts;
  opts.dtd = &dtd;
  opts.tax = &tax;
  UpdateApplier applier(&doc, opts);
  auto stats = applier.Run({ResolvedEdit{stmt.kind, carol, &*stmt.fragment}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->tax_sets_recomputed, 0u);
  EXPECT_TRUE(tax.EquivalentTo(index::TaxIndex::Build(doc)));
  // Carol now has a 'test' descendant the repair must have recorded.
  const DynamicBitset* set = tax.DescendantTypes(carol->node_id);
  ASSERT_NE(set, nullptr);
  EXPECT_TRUE(set->Test(static_cast<size_t>(names->Lookup("test"))));
}

}  // namespace
}  // namespace smoqe::update
