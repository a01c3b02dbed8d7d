#include "src/index/tax.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "src/automata/mfa.h"
#include "src/eval/hype_dom.h"
#include "src/index/tax_io.h"
#include "src/update/applier.h"
#include "src/update/update_lang.h"
#include "tests/test_util.h"

namespace smoqe::index {
namespace {

using automata::Mfa;
using testutil::IdsOf;
using testutil::kHospitalDoc;
using testutil::MustDoc;
using testutil::MustQuery;

TEST(TaxTest, DescendantTypesMatchBruteForce) {
  xml::Document doc = MustDoc(kHospitalDoc);
  TaxIndex idx = TaxIndex::Build(doc);
  for (int32_t id = 0; id < doc.num_nodes(); ++id) {
    const xml::Node* n = doc.node(id);
    if (!n->is_element()) {
      EXPECT_EQ(idx.DescendantTypes(id), nullptr);
      continue;
    }
    // Brute-force descendant type set (strict descendants).
    std::set<xml::NameId> want;
    for (int32_t d = id + 1; d < n->subtree_end; ++d) {
      const xml::Node* m = doc.node(d);
      if (m->is_element()) want.insert(m->label);
    }
    const DynamicBitset* got = idx.DescendantTypes(id);
    ASSERT_NE(got, nullptr);
    std::set<xml::NameId> got_set;
    got->ForEachSetBit(
        [&](size_t b) { got_set.insert(static_cast<xml::NameId>(b)); });
    EXPECT_EQ(got_set, want) << "node " << id;
  }
}

TEST(TaxTest, LeafHasEmptySet) {
  xml::Document doc = MustDoc("<a><leaf/></a>");
  TaxIndex idx = TaxIndex::Build(doc);
  const DynamicBitset* leaf = idx.DescendantTypes(1);
  ASSERT_NE(leaf, nullptr);
  EXPECT_TRUE(leaf->None());
}

TEST(TaxTest, PruningSoundness) {
  // TAX on/off must produce identical answers for every corpus query on
  // random documents (experiment E6's correctness side). Seed 35 is
  // skipped: it generates a bare <hospital/> that checks nothing.
  for (uint64_t seed : {31ull, 32ull, 33ull, 34ull, 36ull, 37ull}) {
    xml::Document doc = testutil::GenHospital(seed, 400);
    ASSERT_GE(doc.num_nodes(), 150) << "seed " << seed;
    TaxIndex idx = TaxIndex::Build(doc);
    for (const char* q : testutil::HospitalQueryCorpus()) {
      auto query = MustQuery(q);
      auto mfa = Mfa::Compile(*query, doc.names());
      ASSERT_TRUE(mfa.ok());
      auto off = eval::EvalHypeDom(*mfa, doc);
      ASSERT_TRUE(off.ok());
      eval::DomEvalOptions with;
      with.tax = &idx;
      auto on = eval::EvalHypeDom(*mfa, doc, with);
      ASSERT_TRUE(on.ok());
      EXPECT_EQ(IdsOf(on->answers), IdsOf(off->answers))
          << "seed " << seed << " query " << q;
      // subtrees_pruned is not monotone (one high TAX prune replaces many
      // small dead-run prunes below it); visits are the sound metric.
      EXPECT_LE(on->stats.nodes_visited, off->stats.nodes_visited)
          << "TAX must never visit more nodes";
    }
  }
}

TEST(TaxTest, PruningEffectivenessOnSelectiveQuery) {
  xml::Document doc = testutil::GenHospital(7, 3000);
  TaxIndex idx = TaxIndex::Build(doc);
  // 'parent' chains are rare; most patient subtrees lack them entirely.
  auto query = MustQuery("//parent/patient/pname");
  auto mfa = Mfa::Compile(*query, doc.names());
  ASSERT_TRUE(mfa.ok());
  auto off = eval::EvalHypeDom(*mfa, doc);
  eval::DomEvalOptions with;
  with.tax = &idx;
  auto on = eval::EvalHypeDom(*mfa, doc, with);
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  EXPECT_LT(on->stats.nodes_visited, off->stats.nodes_visited)
      << "TAX should reduce visits for type-selective queries";
}

TEST(TaxTest, DumpShowsTypeSets) {
  xml::Document doc = MustDoc(kHospitalDoc);
  TaxIndex idx = TaxIndex::Build(doc);
  std::string dump = idx.Dump(doc, 5);
  EXPECT_NE(dump.find("hospital : {"), std::string::npos);
  EXPECT_NE(dump.find("patient"), std::string::npos);
}

TEST(TaxIoTest, EncodeDecodeRoundTrip) {
  for (uint64_t seed : {41ull, 42ull}) {
    xml::Document doc = testutil::GenHospital(seed, 500);
    TaxIndex idx = TaxIndex::Build(doc);
    std::string bytes = TaxIo::Encode(idx);
    auto back = TaxIo::Decode(bytes, doc.names()->size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->type_width(), idx.type_width());
    EXPECT_EQ(back->num_elements(), idx.num_elements());
    for (int32_t id = 0; id < doc.num_nodes(); ++id) {
      const DynamicBitset* a = idx.DescendantTypes(id);
      const DynamicBitset* b = back->DescendantTypes(id);
      if (a == nullptr) {
        EXPECT_EQ(b, nullptr);
      } else {
        ASSERT_NE(b, nullptr);
        EXPECT_TRUE(*a == *b) << "node " << id;
      }
    }
  }
}

// Bytes of the index's sets stored one bitset per id — the layout the
// compressed form and the interned index are both measured against.
size_t UninternedBytes(const xml::Document& doc, const TaxIndex& idx) {
  return static_cast<size_t>(doc.num_nodes()) * ((idx.type_width() + 63) / 64) *
         8;
}

TEST(TaxIoTest, CompressionShrinksIndex) {
  xml::Document doc = testutil::GenHospital(5, 5000);
  TaxIndex idx = TaxIndex::Build(doc);
  std::string bytes = TaxIo::Encode(idx);
  EXPECT_LT(bytes.size(), UninternedBytes(doc, idx) / 2)
      << "compressed form should be much smaller than raw bitsets";
}

TEST(TaxTest, InterningSharesSets) {
  xml::Document doc = testutil::GenHospital(5, 5000);
  ASSERT_GT(doc.num_nodes(), 2000);
  TaxIndex idx = TaxIndex::Build(doc);
  // A ward's elements fall into a handful of descendant-type sets.
  EXPECT_GT(idx.num_elements(), 1000u);
  EXPECT_LE(idx.distinct_sets(), 64u);
  EXPECT_LT(idx.memory_bytes(), UninternedBytes(doc, idx));
  // Equal sets are one table entry: equal bits, same pointer.
  const DynamicBitset* first_leaf = nullptr;
  for (int32_t id = 0; id < doc.num_nodes(); ++id) {
    const DynamicBitset* set = idx.DescendantTypes(id);
    if (set == nullptr || set->Any()) continue;
    if (first_leaf == nullptr) first_leaf = set;
    EXPECT_EQ(set, first_leaf) << "node " << id;
  }
  ASSERT_NE(first_leaf, nullptr);
  // Decoding interns the same way.
  auto back = TaxIo::Decode(TaxIo::Encode(idx), idx.type_width());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->distinct_sets(), idx.distinct_sets());
  EXPECT_TRUE(back->EquivalentTo(idx));
}

// Incremental repair interns its recomputed sets into the existing table;
// after every edit the index must equal a from-scratch build.
TEST(TaxTest, RepairAfterEditMatchesRebuild) {
  auto names = xml::NameTable::Create();
  xml::Document doc = testutil::GenHospital(5, 2000, names);
  ASSERT_GT(doc.num_nodes(), 500);
  TaxIndex idx = TaxIndex::Build(doc);
  const size_t distinct_before = idx.distinct_sets();
  struct Step {
    const char* update;
    const char* target;  // resolved on the current document
  };
  for (const Step& step : {
           Step{"insert into hospital/patient <visit><treatment><test>t</test>"
                "</treatment><date>d</date></visit>",
                "hospital/patient"},
           Step{"delete hospital/patient/visit", "hospital/patient/visit"},
           Step{"replace hospital/patient/pname with <pname><note/></pname>",
                "hospital/patient/pname"},
           Step{"insert into hospital <patient><pname>p</pname></patient>",
                "hospital"},
       }) {
    SCOPED_TRACE(step.update);
    auto stmt = update::ParseUpdate(step.update, names);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto ids = testutil::NaiveIds(doc, *MustQuery(step.target));
    ASSERT_FALSE(ids.empty());
    update::ApplierOptions opts;
    opts.tax = &idx;
    update::UpdateApplier applier(&doc, opts);
    // Edit the first and the last target: two dirty ancestor chains.
    std::vector<update::ResolvedEdit> edits = {update::ResolvedEdit{
        stmt->kind, doc.mutable_node(ids.front()),
        stmt->fragment ? &*stmt->fragment : nullptr}};
    if (ids.size() > 1) {
      edits.push_back(update::ResolvedEdit{
          stmt->kind, doc.mutable_node(ids.back()),
          stmt->fragment ? &*stmt->fragment : nullptr});
    }
    auto stats = applier.Run(edits);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->tax_sets_recomputed, 0u);
    EXPECT_TRUE(idx.EquivalentTo(TaxIndex::Build(doc)));
  }
  // Recomputed sets mostly hit existing entries; the new label (note)
  // adds a few.
  EXPECT_LE(idx.distinct_sets(), distinct_before + 16);
}

TEST(TaxIoTest, SaveLoadFile) {
  xml::Document doc = MustDoc(kHospitalDoc);
  TaxIndex idx = TaxIndex::Build(doc);
  std::string path = ::testing::TempDir() + "/tax_test.idx";
  ASSERT_TRUE(TaxIo::Save(idx, path).ok());
  auto back = TaxIo::Load(path, doc.names()->size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_elements(), idx.num_elements());
  std::remove(path.c_str());
}

TEST(TaxIoTest, DecodeRejectsCorruptInput) {
  EXPECT_FALSE(TaxIo::Decode("", 64).ok());
  EXPECT_FALSE(TaxIo::Decode("BAD!xxxx", 64).ok());
  xml::Document doc = MustDoc(kHospitalDoc);
  TaxIndex idx = TaxIndex::Build(doc);
  std::string bytes = TaxIo::Encode(idx);
  const size_t width = doc.names()->size();
  EXPECT_FALSE(
      TaxIo::Decode(bytes.substr(0, bytes.size() / 2), width).ok());
  std::string garbled = bytes + "trailing";
  EXPECT_FALSE(TaxIo::Decode(garbled, width).ok());
}

TEST(TaxIoTest, LoadMissingFileFails) {
  auto r = TaxIo::Load("/nonexistent/path/tax.idx", 64);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace smoqe::index
