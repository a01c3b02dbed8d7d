// TaxIo edge cases: minimal documents, round-trips after name-table
// growth (mixed-width sets from incremental repair), and persistence of
// indexes carried across updates.

#include <gtest/gtest.h>

#include "src/common/varint.h"
#include "src/index/tax.h"
#include "src/index/tax_io.h"
#include "src/update/applier.h"
#include "src/update/update_lang.h"
#include "tests/test_util.h"

namespace smoqe::index {
namespace {

using testutil::MustDoc;
using testutil::MustQuery;

TaxIndex RoundTrip(const TaxIndex& idx) {
  auto decoded = TaxIo::Decode(TaxIo::Encode(idx), idx.type_width());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.MoveValue();
}

TEST(TaxIoEdge, SingleElementDocument) {
  xml::Document doc = MustDoc("<r/>");
  TaxIndex idx = TaxIndex::Build(doc);
  EXPECT_EQ(idx.num_elements(), 1u);
  TaxIndex back = RoundTrip(idx);
  EXPECT_EQ(back.num_elements(), 1u);
  EXPECT_EQ(back.type_width(), idx.type_width());
  EXPECT_TRUE(back.EquivalentTo(idx));
  // The root's (empty) set survives as an indexed-but-empty set, distinct
  // from a text slot.
  ASSERT_NE(back.DescendantTypes(0), nullptr);
  EXPECT_TRUE(back.DescendantTypes(0)->None());
}

TEST(TaxIoEdge, TextOnlyChildrenAndDeepChain) {
  xml::Document doc = MustDoc("<a><b>t1</b><b>t2</b><c><c><c>x</c></c></c></a>");
  TaxIndex idx = TaxIndex::Build(doc);
  EXPECT_TRUE(RoundTrip(idx).EquivalentTo(idx));
}

TEST(TaxIoEdge, RoundTripAfterNameTableGrowth) {
  auto names = xml::NameTable::Create();
  xml::Document doc = MustDoc("<a><b><c>x</c></b></a>", names);
  TaxIndex idx = TaxIndex::Build(doc);
  const size_t width_before = idx.type_width();

  // Graft a fragment whose labels are new to the table: the repaired
  // sets are wider than the untouched ones (mixed-width index).
  auto stmt = update::ParseUpdate("insert into a/b <d><e>y</e></d>", names);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto ids = testutil::NaiveIds(doc, *MustQuery("a/b"));
  ASSERT_EQ(ids.size(), 1u);
  update::ApplierOptions opts;
  opts.tax = &idx;
  update::UpdateApplier applier(&doc, opts);
  auto stats = applier.Run({update::ResolvedEdit{
      stmt->kind, doc.mutable_node(ids[0]), &*stmt->fragment}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(idx.type_width(), width_before);

  // The mixed-width index round-trips losslessly (encode normalizes by
  // zero-extension) and still equals a from-scratch build.
  TaxIndex back = RoundTrip(idx);
  EXPECT_TRUE(back.EquivalentTo(idx));
  EXPECT_TRUE(back.EquivalentTo(TaxIndex::Build(doc)));
  // And the decoded index keeps answering: 'b' now has d and e below.
  const DynamicBitset* b_set = back.DescendantTypes(ids[0]);
  ASSERT_NE(b_set, nullptr);
  EXPECT_TRUE(b_set->Test(static_cast<size_t>(names->Lookup("d"))));
  EXPECT_TRUE(b_set->Test(static_cast<size_t>(names->Lookup("e"))));
}

TEST(TaxIoEdge, RetiredSlotsRoundTripAsEmpty) {
  auto names = xml::NameTable::Create();
  xml::Document doc = MustDoc("<a><b><c>x</c></b><b/></a>", names);
  TaxIndex idx = TaxIndex::Build(doc);
  auto ids = testutil::NaiveIds(doc, *MustQuery("a/b[c]"));
  ASSERT_EQ(ids.size(), 1u);
  update::ApplierOptions opts;
  opts.tax = &idx;
  update::UpdateApplier applier(&doc, opts);
  auto stats = applier.Run(
      {update::ResolvedEdit{update::OpKind::kDelete, doc.mutable_node(ids[0]),
                            nullptr}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(idx.DescendantTypes(ids[0]), nullptr);  // retired → unindexed
  TaxIndex back = RoundTrip(idx);
  EXPECT_TRUE(back.EquivalentTo(idx));
  EXPECT_EQ(back.DescendantTypes(ids[0]), nullptr);
}

// A header may claim any set count; every set takes at least one byte,
// so a count beyond the remaining input is rejected before the per-id
// references are allocated.
TEST(TaxIoEdge, SetCountBeyondInputIsRejected) {
  std::string bytes = "TAX1";
  PutVarint64(&bytes, 9);           // width
  PutVarint64(&bytes, 1ull << 39);  // set count
  PutVarint64(&bytes, 1);           // elements
  bytes += std::string(8, '\2');     // eight text placeholders
  auto r = TaxIo::Decode(bytes, /*max_width=*/9);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// The width sizes the decode buffer, so a header claiming a width beyond
// the name table is rejected before anything is allocated for it (one
// claiming 2^62 used to throw std::bad_alloc out of Decode).
TEST(TaxIoEdge, WidthBeyondTheNameTableIsRejected) {
  for (uint64_t width : {65ull, 1ull << 62}) {
    std::string bytes = "TAX1";
    PutVarint64(&bytes, width);
    PutVarint64(&bytes, 1);  // set count
    PutVarint64(&bytes, 1);  // elements
    bytes += '\0';          // one literal set follows
    PutVarint64(&bytes, 0);  // zero run
    PutVarint64(&bytes, 0);  // literal run
    auto r = TaxIo::Decode(bytes, /*max_width=*/64);
    ASSERT_FALSE(r.ok()) << width;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << width;
  }
}

}  // namespace
}  // namespace smoqe::index
