// View-checked update authorization through the Smoqe facade:
// accept/reject semantics with explain strings naming the violated
// annotation, trusted direct updates, and every read path (DOM, StAX
// text, MaterializeView) following the document epoch.

#include <gtest/gtest.h>

#include "src/core/smoqe.h"
#include "src/workload/workloads.h"
#include "tests/test_util.h"

namespace smoqe::core {
namespace {

constexpr char kWard[] =
    "<hospital>"
    "<patient>"
    "<pname>Alice</pname>"
    "<visit><treatment><medication>autism</medication></treatment>"
    "<date>d1</date></visit>"
    "<parent><patient>"
    "<pname>Bob</pname>"
    "<visit><treatment><test>blood</test></treatment><date>d2</date></visit>"
    "</patient></parent>"
    "</patient>"
    "<patient>"
    "<pname>Carol</pname>"
    "<visit><treatment><medication>headache</medication></treatment>"
    "<date>d3</date></visit>"
    "</patient>"
    "</hospital>";

/// Research group: qualifier-free. pname and visit structure hidden,
/// treatments (and tests) surface through the hidden visits.
constexpr char kResearchPolicy[] = R"(
  patient/pname   : N;
  patient/visit   : N;
  visit/treatment : Y;
  treatment/test  : Y;
)";

class UpdateAuthTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterDtd("hospital", workload::kHospitalDtd,
                                    "hospital")
                    .ok());
    ASSERT_TRUE(engine_.LoadDocument("ward", kWard).ok());
    ASSERT_TRUE(
        engine_.DefineView("research", "hospital", kResearchPolicy).ok());
    ASSERT_TRUE(engine_
                    .DefineView("autism-group", "hospital",
                                workload::kHospitalPolicyAutism)
                    .ok());
  }

  size_t CountAnswers(const char* query, const QueryOptions& opts = {}) {
    auto r = engine_.Query("ward", query, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->answers_xml.size();
  }

  Smoqe engine_;
};

TEST_F(UpdateAuthTest, DirectUpdateIsTrustedAndRefreshesAllModes) {
  UpdateOptions direct;
  direct.dtd_name = "hospital";
  auto r = engine_.Update("ward", "delete hospital/patient[pname = 'Carol']",
                          direct);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 1u);
  EXPECT_EQ(r->stats.doc_epoch, 1u);
  EXPECT_EQ(r->canonical, "delete hospital/patient[pname = 'Carol']");

  EXPECT_EQ(CountAnswers("//patient"), 2u);  // DOM mode sees the delete
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  EXPECT_EQ(CountAnswers("//patient", stax), 2u);  // text re-serialized
  std::vector<BatchQueryItem> items = {{"//patient", stax},
                                       {"//pname", stax}};
  auto batch = engine_.QueryBatch("ward", items);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)[0].answers_xml.size(), 2u);
  EXPECT_EQ((*batch)[1].answers_xml.size(), 2u);  // Alice + Bob
}

TEST_F(UpdateAuthTest, HiddenRegionDeleteIsRejectedWithExplain) {
  // A research-view user may see every treatment, but deleting a patient
  // would also remove its hidden pname/visit content: rejected whole.
  UpdateOptions opts;
  opts.view = "research";
  const std::string before = *engine_.DocumentXml("ward");
  auto r = engine_.Update("ward", "delete hospital/patient", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  // The explain string names the violated annotation (which hidden node
  // the walk hits first is an implementation detail: pname or visit).
  EXPECT_NE(r.status().message().find("hidden by annotation 'patient/"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find(" : N'"), std::string::npos)
      << r.status().ToString();
  // Rejected updates change nothing.
  EXPECT_EQ(*engine_.DocumentXml("ward"), before);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

TEST_F(UpdateAuthTest, ConditionProtectedTargetIsRejected) {
  // Every patient of the autism view is exposed through the qualifier
  // [visit/treatment/medication = 'autism']; updates under it are unsafe.
  UpdateOptions opts;
  opts.view = "autism-group";
  auto r = engine_.Update("ward", "delete hospital/patient", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(r.status().message().find("condition-protected"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("hospital/patient : ["),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(UpdateAuthTest, InsertCreatingHiddenContentIsRejected) {
  // visit children of patient are hidden from research: writing one would
  // create data the writer cannot read back.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update(
      "ward",
      "insert into hospital/patient "
      "<visit><treatment><test>x</test></treatment><date>d9</date></visit>",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(r.status().message().find("patient/visit : N"), std::string::npos)
      << r.status().ToString();
}

TEST_F(UpdateAuthTest, VisibleRegionReplaceIsAccepted) {
  // The whole effect region — the treatment subtree and the replacement —
  // is unconditionally visible to research users, so the update applies.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update(
      "ward",
      "replace //treatment[medication = 'headache'] "
      "with <treatment><test>mri</test></treatment>",
      opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 1u);
  EXPECT_EQ(r->stats.edits_applied, 1u);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 1u);
  EXPECT_EQ(CountAnswers("//test"), 2u);  // blood + mri
  // The research user sees the effect through the view too.
  QueryOptions vq;
  vq.view = "research";
  EXPECT_EQ(CountAnswers("//treatment/test", vq), 2u);
}

TEST_F(UpdateAuthTest, ViewInsertMustStillFitTheDocumentSchema) {
  // The research view exposes treatment as a child of patient, but the
  // *document* schema has no such edge: authorization passes, the DTD
  // revalidation rejects — and nothing changes.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update(
      "ward", "insert into hospital/patient <treatment><test>x</test>"
              "</treatment>",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

TEST_F(UpdateAuthTest, HiddenTargetSelectsNothingThroughTheView) {
  // Hidden labels do not even resolve through the view (the same "you
  // cannot name what you cannot see" queries get): a successful no-op.
  UpdateOptions opts;
  opts.view = "research";
  auto r = engine_.Update("ward", "delete //pname", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 0u);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

TEST_F(UpdateAuthTest, SpecDefinedViewsCannotUpdate) {
  constexpr char kSpec[] = R"(
    root hospital;
    dtd {
      <!ELEMENT hospital (patient*)>
      <!ELEMENT patient (treatment*)>
      <!ELEMENT treatment (medication?)>
      <!ELEMENT medication (#PCDATA)>
    }
    sigma hospital/patient = patient;
    sigma patient/treatment = visit/treatment;
    sigma treatment/medication = medication;
  )";
  ASSERT_TRUE(engine_.DefineViewFromSpec("spec-view", kSpec, "hospital").ok());
  UpdateOptions opts;
  opts.view = "spec-view";
  auto r = engine_.Update("ward", "delete //treatment", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(UpdateAuthTest, MaterializeViewReflectsEachEpoch) {
  auto rv0 = engine_.MaterializeView("ward", "research");
  ASSERT_TRUE(rv0.ok()) << rv0.status().ToString();
  EXPECT_EQ(rv0->epoch, 0u);
  auto av0 = engine_.MaterializeView("ward", "autism-group");
  ASSERT_TRUE(av0.ok()) << av0.status().ToString();

  // A trusted update that only touches data both views hide (pname):
  // each view is materialized at the new epoch with unchanged content.
  UpdateOptions direct;
  direct.dtd_name = "hospital";
  auto u = engine_.Update(
      "ward",
      "replace hospital/patient/pname[. = 'Carol'] with <pname>Anon</pname>",
      direct);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  auto rv1 = engine_.MaterializeView("ward", "research");
  ASSERT_TRUE(rv1.ok());
  EXPECT_EQ(rv1->epoch, 1u);
  EXPECT_EQ(rv1->xml, rv0->xml);
  auto av1 = engine_.MaterializeView("ward", "autism-group");
  ASSERT_TRUE(av1.ok());
  EXPECT_EQ(av1->epoch, 1u);
  EXPECT_EQ(av1->xml, av0->xml);

  // A visible-region update shows up in the research view at epoch 2.
  auto u2 = engine_.Update(
      "ward",
      "replace //treatment[medication = 'headache'] "
      "with <treatment><test>mri</test></treatment>",
      direct);
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  auto rv2 = engine_.MaterializeView("ward", "research");
  ASSERT_TRUE(rv2.ok());
  EXPECT_EQ(rv2->epoch, 2u);
  EXPECT_NE(rv2->xml, rv1->xml);
  EXPECT_EQ(rv1->xml.find("<test>mri</test>"), std::string::npos);
  EXPECT_NE(rv2->xml.find("<test>mri</test>"), std::string::npos);
}

TEST_F(UpdateAuthTest, RootReplaceStillChecksFragmentContent) {
  // A document with nothing hidden from the view (patients without
  // visits), so the removal half of a root replace passes; the
  // replacement fragment smuggles in a visit — hidden from the view —
  // and must still be rejected.
  ASSERT_TRUE(engine_
                  .LoadDocument("empty-ward",
                                "<hospital><patient><pname>A</pname>"
                                "</patient></hospital>")
                  .ok());
  ASSERT_TRUE(engine_
                  .DefineView("no-visits", "hospital",
                              "patient/visit : N;\n")
                  .ok());
  UpdateOptions opts;
  opts.view = "no-visits";
  opts.dtd_name = "hospital";
  auto r = engine_.Update(
      "empty-ward",
      "replace hospital with <hospital><patient><pname>B</pname>"
      "<visit><treatment><test>x</test></treatment><date>d</date></visit>"
      "</patient></hospital>",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
  EXPECT_NE(r.status().message().find("patient/visit : N"), std::string::npos)
      << r.status().ToString();
}

TEST_F(UpdateAuthTest, DryRunChangesNothing) {
  UpdateOptions direct;
  direct.dtd_name = "hospital";
  direct.dry_run = true;
  const std::string before = *engine_.DocumentXml("ward");
  auto r = engine_.Update("ward", "delete hospital/patient[pname = 'Carol']",
                          direct);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.targets, 1u);
  EXPECT_EQ(*engine_.DocumentXml("ward"), before);
  EXPECT_EQ(*engine_.DocumentEpoch("ward"), 0u);
}

}  // namespace
}  // namespace smoqe::core
