// View-checked update authorization through the Smoqe facade:
// accept/reject semantics with explain strings naming the violated
// annotation, trusted direct updates, and every read path (DOM, StAX
// text, MaterializeView) following the document epoch. Below them, a
// differential: the on-demand path fold that authorizes updates
// classifies every element of generated documents exactly like a
// whole-document fold, explain strings included.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/smoqe.h"
#include "src/rxpath/printer.h"
#include "src/update/authorize.h"
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

// --- Path-fold classification ≡ the whole-document fold ------------------

std::string RenderAnnotation(const std::string& parent,
                             const std::string& child,
                             const view::Annotation& ann) {
  std::string out = parent + "/" + child + " : ";
  switch (ann.kind) {
    case view::AnnKind::kAllow:
      out += "Y";
      break;
    case view::AnnKind::kDeny:
      out += "N";
      break;
    case view::AnnKind::kCondition:
      out += "[" + rxpath::ToString(*ann.condition) + "]";
      break;
  }
  return out;
}

/// The reference classification: one pre-order walk over the whole
/// document, each child's status derived from its parent's, every
/// annotated edge rendered once and shared by index. update::PathAccess
/// must reproduce it node for node.
class ReferenceAccess {
 public:
  ReferenceAccess(const view::Policy& policy, const xml::Document& doc)
      : nodes_(static_cast<size_t>(doc.num_nodes())) {
    rxpath::NaiveEvaluator eval(doc);
    std::map<const view::Annotation*, int32_t> edge_ids;
    auto intern_edge = [&](const std::string& parent, const std::string& child,
                           const view::Annotation& ann) {
      auto [it, fresh] = edge_ids.emplace(
          &ann, static_cast<int32_t>(edges_.size()));
      if (fresh) edges_.push_back(RenderAnnotation(parent, child, ann));
      return it->second;
    };
    const xml::NameTable& names = *doc.names();
    std::vector<const xml::Node*> stack = {doc.root()};
    while (!stack.empty()) {
      const xml::Node* n = stack.back();
      stack.pop_back();
      const NodeState cur = nodes_[n->node_id];
      const std::string& parent_name = names.NameOf(n->label);
      for (const xml::Node* c = n->first_child; c != nullptr;
           c = c->next_sibling) {
        NodeState& cs = nodes_[c->node_id];
        cs = cur;  // text and unannotated edges inherit
        if (c->is_element()) {
          const std::string& child_name = names.NameOf(c->label);
          const view::Annotation* ann = policy.Find(parent_name, child_name);
          if (ann != nullptr) {
            cs.vis_edge = intern_edge(parent_name, child_name, *ann);
            switch (ann->kind) {
              case view::AnnKind::kAllow:
                cs.visible = true;
                break;
              case view::AnnKind::kDeny:
                cs.visible = false;
                break;
              case view::AnnKind::kCondition:
                cs.visible = eval.QualifierHolds(*ann->condition, c);
                cs.cond_edge = cs.vis_edge;
                break;
            }
          }
          stack.push_back(c);
        }
      }
    }
  }

  bool visible(const xml::Node* n) const { return nodes_[n->node_id].visible; }
  bool condition_protected(const xml::Node* n) const {
    return nodes_[n->node_id].cond_edge >= 0;
  }
  std::string DecidingAnnotation(const xml::Node* n) const {
    const int32_t e = nodes_[n->node_id].vis_edge;
    return e < 0 ? "(visible by default)" : edges_[static_cast<size_t>(e)];
  }
  std::string ProtectingCondition(const xml::Node* n) const {
    const int32_t e = nodes_[n->node_id].cond_edge;
    return e < 0 ? "(unconditional)" : edges_[static_cast<size_t>(e)];
  }

 private:
  struct NodeState {
    bool visible = true;
    int32_t vis_edge = -1;
    int32_t cond_edge = -1;
  };
  std::vector<std::string> edges_;
  std::vector<NodeState> nodes_;
};

std::string Describe(const xml::NameTable& names, const xml::Node* n) {
  return "element '" + names.NameOf(n->label) + "' (node " +
         std::to_string(n->node_id) + ")";
}

/// The verdict of a single-edit `delete` of `t` over the reference
/// classification: the target check, then the removed subtree in the
/// same visiting order.
Status ReferenceDeleteVerdict(const ReferenceAccess& access,
                              const xml::NameTable& names,
                              const xml::Node* t) {
  if (!access.visible(t)) {
    return Status::PermissionDenied(
        "update rejected: target " + Describe(names, t) +
        " is hidden by annotation '" + access.DecidingAnnotation(t) + "'");
  }
  if (access.condition_protected(t)) {
    return Status::PermissionDenied(
        "update rejected: target " + Describe(names, t) +
        " is condition-protected by annotation '" +
        access.ProtectingCondition(t) + "'");
  }
  std::vector<const xml::Node*> stack = {t};
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    if (n->is_element()) {
      if (!access.visible(n)) {
        return Status::PermissionDenied(
            "update rejected: delete would remove hidden " +
            Describe(names, n) + ", hidden by annotation '" +
            access.DecidingAnnotation(n) + "'");
      }
      if (access.condition_protected(n)) {
        return Status::PermissionDenied(
            "update rejected: delete would remove " + Describe(names, n) +
            ", which is condition-protected by annotation '" +
            access.ProtectingCondition(n) + "'");
      }
    }
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  return Status::OK();
}

/// Y under N (treatments surface through hidden visits) and [q] edges
/// nested inside [q]-protected regions, one with a nested qualifier.
constexpr char kSurfacingPolicy[] = R"(
  hospital/patient     : [visit/treatment[medication = 'autism']];
  patient/visit        : N;
  visit/treatment      : Y;
  treatment/medication : [. = 'autism'];
  parent/patient       : [pname];
)";

std::vector<const xml::Node*> Elements(const xml::Document& doc) {
  std::vector<const xml::Node*> out;
  std::vector<const xml::Node*> stack = {doc.root()};
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    out.push_back(n);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) stack.push_back(c);
    }
  }
  return out;
}

TEST(PathAccessDifferential, MatchesWholeDocumentFoldOnGeneratedWards) {
  auto names = xml::NameTable::Create();
  std::vector<xml::Document> docs;
  auto shallow = workload::GenHospital(3, 4000, names);
  ASSERT_TRUE(shallow.ok()) << shallow.status().ToString();
  docs.push_back(shallow.MoveValue());
  auto deep = workload::GenHospitalDeep(3, 4000, names);
  ASSERT_TRUE(deep.ok()) << deep.status().ToString();
  docs.push_back(deep.MoveValue());

  const xml::Dtd dtd = workload::HospitalDtd();
  const std::pair<const char*, const char*> policies[] = {
      {"S0", workload::kHospitalPolicyAutism},
      {"research", workload::kHospitalPolicyResearch},
      {"surfacing", kSurfacingPolicy}};
  for (size_t d = 0; d < docs.size(); ++d) {
    const xml::Document& doc = docs[d];
    const std::vector<const xml::Node*> elements = Elements(doc);
    ASSERT_GE(elements.size(), 1000u) << "document " << d;
    for (const auto& [policy_name, policy_text] : policies) {
      auto policy = view::Policy::Parse(dtd, policy_text);
      ASSERT_TRUE(policy.ok()) << policy.status().ToString();
      const ReferenceAccess ref(*policy, doc);
      // One fold visits the elements top-down (every parent memoized
      // first), the other bottom-up (every lookup climbs).
      update::PathAccess top_down(*policy, doc);
      update::PathAccess bottom_up(*policy, doc);
      size_t hidden = 0;
      size_t conditional = 0;
      auto check = [&](update::PathAccess& fold, const xml::Node* n) {
        const update::NodeAccess a = fold.Of(n);
        const std::string where = std::string(policy_name) + ", document " +
                                  std::to_string(d) + ", node " +
                                  std::to_string(n->node_id);
        ASSERT_EQ(a.visible, ref.visible(n)) << where;
        ASSERT_EQ(a.condition_protected(), ref.condition_protected(n))
            << where;
        ASSERT_EQ(fold.DecidingAnnotation(a), ref.DecidingAnnotation(n))
            << where;
        ASSERT_EQ(fold.ProtectingCondition(a), ref.ProtectingCondition(n))
            << where;
      };
      for (const xml::Node* n : elements) {
        check(top_down, n);
        hidden += ref.visible(n) ? 0 : 1;
        conditional += ref.condition_protected(n) ? 1 : 0;
      }
      for (auto it = elements.rbegin(); it != elements.rend(); ++it) {
        check(bottom_up, *it);
      }
      // Every policy hides something; the conditional ones protect every
      // patient, so only research accepts some deletes below.
      const bool research = std::string(policy_name) == "research";
      EXPECT_GT(hidden, 0u) << policy_name;
      EXPECT_LT(hidden, elements.size()) << policy_name;
      EXPECT_EQ(conditional > 0, !research) << policy_name;

      // A single-edit delete of each element gets the reference verdict,
      // byte for byte.
      size_t denied = 0;
      for (const xml::Node* n : elements) {
        const Status got = update::AuthorizeScript(
            *policy, doc, {update::ResolvedEdit{update::OpKind::kDelete, n}});
        const Status want = ReferenceDeleteVerdict(ref, *doc.names(), n);
        ASSERT_EQ(got.code(), want.code())
            << policy_name << ", node " << n->node_id << ": "
            << got.ToString() << " vs " << want.ToString();
        ASSERT_EQ(got.message(), want.message()) << policy_name;
        denied += got.ok() ? 0 : 1;
      }
      EXPECT_GT(denied, 0u) << policy_name;
      if (research) {
        EXPECT_LT(denied, elements.size());
      }
    }
  }
}

}  // namespace
}  // namespace smoqe::core
