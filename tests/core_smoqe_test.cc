#include "src/core/smoqe.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe::core {
namespace {

using testutil::kHospitalDoc;

class SmoqeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.RegisterDtd("hospital", workload::kHospitalDtd,
                                    "hospital")
                    .ok());
    ASSERT_TRUE(engine_.LoadDocument("ward", kHospitalDoc).ok());
    ASSERT_TRUE(engine_
                    .DefineView("autism-group", "hospital",
                                workload::kHospitalPolicyAutism)
                    .ok());
    ASSERT_TRUE(engine_
                    .DefineView("research-group", "hospital",
                                workload::kHospitalPolicyResearch)
                    .ok());
  }

  Smoqe engine_;
};

TEST_F(SmoqeTest, DirectQuery) {
  auto r = engine_.Query("ward", "hospital/patient/pname");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->answers_xml.size(), 2u);
  EXPECT_EQ(r->answers_xml[0], "<pname>Alice</pname>");
  EXPECT_EQ(r->answers_xml[1], "<pname>Carol</pname>");
  EXPECT_EQ(r->stats.answers, 2u);
}

TEST_F(SmoqeTest, ViewQueryIsAccessControlled) {
  QueryOptions opts;
  opts.view = "autism-group";
  // The view exposes treatments of autism patients only; names are gone.
  auto names = engine_.Query("ward", "//pname", opts);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  EXPECT_TRUE(names->answers_xml.empty());

  auto meds = engine_.Query("ward", "hospital/patient/treatment/medication",
                            opts);
  ASSERT_TRUE(meds.ok());
  ASSERT_EQ(meds->answers_xml.size(), 1u);
  EXPECT_EQ(meds->answers_xml[0], "<medication>autism</medication>");

  // Direct query (trusted) still sees everything.
  auto direct = engine_.Query("ward", "//pname");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->answers_xml.size(), 3u);
}

TEST_F(SmoqeTest, TwoUserGroupsSeeDifferentData) {
  QueryOptions autism;
  autism.view = "autism-group";
  QueryOptions research;
  research.view = "research-group";

  // Researchers see tests; the autism group does not.
  auto r1 = engine_.Query("ward", "//test", research);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->answers_xml.size(), 1u);
  auto r2 = engine_.Query("ward", "//test", autism);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->answers_xml.empty());

  // Researchers see every patient's treatments, not just autism ones.
  auto r3 = engine_.Query("ward", "//treatment", research);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->answers_xml.size(), 3u);
}

TEST_F(SmoqeTest, StaxModeAgreesWithDomMode) {
  for (const char* q : {"//patient", "//medication",
                        "hospital/patient[visit]/pname"}) {
    auto dom = engine_.Query("ward", q);
    ASSERT_TRUE(dom.ok());
    QueryOptions opts;
    opts.mode = EvalMode::kStax;
    auto stax = engine_.Query("ward", q, opts);
    ASSERT_TRUE(stax.ok()) << stax.status().ToString();
    EXPECT_EQ(stax->answers_xml, dom->answers_xml) << q;
  }
}

TEST_F(SmoqeTest, NestedViewAnswersAgreeAcrossPaths) {
  // Recursive view queries on a deep genealogy return answers nested in
  // other answers: DOM (one walk per outermost answer), DOM+TAX and StAX
  // (one capture block per outermost answer) must agree byte for byte.
  auto doc = workload::GenHospitalDeep(1, 8000);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_GE(doc->num_nodes(), 5000);
  const std::string text = xml::SerializeDocument(*doc);
  ASSERT_TRUE(engine_.LoadDocument("deep", text).ok());
  ASSERT_TRUE(engine_.BuildIndex("deep").ok());
  for (const char* q : {"//patient[parent/patient[treatment]]", "//patient"}) {
    QueryOptions dom;
    dom.view = "autism-group";
    QueryOptions tax = dom;
    tax.use_tax = true;
    QueryOptions stax = dom;
    stax.mode = EvalMode::kStax;
    auto a = engine_.Query("deep", q, dom);
    auto b = engine_.Query("deep", q, tax);
    auto c = engine_.Query("deep", q, stax);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << q;
    ASSERT_GE(a->answers_xml.size(), 100u) << q;
    size_t bytes = 0;
    for (const std::string& x : a->answers_xml) bytes += x.size();
    EXPECT_GT(bytes, 10 * text.size()) << q << ": answers must nest deeply";
    EXPECT_TRUE(b->answers_xml == a->answers_xml) << q << ": DOM+TAX";
    EXPECT_TRUE(c->answers_xml == a->answers_xml) << q << ": StAX";
  }
}

TEST_F(SmoqeTest, StaxModeThroughView) {
  QueryOptions opts;
  opts.view = "autism-group";
  opts.mode = EvalMode::kStax;
  auto r = engine_.Query("ward", "hospital/patient/treatment/medication",
                         opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->answers_xml.size(), 1u);
  EXPECT_EQ(r->answers_xml[0], "<medication>autism</medication>");
}

TEST_F(SmoqeTest, TaxIndexLifecycle) {
  // Querying with TAX before building fails cleanly.
  QueryOptions opts;
  opts.use_tax = true;
  auto r = engine_.Query("ward", "//medication", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(engine_.BuildIndex("ward").ok());
  auto with = engine_.Query("ward", "//medication", opts);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  auto without = engine_.Query("ward", "//medication");
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->answers_xml, without->answers_xml);

  // Save / load round-trip.
  std::string path = ::testing::TempDir() + "/smoqe_core_tax.idx";
  ASSERT_TRUE(engine_.SaveIndex("ward", path).ok());
  ASSERT_TRUE(engine_.LoadIndex("ward", path).ok());
  auto again = engine_.Query("ward", "//medication", opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->answers_xml, without->answers_xml);
  std::remove(path.c_str());

  // TAX in StAX mode is rejected.
  QueryOptions bad;
  bad.use_tax = true;
  bad.mode = EvalMode::kStax;
  EXPECT_FALSE(engine_.Query("ward", "//medication", bad).ok());
}

// An index file saved from a smaller document has no slot for the
// larger document's higher ids, so a TAX query would read past its
// reference array. LoadIndex rejects it and publishes nothing.
TEST_F(SmoqeTest, LoadIndexRejectsAnIndexOfASmallerDocument) {
  ASSERT_TRUE(engine_
                  .LoadDocument("tiny",
                                "<hospital><patient><pname>Zed</pname>"
                                "</patient></hospital>")
                  .ok());
  ASSERT_TRUE(engine_.BuildIndex("tiny").ok());
  std::string path = ::testing::TempDir() + "/smoqe_core_tiny_tax.idx";
  ASSERT_TRUE(engine_.SaveIndex("tiny", path).ok());
  Status s = engine_.LoadIndex("ward", path);
  std::remove(path.c_str());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();

  auto r = engine_.Query("ward", "hospital/patient/pname");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->answers_xml.size(), 2u);
  QueryOptions tax;
  tax.use_tax = true;
  auto t = engine_.Query("ward", "//medication", tax);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SmoqeTest, ExplainProducesMfaAndTrace) {
  QueryOptions opts;
  opts.explain = true;
  auto r = engine_.Query("ward", "//patient[visit]/pname", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->mfa_dump.find("selection NFA"), std::string::npos);
  EXPECT_NE(r->trace_tree.find("hospital"), std::string::npos);
  // Answers are marked in the tree rendering.
  EXPECT_NE(r->trace_tree.find("A"), std::string::npos);
}

TEST_F(SmoqeTest, StaxExplainHasMfaButNoTree) {
  // The V/P/C/A tree needs DOM nodes; a streaming explain has only the
  // MFA dump.
  QueryOptions opts;
  opts.explain = true;
  opts.mode = EvalMode::kStax;
  auto r = engine_.Query("ward", "//patient[visit]/pname", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->mfa_dump.empty());
  EXPECT_TRUE(r->trace_tree.empty());
  EXPECT_FALSE(r->answers_xml.empty());
}

TEST_F(SmoqeTest, ViewSchemaExposedToUsers) {
  auto schema = engine_.ViewSchema("autism-group");
  ASSERT_TRUE(schema.ok());
  EXPECT_NE(schema->find("<!ELEMENT hospital (patient*)>"),
            std::string::npos);
  EXPECT_EQ(schema->find("pname"), std::string::npos);
  auto spec = engine_.ViewSpecification("autism-group");
  ASSERT_TRUE(spec.ok());
  EXPECT_NE(spec->find("sigma(patient, treatment)"), std::string::npos);
}

TEST_F(SmoqeTest, GeneratedDocumentsQueryable) {
  ASSERT_TRUE(engine_.GenerateDocument("synth", "hospital", 9, 500).ok());
  auto r = engine_.Query("synth", "//patient");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->answers_xml.size(), 0u);
  // View queries work on generated docs too.
  QueryOptions opts;
  opts.view = "autism-group";
  EXPECT_TRUE(engine_.Query("synth", "//treatment", opts).ok());
}

TEST_F(SmoqeTest, ErrorPaths) {
  EXPECT_EQ(engine_.Query("nodoc", "a").status().code(),
            StatusCode::kNotFound);
  QueryOptions opts;
  opts.view = "noview";
  EXPECT_EQ(engine_.Query("ward", "a", opts).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.Query("ward", "a[[").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(engine_.LoadDocument("ward", "<x/>").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_.DefineView("v", "nodtd", "a/b : N;").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_.BuildIndex("nodoc").code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine_.ViewSchema("nope").ok());
  EXPECT_FALSE(engine_.LoadDocument("bad", "<a><b></a>").ok());
}

TEST_F(SmoqeTest, QueryAndBatchAgreeOnItemFailures) {
  // Query and every QueryBatch item resolve the plan and check the
  // evaluation preconditions the same way, so a failing item carries
  // Query's status under its "batch item N" context.
  QueryOptions unknown_view;
  unknown_view.view = "ghost";
  QueryOptions stax_tax;
  stax_tax.mode = EvalMode::kStax;
  stax_tax.use_tax = true;
  QueryOptions dom_tax;
  dom_tax.use_tax = true;  // "ward" has no TAX index
  const std::vector<BatchQueryItem> items = {{"//pname", {}},
                                             {"a[[", {}},
                                             {"//pname", unknown_view},
                                             {"//pname", stax_tax},
                                             {"//pname", dom_tax}};
  const std::vector<StatusCode> codes = {
      StatusCode::kOk, StatusCode::kParseError, StatusCode::kNotFound,
      StatusCode::kInvalidArgument, StatusCode::kFailedPrecondition};
  auto batch = engine_.QueryBatch("ward", items);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const Status single =
        engine_.Query("ward", items[i].query, items[i].options).status();
    const Status& item = (*batch)[i].status;
    EXPECT_EQ(single.code(), codes[i]) << "item " << i;
    EXPECT_EQ(item.code(), single.code()) << "item " << i;
    EXPECT_EQ(item.message(),
              single.WithContext("batch item " + std::to_string(i)).message())
        << "item " << i;
  }
}

// QueryBatch evaluates StAX-mode items on the pinned snapshot's DOM.
// Their answer bytes equal a streamed single Query's and a DOM Query's,
// serially and on the pool, before and after an accepted update; like
// DOM items they carry answer ids and report no shared scan.
TEST(SmoqeBatchTest, StaxItemsMatchStreamedAndDomQueries) {
  for (int threads : {1, 4}) {
    EngineOptions o;
    o.max_threads = threads;
    Smoqe engine(o);
    ASSERT_TRUE(
        engine.RegisterDtd("hospital", workload::kHospitalDtd, "hospital")
            .ok());
    ASSERT_TRUE(engine.LoadDocument("ward", kHospitalDoc).ok());
    ASSERT_TRUE(engine
                    .DefineView("autism-group", "hospital",
                                workload::kHospitalPolicyAutism)
                    .ok());
    std::vector<BatchQueryItem> items;
    for (const char* view : {"", "autism-group"}) {
      for (const char* q : {"//patient", "//medication",
                            "hospital/patient[visit]/pname",
                            "//patient[parent/patient]//treatment"}) {
        BatchQueryItem item;
        item.query = q;
        item.options.view = view;
        item.options.mode = EvalMode::kStax;
        items.push_back(item);
      }
    }
    auto check = [&](const char* when) {
      auto batch = engine.QueryBatch("ward", items);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), items.size());
      size_t answers = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        const QueryAnswer& a = (*batch)[i];
        const std::string what = std::string(when) + ", " +
                                 std::to_string(threads) + " thread(s), " +
                                 items[i].query + " view '" +
                                 items[i].options.view + "'";
        ASSERT_TRUE(a.status.ok()) << what << ": " << a.status.ToString();
        auto streamed = engine.Query("ward", items[i].query, items[i].options);
        QueryOptions dom = items[i].options;
        dom.mode = EvalMode::kDom;
        auto walked = engine.Query("ward", items[i].query, dom);
        ASSERT_TRUE(streamed.ok() && walked.ok()) << what;
        EXPECT_EQ(a.answers_xml, streamed->answers_xml) << what;
        EXPECT_EQ(a.answers_xml, walked->answers_xml) << what;
        EXPECT_EQ(a.answer_ids, walked->answer_ids) << what;
        EXPECT_EQ(a.doc_epoch, walked->doc_epoch) << what;
        EXPECT_EQ(a.stats.batch_plans, 0u) << what;
        EXPECT_EQ(a.stats.buffered_bytes, 0u) << what;
        answers += a.answers_xml.size();
      }
      EXPECT_GT(answers, 10u) << when;
    };
    check("before the update");
    auto up = engine.Update(
        "ward",
        "insert into hospital/patient[pname = 'Carol'] "
        "<visit><treatment><medication>autism</medication></treatment>"
        "<date>d9</date></visit>");
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    ASSERT_EQ(*engine.DocumentEpoch("ward"), 1u);
    check("after the update");
  }
}

// A batch of StAX items reads only the DOM: after an update (whose
// snapshot has no text yet) it leaves the text unserialized, while a
// streamed single Query still serializes it.
TEST(SmoqeBatchTest, StaxBatchDoesNotSerializeTheSnapshot) {
  Smoqe engine;
  ASSERT_TRUE(
      engine.RegisterDtd("hospital", workload::kHospitalDtd, "hospital").ok());
  ASSERT_TRUE(engine.LoadDocument("ward", kHospitalDoc).ok());
  ASSERT_TRUE(engine.Update("ward", "delete hospital/patient[pname = 'Carol']")
                  .ok());
  auto snap = engine.Snapshot("ward");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ((*snap)->text_if_ready(), nullptr);
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  auto batch = engine.QueryBatch("ward", {{"//pname", stax}, {"//date", stax}});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ((*batch)[0].answers_xml.size(), 2u);
  EXPECT_EQ((*snap)->text_if_ready(), nullptr);
  ASSERT_TRUE(engine.Query("ward", "//pname", stax).ok());
  EXPECT_NE((*snap)->text_if_ready(), nullptr);
}

// StAX batch items under explain carry the V/P/C/A tree of their DOM
// walk; a StAX item asking for TAX still fails on its own, even with the
// index built, and its siblings answer.
TEST(SmoqeBatchTest, StaxItemsExplainAndRejectTax) {
  Smoqe engine;
  ASSERT_TRUE(engine.LoadDocument("ward", kHospitalDoc).ok());
  ASSERT_TRUE(engine.BuildIndex("ward").ok());
  QueryOptions explain;
  explain.mode = EvalMode::kStax;
  explain.explain = true;
  QueryOptions stax_tax;
  stax_tax.mode = EvalMode::kStax;
  stax_tax.use_tax = true;
  auto batch = engine.QueryBatch(
      "ward", {{"//patient[visit]/pname", explain}, {"//pname", stax_tax}});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const QueryAnswer& a = (*batch)[0];
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_FALSE(a.mfa_dump.empty());
  EXPECT_NE(a.trace_tree.find("V.CA     pname"), std::string::npos)
      << a.trace_tree;
  EXPECT_EQ(a.answer_ids.size(), a.answers_xml.size());
  EXPECT_EQ((*batch)[1].status.code(), StatusCode::kInvalidArgument)
      << (*batch)[1].status.ToString();
  EXPECT_TRUE((*batch)[1].answers_xml.empty());
}

TEST_F(SmoqeTest, HandWrittenViewSpecification) {
  // The paper's other view-definition mode: register a view written
  // directly as view DTD + sigma, type-checked against the document DTD.
  Status st = engine_.DefineViewFromSpec("spec-group", R"(
    root hospital;
    dtd {
      <!ELEMENT hospital (patient*)>
      <!ELEMENT patient (medication*)>
      <!ELEMENT medication (#PCDATA)>
    }
    sigma hospital/patient = patient;
    sigma patient/medication = visit/treatment/medication;
  )", "hospital");
  ASSERT_TRUE(st.ok()) << st.ToString();
  core::QueryOptions opts;
  opts.view = "spec-group";
  auto r = engine_.Query("ward", "//medication", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->answers_xml.size(), 2u);  // autism + headache
  // Type checking rejects a spec that produces the wrong element type.
  Status bad = engine_.DefineViewFromSpec("bad-group", R"(
    root hospital;
    dtd {
      <!ELEMENT hospital (patient*)>
      <!ELEMENT patient EMPTY>
    }
    sigma hospital/patient = patient/visit;
  )", "hospital");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

TEST_F(SmoqeTest, UnknownLabelsReportedForViewQueries) {
  QueryOptions opts;
  opts.view = "autism-group";
  // 'pname' is not part of the autism view's schema.
  auto r = engine_.Query("ward", "//pname", opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->unknown_labels.size(), 1u);
  EXPECT_EQ(r->unknown_labels[0], "pname");
  // Labels inside the view schema are not flagged.
  auto ok = engine_.Query("ward", "//treatment", opts);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->unknown_labels.empty());
}

TEST_F(SmoqeTest, DoctypeRegistersDtd) {
  Smoqe fresh;
  ASSERT_TRUE(
      fresh
          .LoadDocument("d",
                        "<!DOCTYPE r [<!ELEMENT r (x*)> <!ELEMENT x EMPTY>]>"
                        "<r><x/></r>")
          .ok());
  // The captured internal subset acts as DTD "d": define a view over it.
  ASSERT_TRUE(fresh.DefineView("g", "d", "r/x : N;").ok());
  QueryOptions opts;
  opts.view = "g";
  auto r = fresh.Query("d", "//x", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->answers_xml.empty());
}

TEST_F(SmoqeTest, CatalogListings) {
  EXPECT_EQ(engine_.DocumentNames(), (std::vector<std::string>{"ward"}));
  std::vector<std::string> view_names = engine_.ViewNames();
  std::set<std::string> views(view_names.begin(), view_names.end());
  EXPECT_TRUE(views.count("autism-group") == 1 &&
              views.count("research-group") == 1);
}

}  // namespace
}  // namespace smoqe::core
