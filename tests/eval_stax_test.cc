#include "src/eval/hype_stax.h"

#include <gtest/gtest.h>

#include "src/automata/mfa.h"
#include "src/core/smoqe.h"
#include "src/eval/batch.h"
#include "src/eval/hype_dom.h"
#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace smoqe::eval {
namespace {

using automata::Mfa;
using core::BatchQueryItem;
using core::EvalMode;
using core::QueryOptions;
using core::Smoqe;
using testutil::kHospitalDoc;
using testutil::MustDoc;
using testutil::MustQuery;

StaxEvalResult MustStax(std::string_view xml, std::string_view q,
                        std::shared_ptr<xml::NameTable> names = nullptr) {
  if (names == nullptr) names = xml::NameTable::Create();
  auto query = MustQuery(q);
  auto mfa = Mfa::Compile(*query, names);
  EXPECT_TRUE(mfa.ok()) << mfa.status().ToString();
  auto r = EvalHypeStax(*mfa, xml);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

TEST(StaxEvalTest, SelectsAndSerializesSubtrees) {
  auto r = MustStax("<a><b>one</b><c><b>two</b></c></a>", "//b");
  ASSERT_EQ(r.answers.size(), 2u);
  EXPECT_EQ(r.answers[0].xml, "<b>one</b>");
  EXPECT_EQ(r.answers[1].xml, "<b>two</b>");
}

TEST(StaxEvalTest, CandidateDiscardedWhenGuardFails) {
  // b[x] stages every b as a candidate (guard pending); only one passes.
  auto r = MustStax("<a><b><x/></b><b><y/></b></a>", "a/b[x]");
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].xml, "<b><x/></b>");
}

TEST(StaxEvalTest, NestedCandidatesCaptureIndependently) {
  auto r = MustStax("<a><b><a><b/></a></b></a>", "//b");
  ASSERT_EQ(r.answers.size(), 2u);
  EXPECT_EQ(r.answers[0].xml, "<b><a><b/></a></b>");
  EXPECT_EQ(r.answers[1].xml, "<b/>");
}

TEST(StaxEvalTest, AttributesPreservedInCapture) {
  auto r = MustStax("<r><item id=\"7\" k=\"a&amp;b\">t</item></r>", "r/item");
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].xml, "<item id=\"7\" k=\"a&amp;b\">t</item>");
}

// Differential: StAX answers = DOM answers (serialized), corpus × docs.
class StaxCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StaxCorpusTest, AgreesWithDomMode) {
  auto names = xml::NameTable::Create();
  xml::Document doc = MustDoc(kHospitalDoc, names);
  auto query = MustQuery(GetParam());
  auto mfa = Mfa::Compile(*query, names);
  ASSERT_TRUE(mfa.ok());

  auto dom = EvalHypeDom(*mfa, doc);
  ASSERT_TRUE(dom.ok()) << dom.status().ToString();
  auto stax = EvalHypeStax(*mfa, kHospitalDoc);
  ASSERT_TRUE(stax.ok()) << stax.status().ToString();

  ASSERT_EQ(stax->answers.size(), dom->answers.size()) << GetParam();
  for (size_t i = 0; i < dom->answers.size(); ++i) {
    EXPECT_EQ(stax->answers[i].xml,
              xml::SerializeNode(dom->answers[i], *names))
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, StaxCorpusTest,
                         ::testing::ValuesIn(testutil::HospitalQueryCorpus()));

TEST(StaxEvalTest, RandomDocsAgreeWithDom) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto names = xml::NameTable::Create();
    xml::Document doc = testutil::GenHospital(seed, 300, names);
    std::string text = xml::SerializeDocument(doc);
    for (const char* q : testutil::HospitalQueryCorpus()) {
      auto query = MustQuery(q);
      auto mfa = Mfa::Compile(*query, names);
      ASSERT_TRUE(mfa.ok());
      auto dom = EvalHypeDom(*mfa, doc);
      ASSERT_TRUE(dom.ok());
      auto stax = EvalHypeStax(*mfa, text);
      ASSERT_TRUE(stax.ok()) << q << ": " << stax.status().ToString();
      ASSERT_EQ(stax->answers.size(), dom->answers.size())
          << "seed " << seed << " query " << q;
    }
  }
}

TEST(StaxEvalTest, BufferedBytesBoundedByCandidates) {
  // A selective query must not buffer the whole document.
  auto names = xml::NameTable::Create();
  xml::Document doc = testutil::GenHospital(3, 2000, names);
  std::string text = xml::SerializeDocument(doc);
  auto query = MustQuery("hospital/patient/pname");
  auto mfa = Mfa::Compile(*query, names);
  ASSERT_TRUE(mfa.ok());
  auto r = EvalHypeStax(*mfa, text);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->answers.size(), 0u);
  EXPECT_LT(r->stats.buffered_bytes, text.size() / 4)
      << "peak capture should be far below document size";
}

TEST(StaxEvalTest, NestedCapturesBufferOnce) {
  // //patient on a deep genealogy: every enclosing patient is an open
  // capture, yet each event is buffered once, in its outermost capture's
  // block, so the peak stays within the document's own size.
  auto names = xml::NameTable::Create();
  auto doc = workload::GenHospitalDeep(1, 8000, names);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_GE(doc->num_nodes(), 5000);
  const std::string text = xml::SerializeDocument(*doc);
  auto query = MustQuery("//patient");
  auto mfa = Mfa::Compile(*query, names);
  ASSERT_TRUE(mfa.ok());

  auto stax = EvalHypeStax(*mfa, text);
  ASSERT_TRUE(stax.ok()) << stax.status().ToString();
  EXPECT_LE(stax->stats.buffered_bytes, text.size());
  auto dom = EvalHypeDom(*mfa, *doc);
  ASSERT_TRUE(dom.ok());
  ASSERT_EQ(stax->answers.size(), dom->answers.size());
  ASSERT_GE(stax->answers.size(), 200u);
  size_t answer_bytes = 0;
  for (size_t i = 0; i < dom->answers.size(); ++i) {
    ASSERT_EQ(stax->answers[i].xml,
              xml::SerializeNode(dom->answers[i], *names))
        << "answer " << i;
    answer_bytes += stax->answers[i].xml.size();
  }
  EXPECT_GT(answer_bytes, 10 * text.size()) << "the answers must nest deeply";

  // The parallel batch replays the same capture stream on the driver
  // thread one chunk behind the plans: identical answers and peak.
  auto v5 = MustQuery("//patient[parent/patient[treatment]]");
  auto mfa_v5 = Mfa::Compile(*v5, names);
  ASSERT_TRUE(mfa_v5.ok());
  BatchEvaluator batch;
  batch.AddPlan(&*mfa);
  batch.AddPlan(&*mfa_v5);
  auto serial = batch.Run(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ThreadPool pool(4);
  BatchParallelOptions par;
  par.pool = &pool;
  par.chunk_events = 512;
  auto parallel = batch.RunParallel(text, par);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->size(), 2u);
  ASSERT_EQ(parallel->size(), 2u);
  for (size_t k = 0; k < 2; ++k) {
    const StaxEvalResult& s = (*serial)[k];
    const StaxEvalResult& p = (*parallel)[k];
    EXPECT_LE(s.stats.buffered_bytes, text.size());
    EXPECT_EQ(p.stats.buffered_bytes, s.stats.buffered_bytes);
    ASSERT_EQ(p.answers.size(), s.answers.size());
    for (size_t i = 0; i < s.answers.size(); ++i) {
      EXPECT_EQ(p.answers[i].xml, s.answers[i].xml);
    }
  }
  ASSERT_EQ((*serial)[0].answers.size(), stax->answers.size());
  for (size_t i = 0; i < stax->answers.size(); ++i) {
    EXPECT_EQ((*serial)[0].answers[i].xml, stax->answers[i].xml);
  }
}

// The tokenizer hands out views of the document text, except for bytes
// it decodes (entity-bearing text and attribute values, text joined
// across a CDATA section or a comment), which live only until its next
// event. The parallel driver keeps whole chunks of events, so it must
// copy exactly those bytes: at every chunk size, including chunks of one
// event, answers and attribute tests agree with the serial scan and with
// DOM evaluation.
TEST(StaxEvalTest, DecodedBytesSurviveChunkBoundaries) {
  std::string text = "<r>";
  for (int i = 0; i < 30; ++i) {
    const std::string n = std::to_string(i);
    text += "<rec id=\"r&amp;" + n + "\" k='" + std::to_string(i % 3) +
            "' tag=\"a &lt; b" + std::to_string(i % 2) + "\">";
    text += "<note>x &amp; y" + std::to_string(i % 4) + "</note>";
    text += "<cd><![CDATA[<raw>&" + n + "]]></cd>";
    text += "<mix>pre<![CDATA[ & ]]>post" + std::to_string(i % 5) + "</mix>";
    text += "<split>ab<!-- c -->cd" + std::to_string(i % 2) + "</split>";
    text += "<ref>&#x41;&#66;" + n + "</ref>";
    text += "<plain v='" + n + "'>v" + n + "</plain>";
    text += "</rec>";
  }
  text += "</r>";
  const char* queries[] = {
      "//rec[@tag = 'a < b1']",
      "//rec[@id = 'r&7']/note",
      "//rec[note = 'x & y2']",
      "//rec[mix = 'pre & post3']/cd",
      "//rec[split = 'abcd1']/ref",
      "//rec[ref = 'AB5']",
      "//cd[text() = '<raw>&12']",
      "//rec[@k = '1' and not(plain = 'v4')]/mix",
      "//plain[@v = '9']",
  };
  auto names = xml::NameTable::Create();
  xml::Document doc = MustDoc(text, names);
  std::vector<Mfa> mfas;
  for (const char* q : queries) {
    auto mfa = Mfa::Compile(*MustQuery(q), names);
    ASSERT_TRUE(mfa.ok()) << q << ": " << mfa.status().ToString();
    mfas.push_back(mfa.MoveValue());
  }
  BatchEvaluator batch;
  for (const Mfa& m : mfas) batch.AddPlan(&m);
  auto serial = batch.Run(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->size(), mfas.size());
  for (size_t k = 0; k < mfas.size(); ++k) {
    auto dom = EvalHypeDom(mfas[k], doc);
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();
    const StaxEvalResult& s = (*serial)[k];
    ASSERT_FALSE(s.answers.empty()) << queries[k];
    ASSERT_EQ(s.answers.size(), dom->answers.size()) << queries[k];
    for (size_t i = 0; i < s.answers.size(); ++i) {
      EXPECT_EQ(s.answers[i].xml, xml::SerializeNode(dom->answers[i], *names))
          << queries[k];
    }
  }
  ThreadPool pool(4);
  for (size_t chunk : {1, 3, 7}) {
    BatchParallelOptions par;
    par.pool = &pool;
    par.chunk_events = chunk;
    auto parallel = batch.RunParallel(text, par);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t k = 0; k < mfas.size(); ++k) {
      const StaxEvalResult& s = (*serial)[k];
      const StaxEvalResult& p = (*parallel)[k];
      ASSERT_EQ(p.answers.size(), s.answers.size())
          << queries[k] << " at chunk_events " << chunk;
      for (size_t i = 0; i < s.answers.size(); ++i) {
        EXPECT_EQ(p.answers[i].xml, s.answers[i].xml)
            << queries[k] << " at chunk_events " << chunk;
      }
    }
  }
}

TEST(StaxEvalTest, MalformedInputSurfacesParseError) {
  auto names = xml::NameTable::Create();
  auto query = MustQuery("a");
  auto mfa = Mfa::Compile(*query, names);
  ASSERT_TRUE(mfa.ok());
  auto r = EvalHypeStax(*mfa, "<a><b></a>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(StaxEvalTest, WhitespaceHandlingMatchesDomDefault) {
  auto r = MustStax("<a>\n  <b>x</b>\n</a>", "a[b = 'x']");
  ASSERT_EQ(r.answers.size(), 1u);
}

// Batch evaluation (one shared scan, N plans) must produce byte-identical
// answers to N sequential single-plan passes — the DESIGN.md §5.2
// contract that bench_batch's speedup claim rests on.
TEST(BatchEvalTest, BatchAnswersByteIdenticalToSequential) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto names = xml::NameTable::Create();
    xml::Document doc = testutil::GenHospital(seed, 400, names);
    std::string text = xml::SerializeDocument(doc);

    std::vector<Mfa> mfas;
    for (const char* q : testutil::HospitalQueryCorpus()) {
      auto query = MustQuery(q);
      auto mfa = Mfa::Compile(*query, names);
      ASSERT_TRUE(mfa.ok());
      mfas.push_back(mfa.MoveValue());
    }
    std::vector<const Mfa*> plans;
    for (const Mfa& m : mfas) plans.push_back(&m);

    BatchEvaluator evaluator;
    for (const Mfa* m : plans) evaluator.AddPlan(m);
    auto batch = evaluator.Run(text);
    ASSERT_TRUE(batch.ok()) << "seed " << seed << ": "
                            << batch.status().ToString();
    ASSERT_EQ(batch->size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      auto single = EvalHypeStax(*plans[i], text);
      ASSERT_TRUE(single.ok());
      ASSERT_EQ((*batch)[i].answers.size(), single->answers.size())
          << "seed " << seed << " plan " << i;
      for (size_t a = 0; a < single->answers.size(); ++a) {
        EXPECT_EQ((*batch)[i].answers[a].xml, single->answers[a].xml)
            << "seed " << seed << " plan " << i << " answer " << a;
        EXPECT_EQ((*batch)[i].answers[a].engine_id,
                  single->answers[a].engine_id);
      }
    }
  }
}

TEST(BatchEvalTest, RejectsPlansFromDifferentNameTables) {
  auto names_a = xml::NameTable::Create();
  auto names_b = xml::NameTable::Create();
  auto qa = MustQuery("a");
  auto qb = MustQuery("b");
  auto ma = Mfa::Compile(*qa, names_a);
  auto mb = Mfa::Compile(*qb, names_b);
  ASSERT_TRUE(ma.ok() && mb.ok());
  BatchEvaluator batch;
  batch.AddPlan(&*ma);
  batch.AddPlan(&*mb);
  auto r = batch.Run("<a><b/></a>");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchEvalTest, EmptyBatchIsNoop) {
  auto r = BatchEvaluator().Run("<a/>");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

// The serial scan charges its budget at guard ticks (every 256 events);
// the engine growth of the events after the last tick must still be
// charged before the results are assembled. Here no tick ever fires
// (under 256 events) and nothing is answered (no answer copies to
// charge), so only the end-of-document charge can trip the budget.
TEST(BatchEvalTest, SerialScanChargesTheTailBeforeAssembling) {
  xml::Document doc = MustDoc(kHospitalDoc);
  ASSERT_LT(doc.num_nodes(), 100);  // ≤ 2 events per node: under one tick
  auto mfa = Mfa::Compile(*MustQuery("//patient[.//medication = 'none']"),
                          doc.names());
  ASSERT_TRUE(mfa.ok());

  MemoryBudget unlimited;
  Guardrail accounting(Deadline(), nullptr, &unlimited);
  auto counted = EvalHypeStax(*mfa, kHospitalDoc, &accounting);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_TRUE(counted->answers.empty());
  ASSERT_GT(unlimited.used(), 1u) << "the engine's allocations were charged";

  MemoryBudget tiny(1);
  Guardrail guard(Deadline(), nullptr, &tiny);
  auto r = EvalHypeStax(*mfa, kHospitalDoc, &guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
}

// Facade batch over the shared StAX scan: a failing item (parse error,
// mode conflict) fails only itself; its siblings — including items that
// ride the same streaming pass — still complete (ISSUE S3 / smoqe.h
// QueryAnswer::status contract).
TEST(BatchEvalTest, FacadeStaxBatchFailsPerItem) {
  Smoqe engine;
  ASSERT_TRUE(engine.LoadDocument("ward", kHospitalDoc).ok());

  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  QueryOptions stax_tax = stax;
  stax_tax.use_tax = true;  // TAX is DOM-only: per-item conflict
  std::vector<BatchQueryItem> items = {
      {"//pname", stax},
      {"a[[", stax},        // parse error
      {"//pname", stax_tax},
      {"//pname", {}},      // DOM item sharing the batch
  };
  auto r = engine.QueryBatch("ward", items);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 4u);

  auto single = engine.Query("ward", "//pname", stax);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE((*r)[0].status.ok()) << (*r)[0].status.ToString();
  EXPECT_EQ((*r)[0].answers_xml, single->answers_xml);

  EXPECT_EQ((*r)[1].status.code(), StatusCode::kParseError);
  EXPECT_NE((*r)[1].status.message().find("batch item 1"), std::string::npos)
      << (*r)[1].status.ToString();
  EXPECT_TRUE((*r)[1].answers_xml.empty());

  EXPECT_EQ((*r)[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*r)[2].answers_xml.empty());

  ASSERT_TRUE((*r)[3].status.ok()) << (*r)[3].status.ToString();
  EXPECT_EQ((*r)[3].answers_xml, single->answers_xml)
      << "DOM sibling must be unaffected by StAX item failures";
}

// An invalid StAX item must not poison the shared scan for later calls:
// the next identical batch answers byte-identically.
TEST(BatchEvalTest, FacadeStaxBatchRecoversAfterItemFailure) {
  Smoqe engine;
  ASSERT_TRUE(engine.LoadDocument("ward", kHospitalDoc).ok());
  QueryOptions stax;
  stax.mode = EvalMode::kStax;
  std::vector<BatchQueryItem> bad = {{"//pname", stax}, {"][", stax}};
  auto first = engine.QueryBatch("ward", bad);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE((*first)[1].status.ok());
  auto second = engine.QueryBatch("ward", bad);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)[0].answers_xml, (*first)[0].answers_xml);
  EXPECT_EQ((*second)[1].status.code(), (*first)[1].status.code());
}

}  // namespace
}  // namespace smoqe::eval
