#ifndef SMOQE_TESTS_TEST_UTIL_H_
#define SMOQE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/rxpath/naive_eval.h"
#include "src/rxpath/parser.h"
#include "src/workload/workloads.h"
#include "src/xml/dtd_parser.h"
#include "src/xml/generator.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace smoqe::testutil {

/// The paper's hospital DTD (Fig. 3(a)), used across tests and benches.
inline constexpr char kHospitalDtd[] = R"(
  <!ELEMENT hospital (patient*)>
  <!ELEMENT patient (pname, visit*, parent*)>
  <!ELEMENT parent (patient)>
  <!ELEMENT visit (treatment, date)>
  <!ELEMENT treatment (test | medication)>
  <!ELEMENT pname (#PCDATA)>
  <!ELEMENT date (#PCDATA)>
  <!ELEMENT test (#PCDATA)>
  <!ELEMENT medication (#PCDATA)>
)";

/// The hand-written hospital instance from rxpath_eval_test (Alice with
/// autism medication and a parent Bob with a blood test; Carol with
/// headache medication).
inline constexpr char kHospitalDoc[] =
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

/// The paper's access-control policy S0 (Fig. 3(b)) over kHospitalDtd.
inline constexpr char kPolicyS0[] = R"(
  hospital/patient : [visit/treatment/medication = 'autism'];
  patient/pname    : N;
  patient/visit    : N;
  visit/treatment  : [medication];
  treatment/test   : N;
)";

struct NamedPolicy {
  const char* name;
  const char* text;
};

/// S0 plus the policies the update suites update through: the views the
/// rewrite property tests and the split differential run through.
inline std::vector<NamedPolicy> PropertyPolicies() {
  return {
      {"S0", kPolicyS0},
      {"research", workload::kHospitalPolicyResearch},
      {"autism-group", workload::kHospitalPolicyAutism},
      {"no-visits", "patient/visit : N;\n"},
  };
}

inline xml::Document MustDoc(std::string_view text,
                             std::shared_ptr<xml::NameTable> names = nullptr) {
  xml::ParseOptions opts;
  opts.names = std::move(names);
  auto r = xml::ParseDocument(text, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

inline xml::Dtd MustDtd(std::string_view text, std::string_view root = "") {
  auto r = xml::ParseDtd(text, root);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

inline std::unique_ptr<rxpath::PathExpr> MustQuery(std::string_view q) {
  auto r = rxpath::ParseQuery(q);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.MoveValue();
}

/// Generates a random hospital document with a mixed medication
/// vocabulary (≈1/4 'autism').
inline xml::Document GenHospital(uint64_t seed, size_t target_nodes,
                                 std::shared_ptr<xml::NameTable> names = nullptr) {
  xml::Dtd dtd = MustDtd(kHospitalDtd, "hospital");
  xml::GeneratorOptions opts;
  opts.seed = seed;
  opts.target_nodes = target_nodes;
  opts.names = std::move(names);
  opts.text_values["medication"] = {"autism", "headache", "flu", "cold"};
  opts.text_values["pname"] = {"Alice", "Bob", "Carol", "Dan", "Eve"};
  opts.text_values["test"] = {"blood", "xray"};
  auto doc = xml::GenerateDocument(dtd, opts);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.MoveValue();
}

/// A ward like the benchmark's: generated patient forests concatenated
/// under one <hospital> root until it has at least `nodes` nodes, then a
/// marker patient 'Zed' last. A GenHospitalDeep forest has one top-level
/// patient, and a large GenHospital document one patient holding nearly
/// all of it, so a lone generated document gives a split walk
/// (docs/DESIGN.md §3.7) nothing to split.
inline xml::Document MakeWard(
    bool deep, uint64_t seed, size_t nodes,
    const std::shared_ptr<xml::NameTable>& names = nullptr) {
  std::string body;
  size_t have = 1;
  for (uint64_t sub = seed * 1000; have < nodes && sub < seed * 1000 + 1000;
       ++sub) {
    Result<xml::Document> doc = deep ? workload::GenHospitalDeep(sub, 4000)
                                     : workload::GenHospital(sub, 4000);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    if (!doc.ok()) break;
    const std::string text = xml::SerializeDocument(*doc);
    const size_t open = text.find('>');
    const size_t close = text.rfind("</hospital>");
    if (close == std::string::npos) continue;  // a bare root
    body.append(text, open + 1, close - open - 1);
    have += static_cast<size_t>(doc->num_nodes()) - 1;
  }
  return MustDoc(
      "<hospital>" + body + "<patient><pname>Zed</pname></patient></hospital>",
      names);
}

/// Document-order node ids selected by the reference evaluator.
inline std::vector<int32_t> NaiveIds(const xml::Document& doc,
                                     const rxpath::PathExpr& query) {
  rxpath::NaiveEvaluator ev(doc);
  std::vector<int32_t> out;
  for (const xml::Node* n : ev.Eval(query)) out.push_back(n->node_id);
  return out;
}

/// Node ids of a node-pointer answer list.
inline std::vector<int32_t> IdsOf(const std::vector<const xml::Node*>& nodes) {
  std::vector<int32_t> out;
  out.reserve(nodes.size());
  for (const xml::Node* n : nodes) out.push_back(n->node_id);
  return out;
}

/// Query corpus exercising every Regular XPath feature over the hospital
/// schema; used by the differential suites (HyPE ≡ naive ≡ two-pass ≡
/// StAX, TAX on ≡ off).
inline std::vector<const char*> HospitalQueryCorpus() {
  return {
      "hospital",
      "hospital/patient",
      "hospital/patient/pname",
      "//patient",
      "//pname",
      "//medication",
      "hospital/*",
      "hospital/*/pname",
      "hospital//treatment",
      "hospital/patient/(parent/patient)*",
      "hospital/(patient/parent)*/patient/pname",
      "hospital/patient/pname | hospital/patient/visit/date",
      "//treatment/(test | medication)",
      "//patient[visit]",
      "//patient[parent]",
      "//patient[not(parent)]",
      "//patient[visit and parent]",
      "//patient[visit or parent]",
      "//patient[visit/treatment/medication = 'autism']",
      "//patient[visit/treatment/medication = 'autism']/pname",
      "//patient[not(visit/treatment/medication = 'autism')]/pname",
      "//pname[text() = 'Alice']",
      "//patient[pname != 'Bob']",
      "//patient[(parent/patient)*/visit/treatment/test]",
      "//patient[visit/treatment[medication = 'headache']]",
      "hospital/patient[(parent/patient)*/visit/treatment/test and "
      "visit/treatment[medication/text()='headache']]/pname",
      "hospital/patient[(parent/patient)*/visit/treatment/test and "
      "visit/treatment[medication/text()='autism']]/pname",
      "//visit[not(treatment/test) and not(treatment/medication)]",
      "//patient[parent/patient/pname = 'Bob']/pname",
      "//patient[visit[treatment/medication = 'autism'] and "
      "visit[treatment/medication = 'headache']]",
      "(hospital | hospital/patient)/pname",
      "//parent/patient/visit/treatment/test",
      "hospital/patient[not(parent/patient[visit])]",
      "//treatment[not(medication)]/test",
      "//date[. = 'd1']",
      "//*[medication = 'headache']",
      "hospital/patient/visit/treatment/medication",
      "//patient[visit/date = 'd2']/pname",
  };
}

}  // namespace smoqe::testutil

#endif  // SMOQE_TESTS_TEST_UTIL_H_
