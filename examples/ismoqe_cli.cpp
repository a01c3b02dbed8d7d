// ismoqe_cli — a line-oriented stand-in for the paper's iSMOQE front-end:
// load documents, register DTDs, define views (from policies or
// hand-written specifications), inspect view schemas, build indexes, and
// run queries with the engine internals exposed (MFA dump, V/P/C/A node
// tree, statistics).
//
// Run:   ./build/ismoqe_cli          (starts with the hospital
//                                              demo pre-loaded; type 'help')
//
// Example session:
//   > schema autism-group
//   > query autism-group //patient/treatment
//   > explain autism-group hospital/patient/(parent/patient)*/treatment
//   > query - //pname            # '-' = direct (trusted) access
//   > index
//   > stats //medication

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "src/core/smoqe.h"
#include "src/workload/workloads.h"

namespace {

constexpr char kDoc[] = "ward";

void Help() {
  std::printf(R"(commands:
  help                                this text
  docs / views                        list catalog contents
  schema <view>                       DTD exposed to a user group
  spec <view>                         full view specification (DTD + sigma)
  policy <view> <dtd> <file-|inline>  define a view from a policy string
  query <view|-> <rxpath>             answer a query ('-' = direct access)
  explain <view|-> <rxpath>           query + MFA dump + V/P/C/A tree
  stats <rxpath>                      direct query, statistics only
  index                               build the TAX index for '%s'
  quit
)",
              kDoc);
}

void PrintAnswer(const smoqe::Result<smoqe::core::QueryAnswer>& r,
                 bool verbose) {
  if (!r.ok()) {
    std::printf("error: %s\n", r.status().ToString().c_str());
    return;
  }
  for (const std::string& a : r->answers_xml) std::printf("%s\n", a.c_str());
  std::printf("-- %zu answer(s); %s\n", r->answers_xml.size(),
              r->stats.ToString().c_str());
  if (verbose) {
    if (!r->mfa_dump.empty()) {
      std::printf("-- MFA --\n%s", r->mfa_dump.c_str());
    }
    if (!r->trace_tree.empty()) {
      std::printf("-- trace (V visited / P pruned / C candidate / A answer) --\n%s",
                  r->trace_tree.c_str());
    }
  }
}

}  // namespace

int main() {
  smoqe::core::Smoqe engine;
  bool indexed = false;

  // Pre-load the paper's demo content.
  (void)engine.RegisterDtd("hospital", smoqe::workload::kHospitalDtd,
                           "hospital");
  auto text = smoqe::workload::GenHospitalText(2006, 2000);
  if (!text.ok() || !engine.LoadDocument(kDoc, *text).ok()) {
    std::printf("failed to set up the demo document\n");
    return 1;
  }
  (void)engine.DefineView("autism-group", "hospital",
                          smoqe::workload::kHospitalPolicyAutism);
  (void)engine.DefineView("research-group", "hospital",
                          smoqe::workload::kHospitalPolicyResearch);
  std::printf(
      "SMOQE demo console — document '%s' (%zu bytes), views: autism-group, "
      "research-group. Type 'help'.\n",
      kDoc, text->size());

  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      Help();
    } else if (cmd == "docs") {
      for (const auto& d : engine.DocumentNames()) std::printf("%s\n", d.c_str());
    } else if (cmd == "views") {
      for (const auto& v : engine.ViewNames()) std::printf("%s\n", v.c_str());
    } else if (cmd == "schema" || cmd == "spec") {
      std::string view;
      in >> view;
      auto r = cmd == "schema" ? engine.ViewSchema(view)
                               : engine.ViewSpecification(view);
      std::printf("%s\n", r.ok() ? r->c_str() : r.status().ToString().c_str());
    } else if (cmd == "policy") {
      std::string view, dtd;
      in >> view >> dtd;
      std::string rest;
      std::getline(in, rest);
      smoqe::Status st = engine.DefineView(view, dtd, rest);
      std::printf("%s\n", st.ToString().c_str());
    } else if (cmd == "query" || cmd == "explain") {
      std::string view;
      in >> view;
      std::string q;
      std::getline(in, q);
      smoqe::core::QueryOptions opts;
      if (view != "-") opts.view = view;
      opts.explain = cmd == "explain";
      opts.use_tax = indexed && view == "-";
      PrintAnswer(engine.Query(kDoc, q, opts), opts.explain);
    } else if (cmd == "stats") {
      std::string q;
      std::getline(in, q);
      smoqe::core::QueryOptions opts;
      opts.use_tax = indexed;
      auto r = engine.Query(kDoc, q, opts);
      if (!r.ok()) {
        std::printf("error: %s\n", r.status().ToString().c_str());
      } else {
        std::printf("%s\n", r->stats.ToString().c_str());
      }
    } else if (cmd == "index") {
      smoqe::Status st = engine.BuildIndex(kDoc);
      indexed = st.ok();
      std::printf("%s\n", st.ToString().c_str());
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}
