// Secure XML updates through security views (docs/DESIGN.md §6): the
// hospital ward from the paper's Fig. 3, two user groups, and the
// accept/reject update semantics —
//
//   * a nurse (research view: no names, no visit structure) tries to
//     delete a patient: REJECTED, the explain string names the violated
//     annotation;
//   * a doctor (full view except audit trail) corrects a treatment:
//     ACCEPTED — targets resolved through the view by rewriting (never
//     materializing it), applied atomically, DTD-revalidated, TAX index
//     repaired incrementally, new document epoch published;
//   * re-queries through both views and the TAX index show the
//     maintained state.
//
// Run:  ./build/secure_updates

#include <cstdio>

#include "src/core/smoqe.h"
#include "src/workload/workloads.h"

namespace {

constexpr char kWard[] =
    "<hospital>"
    "<patient>"
    "<pname>Alice</pname>"
    "<visit><treatment><medication>autism</medication></treatment>"
    "<date>2006-01-02</date></visit>"
    "<parent><patient>"
    "<pname>Bob</pname>"
    "<visit><treatment><test>blood</test></treatment>"
    "<date>2006-02-03</date></visit>"
    "</patient></parent>"
    "</patient>"
    "<patient>"
    "<pname>Carol</pname>"
    "<visit><treatment><medication>headache</medication></treatment>"
    "<date>2006-03-04</date></visit>"
    "</patient>"
    "</hospital>";

// Nurses chart treatments but never see identities or visit structure.
constexpr char kNursePolicy[] =
    "patient/pname   : N;\n"
    "patient/visit   : N;\n"
    "visit/treatment : Y;\n"
    "treatment/test  : Y;\n";

// Doctors see everything (every edge explicitly allowed).
constexpr char kDoctorPolicy[] =
    "hospital/patient : Y;\n"
    "patient/pname    : Y;\n"
    "patient/visit    : Y;\n"
    "patient/parent   : Y;\n";

void TryUpdate(smoqe::core::Smoqe* engine, const char* who, const char* view,
               const char* stmt) {
  smoqe::core::UpdateOptions opts;
  opts.view = view;
  std::printf("[%s] %s\n", who, stmt);
  auto r = engine->Update("ward", stmt, opts);
  if (!r.ok()) {
    std::printf("    %s\n", r.status().ToString().c_str());
    return;
  }
  std::printf(
      "    accepted: %llu target(s), +%llu/-%llu nodes, epoch -> %llu, "
      "TAX sets repaired: %llu\n",
      (unsigned long long)r->stats.targets,
      (unsigned long long)r->stats.nodes_inserted,
      (unsigned long long)r->stats.nodes_deleted,
      (unsigned long long)r->stats.doc_epoch,
      (unsigned long long)r->stats.tax_sets_recomputed);
}

void Show(smoqe::core::Smoqe* engine, const char* who, const char* query,
          const smoqe::core::QueryOptions& opts) {
  auto r = engine->Query("ward", query, opts);
  std::printf("[%s] %s\n", who, query);
  if (!r.ok()) {
    std::printf("    error: %s\n", r.status().ToString().c_str());
    return;
  }
  if (r->answers_xml.empty()) std::printf("    (no answers)\n");
  for (const std::string& a : r->answers_xml) {
    std::printf("    %s\n", a.c_str());
  }
}

}  // namespace

int main() {
  smoqe::core::Smoqe engine;
  if (!engine.RegisterDtd("hospital", smoqe::workload::kHospitalDtd,
                          "hospital")
           .ok() ||
      !engine.LoadDocument("ward", kWard).ok() ||
      !engine.BuildIndex("ward").ok() ||
      !engine.DefineView("nurses", "hospital", kNursePolicy).ok() ||
      !engine.DefineView("doctors", "hospital", kDoctorPolicy).ok()) {
    std::printf("setup failed\n");
    return 1;
  }

  std::printf("== the ward, as the nurse group sees it ==\n");
  auto nurse_view = engine.MaterializeView("ward", "nurses");
  std::printf("%s\n\n", nurse_view.ok() ? nurse_view->xml.c_str()
                                        : nurse_view.status().ToString().c_str());

  std::printf("== update attempts ==\n");
  // Deleting a patient would also remove hidden pname/visit data.
  TryUpdate(&engine, "nurse", "nurses",
            "delete hospital/patient");
  // Writing a visit would create content hidden from the writer.
  TryUpdate(&engine, "nurse", "nurses",
            "insert into hospital/patient "
            "<visit><treatment><test>x</test></treatment>"
            "<date>2006-05-06</date></visit>");
  // The treatment region is fully visible to nurses: accepted.
  TryUpdate(&engine, "nurse", "nurses",
            "replace //treatment[medication = 'headache'] with "
            "<treatment><medication>ibuprofen</medication></treatment>");
  // Doctors see everything; adding a follow-up visit for Carol is fine
  // (the applier slots it before the genealogy to satisfy the DTD).
  TryUpdate(&engine, "doctor", "doctors",
            "insert into hospital/patient[pname = 'Carol'] "
            "<visit><treatment><test>mri</test></treatment>"
            "<date>2006-07-08</date></visit>");

  std::printf("\n== re-queries over the maintained document ==\n");
  smoqe::core::QueryOptions nurse;
  nurse.view = "nurses";
  Show(&engine, "nurse", "//treatment", nurse);
  smoqe::core::QueryOptions indexed;
  indexed.use_tax = true;
  Show(&engine, "direct+TAX", "//patient[visit/treatment/test]/pname",
       indexed);

  std::printf("\n== the nurse view after the updates ==\n");
  auto after = engine.MaterializeView("ward", "nurses");
  std::printf("%s\n", after.ok() ? after->xml.c_str()
                                 : after.status().ToString().c_str());
  return 0;
}
