// smoqed: the SMOQE network daemon (docs/PROTOCOL.md, DESIGN.md §10).
// Binds a TCP listener, serves the length-prefixed binary protocol
// against one in-process engine, and keeps serving until SIGINT/SIGTERM.
//
//   ./build/smoqed --demo                      # self-contained demo engine
//   ./build/smoqed --demo --port 7467          # fixed port
//   ./build/smoqed --demo --gen 20000          # + generated hospital doc
//   ./build/smoqed --demo --allow-direct       # permit viewless sessions
//
// --demo loads the hospital catalog the rest of the repo demos with:
// document `ward`, views `nurses` and `doctors` (the CI smoke job drives
// exactly this via smoqe-cli). Without --demo the daemon starts with an
// empty catalog — every handshake fails until views exist, which is only
// useful once a catalog-loading config exists; the flag is required for
// now so a misconfigured start fails loudly instead of serving nothing.
//
// Prints one line `smoqed listening on HOST:PORT` to stdout (flushed)
// once the listener is live, so scripts can scrape the ephemeral port.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/smoqe.h"
#include "src/server/server.h"
#include "src/workload/workloads.h"

namespace {

// Same demo ward + policies as tools/smoqe_stat.cc: three patients, a
// nurse view that hides names/dates and a doctor view that sees all.
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

constexpr char kNursePolicy[] =
    "patient/pname   : N;\n"
    "patient/visit   : N;\n"
    "visit/treatment : Y;\n"
    "treatment/test  : Y;\n";

constexpr char kDoctorPolicy[] =
    "hospital/patient : Y;\n"
    "patient/pname    : Y;\n"
    "patient/visit    : Y;\n"
    "patient/parent   : Y;\n";

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Fail(const char* what, const smoqe::Status& status) {
  std::fprintf(stderr, "smoqed: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

int LoadDemoCatalog(smoqe::core::Smoqe& engine, uint64_t gen_nodes) {
  auto s = engine.RegisterDtd("hospital", smoqe::workload::kHospitalDtd,
                              "hospital");
  if (!s.ok()) return Fail("RegisterDtd", s);
  s = engine.LoadDocument("ward", kWard);
  if (!s.ok()) return Fail("LoadDocument(ward)", s);
  s = engine.BuildIndex("ward");
  if (!s.ok()) return Fail("BuildIndex(ward)", s);
  if (gen_nodes > 0) {
    s = engine.GenerateDocument("ward_big", "hospital", /*seed=*/42,
                                gen_nodes);
    if (!s.ok()) return Fail("GenerateDocument(ward_big)", s);
  }
  s = engine.DefineView("nurses", "hospital", kNursePolicy);
  if (!s.ok()) return Fail("DefineView(nurses)", s);
  s = engine.DefineView("doctors", "hospital", kDoctorPolicy);
  if (!s.ok()) return Fail("DefineView(doctors)", s);
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --demo [--host H] [--port P]\n"
               "          [--gen NODES] [--allow-direct]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  smoqe::server::ServerOptions options;
  options.port = 7467;  // "SMOQ" on a phone pad, truncated to a port
  bool demo = false;
  uint64_t gen_nodes = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(arg, "--allow-direct") == 0) {
      options.allow_direct = true;
    } else if (std::strcmp(arg, "--host") == 0 && i + 1 < argc) {
      options.host = argv[++i];
    } else if (std::strcmp(arg, "--port") == 0 && i + 1 < argc) {
      options.port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(arg, "--gen") == 0 && i + 1 < argc) {
      gen_nodes = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }
  if (!demo) return Usage(argv[0]);

  // One pool serves wire requests and batch fan-out alike: up to
  // max_threads - 1 requests execute at once.
  smoqe::core::EngineOptions engine_options;
  engine_options.max_threads = 4;
  smoqe::core::Smoqe engine(engine_options);
  const int rc = LoadDemoCatalog(engine, gen_nodes);
  if (rc != 0) return rc;

  smoqe::server::Server server(&engine, options);
  smoqe::Status started = server.Start();
  if (!started.ok()) return Fail("Start", started);

  std::printf("smoqed listening on %s:%u\n", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) {
    sigsuspend(&mask);  // sleep until a signal lands
  }

  std::fprintf(stderr, "smoqed: shutting down\n");
  server.Stop();
  return 0;
}
