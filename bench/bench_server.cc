// Experiment E16 (DESIGN.md §10): the network front door's toll.
//
// smoqed adds a loopback TCP hop, framing, and a worker handoff on top
// of the library facade. This benchmark prices that toll on the
// cache-warm hot query — the path where the engine's own work is
// smallest and the serving layer's relative cost is largest. Configs,
// all merged into BENCH_eval.json as engine="server_loopback":
//
//   library_direct   — Smoqe::Query in-process: the floor the server
//                      is measured against;
//   server_roundtrip — one request, one response, one connection: the
//                      full wire path (encode → epoll → worker →
//                      session → encode → read) per call;
//   server_pipelined — windows of 16 pipelined requests on one
//                      connection: amortizes the syscall round-trip,
//                      the number a batching client actually sees;
//   server_concurrent — more connections than pool threads: 6 closed-
//                      loop clients send the hot query while 2 loop a
//                      4-item StAX QueryBatch over the same ward. The
//                      row's p50/p99 pool every hot request; per-
//                      connection quantiles go to stderr. This is the
//                      traffic where request scheduling shows.
//
// p50/p99_ns are per-request latency from the same samples the
// throughput comes from (MeasureLatencyPercentiles' histogram), so the
// recorded tail and a production `smoqe-cli stat` histogram read the
// same way. The shape to check: server_pipelined within a small factor
// of library_direct (the engine dominates), server_roundtrip above both
// by roughly the loopback syscall cost.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/smoqe.h"
#include "src/server/client.h"
#include "src/server/test_server.h"
#include "src/telemetry/metrics.h"

namespace smoqe {
namespace {

using bench::Corpus;
using Clock = std::chrono::steady_clock;

constexpr char kHotQuery[] =
    "hospital/patient[visit/treatment/test]/visit/date";
constexpr int kWindow = 16;  // pipelined requests per timed window
constexpr int kHotConns = 6;    // server_concurrent: hot-query clients
constexpr int kBatchConns = 2;  // server_concurrent: StAX batch clients
constexpr double kConcurrentSeconds = 1.0;

/// server_concurrent: one closed-loop client thread per connection for
/// kConcurrentSeconds. Returns the pooled hot-request quantiles and the
/// wall ns per hot request; prints each connection's p50/p99.
bench::LatencyPercentiles MeasureConcurrent(uint16_t port, size_t size,
                                            double* per_request_ns) {
  std::vector<std::unique_ptr<telemetry::Histogram>> per_conn;
  for (int c = 0; c < kHotConns + kBatchConns; ++c) {
    per_conn.push_back(std::make_unique<telemetry::Histogram>());
  }
  telemetry::Histogram hot;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kHotConns + kBatchConns; ++c) {
    threads.emplace_back([&, c] {
      server::ClientOptions co;
      co.port = port;
      co.recv_timeout_ms = 60'000;
      auto client = server::Client::Connect(co);
      Corpus::Check(client.ok(), "concurrent connect");
      const bool batch = c >= kHotConns;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = Clock::now();
        if (batch) {
          server::QueryBatchRequest b;
          b.doc = "ward";
          for (const char* q : {kHotQuery, "//medication", "//visit/date",
                                "hospital/patient/pname"}) {
            b.items.push_back({q, server::WireEvalMode::kStax, 0});
          }
          auto r = client->QueryBatch(std::move(b));
          Corpus::Check(r.ok() && r->code == server::WireCode::kOk,
                        "concurrent batch");
        } else {
          server::QueryRequest q;
          q.doc = "ward";
          q.query = kHotQuery;
          auto r = client->Query(q);
          Corpus::Check(r.ok() && r->code == server::WireCode::kOk,
                        "concurrent query");
        }
        const auto ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0)
                .count());
        per_conn[c]->Record(ns);
        if (!batch) hot.Record(ns);
      }
    });
  }
  const auto start = Clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kConcurrentSeconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double wall_ns =
      std::chrono::duration<double>(Clock::now() - start).count() * 1e9;
  *per_request_ns = wall_ns / static_cast<double>(hot.Count());
  for (int c = 0; c < kHotConns + kBatchConns; ++c) {
    std::fprintf(stderr,
                 "server_concurrent size=%zu conn=%d %s: n=%llu p50 %.1f us "
                 "p99 %.1f us\n",
                 size, c, c >= kHotConns ? "batch" : "hot",
                 static_cast<unsigned long long>(per_conn[c]->Count()),
                 per_conn[c]->Quantile(0.5) / 1e3,
                 per_conn[c]->Quantile(0.99) / 1e3);
  }
  return {hot.Quantile(0.5), hot.Quantile(0.99)};
}

std::unique_ptr<core::Smoqe> MakeEngine(size_t size) {
  core::EngineOptions o;
  o.max_threads = 4;
  auto engine = std::make_unique<core::Smoqe>(o);
  Corpus::Check(
      engine->LoadDocument("ward", Corpus::Get().HospitalText(size)).ok(),
      "load ward");
  return engine;
}

void WriteServerTrajectory(const char* path) {
  bench::JsonReport report;
  for (size_t size : bench::TrajectorySizes()) {
    auto engine = MakeEngine(size);
    const uint64_t nodes = Corpus::Get().Hospital(size).num_nodes();

    // Warm the plan cache and pin the answer count.
    auto warm = engine->Query("ward", kHotQuery);
    Corpus::Check(warm.ok(), "warm query");
    const uint64_t answers = warm->stats.answers;

    server::TestServer server(engine.get());
    Corpus::Check(server.ok(), "server start");
    server::ClientOptions co;
    co.port = server.port();
    co.recv_timeout_ms = 60'000;
    auto client = server::Client::Connect(co);
    Corpus::Check(client.ok(), "client connect");

    struct Config {
      const char* name;
      double per_request_ns;
      bench::LatencyPercentiles lat;
    } configs[4] = {{"library_direct", 0, {}},
                    {"server_roundtrip", 0, {}},
                    {"server_pipelined", 0, {}},
                    {"server_concurrent", 0, {}}};

    {  // library_direct: the in-process floor.
      const auto t0 = Clock::now();
      int calls = 0;
      configs[0].lat = bench::MeasureLatencyPercentiles(
          [&] {
            auto r = engine->Query("ward", kHotQuery);
            Corpus::Check(r.ok(), "library query");
            ++calls;
          },
          /*min_iters=*/50, /*min_seconds=*/0.5);
      configs[0].per_request_ns =
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e9 /
          calls;
    }

    {  // server_roundtrip: one request in flight.
      const auto t0 = Clock::now();
      int calls = 0;
      configs[1].lat = bench::MeasureLatencyPercentiles(
          [&] {
            server::QueryRequest q;
            q.doc = "ward";
            q.query = kHotQuery;
            auto r = client->Query(q);
            Corpus::Check(r.ok() && r->code == server::WireCode::kOk,
                          "server query");
            ++calls;
          },
          /*min_iters=*/50, /*min_seconds=*/0.5);
      configs[1].per_request_ns =
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e9 /
          calls;
    }

    {  // server_pipelined: timed per window, reported per request.
      const auto t0 = Clock::now();
      int windows = 0;
      telemetry::Histogram per_request;
      const auto start = Clock::now();
      double total = 0;
      int iters = 0;
      do {
        const auto w0 = Clock::now();
        std::string burst;
        std::vector<uint64_t> ids;
        for (int i = 0; i < kWindow; ++i) {
          server::QueryRequest q;
          q.id = client->NextId();
          q.doc = "ward";
          q.query = kHotQuery;
          burst += server::Encode(q);
          ids.push_back(q.id);
        }
        Corpus::Check(client->SendBytes(burst).ok(), "pipeline send");
        for (uint64_t id : ids) {
          auto frame = client->ReceiveFrame();
          Corpus::Check(frame.ok(), "pipeline recv");
          auto resp = server::DecodeQueryResponse(frame->body);
          Corpus::Check(resp.ok() && resp->id == id &&
                            resp->code == server::WireCode::kOk,
                        "pipeline response");
        }
        const double s =
            std::chrono::duration<double>(Clock::now() - w0).count();
        per_request.Record(static_cast<uint64_t>(s * 1e9 / kWindow));
        total += s;
        ++iters;
        ++windows;
      } while (iters < 10 || total < 0.5);
      configs[2].lat = {per_request.Quantile(0.5), per_request.Quantile(0.99)};
      configs[2].per_request_ns =
          std::chrono::duration<double>(Clock::now() - start).count() * 1e9 /
          (static_cast<double>(windows) * kWindow);
      (void)t0;
    }

    configs[3].lat =
        MeasureConcurrent(server.port(), size, &configs[3].per_request_ns);

    for (const Config& c : configs) {
      bench::TrajectoryRow row;
      row.engine = "server_loopback";
      row.workload = "hospital";
      row.query = "warm-slice";
      row.config = c.name;
      row.nodes = nodes;
      row.answers = answers;
      row.ns_per_node = c.per_request_ns / static_cast<double>(nodes);
      row.nodes_per_sec =
          static_cast<double>(nodes) * 1e9 / c.per_request_ns;
      row.p50_ns = c.lat.p50_ns;
      row.p99_ns = c.lat.p99_ns;
      report.Add(std::move(row));
    }
    std::fprintf(
        stderr,
        "server size=%zu: library %.1f us, roundtrip %.1f us, "
        "pipelined %.1f us/req, concurrent hot p50 %.1f us p99 %.1f us "
        "(server toll %.2fx, pipelined %.2fx)\n",
        size, configs[0].per_request_ns / 1e3,
        configs[1].per_request_ns / 1e3, configs[2].per_request_ns / 1e3,
        configs[3].lat.p50_ns / 1e3, configs[3].lat.p99_ns / 1e3,
        configs[1].per_request_ns / configs[0].per_request_ns,
        configs[2].per_request_ns / configs[0].per_request_ns);
  }

  if (!report.WriteFileMerged(path, {"server_loopback"})) {
    std::fprintf(stderr, "failed to write %s\n", path);
  } else {
    std::fprintf(stderr, "merged %zu server trajectory rows into %s\n",
                 report.size(), path);
  }
}

}  // namespace
}  // namespace smoqe

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (smoqe::bench::TrajectoryEnabled()) {
    smoqe::WriteServerTrajectory("BENCH_eval.json");
  }
  return 0;
}
