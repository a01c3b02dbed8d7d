// Guardrails over the wire (ISSUE PR8 S3): the PR 7 execution
// guardrails — deadlines, memory budgets, admission control, fault
// injection — must surface through smoqed as documented status codes
// (docs/PROTOCOL.md status table), leave no audit record (guard trips
// are not authorization decisions), and never take the server down.
// Also covers the server's own admission layer (per-connection pipeline
// caps) and the disconnect-mid-request path.

#include <dirent.h>
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/guardrail.h"
#include "src/core/smoqe.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/test_server.h"
#include "src/telemetry/telemetry.h"
#include "tests/server_test_util.h"
#include "tests/test_util.h"

namespace smoqe::server {
namespace {

using testutil2::RawConn;
using testutil2::RawHandshake;
using testutil2::ServerEngineOptions;
using testutil2::SetupHospitalEngine;

// The guardrail_test hot query: one StAX pass over the generated 100k
// node document takes long enough for a 1ms deadline to trip mid-scan.
constexpr char kHotQuery[] =
    "//patient[visit/treatment/medication = 'autism']/pname";

class ServerGuardrailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultInjector::Instance().Reset();
    engine_ = std::make_unique<core::Smoqe>(ServerEngineOptions());
    SetupHospitalEngine(*engine_, /*gen_nodes=*/0);
    ASSERT_TRUE(
        engine_->GenerateDocument("big", "hospital", /*seed=*/7, 100'000)
            .ok());
    server_ = std::make_unique<TestServer>(engine_.get());
    ASSERT_TRUE(server_->ok()) << server_->start_status().ToString();
  }
  void TearDown() override { fault::FaultInjector::Instance().Reset(); }

  Client MustConnect(const std::string& role = "") {
    ClientOptions o;
    o.port = server_->port();
    o.role = role;
    o.recv_timeout_ms = 60'000;
    auto client = Client::Connect(o);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.MoveValue();
  }

  uint64_t ServerCounter(const char* name) {
    return engine_->telemetry()->registry().GetCounter(name).Value();
  }
  uint64_t AuditTotal() { return engine_->telemetry()->audit().total(); }

  std::unique_ptr<core::Smoqe> engine_;
  std::unique_ptr<TestServer> server_;
};

// Deadline expiry inside the engine comes back as kDeadlineExceeded
// (retryable per PROTOCOL.md), leaves no audit record, and the same
// connection answers the next ungoverned request.
TEST_F(ServerGuardrailTest, DeadlineExpiryIsRetryableAndLeavesNoAudit) {
  const uint64_t audit_before = AuditTotal();
  Client client = MustConnect();

  QueryRequest q;
  q.doc = "big";
  q.query = kHotQuery;
  q.mode = WireEvalMode::kStax;
  q.deadline_ms = 1;
  auto r = client.Query(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->code, WireCode::kDeadlineExceeded) << r->error;
  EXPECT_TRUE(IsRetryable(r->code));
  EXPECT_FALSE(r->error.empty());
  EXPECT_EQ(AuditTotal(), audit_before)
      << "guard trips are not authorization decisions";

  // Same connection, no deadline: full answer.
  q.deadline_ms = 0;
  q.id = 0;  // Client stamps a fresh id
  auto again = client.Query(q);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->code, WireCode::kOk) << again->error;
  // Recovery differential: the answer matches the library's, as if the
  // tripped request never happened.
  core::QueryOptions lib_opts;
  lib_opts.mode = core::EvalMode::kStax;
  auto lib = engine_->Query("big", kHotQuery, lib_opts);
  ASSERT_TRUE(lib.ok());
  EXPECT_EQ(again->answers_xml, lib->answers_xml);
}

// A tiny per-request memory budget trips kResourceExhausted without
// harming the connection or the document.
TEST_F(ServerGuardrailTest, MemoryBudgetTripsResourceExhausted) {
  Client client = MustConnect();
  QueryRequest q;
  q.doc = "big";
  q.query = kHotQuery;
  q.max_memory_bytes = 4096;
  auto r = client.Query(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->code, WireCode::kResourceExhausted) << r->error;
  EXPECT_FALSE(IsRetryable(r->code))
      << "the same request would exceed the same budget again";

  q.max_memory_bytes = 0;
  q.id = 0;
  auto again = client.Query(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->code, WireCode::kOk) << again->error;
}

// Governed updates abort pre-publish: the epoch and document visible
// over the wire are untouched after a budget-killed update.
TEST_F(ServerGuardrailTest, BudgetKilledUpdatePublishesNothing) {
  Client client = MustConnect();
  auto epoch_before = engine_->DocumentEpoch("ward");
  ASSERT_TRUE(epoch_before.ok());

  UpdateRequest u;
  u.doc = "ward";
  u.statement = "insert into hospital/patient[pname = 'Carol'] <visit><date>" +
                std::string(1 << 18, 'x') + "</date></visit>";
  u.max_memory_bytes = 1024;
  auto r = client.Update(u);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->code, WireCode::kResourceExhausted) << r->error;

  auto epoch_after = engine_->DocumentEpoch("ward");
  ASSERT_TRUE(epoch_after.ok());
  EXPECT_EQ(*epoch_after, *epoch_before) << "no snapshot may be published";
}

// The server's own admission layer: a connection that pipelines more
// requests than max_pipeline gets deterministic kRejectedBusy replies
// for the overflow — correct ids, documented message — while every
// admitted request still answers.
TEST_F(ServerGuardrailTest, PipelineOverflowRejectsDeterministically) {
  ServerOptions opts = TestServer::DefaultOptions();
  opts.max_pipeline = 1;  // 1 in flight + 1 pending, rest rejected
  core::Smoqe engine(ServerEngineOptions());
  SetupHospitalEngine(engine, /*gen_nodes=*/0);
  ASSERT_TRUE(
      engine.GenerateDocument("big", "hospital", /*seed=*/7, 100'000).ok());
  TestServer server(&engine, opts);
  ASSERT_TRUE(server.ok());

  ClientOptions co;
  co.port = server.port();
  co.recv_timeout_ms = 60'000;
  auto client = Client::Connect(co);
  ASSERT_TRUE(client.ok());

  // One burst: a slow StAX scan followed by 8 quick queries. The scan
  // occupies the in-flight slot, one follower waits, the rest overflow.
  std::string burst;
  std::vector<uint64_t> ids;
  QueryRequest slow;
  slow.id = client->NextId();
  slow.doc = "big";
  slow.query = kHotQuery;
  slow.mode = WireEvalMode::kStax;
  burst += Encode(slow);
  ids.push_back(slow.id);
  for (int i = 0; i < 8; ++i) {
    QueryRequest fast;
    fast.id = client->NextId();
    fast.doc = "ward";
    fast.query = "//pname";
    burst += Encode(fast);
    ids.push_back(fast.id);
  }
  ASSERT_TRUE(client->SendBytes(burst).ok());

  int ok = 0, busy = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto frame = client->ReceiveFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kQueryResult));
    auto resp = DecodeQueryResponse(frame->body);
    ASSERT_TRUE(resp.ok());
    if (resp->code == WireCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp->code, WireCode::kRejectedBusy) << resp->error;
      EXPECT_NE(resp->error.find("pipeline"), std::string::npos);
      EXPECT_TRUE(IsRetryable(resp->code));
      ++busy;
    }
  }
  // Rejections happen inline on the loop thread, so they can outrun the
  // slow query; ids — not arrival order — are the contract. Admitted:
  // the slow scan + max_pipeline pending.
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(busy, 7);
  EXPECT_GE(engine.telemetry()
                ->registry()
                .GetCounter("server.rejected_pipeline")
                .Value(),
            7u);

  // The connection is healthy after the storm.
  QueryRequest probe;
  probe.doc = "ward";
  probe.query = "//pname";
  auto pr = client->Query(probe);
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr->code, WireCode::kOk);
}

// Engine admission control (max_pending_requests) surfaces through the
// server as the same kRejectedBusy the library throws, message intact.
TEST_F(ServerGuardrailTest, EngineAdmissionRejectionCrossesTheWire) {
  core::EngineOptions eo = ServerEngineOptions();
  eo.max_pending_requests = 1;
  core::Smoqe gated(eo);
  SetupHospitalEngine(gated, /*gen_nodes=*/0);
  ASSERT_TRUE(
      gated.GenerateDocument("big", "hospital", /*seed=*/7, 100'000).ok());
  TestServer server(&gated, TestServer::DefaultOptions());
  ASSERT_TRUE(server.ok());

  // Connection A pipelines slow StAX scans to hold the engine's only
  // admission slot; connection B polls until it gets bounced.
  ClientOptions co;
  co.port = server.port();
  co.recv_timeout_ms = 60'000;
  auto slow_client = Client::Connect(co);
  ASSERT_TRUE(slow_client.ok());
  std::string burst;
  int slow_n = 0;
  for (; slow_n < 6; ++slow_n) {
    QueryRequest s;
    s.id = slow_client->NextId();
    s.doc = "big";
    s.query = kHotQuery;
    s.mode = WireEvalMode::kStax;
    burst += Encode(s);
  }
  ASSERT_TRUE(slow_client->SendBytes(burst).ok());

  auto probe_client = Client::Connect(co);
  ASSERT_TRUE(probe_client.ok());
  bool saw_busy = false;
  std::string busy_message;
  for (int i = 0; i < 2000 && !saw_busy; ++i) {
    QueryRequest p;
    p.doc = "ward";
    p.query = "//pname";
    auto r = probe_client->Query(p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->code == WireCode::kRejectedBusy) {
      saw_busy = true;
      busy_message = r->error;
    } else {
      ASSERT_EQ(r->code, WireCode::kOk) << r->error;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(saw_busy) << "engine admission never tripped over the wire";
  EXPECT_NE(busy_message.find("max_pending_requests"), std::string::npos);

  // Drain A so the server shuts down cleanly with nothing in flight.
  for (int i = 0; i < slow_n; ++i) {
    auto frame = slow_client->ReceiveFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  }
}

// A client that vanishes mid-request: the server cancels the session's
// token, counts the disconnect, stays alive, and writes no audit record.
TEST_F(ServerGuardrailTest, DisconnectMidRequestCancelsAndServerSurvives) {
  const uint64_t audit_before = AuditTotal();
  const uint64_t disconnects_before =
      ServerCounter("server.disconnects_mid_request");

  {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port()));
    ASSERT_TRUE(RawHandshake(conn, ""));
    QueryRequest q;
    q.id = 42;
    q.doc = "big";
    q.query = kHotQuery;
    q.mode = WireEvalMode::kStax;
    ASSERT_TRUE(conn.Send(Encode(q)));
    // Give the loop thread a moment to dispatch, then vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    conn.Close();
  }

  // The loop notices the disconnect on its next poll cycle.
  bool counted = false;
  for (int i = 0; i < 2000 && !counted; ++i) {
    counted =
        ServerCounter("server.disconnects_mid_request") > disconnects_before;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(counted) << "mid-request disconnect was never counted";

  // Server alive, audit untouched.
  Client client = MustConnect();
  QueryRequest probe;
  probe.doc = "ward";
  probe.query = "//pname";
  auto r = client.Query(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, WireCode::kOk) << r->error;
  EXPECT_EQ(AuditTotal(), audit_before);
}

// Entries of a /proc/self directory: open fds ("fd", the scan's own
// directory fd included, so two calls compare like with like) or
// threads ("task").
size_t ProcEntries(const char* path) {
  size_t n = 0;
  DIR* dir = ::opendir(path);
  if (dir == nullptr) return 0;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

// Stop() under load: more connections than the engine pool has workers
// each pipeline slow StAX scans, so at Stop some requests are executing,
// some wait as pool tasks and the rest wait in their connection's queue.
// The request tasks hold the server, so Stop must cancel them and wait
// every one out; it must return, close every socket it opened, and leave
// the engine (whose pool the tasks ran on) serving. The server itself
// owns exactly one thread, its event loop.
TEST_F(ServerGuardrailTest, StopUnderLoadWaitsOutPoolTasksAndLeaksNoFd) {
  constexpr int kConns = 6;  // pool of max_threads = 4 has 3 workers
  constexpr int kScansPerConn = 4;
  const size_t fds_before = ProcEntries("/proc/self/fd");
  const size_t threads_before = ProcEntries("/proc/self/task");
  const uint64_t requests_before = ServerCounter("server.requests");
  auto server = std::make_unique<TestServer>(engine_.get());
  ASSERT_TRUE(server->ok()) << server->start_status().ToString();
  EXPECT_EQ(ProcEntries("/proc/self/task"), threads_before + 1);

  std::vector<Client> clients;
  for (int c = 0; c < kConns; ++c) {
    ClientOptions co;
    co.port = server->port();
    co.recv_timeout_ms = 60'000;
    auto client = Client::Connect(co);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    std::string burst;
    for (int i = 0; i < kScansPerConn; ++i) {
      QueryRequest q;
      q.id = client->NextId();
      q.doc = "big";
      q.query = kHotQuery;
      q.mode = WireEvalMode::kStax;
      burst += Encode(q);
    }
    ASSERT_TRUE(client->SendBytes(burst).ok());
    clients.push_back(client.MoveValue());
  }
  // Every frame has reached the loop (dispatched or parked) once the
  // request counter has seen them all.
  const uint64_t want = requests_before + kConns * kScansPerConn;
  for (int i = 0; i < 10'000 && ServerCounter("server.requests") < want;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(ServerCounter("server.requests"), want);

  server.reset();  // Stop(): joins the loop, waits out the pool tasks

  // Each client got some answers (Ok, or Cancelled by the stop) and then
  // the close; none hangs.
  for (Client& client : clients) {
    int frames = 0;
    while (client.ReceiveFrame().ok()) ++frames;
    EXPECT_LE(frames, kScansPerConn);
  }
  clients.clear();
  EXPECT_EQ(ProcEntries("/proc/self/fd"), fds_before);

  // The engine and its pool outlive the server and keep serving.
  auto lib = engine_->Query("ward", "//pname");
  ASSERT_TRUE(lib.ok()) << lib.status().ToString();
  Client client = MustConnect();
  QueryRequest probe;
  probe.doc = "ward";
  probe.query = "//pname";
  auto r = client.Query(probe);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, WireCode::kOk) << r->error;
}

// Requests from many connections wait for pool threads oldest-first.
// One worker is kept busy by a slow StAX batch; meanwhile five view
// connections each send one query, strictly one after another. The pool
// pops a worker's own deque newest-first, so without the server's FIFO
// the last request would run first. Each query's audit record (appended
// when its rewrite runs) must come out in send order.
TEST(ServerSchedulingTest, WaitingRequestsRunOldestFirstAcrossConnections) {
  core::EngineOptions eo;
  eo.max_threads = 2;  // one worker: execution order is start order
  core::Smoqe engine(eo);
  SetupHospitalEngine(engine, /*gen_nodes=*/0);
  ASSERT_TRUE(engine.GenerateDocument("big", "hospital", 7, 100'000).ok());
  TestServer server(&engine);
  ASSERT_TRUE(server.ok()) << server.start_status().ToString();
  auto& requests = engine.telemetry()->registry().GetCounter("server.requests");
  auto connect = [&](const std::string& role) {
    ClientOptions co;
    co.port = server.port();
    co.role = role;
    co.recv_timeout_ms = 60'000;
    auto client = Client::Connect(co);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.MoveValue();
  };
  // Send one frame and wait until the loop has taken it, so the next
  // frame (on any connection) reaches the server strictly later.
  auto send_in_order = [&](Client& client, const std::string& frame) {
    const uint64_t before = requests.Value();
    ASSERT_TRUE(client.SendBytes(frame).ok());
    for (int i = 0; i < 10'000 && requests.Value() == before; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_GT(requests.Value(), before);
  };

  Client blocker = connect("");
  QueryBatchRequest slow;
  slow.id = blocker.NextId();
  slow.doc = "big";
  for (int i = 0; i < 8; ++i) {
    slow.items.push_back({kHotQuery, WireEvalMode::kStax, 0});
  }
  send_in_order(blocker, Encode(slow));

  const std::vector<std::string> queries = {
      "//medication", "//treatment", "//treatment/medication",
      "hospital/patient", "hospital/patient//medication"};
  const uint64_t first_seq = engine.telemetry()->audit().total() + 1;
  std::vector<Client> clients;
  for (const std::string& text : queries) {
    clients.push_back(connect("autism-group"));
    QueryRequest q;
    q.id = clients.back().NextId();
    q.doc = "ward";
    q.query = text;
    send_in_order(clients.back(), Encode(q));
  }
  for (Client& client : clients) {
    auto frame = client.ReceiveFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto resp = DecodeQueryResponse(frame->body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, WireCode::kOk) << resp->error;
  }
  ASSERT_TRUE(blocker.ReceiveFrame().ok());

  telemetry::AuditFilter filter;
  filter.view = "autism-group";
  filter.min_seq = first_seq;
  std::vector<std::string> order;
  for (const auto& rec : engine.telemetry()->audit().Query(filter)) {
    order.push_back(rec.statement);
  }
  EXPECT_EQ(order, queries);
}

#ifdef SMOQE_FAULT_INJECTION

// A fault armed at the StAX tokenizer fires through a server request as
// kIOError with the injection message; the next request on the same
// connection answers clean (one-shot fault, engine recovers).
TEST_F(ServerGuardrailTest, InjectedFaultSurfacesAndConnectionSurvives) {
  Client client = MustConnect();
  fault::FaultInjector::Instance().Arm("stax.read", 1);

  QueryRequest q;
  q.doc = "ward";
  q.query = "//pname";
  q.mode = WireEvalMode::kStax;
  auto r = client.Query(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->code, WireCode::kIOError) << r->error;
  EXPECT_NE(r->error.find("injected tokenizer fault"), std::string::npos)
      << r->error;

  q.id = 0;
  auto again = client.Query(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->code, WireCode::kOk) << again->error;
  EXPECT_FALSE(again->answers_xml.empty());
}

#endif  // SMOQE_FAULT_INJECTION

}  // namespace
}  // namespace smoqe::server
