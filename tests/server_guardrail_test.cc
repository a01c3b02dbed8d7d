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
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/guardrail.h"
#include "src/core/session.h"
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

  // One burst: a slow, wide StAX batch followed by 8 quick queries. The
  // batch occupies the in-flight slot (long enough for the loop to read
  // the whole burst even on one CPU), one follower waits, the rest
  // overflow.
  std::string burst;
  std::vector<uint64_t> ids;
  QueryBatchRequest slow;
  slow.id = client->NextId();
  slow.doc = "big";
  for (int i = 0; i < 64; ++i) {
    slow.items.push_back({kHotQuery, WireEvalMode::kStax, 0});
  }
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
    if (frame->opcode == static_cast<uint8_t>(Opcode::kQueryBatchResult)) {
      auto batch = DecodeQueryBatchResponse(frame->body);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(batch->id, slow.id);
      ASSERT_EQ(batch->code, WireCode::kOk) << batch->error;
      ++ok;
      continue;
    }
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

  // Connection A sends one wide StAX batch over `big` to hold the
  // engine's only admission slot; once the pull-time gauge shows the
  // batch inside the engine, connection B's request must be bounced.
  // Gating on the gauge (not on timing) keeps the test independent of
  // how fast the scans run and of host load.
  ClientOptions co;
  co.port = server.port();
  co.recv_timeout_ms = 60'000;
  auto slow_client = Client::Connect(co);
  ASSERT_TRUE(slow_client.ok());
  QueryBatchRequest slow;
  slow.id = slow_client->NextId();
  slow.doc = "big";
  for (int i = 0; i < 64; ++i) {
    slow.items.push_back({kHotQuery, WireEvalMode::kStax, 0});
  }
  ASSERT_TRUE(slow_client->SendBytes(Encode(slow)).ok());
  auto inflight = [&] {
    gated.DumpMetrics();
    return gated.telemetry()->registry().GetGauge("admission.inflight")
        .Value();
  };
  for (int i = 0; i < 10'000 && inflight() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(inflight(), 1) << "the batch never held the admission slot";

  auto probe_client = Client::Connect(co);
  ASSERT_TRUE(probe_client.ok());
  QueryRequest p;
  p.doc = "ward";
  p.query = "//pname";
  auto r = probe_client->Query(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->code, WireCode::kRejectedBusy)
      << "engine admission never tripped over the wire: " << r->error;
  EXPECT_NE(r->error.find("max_pending_requests"), std::string::npos)
      << r->error;

  // Drain A so the server shuts down cleanly with nothing in flight.
  auto frame = slow_client->ReceiveFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
}

// A client that vanishes mid-request: the server cancels the session's
// token, counts the disconnect, stays alive, and writes no audit record.
TEST_F(ServerGuardrailTest, DisconnectMidRequestCancelsAndServerSurvives) {
  const uint64_t audit_before = AuditTotal();
  const uint64_t disconnects_before =
      ServerCounter("server.disconnects_mid_request");
  const uint64_t requests_before = ServerCounter("server.requests");

  {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port()));
    ASSERT_TRUE(RawHandshake(conn, ""));
    // A wide StAX batch over `big` runs far longer than the loop takes
    // to notice the disconnect, however fast one item is.
    QueryBatchRequest q;
    q.id = 42;
    q.doc = "big";
    for (int i = 0; i < 64; ++i) {
      q.items.push_back({kHotQuery, WireEvalMode::kStax, 0});
    }
    ASSERT_TRUE(conn.Send(Encode(q)));
    // Vanish once the loop has taken the frame (and dispatched it: the
    // loop counts a request, then dispatches it before its next event).
    for (int i = 0; i < 10'000 &&
                    ServerCounter("server.requests") == requests_before;
         ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_GT(ServerCounter("server.requests"), requests_before);
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

// The names in /proc/self/fd: which fd numbers this process holds.
std::set<std::string> OpenFds() {
  std::set<std::string> out;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return out;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') out.insert(e->d_name);
  }
  ::closedir(dir);
  return out;
}

// An engine whose pool has one worker, serving the hand-written ward and
// the 100k-target `big` document.
std::unique_ptr<core::Smoqe> OneWorkerEngine(core::EngineOptions eo = {}) {
  eo.max_threads = 2;
  auto engine = std::make_unique<core::Smoqe>(eo);
  SetupHospitalEngine(*engine, /*gen_nodes=*/0);
  EXPECT_TRUE(engine->GenerateDocument("big", "hospital", 7, 100'000).ok());
  return engine;
}

// Polls `counter` until it exceeds `before` (the loop has taken a frame
// or closed a connection).
void WaitAbove(const telemetry::Counter& counter, uint64_t before) {
  for (int i = 0; i < 10'000 && counter.Value() <= before; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GT(counter.Value(), before);
}

// Request tasks write their own responses, so a task whose connection
// closed must not write to that fd number once the loop has handed it to
// a new connection. Connection A's StAX request waits behind a slow batch
// on the one worker; A disconnects, and B is accepted on the same fd
// numbers. A's request then runs (cancelled) and its response must go
// nowhere: B reads exactly its own answers, equal to the library's for
// its role, and nothing else.
TEST(ServerWritePathTest, ClosedConnectionsResponseNeverReachesAReusedFd) {
  auto engine = OneWorkerEngine();
  TestServer server(engine.get());
  ASSERT_TRUE(server.ok()) << server.start_status().ToString();
  auto& registry = engine->telemetry()->registry();
  const auto& requests = registry.GetCounter("server.requests");
  const auto& closed = registry.GetCounter("server.connections_closed");

  ClientOptions co;
  co.port = server.port();
  co.recv_timeout_ms = 60'000;
  auto blocker = Client::Connect(co);
  ASSERT_TRUE(blocker.ok()) << blocker.status().ToString();
  QueryBatchRequest slow;
  slow.id = blocker->NextId();
  slow.doc = "big";
  for (int i = 0; i < 8; ++i) {
    slow.items.push_back({kHotQuery, WireEvalMode::kStax, 0});
  }
  uint64_t before = requests.Value();
  ASSERT_TRUE(blocker->SendBytes(Encode(slow)).ok());
  WaitAbove(requests, before);

  RawConn a;
  ASSERT_TRUE(a.Dial(server.port()));
  ASSERT_TRUE(RawHandshake(a, ""));
  const std::set<std::string> fds_with_a = OpenFds();
  QueryRequest q;
  q.id = 42;
  q.doc = "big";
  q.query = kHotQuery;
  q.mode = WireEvalMode::kStax;
  before = requests.Value();
  ASSERT_TRUE(a.Send(Encode(q)));
  WaitAbove(requests, before);
  before = closed.Value();
  a.Close();
  WaitAbove(closed, before);

  RawConn b;
  ASSERT_TRUE(b.Dial(server.port()));
  ASSERT_TRUE(RawHandshake(b, "autism-group"));
  // Lowest-free-fd allocation gives B's two sockets A's two numbers.
  ASSERT_EQ(OpenFds(), fds_with_a);

  const std::vector<std::string> queries = {"//patient/pname", "//medication",
                                            "hospital/patient//treatment"};
  std::string burst;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryRequest r;
    r.id = i + 1;
    r.doc = "ward";
    r.query = queries[i];
    burst += Encode(r);
  }
  ASSERT_TRUE(b.Send(burst));
  auto session = core::Session::Open(engine.get(), "autism-group");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    RawFrame frame;
    ASSERT_EQ(b.Recv(&frame, 60'000), RawConn::RecvResult::kFrame);
    ASSERT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kQueryResult));
    auto resp = DecodeQueryResponse(frame.body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->id, i + 1);
    ASSERT_EQ(resp->code, WireCode::kOk) << resp->error;
    auto lib = session->Query("ward", queries[i]);
    ASSERT_TRUE(lib.ok()) << lib.status().ToString();
    EXPECT_EQ(resp->answers_xml, lib->answers_xml) << queries[i];
  }
  RawFrame stray;
  EXPECT_EQ(b.Recv(&stray, 200), RawConn::RecvResult::kTimeout);
  ASSERT_TRUE(blocker->ReceiveFrame().ok());
}

// A client pipelines three requests whose answers outgrow the loopback
// socket buffers, then reads nothing for 200 ms. The one worker's sends
// hit EAGAIN and leave the rest to the loop's EPOLLOUT handling; the
// worker never blocks on the socket, so another connection is answered
// during the stall. Then all three responses arrive in request order,
// byte-equal to the library.
TEST(ServerWritePathTest, PartialWritesHandOffToTheLoopInRequestOrder) {
  auto engine = OneWorkerEngine();
  TestServer server(engine.get());
  ASSERT_TRUE(server.ok()) << server.start_status().ToString();
  auto lib = engine->Query("big", "//*");
  ASSERT_TRUE(lib.ok()) << lib.status().ToString();
  size_t answer_bytes = 0;
  for (const std::string& a : lib->answers_xml) answer_bytes += a.size();

  RawConn stalled;
  ASSERT_TRUE(stalled.Dial(server.port()));
  ASSERT_TRUE(RawHandshake(stalled, ""));
  // Far more than both ends' loopback socket buffers can hold.
  ASSERT_GT(3 * answer_bytes, size_t{16} << 20);
  std::string burst;
  for (uint64_t id = 1; id <= 3; ++id) {
    QueryRequest r;
    r.id = id;
    r.doc = "big";
    r.query = "//*";
    burst += Encode(r);
  }
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(stalled.Send(burst));

  ClientOptions co;
  co.port = server.port();
  co.recv_timeout_ms = 10'000;
  auto other = Client::Connect(co);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  QueryRequest probe;
  probe.doc = "ward";
  probe.query = "//pname";
  auto pr = other->Query(probe);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  EXPECT_EQ(pr->code, WireCode::kOk) << pr->error;

  std::this_thread::sleep_until(t0 + std::chrono::milliseconds(200));
  for (uint64_t id = 1; id <= 3; ++id) {
    RawFrame frame;
    ASSERT_EQ(stalled.Recv(&frame, 60'000), RawConn::RecvResult::kFrame);
    auto resp = DecodeQueryResponse(frame.body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->id, id);
    ASSERT_EQ(resp->code, WireCode::kOk) << resp->error;
    EXPECT_TRUE(resp->answers_xml == lib->answers_xml) << "response " << id;
  }
}

// The engine call runs outside the connection's lock: while a slow
// batch executes, the loop still admits the connection's next frames, so
// a pipeline overflow is answered (REJECTED_BUSY, PROTOCOL.md) while the
// batch is still inside the engine. A task that held the lock across the
// call would stall the loop until the batch ended.
TEST(ServerWritePathTest, TheLoopAdmitsFramesWhileARequestRuns) {
  core::EngineOptions eo;
  eo.max_pending_requests = 64;  // makes admission.inflight count
  auto engine = OneWorkerEngine(eo);
  ServerOptions opts = TestServer::DefaultOptions();
  opts.max_pipeline = 1;
  TestServer server(engine.get(), opts);
  ASSERT_TRUE(server.ok()) << server.start_status().ToString();

  RawConn conn;
  ASSERT_TRUE(conn.Dial(server.port()));
  ASSERT_TRUE(RawHandshake(conn, ""));
  QueryBatchRequest slow;
  slow.id = 1;
  slow.doc = "big";
  for (int i = 0; i < 32; ++i) {
    slow.items.push_back({kHotQuery, WireEvalMode::kStax, 0});
  }
  ASSERT_TRUE(conn.Send(Encode(slow)));
  auto inflight = [&] {
    engine->DumpMetrics();
    return engine->telemetry()->registry().GetGauge("admission.inflight")
        .Value();
  };
  for (int i = 0; i < 10'000 && inflight() != 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(inflight(), 1);  // the batch is inside the engine

  std::string burst;
  for (uint64_t id = 2; id <= 3; ++id) {
    QueryRequest q;
    q.id = id;
    q.doc = "ward";
    q.query = "//pname";
    burst += Encode(q);
  }
  ASSERT_TRUE(conn.Send(burst));
  const std::vector<uint64_t> want_ids = {3, 1, 2};
  for (uint64_t want : want_ids) {
    RawFrame frame;
    ASSERT_EQ(conn.Recv(&frame, 60'000), RawConn::RecvResult::kFrame);
    const uint64_t id = PeekRequestId(frame.body);
    EXPECT_EQ(id, want);
    if (id == 3) {
      EXPECT_EQ(inflight(), 1) << "rejected only after the batch ended";
      auto resp = DecodeQueryResponse(frame.body);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->code, WireCode::kRejectedBusy) << resp->error;
    }
  }
}

// An unknown opcode is answered on the loop thread as soon as its frame
// is read, so its ERROR may arrive before the response of an earlier
// request that is still executing (docs/PROTOCOL.md "Request ids and
// pipelining" lists it among the exceptions to FIFO). Either way both
// responses arrive, each under its own request id, and the connection
// keeps answering.
TEST_F(ServerGuardrailTest, UnknownOpcodeAnswersUnderItsOwnIdBesideASlowQuery) {
  RawConn conn;
  ASSERT_TRUE(conn.Dial(server_->port()));
  ASSERT_TRUE(RawHandshake(conn, ""));
  QueryRequest slow;
  slow.id = 21;
  slow.doc = "big";
  slow.query = kHotQuery;
  slow.mode = WireEvalMode::kStax;
  Writer odd;
  odd.PutU64(22);
  odd.PutStr("garbage-body");
  ASSERT_TRUE(conn.Send(Encode(slow) +
                        Frame(static_cast<Opcode>(0x55), odd.bytes())));

  bool answered = false;
  bool errored = false;
  for (int i = 0; i < 2; ++i) {
    RawFrame frame;
    ASSERT_EQ(conn.Recv(&frame, 60'000), RawConn::RecvResult::kFrame);
    if (frame.opcode == static_cast<uint8_t>(Opcode::kError)) {
      auto err = DecodeErrorResponse(frame.body);
      ASSERT_TRUE(err.ok());
      EXPECT_EQ(err->id, 22u);
      EXPECT_EQ(err->code, WireCode::kProtocolError);
      errored = true;
    } else {
      ASSERT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kQueryResult));
      auto resp = DecodeQueryResponse(frame.body);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->id, 21u);
      EXPECT_EQ(resp->code, WireCode::kOk) << resp->error;
      core::QueryOptions lib_opts;
      lib_opts.mode = core::EvalMode::kStax;
      auto lib = engine_->Query("big", kHotQuery, lib_opts);
      ASSERT_TRUE(lib.ok());
      EXPECT_EQ(resp->answers_xml, lib->answers_xml);
      answered = true;
    }
  }
  EXPECT_TRUE(answered);
  EXPECT_TRUE(errored);

  QueryRequest next;
  next.id = 23;
  next.doc = "ward";
  next.query = "//pname";
  ASSERT_TRUE(conn.Send(Encode(next)));
  RawFrame frame;
  ASSERT_EQ(conn.Recv(&frame, 60'000), RawConn::RecvResult::kFrame)
      << "the connection must survive the unknown opcode";
  auto resp = DecodeQueryResponse(frame.body);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->id, 23u);
  EXPECT_EQ(resp->code, WireCode::kOk) << resp->error;
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
