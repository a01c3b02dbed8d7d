// End-to-end wire trace propagation (protocol v2, docs/PROTOCOL.md):
// a client-minted trace id rides a request frame, the server adopts it
// for its own spans (queue_wait, write_flush) around the facade's
// pipeline spans, and the response echoes the id, the server-side
// nanoseconds, and — when asked — a structured PROFILE. One request ⇒
// ONE trace in the recorder, parent-ordered, bracketed by the server
// spans.
//
// The trace is finished by the event loop *after* the response bytes go
// out, so a client that just got its answer may race the recorder —
// every lookup polls (WaitForTrace) instead of asserting immediately.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/smoqe.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/test_server.h"
#include "src/telemetry/profile.h"
#include "src/telemetry/telemetry.h"
#include "tests/server_test_util.h"
#include "tests/test_util.h"

namespace smoqe::server {
namespace {

namespace tel = smoqe::telemetry;
using testutil2::RawConn;
using testutil2::ServerEngineOptions;
using testutil2::SetupHospitalEngine;

std::shared_ptr<const tel::Trace> WaitForTrace(core::Smoqe& engine,
                                               uint64_t id) {
  for (int i = 0; i < 5000; ++i) {
    auto t = engine.telemetry()->traces().Find(id);
    if (t != nullptr) return t;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return nullptr;
}

/// Span-tree invariants every finished server trace must satisfy:
/// parent indices only point backward (a parent exists before its
/// children), the tree starts with the server's queue_wait and ends
/// with its write_flush, and the facade stages sit in between.
void CheckServerSpanTree(const tel::Trace& trace) {
  const std::vector<tel::SpanRecord> spans = trace.spans();
  ASSERT_GE(spans.size(), 3u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].parent, -1) << "span " << i;
    EXPECT_LT(spans[i].parent, static_cast<int32_t>(i))
        << "span " << i << " (" << spans[i].name
        << ") points at a parent that does not precede it";
  }
  EXPECT_EQ(spans.front().name, "queue_wait");
  EXPECT_EQ(spans.back().name, "write_flush");
  bool saw_evaluate = false;
  for (const tel::SpanRecord& s : spans) {
    if (s.name == "evaluate") saw_evaluate = true;
  }
  EXPECT_TRUE(saw_evaluate) << "facade stages missing from the wire trace";
}

/// Extracts `"key": <uint>` from a profile JSON (renderer emits one
/// flat object; string-level matching is the test's whole parser).
uint64_t JsonUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Sums the "ns" of every ROOT stage ("parent": -1) in the profile's
/// stages array. Nested spans double-count their parents, so only the
/// root sum is bounded by total_ns.
uint64_t RootStageSum(const std::string& json) {
  uint64_t sum = 0;
  size_t pos = json.find("\"stages\": [");
  if (pos == std::string::npos) return 0;
  while ((pos = json.find("{\"name\": ", pos)) != std::string::npos) {
    const size_t end = json.find('}', pos);
    const std::string stage = json.substr(pos, end - pos);
    if (stage.find("\"parent\": -1") != std::string::npos) {
      sum += JsonUint(stage, "ns");
    }
    pos = end;
  }
  return sum;
}

class ServerTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::EngineOptions o = ServerEngineOptions();
    o.slow_query_threshold_ms = 0;  // every request lands in the slow log
    engine_ = std::make_unique<core::Smoqe>(o);
    SetupHospitalEngine(*engine_, /*gen_nodes=*/0);
    server_ = std::make_unique<TestServer>(engine_.get());
    ASSERT_TRUE(server_->ok()) << server_->start_status().ToString();
  }

  Client ConnectAs(const std::string& role) {
    ClientOptions o;
    o.port = server_->port();
    o.role = role;
    o.recv_timeout_ms = 10'000;
    auto client = Client::Connect(o);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.MoveValue();
  }

  std::unique_ptr<core::Smoqe> engine_;
  std::unique_ptr<TestServer> server_;
};

// The tentpole contract: one traced request produces ONE trace under
// the wire id, queue_wait first, facade stages inside, write_flush
// last, role + pipeline depth as attributes, and the echo's server_ns
// covers the facade's portion of the work.
TEST_F(ServerTraceTest, WireTraceIdYieldsSingleParentOrderedSpanTree) {
  Client client = ConnectAs("autism-group");
  QueryRequest req;
  req.doc = "ward";
  req.query = "//patient/pname";
  req.trace.trace_id = 0xDEADBEEFCAFEull;
  auto resp = client.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, WireCode::kOk) << resp->error;
  ASSERT_TRUE(resp->echo.present);
  EXPECT_EQ(resp->echo.trace_id, 0xDEADBEEFCAFEull);
  EXPECT_GT(resp->echo.server_ns, 0u);
  EXPECT_EQ(resp->echo.has_profile, 0);  // not asked for

  auto trace = WaitForTrace(*engine_, 0xDEADBEEFCAFEull);
  ASSERT_NE(trace, nullptr) << "trace never finished into the recorder";
  EXPECT_EQ(trace->name(), "server.query");
  CheckServerSpanTree(*trace);

  bool saw_role = false, saw_depth = false;
  for (const auto& [k, v] : trace->attrs()) {
    if (k == "role") {
      saw_role = true;
      EXPECT_EQ(v, "autism-group");
    }
    if (k == "pipeline_depth") {
      saw_depth = true;
      EXPECT_EQ(v, "0");  // sole request: dispatched immediately
    }
  }
  EXPECT_TRUE(saw_role);
  EXPECT_TRUE(saw_depth);

  // Exactly one trace carries the id (Begin didn't fork a second one).
  size_t matches = 0;
  for (const auto& t : engine_->telemetry()->traces().Recent(64)) {
    if (t->id() == 0xDEADBEEFCAFEull) ++matches;
  }
  EXPECT_EQ(matches, 1u);
}

// PROFILE: the echoed JSON is internally consistent — total_ns equals
// the echoed server_ns, the root stages (queue_wait + pipeline) fit
// inside it, and the catalog fields match what was asked.
TEST_F(ServerTraceTest, ProfileTotalsCoverRootStages) {
  Client client = ConnectAs("autism-group");
  QueryRequest req;
  req.doc = "ward";
  req.query = "//patient/pname";
  req.trace.trace_id = 77;
  req.trace.flags = kTraceFlagProfile;
  auto resp = client.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, WireCode::kOk) << resp->error;
  ASSERT_TRUE(resp->echo.present);
  ASSERT_EQ(resp->echo.has_profile, 1);
  const std::string& p = resp->echo.profile_json;

  EXPECT_EQ(JsonUint(p, "trace_id"), 77u);
  EXPECT_EQ(JsonUint(p, "total_ns"), resp->echo.server_ns);
  EXPECT_GT(JsonUint(p, "guard_ticks"), 0u);
  EXPECT_NE(p.find("\"op\": \"query\""), std::string::npos);
  EXPECT_NE(p.find("\"doc\": \"ward\""), std::string::npos);
  EXPECT_NE(p.find("\"view\": \"autism-group\""), std::string::npos);
  EXPECT_NE(p.find("\"canonical_query\": \""), std::string::npos);
  EXPECT_NE(p.find("\"plan_cache_hit\": "), std::string::npos);
  EXPECT_NE(p.find("\"queue_wait\""), std::string::npos);

  const uint64_t root_sum = RootStageSum(p);
  EXPECT_GT(root_sum, 0u);
  EXPECT_LE(root_sum, JsonUint(p, "total_ns"))
      << "root stages overflow the server-side total in " << p;

  // Second identical query: the profile must flip to a plan-cache hit.
  auto resp2 = client.Query(req);
  ASSERT_TRUE(resp2.ok());
  ASSERT_EQ(resp2->echo.has_profile, 1);
  EXPECT_NE(resp2->echo.profile_json.find("\"plan_cache_hit\": true"),
            std::string::npos);
}

// Batch PROFILE rides on the batch response once (the facade pins it to
// the first answer); per-item spans land in the same wire trace.
TEST_F(ServerTraceTest, BatchProfileRidesOnce) {
  Client client = ConnectAs("autism-group");
  QueryBatchRequest req;
  req.doc = "ward";
  req.items.push_back({"//patient/pname", WireEvalMode::kDom, 0});
  req.items.push_back({"//treatment", WireEvalMode::kStax, 0});
  req.trace.trace_id = 88;
  req.trace.flags = kTraceFlagProfile;
  auto resp = client.QueryBatch(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, WireCode::kOk) << resp->error;
  ASSERT_TRUE(resp->echo.present);
  EXPECT_EQ(resp->echo.trace_id, 88u);
  ASSERT_EQ(resp->echo.has_profile, 1);
  EXPECT_NE(resp->echo.profile_json.find("\"op\": \"query_batch\""),
            std::string::npos);
  EXPECT_EQ(JsonUint(resp->echo.profile_json, "total_ns"),
            resp->echo.server_ns);

  auto trace = WaitForTrace(*engine_, 88);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->name(), "server.query_batch");
  CheckServerSpanTree(*trace);
}

// Updates echo id + timing but never a profile, even when asked.
TEST_F(ServerTraceTest, UpdateEchoCarriesNoProfile) {
  Client client = ConnectAs("research-group");
  UpdateRequest req;
  req.doc = "ward";
  req.statement = "delete //treatment[medication = 'nosuch']";
  req.dry_run = 1;
  req.trace.trace_id = 99;
  req.trace.flags = kTraceFlagProfile;
  auto resp = client.Update(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->echo.present);
  EXPECT_EQ(resp->echo.trace_id, 99u);
  EXPECT_GT(resp->echo.server_ns, 0u);
  EXPECT_EQ(resp->echo.has_profile, 0);
  auto trace = WaitForTrace(*engine_, 99);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->name(), "server.update");
}

// Error responses carry the echo too — a failed request is exactly the
// one the caller wants to correlate.
TEST_F(ServerTraceTest, ErrorResponsesStillEchoTheTrace) {
  Client client = ConnectAs("autism-group");
  QueryRequest req;
  req.doc = "no-such-doc";
  req.query = "//pname";
  req.trace.trace_id = 123;
  auto resp = client.Query(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_NE(resp->code, WireCode::kOk);
  ASSERT_TRUE(resp->echo.present);
  EXPECT_EQ(resp->echo.trace_id, 123u);
  EXPECT_GT(resp->echo.server_ns, 0u);
  EXPECT_EQ(resp->echo.has_profile, 0);
}

// Pipelined requests on one connection: distinct ids in, responses in
// request order each echoing its own id, and the queued ones report a
// non-zero pipeline depth in their traces.
TEST_F(ServerTraceTest, PipelinedRequestsKeepTraceIdsDistinct) {
  RawConn conn;
  ASSERT_TRUE(conn.Dial(server_->port()));
  ASSERT_TRUE(testutil2::RawHandshake(conn, "autism-group"));

  constexpr uint64_t kBase = 5000;
  constexpr int kRequests = 8;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    QueryRequest req;
    req.id = static_cast<uint64_t>(i) + 1;
    req.doc = "ward";
    req.query = "//patient/pname";
    req.trace.trace_id = kBase + static_cast<uint64_t>(i);
    burst += Encode(req);
  }
  ASSERT_TRUE(conn.Send(burst));
  for (int i = 0; i < kRequests; ++i) {
    RawFrame f;
    ASSERT_EQ(conn.Recv(&f, 10'000), RawConn::RecvResult::kFrame) << i;
    auto resp = DecodeQueryResponse(f.body);
    ASSERT_TRUE(resp.ok()) << i;
    EXPECT_EQ(resp->id, static_cast<uint64_t>(i) + 1);
    ASSERT_TRUE(resp->echo.present) << i;
    EXPECT_EQ(resp->echo.trace_id, kBase + static_cast<uint64_t>(i)) << i;
  }
  bool saw_queued = false;
  for (int i = 0; i < kRequests; ++i) {
    auto trace = WaitForTrace(*engine_, kBase + static_cast<uint64_t>(i));
    ASSERT_NE(trace, nullptr) << i;
    CheckServerSpanTree(*trace);
    for (const auto& [k, v] : trace->attrs()) {
      if (k == "pipeline_depth" && v != "0") saw_queued = true;
    }
  }
  EXPECT_TRUE(saw_queued)
      << "a burst of 8 should have queued at least one request";
}

// Concurrent connections (the TSan target): distinct roles and ids from
// four threads, every echo correct, every trace finished. Exercises the
// worker-pool trace handoff and the per-role counters under contention.
TEST_F(ServerTraceTest, ConcurrentConnectionsTraceIndependently) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string role = t % 2 == 0 ? "autism-group" : "research-group";
      ClientOptions o;
      o.port = server_->port();
      o.role = role;
      o.recv_timeout_ms = 10'000;
      auto client = Client::Connect(o);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        QueryRequest req;
        req.doc = "ward";
        req.query = "//patient/pname";
        req.trace.trace_id =
            10'000ull + static_cast<uint64_t>(t) * 1000 + i;
        if (i % 4 == 0) req.trace.flags = kTraceFlagProfile;
        auto resp = client->Query(req);
        if (!resp.ok() || resp->code != WireCode::kOk ||
            !resp->echo.present ||
            resp->echo.trace_id != req.trace.trace_id) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Spot-check one id per thread made it into the recorder.
  for (int t = 0; t < kThreads; ++t) {
    auto trace =
        WaitForTrace(*engine_, 10'000ull + static_cast<uint64_t>(t) * 1000);
    EXPECT_NE(trace, nullptr) << "thread " << t;
  }
}

// v1 compatibility: a client that handshakes at version 1 gets v1-exact
// response bytes — no trailing echo block — even on a server that
// speaks v2, and the banner echoes the negotiated version back.
TEST_F(ServerTraceTest, V1ClientsGetExtensionlessResponses) {
  RawConn conn;
  ASSERT_TRUE(conn.Dial(server_->port()));
  HelloRequest hello;
  hello.id = 0;
  hello.version = 1;
  hello.role = "autism-group";
  ASSERT_TRUE(conn.Send(Encode(hello)));
  RawFrame f;
  ASSERT_EQ(conn.Recv(&f, 10'000), RawConn::RecvResult::kFrame);
  auto banner = DecodeHelloResponse(f.body);
  ASSERT_TRUE(banner.ok());
  ASSERT_EQ(banner->code, WireCode::kOk) << banner->message;
  EXPECT_NE(banner->message.find("smoqed protocol 1"), std::string::npos)
      << banner->message;

  // Even a request that *carries* a trace block (a confused middlebox,
  // a replayed v2 frame) is answered v1-plain on this connection.
  QueryRequest req;
  req.id = 1;
  req.doc = "ward";
  req.query = "//patient/pname";
  req.trace.trace_id = 31337;
  ASSERT_TRUE(conn.Send(Encode(req)));
  ASSERT_EQ(conn.Recv(&f, 10'000), RawConn::RecvResult::kFrame);
  auto resp = DecodeQueryResponse(f.body);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, WireCode::kOk) << resp->error;
  EXPECT_FALSE(resp->echo.present)
      << "v1 connection must never receive the v2 echo block";
  EXPECT_EQ(engine_->telemetry()->traces().Find(31337), nullptr)
      << "v1 connection must not adopt wire trace ids";
}

// Version negotiation bounds: 0 and (max+1) rejected with the range in
// the message; both in-range versions accepted.
TEST_F(ServerTraceTest, HandshakeAcceptsExactlyTheVersionRange) {
  for (uint32_t v : {kMinProtocolVersion, kProtocolVersion}) {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port()));
    HelloRequest hello;
    hello.version = v;
    hello.role = "autism-group";
    ASSERT_TRUE(conn.Send(Encode(hello)));
    RawFrame f;
    ASSERT_EQ(conn.Recv(&f, 10'000), RawConn::RecvResult::kFrame);
    auto resp = DecodeHelloResponse(f.body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, WireCode::kOk) << "version " << v;
  }
  for (uint32_t v : {0u, kProtocolVersion + 1}) {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port()));
    HelloRequest hello;
    hello.version = v;
    hello.role = "autism-group";
    ASSERT_TRUE(conn.Send(Encode(hello)));
    RawFrame f;
    ASSERT_EQ(conn.Recv(&f, 10'000), RawConn::RecvResult::kFrame);
    auto resp = DecodeHelloResponse(f.body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, WireCode::kFailedPrecondition) << "version " << v;
    EXPECT_NE(resp->message.find(".."), std::string::npos)
        << "rejection should state the accepted range: " << resp->message;
  }
}

// Satellite: the audit log's trace ids are the WIRE ids — the security
// trail correlates with the client's own logs, not a server-local id.
TEST_F(ServerTraceTest, AuditRecordsCarryWireTraceIds) {
  Client client = ConnectAs("autism-group");
  QueryRequest req;
  req.doc = "ward";
  req.query = "//patient/pname";
  req.trace.trace_id = 0xA0D17ull;
  auto resp = client.Query(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->code, WireCode::kOk) << resp->error;

  bool found = false;
  for (const auto& rec : engine_->telemetry()->audit().Query()) {
    if (rec.trace_id == 0xA0D17ull) {
      found = true;
      EXPECT_EQ(rec.view, "autism-group");
      EXPECT_TRUE(rec.allowed);
    }
  }
  EXPECT_TRUE(found) << "no audit record carries the wire trace id";
}

// Satellite: per-role request counters and the pipeline-depth histogram
// appear in the same DumpMetrics tree as the engine metrics, and the
// slow log (threshold 0 here) drains over the new STAT sub-command with
// role + trace id attached.
TEST_F(ServerTraceTest, RoleCountersAndSlowLogLandInOneDump) {
  {
    Client nurse = ConnectAs("autism-group");
    Client direct = ConnectAs("");
    QueryRequest req;
    req.doc = "ward";
    req.query = "//patient/pname";
    req.trace.trace_id = 4242;
    for (int i = 0; i < 3; ++i) {
      auto r = nurse.Query(req);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r->code, WireCode::kOk) << r->error;
    }
    req.trace.trace_id = 0;
    auto r = direct.Query(req);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->code, WireCode::kOk) << r->error;

    // Live dump over STAT sees server.* and engine metrics together.
    auto stat = direct.Stat(StatFormat::kJson);
    ASSERT_TRUE(stat.ok());
    ASSERT_EQ(stat->code, WireCode::kOk);
    const std::string& dump = stat->payload;
    EXPECT_NE(dump.find("\"server.requests_by_role.autism-group\": 3"),
              std::string::npos)
        << dump;
    // The direct role counted its query + this STAT request.
    EXPECT_NE(dump.find("\"server.requests_by_role.direct\": 2"),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("\"server.pipeline_depth\""), std::string::npos);
    EXPECT_NE(dump.find("\"query.count\""), std::string::npos);

    // In-process render is the same tree: identical metric-name sets
    // (values keep moving — the STAT request itself records its own
    // latency after rendering the dump — but no key may differ).
    auto keys = [](const std::string& d) {
      std::vector<std::string> out;
      size_t pos = 0;
      while ((pos = d.find('"', pos)) != std::string::npos) {
        const size_t end = d.find('"', pos + 1);
        if (end == std::string::npos) break;
        const std::string name = d.substr(pos + 1, end - pos - 1);
        if (name.find('.') != std::string::npos) out.push_back(name);
        pos = end + 1;
      }
      return out;
    };
    EXPECT_EQ(keys(dump), keys(engine_->DumpMetrics(tel::DumpFormat::kJson)));

    // Slow log over the wire: threshold 0 logged everything, with the
    // role and the wire trace id attached.
    auto slow = direct.Stat(StatFormat::kSlow);
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(slow->code, WireCode::kOk);
    EXPECT_NE(slow->payload.find("\"role\": \"autism-group\""),
              std::string::npos)
        << slow->payload;
    EXPECT_NE(slow->payload.find("\"trace_id\": 4242"), std::string::npos)
        << slow->payload;
    EXPECT_EQ(slow->payload, engine_->DumpSlowQueries());
  }
}

}  // namespace
}  // namespace smoqe::server
