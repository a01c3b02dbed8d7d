// The differential server-vs-library contract (ISSUE PR8 tentpole):
// every byte of every server response must decode to exactly what the
// library facade answers for the same (role, query/update) at the same
// epoch. Twin engines — one behind a TestServer, one driven directly
// through core::Session — are built identically and fed identical
// request sequences; responses are compared field by field (wire code,
// error text, epoch, answer bytes). Covers sequential randomized traffic
// with interleaved updates, pipelined clients, concurrent clients, batch
// semantics, and the handshake / protocol-discipline edges.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/session.h"
#include "src/core/smoqe.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/test_server.h"
#include "tests/server_test_util.h"
#include "tests/test_util.h"

namespace smoqe::server {
namespace {

using testutil2::Mix;
using testutil2::RawConn;
using testutil2::RawHandshake;
using testutil2::ServerEngineOptions;
using testutil2::SetupHospitalEngine;

const char* const kRoles[] = {"", "autism-group", "research-group"};

// Update statements cycled through the randomized differential; the mix
// has accepted, rejected (through a view) and parse-error outcomes so
// the error paths are compared too, not just the happy bytes.
const char* const kUpdates[] = {
    "insert into hospital/patient[pname = 'Carol'] "
    "<visit><treatment><test>mri</test></treatment><date>d9</date></visit>",
    "delete //treatment[medication = 'flu']",
    "replace //treatment[medication = 'headache'] with "
    "<treatment><medication>ibuprofen</medication></treatment>",
    "delete hospital/patient",     // rejected through restrictive views
    "insert into //nonexistent <x/>",
    "delete a[[",                  // parse error, state untouched
};

class ServerDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    served_ = std::make_unique<core::Smoqe>(ServerEngineOptions());
    ref_ = std::make_unique<core::Smoqe>(ServerEngineOptions());
    SetupHospitalEngine(*served_);
    SetupHospitalEngine(*ref_);
    server_ = std::make_unique<TestServer>(served_.get());
    ASSERT_TRUE(server_->ok()) << server_->start_status().ToString();
  }

  Client MustConnect(const std::string& role) {
    ClientOptions o;
    o.port = server_->port();
    o.role = role;
    o.recv_timeout_ms = 30'000;  // a hung server fails tests, not CI jobs
    auto c = Client::Connect(o);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.MoveValue();
  }

  core::Session MustOpen(const std::string& role) {
    auto s = core::Session::Open(ref_.get(), role);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return s.MoveValue();
  }

  std::unique_ptr<core::Smoqe> served_;
  std::unique_ptr<core::Smoqe> ref_;
  std::unique_ptr<TestServer> server_;
};

/// The byte-level contract for one query, asserted everywhere: the wire
/// response carries exactly the library result — same code, same error
/// text, same epoch, same answer bytes in the same order.
void ExpectQueryEquiv(const QueryResponse& wire,
                      const Result<core::QueryAnswer>& lib,
                      const std::string& context) {
  if (!lib.ok()) {
    EXPECT_EQ(wire.code, FromStatus(lib.status().code())) << context;
    EXPECT_EQ(wire.error, lib.status().message()) << context;
    EXPECT_TRUE(wire.answers_xml.empty()) << context;
    return;
  }
  ASSERT_EQ(wire.code, WireCode::kOk)
      << context << ": server errored (" << wire.error
      << ") where the library answered";
  EXPECT_EQ(wire.doc_epoch, lib->doc_epoch) << context;
  EXPECT_EQ(wire.answers_xml, lib->answers_xml) << context;
}

void ExpectUpdateEquiv(const UpdateResponse& wire,
                       const Result<core::UpdateResult>& lib,
                       const std::string& context) {
  if (!lib.ok()) {
    EXPECT_EQ(wire.code, FromStatus(lib.status().code())) << context;
    EXPECT_EQ(wire.error, lib.status().message()) << context;
    return;
  }
  ASSERT_EQ(wire.code, WireCode::kOk)
      << context << ": server errored (" << wire.error
      << ") where the library applied";
  EXPECT_EQ(wire.doc_epoch, lib->stats.doc_epoch) << context;
  EXPECT_EQ(wire.canonical, lib->canonical) << context;
  EXPECT_EQ(wire.nodes_inserted, lib->stats.nodes_inserted) << context;
  EXPECT_EQ(wire.nodes_deleted, lib->stats.nodes_deleted) << context;
}

// ≥200 randomized (role, view, query/update) requests, sequential: the
// acceptance-criteria core. Updates are interleaved (every 12th request)
// and applied to both engines in lockstep, so epochs advance identically
// and every comparison is at a defined epoch.
TEST_F(ServerDifferentialTest, RandomizedSequentialTrafficIsEquivalent) {
  const std::vector<const char*> corpus =
      smoqe::testutil::HospitalQueryCorpus();
  std::map<std::string, Client> clients;
  std::map<std::string, core::Session> sessions;
  for (const char* role : kRoles) {
    clients.emplace(role, MustConnect(role));
    sessions.emplace(role, MustOpen(role));
  }

  size_t updates_done = 0;
  constexpr int kRequests = 240;
  for (int i = 0; i < kRequests; ++i) {
    const uint64_t r = Mix(0xD1FFull * 1000 + static_cast<uint64_t>(i));
    const std::string role = kRoles[r % 3];
    Client& client = clients.at(role);
    core::Session& session = sessions.at(role);
    const std::string context =
        "request " + std::to_string(i) + " role '" + role + "'";

    if (i % 12 == 5) {
      // Update turn. Only the ward: the generated doc stays static as
      // DOM/StAX comparison substrate.
      UpdateRequest u;
      u.doc = "ward";
      u.statement = kUpdates[updates_done % (sizeof(kUpdates) / sizeof(*kUpdates))];
      u.dry_run = (Mix(r) % 4 == 0) ? 1 : 0;
      ++updates_done;
      auto lib = session.Update(u.doc, u.statement, u.dry_run != 0);
      auto wire = client.Update(u);
      ASSERT_TRUE(wire.ok()) << context << ": " << wire.status().ToString();
      ExpectUpdateEquiv(*wire, lib, context + " update");
      continue;
    }

    QueryRequest q;
    q.doc = (Mix(r + 1) % 3 == 0) ? "gen" : "ward";
    q.query = corpus[Mix(r + 2) % corpus.size()];
    q.mode = (Mix(r + 3) % 2 == 0) ? WireEvalMode::kDom : WireEvalMode::kStax;
    q.use_tax = (Mix(r + 4) % 5 == 0) ? 1 : 0;
    core::SessionQueryOptions so;
    so.mode = q.mode == WireEvalMode::kStax ? core::EvalMode::kStax
                                            : core::EvalMode::kDom;
    so.use_tax = q.use_tax != 0;
    auto lib = session.Query(q.doc, q.query, so);
    auto wire = client.Query(q);
    ASSERT_TRUE(wire.ok()) << context << ": " << wire.status().ToString();
    ExpectQueryEquiv(*wire, lib,
                     context + " query '" + q.query + "' on " + q.doc);
  }
  EXPECT_GE(updates_done, 15u);

  // Both engines must land on the same document state: same epoch, same
  // canonical bytes.
  auto se = served_->DocumentEpoch("ward");
  auto re = ref_->DocumentEpoch("ward");
  ASSERT_TRUE(se.ok() && re.ok());
  EXPECT_EQ(*se, *re);
  auto sx = served_->DocumentXml("ward");
  auto rx = ref_->DocumentXml("ward");
  ASSERT_TRUE(sx.ok() && rx.ok());
  EXPECT_EQ(*sx, *rx);
}

// A pipelined client: K requests written back-to-back without reading,
// responses must come back in request order and each must equal the
// library answer.
TEST_F(ServerDifferentialTest, PipelinedResponsesArriveInOrderAndMatch) {
  const std::vector<const char*> corpus =
      smoqe::testutil::HospitalQueryCorpus();
  for (const char* role : kRoles) {
    Client client = MustConnect(role);
    core::Session session = MustOpen(role);

    constexpr int kWindow = 24;
    std::string burst;
    std::vector<QueryRequest> sent;
    for (int i = 0; i < kWindow; ++i) {
      const uint64_t r = Mix(0x919Eull + static_cast<uint64_t>(i) * 977);
      QueryRequest q;
      q.id = client.NextId();
      q.doc = "ward";
      q.query = corpus[r % corpus.size()];
      q.mode = (r % 2 == 0) ? WireEvalMode::kDom : WireEvalMode::kStax;
      burst += Encode(q);
      sent.push_back(std::move(q));
    }
    ASSERT_TRUE(client.SendBytes(burst).ok());

    for (int i = 0; i < kWindow; ++i) {
      auto frame = client.ReceiveFrame();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kQueryResult));
      auto resp = DecodeQueryResponse(frame->body);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_EQ(resp->id, sent[static_cast<size_t>(i)].id)
          << "pipelined responses must preserve request order";
      core::SessionQueryOptions so;
      so.mode = sent[static_cast<size_t>(i)].mode == WireEvalMode::kStax
                    ? core::EvalMode::kStax
                    : core::EvalMode::kDom;
      auto lib =
          session.Query("ward", sent[static_cast<size_t>(i)].query, so);
      ExpectQueryEquiv(*resp, lib,
                       std::string(role) + " pipelined #" + std::to_string(i));
    }
  }
}

// ≥4 concurrent client threads against a static catalog: every answer
// equals the precomputed sequential library answer.
TEST_F(ServerDifferentialTest, ConcurrentClientsMatchSequentialLibrary) {
  const std::vector<const char*> corpus =
      smoqe::testutil::HospitalQueryCorpus();

  struct Expected {
    WireCode code;
    std::string error;
    uint64_t epoch;
    std::vector<std::string> answers;
  };
  // Reference answers per (role, query, mode), computed sequentially.
  std::map<std::string, Expected> expected;
  auto key = [](const std::string& role, const std::string& query, int mode) {
    return role + "|" + query + "|" + std::to_string(mode);
  };
  for (const char* role : kRoles) {
    core::Session session = MustOpen(role);
    for (const char* q : corpus) {
      for (int mode = 0; mode < 2; ++mode) {
        core::SessionQueryOptions so;
        so.mode = mode == 1 ? core::EvalMode::kStax : core::EvalMode::kDom;
        auto lib = session.Query("ward", q, so);
        Expected e;
        if (lib.ok()) {
          e.code = WireCode::kOk;
          e.epoch = lib->doc_epoch;
          e.answers = lib->answers_xml;
        } else {
          e.code = FromStatus(lib.status().code());
          e.error = lib.status().message();
          e.epoch = 0;
        }
        expected.emplace(key(role, q, mode), std::move(e));
      }
    }
  }

  constexpr int kThreads = 6;
  constexpr int kPerThread = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string role = kRoles[t % 3];
      ClientOptions o;
      o.port = server_->port();
      o.role = role;
      o.recv_timeout_ms = 30'000;
      auto client = Client::Connect(o);
      if (!client.ok()) {
        mismatches.fetch_add(1000);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t r = Mix(static_cast<uint64_t>(t) * 7919 + i);
        QueryRequest q;
        q.doc = "ward";
        q.query = corpus[r % corpus.size()];
        const int mode = static_cast<int>(Mix(r) % 2);
        q.mode = mode == 1 ? WireEvalMode::kStax : WireEvalMode::kDom;
        auto wire = client->Query(q);
        if (!wire.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const Expected& e = expected.at(key(role, q.query, mode));
        const bool match =
            wire->code == e.code &&
            (e.code != WireCode::kOk || (wire->doc_epoch == e.epoch &&
                                         wire->answers_xml == e.answers)) &&
            (e.code == WireCode::kOk || wire->error == e.error);
        if (!match) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Batch semantics over the wire: per-item failures stay item-local and
// equal the library's per-item statuses; sibling answers still flow.
TEST_F(ServerDifferentialTest, BatchItemErrorsStayItemLocalAndMatch) {
  Client client = MustConnect("research-group");
  core::Session session = MustOpen("research-group");

  QueryBatchRequest b;
  b.doc = "ward";
  b.items.push_back({"//treatment", WireEvalMode::kDom, 0});
  b.items.push_back({"a[[", WireEvalMode::kDom, 0});  // item-local parse error
  b.items.push_back({"//pname", WireEvalMode::kStax, 0});
  b.items.push_back({"//date", WireEvalMode::kDom, 1});

  std::vector<core::SessionBatchItem> lib_items;
  for (const BatchItem& it : b.items) {
    core::SessionBatchItem s;
    s.query = it.query;
    s.options.mode = it.mode == WireEvalMode::kStax ? core::EvalMode::kStax
                                                    : core::EvalMode::kDom;
    s.options.use_tax = it.use_tax != 0;
    lib_items.push_back(std::move(s));
  }
  auto lib = session.QueryBatch("ward", lib_items);
  auto wire = client.QueryBatch(b);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  ASSERT_TRUE(lib.ok()) << lib.status().ToString();
  ASSERT_EQ(wire->code, WireCode::kOk) << wire->error;
  ASSERT_EQ(wire->items.size(), lib->size());
  for (size_t i = 0; i < lib->size(); ++i) {
    const core::QueryAnswer& a = (*lib)[i];
    const BatchItemResult& w = wire->items[i];
    if (a.status.ok()) {
      EXPECT_EQ(w.code, WireCode::kOk) << "item " << i << ": " << w.error;
      EXPECT_EQ(w.doc_epoch, a.doc_epoch) << "item " << i;
      EXPECT_EQ(w.answers_xml, a.answers_xml) << "item " << i;
    } else {
      EXPECT_EQ(w.code, FromStatus(a.status.code())) << "item " << i;
      EXPECT_EQ(w.error, a.status.message()) << "item " << i;
    }
  }
  // A whole-call failure (unknown document) fails the wire call exactly
  // like the library call.
  QueryBatchRequest bad = b;
  bad.doc = "no-such-doc";
  auto lib_bad = session.QueryBatch("no-such-doc", lib_items);
  auto wire_bad = client.QueryBatch(bad);
  ASSERT_TRUE(wire_bad.ok()) << wire_bad.status().ToString();
  ASSERT_FALSE(lib_bad.ok());
  EXPECT_EQ(wire_bad->code, FromStatus(lib_bad.status().code()));
  EXPECT_EQ(wire_bad->error, lib_bad.status().message());
  EXPECT_TRUE(wire_bad->items.empty());
}

// Handshake discipline: bad role and bad version are rejected with the
// documented codes and the connection closes; a viewless HELLO against a
// locked-down server is PermissionDenied.
TEST_F(ServerDifferentialTest, HandshakeRejectionsCarryDocumentedCodes) {
  // Unknown role → NotFound, surfaced through Client::Connect as the
  // library's Session::Open would fail.
  ClientOptions bad;
  bad.port = server_->port();
  bad.role = "janitors";
  bad.recv_timeout_ms = 5000;
  auto c = Client::Connect(bad);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kNotFound);
  auto lib = core::Session::Open(ref_.get(), "janitors");
  ASSERT_FALSE(lib.ok());
  EXPECT_EQ(c.status().message(), lib.status().message())
      << "wire handshake rejection must carry the library's message";

  // Version mismatch → FailedPrecondition, then close.
  RawConn raw;
  ASSERT_TRUE(raw.Dial(server_->port()));
  HelloRequest hello;
  hello.version = kProtocolVersion + 1;
  hello.role = "";
  ASSERT_TRUE(raw.Send(Encode(hello)));
  RawFrame frame;
  ASSERT_EQ(raw.Recv(&frame, 5000), RawConn::RecvResult::kFrame);
  auto resp = DecodeHelloResponse(frame.body);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, WireCode::kFailedPrecondition);
  EXPECT_EQ(raw.Recv(&frame, 5000), RawConn::RecvResult::kClosed)
      << "server must close after a rejected handshake";

  // Direct access against a locked-down server → PermissionDenied.
  core::Smoqe locked(ServerEngineOptions());
  SetupHospitalEngine(locked, /*gen_nodes=*/0);
  ServerOptions lo;
  lo.allow_direct = false;
  TestServer locked_server(&locked, lo);
  ASSERT_TRUE(locked_server.ok());
  ClientOptions direct;
  direct.port = locked_server.port();
  direct.role = "";
  direct.recv_timeout_ms = 5000;
  auto denied = Client::Connect(direct);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
  // …but a real role still connects and answers.
  ClientOptions viewed = direct;
  viewed.role = "autism-group";
  auto ok = Client::Connect(viewed);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  QueryRequest q;
  q.doc = "ward";
  q.query = "//treatment";
  auto r = ok->Query(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, WireCode::kOk) << r->error;
}

// Protocol discipline outside the handshake: a request before HELLO and
// a second HELLO are fatal (error + close); an unknown opcode in a well-
// framed message is survivable — the next request still answers.
TEST_F(ServerDifferentialTest, ProtocolViolationsErrorAndSurviveOrClose) {
  // Request before handshake: ERROR frame, then close.
  RawConn early;
  ASSERT_TRUE(early.Dial(server_->port()));
  QueryRequest q;
  q.id = 9;
  q.doc = "ward";
  q.query = "//pname";
  ASSERT_TRUE(early.Send(Encode(q)));
  RawFrame frame;
  ASSERT_EQ(early.Recv(&frame, 5000), RawConn::RecvResult::kFrame);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kError));
  auto err = DecodeErrorResponse(frame.body);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, WireCode::kProtocolError);
  EXPECT_EQ(err->id, 9u) << "ERROR should echo the request id it peeked";
  EXPECT_EQ(early.Recv(&frame, 5000), RawConn::RecvResult::kClosed);

  // Duplicate HELLO: ERROR, then close.
  RawConn dup;
  ASSERT_TRUE(dup.Dial(server_->port()));
  ASSERT_TRUE(RawHandshake(dup, "autism-group"));
  HelloRequest again;
  again.role = "research-group";
  ASSERT_TRUE(dup.Send(Encode(again)));
  ASSERT_EQ(dup.Recv(&frame, 5000), RawConn::RecvResult::kFrame);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(dup.Recv(&frame, 5000), RawConn::RecvResult::kClosed);

  // Unknown opcode: error reply, connection survives, next query works.
  RawConn odd;
  ASSERT_TRUE(odd.Dial(server_->port()));
  ASSERT_TRUE(RawHandshake(odd, ""));
  ASSERT_TRUE(odd.Send(Frame(static_cast<Opcode>(0x42), "garbage-body")));
  ASSERT_EQ(odd.Recv(&frame, 5000), RawConn::RecvResult::kFrame);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kError));
  q.id = 10;
  ASSERT_TRUE(odd.Send(Encode(q)));
  ASSERT_EQ(odd.Recv(&frame, 5000), RawConn::RecvResult::kFrame)
      << "connection must survive an unknown opcode";
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kQueryResult));
  auto qr = DecodeQueryResponse(frame.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->code, WireCode::kOk) << qr->error;

  // Over-declared frame length: ERROR then close, no resync attempted.
  RawConn big;
  ASSERT_TRUE(big.Dial(server_->port()));
  ASSERT_TRUE(RawHandshake(big, ""));
  Writer w;
  w.PutU32(static_cast<uint32_t>(kDefaultMaxRequestFrame + 100));
  w.PutU8(static_cast<uint8_t>(Opcode::kQuery));
  ASSERT_TRUE(big.Send(w.bytes()));
  ASSERT_EQ(big.Recv(&frame, 5000), RawConn::RecvResult::kFrame);
  EXPECT_EQ(frame.opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(big.Recv(&frame, 5000), RawConn::RecvResult::kClosed);
}

// STAT surfaces the server.* metrics alongside engine metrics, in both
// formats, through the same dump the library's DumpMetrics produces.
TEST_F(ServerDifferentialTest, StatExposesServerMetrics) {
  Client client = MustConnect("");
  QueryRequest q;
  q.doc = "ward";
  q.query = "//pname";
  ASSERT_TRUE(client.Query(q).ok());

  auto stat = client.Stat(StatFormat::kJson);
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  ASSERT_EQ(stat->code, WireCode::kOk);
  for (const char* key :
       {"server.connections_opened", "server.handshakes", "server.requests",
        "server.responses_ok", "server.bytes_read", "server.bytes_written",
        "server.request_ns", "query.count"}) {
    EXPECT_NE(stat->payload.find(key), std::string::npos)
        << "JSON dump missing " << key;
  }
  auto prom = client.Stat(StatFormat::kPrometheus);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->payload.find("smoqe_server_requests"), std::string::npos)
      << prom->payload.substr(0, 400);
}

// smoqed executes requests on the engine's pool. A serial engine
// (max_threads = 1) has none, and running requests inline on the loop
// thread would stall every socket, so Start refuses before binding.
TEST(ServerTest, StartRefusesSerialEngine) {
  core::EngineOptions eo;
  eo.max_threads = 1;
  core::Smoqe engine(eo);
  ASSERT_EQ(engine.pool(), nullptr);
  Server server(&engine, TestServer::DefaultOptions());
  const Status s = server.Start();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_EQ(server.port(), 0);
}

}  // namespace
}  // namespace smoqe::server
