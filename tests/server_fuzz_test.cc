// Deterministic frame-mutation fuzzer over the smoqed wire protocol
// (ISSUE PR8 S1, same splitmix64 harness as parser_fuzz_test): mutate
// handshake and request frames — flipped body bytes, garbage opcodes,
// malformed length prefixes, truncated frames — and assert the server
// either answers with a clean protocol error or closes the connection.
// Never a crash, never a hang, and a surviving connection still answers
// the next well-formed request. ≥10k mutants total, every one
// reproducible from its printed seed.
//
// Mutant classes mirror what a socket can actually deliver:
//  * body mutants (length prefix intact): framing holds, so the server
//    must answer every one — recoverable by contract;
//  * framing mutants (any byte, length prefix included): the stream may
//    desync, so close or silence (server waiting for bytes that never
//    come) are legal — crashing or wedging other connections is not;
//  * truncations: every proper prefix of a valid frame followed by EOF.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

// Byte pool biased toward protocol-meaningful values: opcodes, small
// and huge little-endian length fragments, printable query syntax.
constexpr unsigned char kPool[] = {
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x7F, 0x80, 0x81, 0xFF,
    0xFE, 0x10, 0x20, 0x40, '/',  '[',  '\'', '<',  'a',  'z',
};

std::string Mutate(const std::string& frame, uint64_t seed, size_t min_off) {
  std::string s = frame;
  if (s.size() <= min_off) return s;
  const int flips = 1 + static_cast<int>(Mix(seed) % 3);
  for (int f = 0; f < flips; ++f) {
    const uint64_t r = Mix(seed * 6364136223846793005ull + f);
    const size_t pos = min_off + r % (s.size() - min_off);
    s[pos] = static_cast<char>(kPool[(r >> 32) % sizeof(kPool)]);
  }
  return s;
}

std::vector<std::string> CanonicalRequestFrames() {
  std::vector<std::string> frames;
  QueryRequest q;
  q.id = 1;
  q.doc = "ward";
  q.query = "//patient[visit/treatment/medication = 'autism']/pname";
  q.mode = WireEvalMode::kStax;
  frames.push_back(Encode(q));

  QueryBatchRequest b;
  b.id = 2;
  b.doc = "ward";
  b.items.push_back({"//pname", WireEvalMode::kDom, 0});
  b.items.push_back({"//treatment", WireEvalMode::kStax, 1});
  frames.push_back(Encode(b));

  UpdateRequest u;
  u.id = 3;
  u.doc = "ward";
  u.statement = "delete //treatment[medication = 'flu']";
  u.dry_run = 1;  // dry-run so mutants that still decode don't drift state
  frames.push_back(Encode(u));

  StatRequest st;
  st.id = 4;
  frames.push_back(Encode(st));
  return frames;
}

class ServerFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::Smoqe>(ServerEngineOptions());
    SetupHospitalEngine(*engine_, /*gen_nodes=*/0);
    server_ = std::make_unique<TestServer>(engine_.get());
    ASSERT_TRUE(server_->ok()) << server_->start_status().ToString();
  }

  /// Full-stack liveness probe: fresh connection, handshake, one valid
  /// query must answer OK. The "server still serves" oracle.
  void Probe(const std::string& context) {
    ClientOptions o;
    o.port = server_->port();
    o.recv_timeout_ms = 10'000;
    auto client = Client::Connect(o);
    ASSERT_TRUE(client.ok()) << context << ": " << client.status().ToString();
    QueryRequest q;
    q.doc = "ward";
    q.query = "//pname";
    auto r = client->Query(q);
    ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
    ASSERT_EQ(r->code, WireCode::kOk) << context << ": " << r->error;
    ASSERT_FALSE(r->answers_xml.empty()) << context;
  }

  std::unique_ptr<core::Smoqe> engine_;
  std::unique_ptr<TestServer> server_;
};

// Body mutants: the length prefix is left intact, so every mutant is a
// well-framed message and the server owes a response. The connection may
// only drop when the mutated opcode byte became HELLO (0x01 — duplicate
// handshake, fatal by contract). 8000 mutants.
TEST_F(ServerFuzzTest, BodyMutantsAlwaysAnswerAndRecover) {
  const std::vector<std::string> canon = CanonicalRequestFrames();
  RawConn conn;
  ASSERT_TRUE(conn.Dial(server_->port()));
  ASSERT_TRUE(RawHandshake(conn, ""));

  size_t answered = 0, closed = 0;
  constexpr uint64_t kMutants = 8000;
  for (uint64_t seed = 0; seed < kMutants; ++seed) {
    const std::string& base = canon[seed % canon.size()];
    // min_off = 4: keep the length prefix, mutate opcode + body.
    const std::string mutant = Mutate(base, seed, /*min_off=*/4);
    const uint8_t opcode = static_cast<uint8_t>(mutant[4]);

    if (!conn.Send(mutant)) {
      // The server closed after a prior fatal mutant and the write hit
      // the RST; reconnect and retry this seed once.
      ASSERT_TRUE(conn.Dial(server_->port())) << "seed " << seed;
      ASSERT_TRUE(RawHandshake(conn, "")) << "seed " << seed;
      ASSERT_TRUE(conn.Send(mutant)) << "seed " << seed;
    }
    RawFrame frame;
    if (opcode == static_cast<uint8_t>(Opcode::kHello)) {
      // Duplicate handshake: fatal by contract. The server sends an
      // ERROR frame then closes; either arriving first is fine, but it
      // must not hang. Reconnect for the next seed.
      ASSERT_NE(conn.Recv(&frame, 10'000), RawConn::RecvResult::kTimeout)
          << "seed " << seed << ": server hung on a duplicate HELLO";
      ++closed;
      conn.Close();
      ASSERT_TRUE(conn.Dial(server_->port())) << "seed " << seed;
      ASSERT_TRUE(RawHandshake(conn, "")) << "seed " << seed;
    } else {
      // Every other well-framed mutant is recoverable: the server owes
      // exactly one response and the connection stays up.
      ASSERT_EQ(conn.Recv(&frame, 10'000), RawConn::RecvResult::kFrame)
          << "seed " << seed
          << ": server closed or hung on a recoverable body mutant";
      ++answered;
    }
    // The surviving connection must still answer a real request.
    if (seed % 400 == 399) {
      QueryRequest probe;
      probe.id = 1'000'000 + seed;
      probe.doc = "ward";
      probe.query = "//pname";
      ASSERT_TRUE(conn.Send(Encode(probe))) << "seed " << seed;
      RawFrame pf;
      ASSERT_EQ(conn.Recv(&pf, 10'000), RawConn::RecvResult::kFrame)
          << "seed " << seed << ": connection dead after surviving mutants";
      ASSERT_EQ(pf.opcode, static_cast<uint8_t>(Opcode::kQueryResult));
      auto pr = DecodeQueryResponse(pf.body);
      ASSERT_TRUE(pr.ok());
      EXPECT_EQ(pr->code, WireCode::kOk) << pr->error;
      EXPECT_EQ(pr->id, probe.id);
    }
  }
  EXPECT_EQ(answered + closed, kMutants);
  EXPECT_GT(answered, kMutants / 2) << "mutation pool looks degenerate";
  Probe("after body mutants");
}

// Framing mutants: any byte fair game, length prefix included. The
// stream may desync — a response, a close, or silence (the server
// waiting out an under-delivered frame) are all legal. Crashing, or
// wedging *other* connections, is not. 2000 mutants; a third of them
// attack the handshake frame itself.
TEST_F(ServerFuzzTest, FramingMutantsNeverWedgeTheServer) {
  const std::vector<std::string> canon = CanonicalRequestFrames();
  HelloRequest hello;
  hello.id = 0;
  hello.role = "";
  const std::string hello_frame = Encode(hello);

  constexpr uint64_t kMutants = 2000;
  for (uint64_t seed = 0; seed < kMutants; ++seed) {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port())) << "seed " << seed;
    const bool attack_hello = seed % 3 == 0;
    if (attack_hello) {
      const std::string mutant =
          Mutate(hello_frame, Mix(seed) ^ 0xF00Dull, /*min_off=*/0);
      ASSERT_TRUE(conn.Send(mutant)) << "seed " << seed;
    } else {
      ASSERT_TRUE(RawHandshake(conn, "")) << "seed " << seed;
      const std::string& base = canon[seed % canon.size()];
      const std::string mutant = Mutate(base, seed ^ 0xBEEFull, /*min_off=*/0);
      ASSERT_TRUE(conn.Send(mutant)) << "seed " << seed;
    }
    RawFrame frame;
    conn.Recv(&frame, 2);  // any outcome is fine; just don't crash
    conn.Close();
    if (seed % 100 == 99) Probe("framing seed " + std::to_string(seed));
  }
  Probe("after framing mutants");
}

// A client that hangs up before its answers are written: HELLO plus a
// duplicate HELLO in one send, then close. The server answers both
// frames back to back; the first write draws a reset from the closed
// peer, so the second hits a broken pipe. That must close the
// connection, never raise SIGPIPE (which would kill the whole process).
TEST_F(ServerFuzzTest, PeerGoneBeforeResponsesAreWritten) {
  HelloRequest hello;
  hello.id = 0;
  hello.role = "";
  const std::string hello_frame = Encode(hello);
  for (int i = 0; i < 50; ++i) {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port())) << "attempt " << i;
    ASSERT_TRUE(conn.Send(hello_frame + hello_frame)) << "attempt " << i;
    conn.Close();
  }
  Probe("after vanished peers");
}

// The client library's side of the same contract: writing to a server
// that hung up returns an error Status instead of raising SIGPIPE.
TEST_F(ServerFuzzTest, ClientSurvivesServerHangUp) {
  ClientOptions o;
  o.port = server_->port();
  auto client = Client::Connect(o);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  server_.reset();  // stopping the server closes every connection
  QueryRequest q;
  q.doc = "ward";
  q.query = "//pname";
  const std::string frame = Encode(q);
  const Status first = client->SendBytes(frame);  // draws the reset
  const Status second = client->SendBytes(frame);
  EXPECT_FALSE(first.ok() && second.ok());
}

// Truncation sweep: every proper prefix of a valid QUERY frame, then
// EOF. The server must treat the half-frame as a dead client — close
// its side, keep serving everyone else. Also covers prefixes of the
// handshake itself.
TEST_F(ServerFuzzTest, TruncatedFramesAreJustDeadClients) {
  QueryRequest q;
  q.id = 5;
  q.doc = "ward";
  q.query = "//treatment";
  const std::string frame = Encode(q);
  HelloRequest hello;
  hello.role = "";
  const std::string hello_frame = Encode(hello);

  for (size_t cut = 0; cut < frame.size(); ++cut) {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port())) << "cut " << cut;
    ASSERT_TRUE(RawHandshake(conn, "")) << "cut " << cut;
    ASSERT_TRUE(conn.Send(std::string_view(frame.data(), cut)));
    conn.CloseWrite();
    RawFrame f;
    // Server sees EOF mid-frame: it must close, not answer garbage.
    const RawConn::RecvResult r = conn.Recv(&f, 5000);
    EXPECT_EQ(r, RawConn::RecvResult::kClosed) << "cut " << cut;
  }
  for (size_t cut = 0; cut < hello_frame.size(); ++cut) {
    RawConn conn;
    ASSERT_TRUE(conn.Dial(server_->port())) << "hello cut " << cut;
    ASSERT_TRUE(conn.Send(std::string_view(hello_frame.data(), cut)));
    conn.CloseWrite();
    RawFrame f;
    EXPECT_EQ(conn.Recv(&f, 5000), RawConn::RecvResult::kClosed)
        << "hello cut " << cut;
  }
  Probe("after truncation sweep");
}

// v2 trace-extension mutants: the optional trailing block is parse-or-
// ignore by contract — a mutated extension may be adopted, ignored
// (short block), or rejected as a malformed body, but the frame stays
// well-framed, so the server owes exactly one QUERY_RESULT for every
// mutant and the connection survives. Truncations of the extension
// (length prefix fixed up) are the "present but short" case: ignored,
// never fatal. Finally the pristine v2 frame must still adopt its id.
TEST_F(ServerFuzzTest, TraceExtensionMutantsParseOrIgnore) {
  QueryRequest base;
  base.id = 9;
  base.doc = "ward";
  base.query = "//pname";
  const std::string v1 = Encode(base);
  base.trace.trace_id = 0x1122334455667788ull;
  base.trace.flags = kTraceFlagProfile;
  const std::string v2 = Encode(base);
  ASSERT_GT(v2.size(), v1.size());
  const size_t ext_off = v1.size();  // extension starts where v1 ended

  RawConn conn;
  ASSERT_TRUE(conn.Dial(server_->port()));
  ASSERT_TRUE(RawHandshake(conn, ""));

  auto send_expect_answer = [&](const std::string& frame, uint64_t seed) {
    if (!conn.Send(frame)) {
      ASSERT_TRUE(conn.Dial(server_->port())) << "seed " << seed;
      ASSERT_TRUE(RawHandshake(conn, "")) << "seed " << seed;
      ASSERT_TRUE(conn.Send(frame)) << "seed " << seed;
    }
    RawFrame f;
    ASSERT_EQ(conn.Recv(&f, 10'000), RawConn::RecvResult::kFrame)
        << "seed " << seed
        << ": server closed or hung on a trace-extension mutant";
    ASSERT_EQ(f.opcode, static_cast<uint8_t>(Opcode::kQueryResult))
        << "seed " << seed;
    auto resp = DecodeQueryResponse(f.body);
    ASSERT_TRUE(resp.ok()) << "seed " << seed;
  };

  // Byte mutants confined to the extension block (v1 body untouched).
  constexpr uint64_t kMutants = 2000;
  for (uint64_t seed = 0; seed < kMutants; ++seed) {
    send_expect_answer(Mutate(v2, seed ^ 0xACEull, /*min_off=*/ext_off),
                       seed);
  }

  // Every truncation of the extension, length prefix patched so the
  // frame is still well-framed (cut == ext_off is exactly the v1 frame).
  for (size_t cut = ext_off; cut <= v2.size(); ++cut) {
    std::string frame = v2.substr(0, cut);
    const uint32_t len = static_cast<uint32_t>(frame.size() - 4);
    frame[0] = static_cast<char>(len & 0xFF);
    frame[1] = static_cast<char>((len >> 8) & 0xFF);
    frame[2] = static_cast<char>((len >> 16) & 0xFF);
    frame[3] = static_cast<char>((len >> 24) & 0xFF);
    send_expect_answer(frame, 1'000'000 + cut);
  }

  // The pristine v2 frame still round-trips its trace id + profile.
  ASSERT_TRUE(conn.Send(v2));
  RawFrame f;
  ASSERT_EQ(conn.Recv(&f, 10'000), RawConn::RecvResult::kFrame);
  auto resp = DecodeQueryResponse(f.body);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, WireCode::kOk) << resp->error;
  EXPECT_TRUE(resp->echo.present);
  EXPECT_EQ(resp->echo.trace_id, base.trace.trace_id);
  EXPECT_EQ(resp->echo.has_profile, 1);
  Probe("after trace-extension mutants");
}

}  // namespace
}  // namespace smoqe::server
