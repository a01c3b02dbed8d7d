/// \file
/// \brief smoqed's network front door (docs/DESIGN.md §10, PROTOCOL.md):
/// an epoll-based event loop accepting loopback/TCP connections that
/// speak the length-prefixed binary protocol of protocol.h.
///
/// Shape (modeled on LogCabin's OpaqueServer non-blocking accept/read/
/// write monitor): ONE event-loop thread owns every socket — accepts,
/// reads bytes into a per-connection FrameExtractor, writes buffered
/// responses — and submits each decoded request to the engine's own
/// ThreadPool (`core::Smoqe::pool()`, which also runs batch fan-out),
/// where it executes through the connection's role-bound core::Session.
/// A connection's requests execute strictly in arrival order (one in
/// flight at a time), so pipelined clients get responses in request
/// order; concurrency comes from many connections, which is the workload
/// the engine's snapshot/pool layers were built for.
///
/// Guardrails ride along unchanged: per-request deadline / memory knobs
/// travel in the frames, the engine's admission gate surfaces as a
/// REJECTED_BUSY response, the server's own pipeline bound fast-fails
/// the same way before the engine is touched, and a client disconnect
/// cancels the session's token so in-flight work unwinds (Cancelled, no
/// audit record) instead of computing for nobody.

#ifndef SMOQE_SERVER_SERVER_H_
#define SMOQE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/core/session.h"
#include "src/core/smoqe.h"
#include "src/server/protocol.h"

namespace smoqe::server {

/// Service-layer knobs of one Server.
struct ServerOptions {
  /// Address to bind. Defaults to loopback; a daemon fronting real
  /// traffic sets 0.0.0.0 explicitly.
  std::string host = "127.0.0.1";
  /// TCP port; 0 = ephemeral (the test fixture's mode — read the bound
  /// port back via Server::port()).
  uint16_t port = 0;
  /// Whether a HELLO with the empty role (trusted direct access, no
  /// security view) is accepted. Off by default: a network daemon's
  /// reason to exist is the view boundary.
  bool allow_direct = false;
  /// Largest request frame the server will buffer (protocol bound; an
  /// over-declared length is unrecoverable and closes the connection).
  size_t max_request_frame = kDefaultMaxRequestFrame;
  /// Requests one connection may have queued behind its in-flight one.
  /// Beyond it the server answers REJECTED_BUSY immediately — protocol-
  /// level backpressure, before any engine work.
  int max_pipeline = 64;
  /// Concurrent connections; accepts beyond it are closed immediately.
  int max_connections = 1024;
};

/// \brief The daemon: owns the listener and the event loop thread;
/// executes requests on a caller-owned Smoqe engine's thread pool.
///
/// Lifecycle: construct → Start() (binds + spawns the loop; fails with a
/// Status on bind errors) → serve until Stop() (idempotent; in-flight
/// requests are cancelled via their session tokens).
/// The engine must outlive the server and have a pool: set
/// `EngineOptions::max_threads > 1` (the default 0 builds none on a
/// 1-CPU host, and Start() refuses it). Metrics land in the engine's
/// telemetry registry under `server.*` (null-safe when telemetry is
/// off), so a STAT frame or `smoqe-cli stat` sees engine and server
/// counters in one dump.
class Server {
 public:
  Server(core::Smoqe* engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, spawns the loop. Returns IOError with errno detail
  /// on bind/listen failure; FailedPrecondition for an engine without a
  /// pool, whose requests would run inline and stall the loop.
  Status Start();

  /// Stops accepting, cancels in-flight sessions, closes every
  /// connection, joins the loop and waits out every request task.
  /// Safe to call twice.
  void Stop();

  /// The bound port (after Start; the ephemeral-port answer).
  uint16_t port() const { return port_; }

  const ServerOptions& options() const { return options_; }
  core::Smoqe* engine() const { return engine_; }

 private:
  /// One encoded response plus the server-side trace riding with it
  /// (null unless the request carried a v2 trace context and telemetry
  /// is on). The loop thread stamps `write_flush` into the trace after
  /// the socket write, then finishes it into the recorder ring.
  struct Outgoing {
    std::string bytes;
    std::shared_ptr<telemetry::Trace> trace;
  };

  /// A request parked behind the connection's in-flight one, stamped
  /// with its arrival time and queue depth so the eventual trace can
  /// say how long it waited and behind how much.
  struct PendingRequest {
    RawFrame frame;
    std::chrono::steady_clock::time_point enqueue;
    int pending_depth = 0;
  };

  /// Per-connection state. The event loop owns the fd and every field
  /// except `outbox`, which request tasks fill under `out_mu`; the
  /// Session's CancelToken is the one cross-thread control signal.
  struct Connection {
    int fd = -1;
    uint64_t conn_id = 0;
    FrameExtractor frames;
    /// Bound at handshake; null until then.
    std::unique_ptr<core::Session> session;
    /// Negotiated protocol version (set at handshake). Requests from v1
    /// peers have the trace extension scrubbed: they cannot have sent
    /// one intentionally.
    uint32_t version = kProtocolVersion;
    /// `server.requests_by_role.<role>` counter, resolved once at
    /// handshake ("" → "direct"); null when telemetry is off.
    telemetry::Counter* role_requests = nullptr;
    /// Loop-confined: requests waiting behind the in-flight one.
    std::deque<PendingRequest> pending;
    bool in_flight = false;
    bool dead = false;       ///< loop saw EOF/error; fd closed
    bool close_after_flush = false;  ///< fatal protocol error sent
    std::string wbuf;        ///< bytes the socket hasn't accepted yet
    size_t wbuf_off = 0;
    /// Request task → loop handoff of encoded response frames.
    std::mutex out_mu;
    std::vector<Outgoing> outbox;

    explicit Connection(size_t max_frame) : frames(max_frame) {}
    ~Connection();
  };

  /// One request task: a connection, the request to run, and its
  /// admission stamps (arrival time, queue depth at arrival).
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    RawFrame frame;
    std::chrono::steady_clock::time_point enqueue;
    int pending_depth = 0;
  };

  /// server.* metrics, resolved once (null structs when telemetry off).
  struct Metrics {
    explicit Metrics(core::Smoqe* engine);
    telemetry::Counter* connections_opened = nullptr;
    telemetry::Counter* connections_closed = nullptr;
    telemetry::Counter* handshakes = nullptr;
    telemetry::Counter* handshake_failures = nullptr;
    telemetry::Counter* requests = nullptr;
    telemetry::Counter* responses_ok = nullptr;
    telemetry::Counter* responses_error = nullptr;
    telemetry::Counter* protocol_errors = nullptr;
    telemetry::Counter* rejected_pipeline = nullptr;
    telemetry::Counter* disconnects_mid_request = nullptr;
    telemetry::Counter* bytes_read = nullptr;
    telemetry::Counter* bytes_written = nullptr;
    telemetry::Histogram* request_ns = nullptr;
    telemetry::Histogram* pipeline_depth = nullptr;
    void Count(telemetry::Counter* c, uint64_t n = 1) {
      if (c != nullptr) c->Add(n);
    }
  };

  // --- event loop (all run on loop_thread_) ---
  void LoopMain();
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleWritable(const std::shared_ptr<Connection>& conn);
  void DrainCompletions();
  /// Lifts complete frames off `conn` and routes them (handshake inline,
  /// requests to the engine pool / pending queue).
  void ProcessFrames(const std::shared_ptr<Connection>& conn);
  void HandleHandshake(const std::shared_ptr<Connection>& conn,
                       const RawFrame& frame);
  /// Queues `bytes` for writing and flushes what the socket accepts.
  void SendBytes(const std::shared_ptr<Connection>& conn, std::string bytes);
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void UpdateEpollInterest(Connection* conn);
  void WakeLoop();

  /// Queues `item` behind every earlier request and submits one request
  /// task to the engine pool, which executes the oldest queued request,
  /// posts the response and wakes the loop.
  void Dispatch(WorkItem item);

  // --- request tasks (run on the engine pool) ---
  /// Decodes + executes one request, returns the encoded response frame
  /// plus the server-side trace (if the request carried a context).
  Outgoing ExecuteRequest(const WorkItem& item);
  /// Adopts the wire trace context as a server-side trace: queue_wait
  /// span back-dated to the frame's arrival, pipeline depth and role as
  /// attributes. Null when the context is absent or telemetry is off.
  std::shared_ptr<telemetry::Trace> BeginWireTrace(const char* op,
                                                   const TraceContext& ctx,
                                                   const Connection& conn,
                                                   const WorkItem& item);
  /// Finishes `trace` into the recorder ring (null-safe both ways).
  void FinishTrace(const std::shared_ptr<telemetry::Trace>& trace);
  std::string ExecuteQuery(core::Session& session, const QueryRequest& req,
                           const WorkItem& item,
                           const std::shared_ptr<telemetry::Trace>& trace);
  std::string ExecuteQueryBatch(core::Session& session,
                                const QueryBatchRequest& req,
                                const WorkItem& item,
                                const std::shared_ptr<telemetry::Trace>& trace);
  std::string ExecuteUpdate(core::Session& session, const UpdateRequest& req,
                            const WorkItem& item,
                            const std::shared_ptr<telemetry::Trace>& trace);
  std::string ExecuteStat(const StatRequest& req);
  /// Counts an executed request's response as ok or error; on failure
  /// also carries `status` into the response's wire code and message.
  /// Returns status.ok().
  template <typename Resp>
  bool SettleResponse(const Status& status, Resp* resp);

  /// A typed response frame carrying only (id, code, message) for the
  /// given *request* opcode — so failures decode through the same stru-
  /// cts as successes. Unknown opcodes fall back to the ERROR frame.
  static std::string ErrorResponseFor(uint8_t opcode, uint64_t id,
                                      WireCode code, std::string message);

  core::Smoqe* engine_;
  ServerOptions options_;
  Metrics metrics_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;

  std::thread loop_thread_;  ///< the one thread a Server owns

  /// Loop-owned connection table (conn_id → connection).
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  /// Requests waiting for a pool task, oldest first, across connections.
  std::mutex tasks_mu_;
  std::deque<WorkItem> queued_;
  /// Request tasks submitted to the engine pool and not yet finished.
  /// The tasks hold `this`, so Stop() waits for zero.
  std::condition_variable tasks_cv_;
  size_t tasks_ = 0;

  /// Completion queue (request tasks → loop, drained on eventfd wakeups).
  std::mutex done_mu_;
  std::vector<std::shared_ptr<Connection>> done_;
};

}  // namespace smoqe::server

#endif  // SMOQE_SERVER_SERVER_H_
