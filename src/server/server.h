/// \file
/// \brief smoqed's network front door (docs/DESIGN.md §10, PROTOCOL.md):
/// an epoll-based event loop accepting loopback/TCP connections that
/// speak the length-prefixed binary protocol of protocol.h.
///
/// Shape (modeled on LogCabin's OpaqueServer non-blocking accept/read/
/// write monitor): ONE event-loop thread accepts, reads bytes into a
/// per-connection FrameExtractor and closes fds, and submits each decoded
/// request to the engine's own ThreadPool (`core::Smoqe::pool()`, which
/// also runs batch fan-out), where it executes through the connection's
/// role-bound core::Session. The pool task that ran a request also writes
/// its response: under the connection's mutex it sends what the socket
/// accepts and leaves the rest to the loop's EPOLLOUT handling (DESIGN
/// §10.3). A connection's requests execute strictly in arrival order (one
/// in flight at a time), so pipelined clients get responses in request
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
  struct Connection;

  /// One request and its admission stamps (arrival time, queue depth at
  /// arrival). `conn` is set when the request is handed to the pool; a
  /// request parked in its connection's `pending` leaves it null, so a
  /// connection never holds a reference to itself.
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    RawFrame frame;
    std::chrono::steady_clock::time_point enqueue;
    int pending_depth = 0;
  };

  /// Per-connection state. `mu` guards everything a request task shares
  /// with the loop: `fd` (the loop changes it only to close, under `mu`),
  /// the write buffer and EPOLLOUT interest, the pending queue and the
  /// close flag. The loop alone reads the socket and owns `frames`,
  /// `session` (bound before any request reaches a task), `version` and
  /// `role_requests`. Only the loop writes `fd` and `close_after_flush`,
  /// so it reads them without `mu`.
  struct Connection {
    std::mutex mu;
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
    /// Requests waiting behind the in-flight one, oldest first.
    std::deque<WorkItem> pending;
    /// Whether a request of this connection is on the pool. Set by
    /// whoever dispatches; cleared only by the request's task, under
    /// `mu`, when `pending` is empty. So an idle connection's next
    /// request is claimed with one exchange, without `mu`.
    std::atomic<bool> in_flight{false};
    bool close_after_flush = false;  ///< fatal protocol error sent
    bool want_write = false;  ///< EPOLLOUT armed
    std::string wbuf;         ///< bytes the socket hasn't accepted yet
    size_t wbuf_off = 0;

    explicit Connection(size_t max_frame) : frames(max_frame) {}
    ~Connection();
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
  /// Lifts complete frames off `conn` and routes them (handshake inline,
  /// requests to the engine pool / pending queue).
  void ProcessFrames(const std::shared_ptr<Connection>& conn);
  void HandleHandshake(const std::shared_ptr<Connection>& conn,
                       const RawFrame& frame);
  /// Queues `bytes` (possibly none) for writing and flushes what the
  /// socket accepts. `then_close` marks a fatal protocol error: the
  /// connection closes once its last response is out. Closes at once on
  /// a socket error.
  void SendBytes(const std::shared_ptr<Connection>& conn, std::string bytes,
                 bool then_close = false);
  /// Closes the fd and forgets the connection. Caller holds `conn.mu`
  /// and a reference to `conn` beyond the one in `conns_`.
  void CloseLocked(Connection& conn);

  // --- shared by the loop and request tasks (caller holds conn.mu) ---
  /// Appends `bytes` to the write buffer and sends what the socket takes
  /// without blocking. False on a hard socket error (the bytes stay).
  bool WriteLocked(Connection& conn, std::string bytes);
  /// Arms EPOLLOUT iff the loop has work on `conn`: unsent bytes, or a
  /// fatal-error close waiting for the last response.
  void WatchLocked(Connection& conn);

  /// Queues `item` behind every earlier request and submits one request
  /// task to the engine pool, which executes the oldest queued request
  /// and writes its response.
  void Dispatch(WorkItem item);

  // --- request tasks (run on the engine pool) ---
  /// Decodes + executes one request and returns the encoded response
  /// frame; `*trace` is the server-side trace (null unless the request
  /// carried a context).
  std::string ExecuteRequest(const WorkItem& item,
                             std::shared_ptr<telemetry::Trace>* trace);
  /// Writes a finished request's response and hands the connection's
  /// next pending request to Dispatch. False if the connection closed
  /// while the request ran (the response goes nowhere).
  bool Respond(const std::shared_ptr<Connection>& conn, std::string bytes);
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
  int event_fd_ = -1;  ///< Stop()'s wake-up for the loop
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;

  std::thread loop_thread_;  ///< the one thread a Server owns

  /// Loop-owned connection table (conn_id → connection).
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  /// Requests waiting for a pool task, oldest first, across connections.
  /// Lock order: a connection's `mu`, then `tasks_mu_`.
  std::mutex tasks_mu_;
  std::deque<WorkItem> queued_;
  /// Request tasks submitted to the engine pool and not yet finished.
  /// The tasks hold `this`, so Stop() waits for zero.
  std::condition_variable tasks_cv_;
  size_t tasks_ = 0;
};

}  // namespace smoqe::server

#endif  // SMOQE_SERVER_SERVER_H_
