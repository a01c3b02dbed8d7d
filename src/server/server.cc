#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/telemetry/profile.h"
#include "src/telemetry/telemetry.h"

namespace smoqe::server {

namespace {

/// epoll user-data ids for the two non-connection fds; connection ids
/// start above them.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kEventFdTag = 1;
constexpr uint64_t kFirstConnId = 2;

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

uint64_t NsSince(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

/// The session request knobs of a wire request (every request kind
/// carries the same governance fields and trace context).
template <typename Req>
core::SessionRequestOptions SessionOptionsOf(
    const Req& req, const std::shared_ptr<telemetry::Trace>& trace) {
  core::SessionRequestOptions sreq;
  sreq.deadline_ms = req.deadline_ms;
  sreq.max_memory_bytes = req.max_memory_bytes;
  sreq.trace_id = req.trace.trace_id;
  sreq.profile = req.trace.profile();
  sreq.trace = trace;
  return sreq;
}

/// Fills the v2 trace echo iff the request carried a trace context. A
/// non-null `profile` is re-stamped arrival-relative — so queue_wait fits
/// under total_ns and the root-stage sum stays ≤ total_ns — and rendered.
void FillEcho(const TraceContext& ctx,
              const std::shared_ptr<telemetry::Trace>& trace,
              std::chrono::steady_clock::time_point enqueue,
              telemetry::Profile* profile, TraceEcho* echo) {
  if (!ctx.has()) return;
  echo->present = true;
  echo->trace_id = trace != nullptr ? trace->id() : ctx.trace_id;
  echo->server_ns = NsSince(enqueue);
  if (profile == nullptr) return;
  profile->trace_id = echo->trace_id;
  profile->total_ns = echo->server_ns;
  echo->has_profile = 1;
  echo->profile_json = telemetry::ProfileRenderer::Json(*profile);
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Metrics::Metrics(core::Smoqe* engine) {
  telemetry::Telemetry* tel = engine->telemetry();
  if (tel == nullptr) return;
  telemetry::MetricsRegistry& reg = tel->registry();
  connections_opened = &reg.GetCounter("server.connections_opened");
  connections_closed = &reg.GetCounter("server.connections_closed");
  handshakes = &reg.GetCounter("server.handshakes");
  handshake_failures = &reg.GetCounter("server.handshake_failures");
  requests = &reg.GetCounter("server.requests");
  responses_ok = &reg.GetCounter("server.responses_ok");
  responses_error = &reg.GetCounter("server.responses_error");
  protocol_errors = &reg.GetCounter("server.protocol_errors");
  rejected_pipeline = &reg.GetCounter("server.rejected_pipeline");
  disconnects_mid_request = &reg.GetCounter("server.disconnects_mid_request");
  bytes_read = &reg.GetCounter("server.bytes_read");
  bytes_written = &reg.GetCounter("server.bytes_written");
  request_ns = &reg.GetHistogram("server.request_ns");
  pipeline_depth = &reg.GetHistogram("server.pipeline_depth");
}

Server::Server(core::Smoqe* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)), metrics_(engine) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (engine_->pool() == nullptr) {
    return Status::FailedPrecondition(
        "smoqed needs an engine thread pool (EngineOptions::max_threads > 1)");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listener)");

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (event_fd_ < 0) return Errno("eventfd");

  epoll_event ev;
  std::memset(&ev, 0, sizeof ev);
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listener)");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kEventFdTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    return Errno("epoll_ctl(eventfd)");
  }

  running_.store(true, std::memory_order_release);
  started_ = true;
  loop_thread_ = std::thread([this] { LoopMain(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;
  running_.store(false, std::memory_order_release);
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; nothing to do.
  [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof one);
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop cancelled every session token on the way out, so request
  // tasks stuck inside an engine call unwind at their next guard check
  // and queued ones (successors included) fail fast. They hold `this`
  // and may still write to open fds: wait them out.
  {
    std::unique_lock<std::mutex> lock(tasks_mu_);
    tasks_cv_.wait(lock, [this] { return tasks_ == 0; });
  }
  // Single-threaded from here: release every fd.
  conns_.clear();  // Connection dtor closes surviving fds
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  listen_fd_ = epoll_fd_ = event_fd_ = -1;
}

// ---------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------

void Server::LoopMain() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; shut down rather than spin
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        HandleAccept();
        continue;
      }
      if (tag == kEventFdTag) {
        uint64_t drained;
        while (::read(event_fd_, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      // A copy: closing erases the table's reference.
      std::shared_ptr<Connection> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        std::lock_guard<std::mutex> lock(conn->mu);
        CloseLocked(*conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
      // Bytes a send left behind, or a fatal-error close waiting for
      // the last response (WatchLocked).
      if (conn->fd >= 0 && (events[i].events & EPOLLOUT) != 0) {
        SendBytes(conn, {});
      }
    }
  }
  // Shutdown: stop the world. Cancelling the tokens unwinds any request
  // task still inside the engine; fds are closed later by Stop() once
  // every task has finished (tasks may still hold Connection refs and
  // write their responses).
  for (auto& [id, conn] : conns_) {
    if (conn->session != nullptr) conn->session->cancel_token().Cancel();
  }
}

void Server::HandleAccept() {
  for (;;) {
    sockaddr_in peer;
    socklen_t len = sizeof peer;
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (conns_.size() >= static_cast<size_t>(options_.max_connections) ||
        !SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Connection>(options_.max_request_frame);
    conn->fd = fd;
    // conn ids live above the listener/eventfd tags (wrap included).
    if (next_conn_id_ < kFirstConnId) next_conn_id_ = kFirstConnId;
    conn->conn_id = next_conn_id_++;

    epoll_event ev;
    std::memset(&ev, 0, sizeof ev);
    ev.events = EPOLLIN;
    ev.data.u64 = conn->conn_id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // conn dtor closes fd
    }
    conns_.emplace(conn->conn_id, conn);
    metrics_.Count(metrics_.connections_opened);
  }
}

void Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      metrics_.Count(metrics_.bytes_read, static_cast<uint64_t>(n));
      conn->frames.Append(std::string_view(buf, static_cast<size_t>(n)));
      if (static_cast<size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: the peer is gone. Cancel in-flight work and
    // reap — there is nobody left to flush to.
    std::lock_guard<std::mutex> lock(conn->mu);
    CloseLocked(*conn);
    return;
  }
  ProcessFrames(conn);
}

void Server::ProcessFrames(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0 || conn->close_after_flush) return;
  while (auto frame = conn->frames.Next()) {
    const Opcode op = static_cast<Opcode>(frame->opcode);
    if (conn->session == nullptr) {
      // First frame must be the handshake.
      if (op != Opcode::kHello) {
        metrics_.Count(metrics_.protocol_errors);
        ErrorResponse err;
        err.id = PeekRequestId(frame->body);
        err.message = "handshake required before requests";
        SendBytes(conn, Encode(err), /*then_close=*/true);
        break;
      }
      HandleHandshake(conn, *frame);
      if (conn->close_after_flush || conn->fd < 0) break;
      continue;
    }
    switch (op) {
      case Opcode::kHello: {
        // A second handshake would rebind the role mid-connection —
        // exactly what the session model forbids.
        metrics_.Count(metrics_.protocol_errors);
        ErrorResponse err;
        err.id = PeekRequestId(frame->body);
        err.message = "duplicate handshake";
        SendBytes(conn, Encode(err), /*then_close=*/true);
        break;
      }
      case Opcode::kQuery:
      case Opcode::kQueryBatch:
      case Opcode::kUpdate:
      case Opcode::kStat: {
        metrics_.Count(metrics_.requests);
        if (conn->role_requests != nullptr) conn->role_requests->Add(1);
        // Admission stamps: how deep this request queued behind the
        // in-flight one (0 = dispatched immediately) and when it
        // arrived — the eventual trace's queue_wait span.
        const auto now = std::chrono::steady_clock::now();
        int depth = 0;
        std::unique_lock<std::mutex> lock(conn->mu, std::defer_lock);
        if (conn->in_flight.exchange(true)) {
          // Busy: park it, unless the task let go meanwhile.
          lock.lock();
          depth = static_cast<int>(conn->pending.size()) +
                  (conn->in_flight ? 1 : 0);
        }
        if (metrics_.pipeline_depth != nullptr) {
          metrics_.pipeline_depth->Record(static_cast<uint64_t>(depth));
        }
        if (depth == 0) {
          conn->in_flight = true;
          Dispatch(WorkItem{conn, std::move(*frame), now, depth});
        } else if (conn->pending.size() <
                   static_cast<size_t>(options_.max_pipeline)) {
          conn->pending.push_back(WorkItem{nullptr, std::move(*frame), now,
                                           depth});
        } else {
          lock.unlock();
          metrics_.Count(metrics_.rejected_pipeline);
          metrics_.Count(metrics_.responses_error);
          SendBytes(conn, ErrorResponseFor(
                              frame->opcode, PeekRequestId(frame->body),
                              WireCode::kRejectedBusy,
                              "connection pipeline full (max_pipeline)"));
        }
        break;
      }
      default: {
        // Unknown opcode in a well-framed message: recoverable — the
        // frame boundary is trusted, so skip it and answer the next one.
        metrics_.Count(metrics_.protocol_errors);
        ErrorResponse err;
        err.id = PeekRequestId(frame->body);
        err.message =
            "unknown opcode " + std::to_string(static_cast<int>(frame->opcode));
        SendBytes(conn, Encode(err));
        break;
      }
    }
    if (conn->close_after_flush || conn->fd < 0) break;
  }
  if (conn->fd >= 0 && conn->frames.overflow()) {
    // Over-declared frame length: nothing after it can be trusted.
    metrics_.Count(metrics_.protocol_errors);
    ErrorResponse err;
    err.message = "frame exceeds size limit";
    SendBytes(conn, Encode(err), /*then_close=*/true);
  }
}

void Server::HandleHandshake(const std::shared_ptr<Connection>& conn,
                             const RawFrame& frame) {
  auto hello = DecodeHelloRequest(frame.body);
  HelloResponse resp;
  if (!hello.ok()) {
    metrics_.Count(metrics_.protocol_errors);
    metrics_.Count(metrics_.handshake_failures);
    ErrorResponse err;
    err.message = "malformed HELLO";
    SendBytes(conn, Encode(err), /*then_close=*/true);
    return;
  }
  resp.id = hello->id;
  if (hello->version < kMinProtocolVersion ||
      hello->version > kProtocolVersion) {
    resp.code = WireCode::kFailedPrecondition;
    resp.message = "protocol version mismatch: server speaks " +
                   std::to_string(kMinProtocolVersion) + ".." +
                   std::to_string(kProtocolVersion) + ", client sent " +
                   std::to_string(hello->version);
  } else if (hello->role.empty() && !options_.allow_direct) {
    resp.code = WireCode::kPermissionDenied;
    resp.message = "direct (viewless) access is disabled on this server";
  } else {
    auto session = core::Session::Open(engine_, hello->role);
    if (!session.ok()) {
      resp.code = FromStatus(session.status().code());
      resp.message = session.status().message();
    } else {
      conn->session =
          std::make_unique<core::Session>(session.MoveValue());
      conn->version = hello->version;
      if (engine_->telemetry() != nullptr) {
        const std::string role =
            hello->role.empty() ? "direct" : hello->role;
        conn->role_requests = &engine_->telemetry()->registry().GetCounter(
            "server.requests_by_role." + role);
      }
      resp.code = WireCode::kOk;
      // Banner echoes the *negotiated* version: a v1 client hears v1
      // back and knows no extensions will ride on its responses.
      resp.message = "smoqed protocol " + std::to_string(hello->version) +
                     ", role '" + hello->role + "'";
    }
  }
  const bool ok = resp.code == WireCode::kOk;
  metrics_.Count(ok ? metrics_.handshakes : metrics_.handshake_failures);
  SendBytes(conn, Encode(resp), /*then_close=*/!ok);
}

void Server::SendBytes(const std::shared_ptr<Connection>& conn,
                       std::string bytes, bool then_close) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->fd < 0) return;
  if (then_close) {
    // Nothing after a fatal error runs: drop what was parked.
    conn->close_after_flush = true;
    conn->pending.clear();
  }
  const bool ok = WriteLocked(*conn, std::move(bytes));
  if (!ok || (conn->close_after_flush && !conn->in_flight &&
              conn->wbuf_off >= conn->wbuf.size())) {
    CloseLocked(*conn);
    return;
  }
  WatchLocked(*conn);
}

bool Server::WriteLocked(Connection& conn, std::string bytes) {
  if (conn.wbuf_off >= conn.wbuf.size()) {
    conn.wbuf = std::move(bytes);
    conn.wbuf_off = 0;
  } else {
    conn.wbuf.append(bytes);
  }
  while (conn.wbuf_off < conn.wbuf.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE here, not a
    // process-killing SIGPIPE.
    const ssize_t n =
        ::send(conn.fd, conn.wbuf.data() + conn.wbuf_off,
               conn.wbuf.size() - conn.wbuf_off, MSG_NOSIGNAL);
    if (n > 0) {
      metrics_.Count(metrics_.bytes_written, static_cast<uint64_t>(n));
      conn.wbuf_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE etc.: the peer is gone
  }
  conn.wbuf.clear();
  conn.wbuf_off = 0;
  return true;
}

void Server::WatchLocked(Connection& conn) {
  const bool want = conn.wbuf_off < conn.wbuf.size() ||
                    (conn.close_after_flush && !conn.in_flight);
  if (want == conn.want_write) return;
  epoll_event ev;
  std::memset(&ev, 0, sizeof ev);
  ev.events = want ? EPOLLIN | EPOLLOUT : EPOLLIN;
  ev.data.u64 = conn.conn_id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.want_write = want;
}

void Server::CloseLocked(Connection& conn) {
  if (conn.fd < 0) return;
  if (conn.in_flight || !conn.pending.empty()) {
    metrics_.Count(metrics_.disconnects_mid_request);
  }
  if (conn.session != nullptr) conn.session->cancel_token().Cancel();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.pending.clear();
  conns_.erase(conn.conn_id);
  metrics_.Count(metrics_.connections_closed);
}

void Server::Dispatch(WorkItem item) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    queued_.push_back(std::move(item));
    ++tasks_;
  }
  // A task runs the oldest queued request, not "its own": the pool pops
  // a worker's own deque newest-first, which would reorder requests.
  engine_->pool()->Submit([this] {
    {
      // Scoped so the Connection ref drops before the count does: no
      // Connection may outlive Stop().
      std::unique_lock<std::mutex> lock(tasks_mu_);
      WorkItem run = std::move(queued_.front());
      queued_.pop_front();
      lock.unlock();
      const auto t0 = std::chrono::steady_clock::now();
      std::shared_ptr<telemetry::Trace> trace;
      std::string response = ExecuteRequest(run, &trace);
      if (metrics_.request_ns != nullptr) {
        metrics_.request_ns->Record(NsSince(t0));
      }
      const auto w0 = std::chrono::steady_clock::now();
      // A response that goes nowhere (the peer left) still lands its
      // trace in the recorder ring, without a write_flush span.
      if (Respond(run.conn, std::move(response)) && trace != nullptr) {
        trace->AddCompletedSpan("write_flush", NsSince(w0));
      }
      FinishTrace(trace);
    }
    std::lock_guard<std::mutex> lock(tasks_mu_);
    if (--tasks_ == 0) tasks_cv_.notify_all();
  });
}

bool Server::Respond(const std::shared_ptr<Connection>& conn,
                     std::string bytes) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->fd < 0) {  // closed while the request ran
    conn->in_flight = false;
    return false;
  }
  // Settle the successor before the send: the send wakes the client,
  // and on a busy CPU this task may not run again until the client's
  // next request is read — which then finds the connection idle and
  // needs no `mu`. A successor goes through the FIFO, not inline here,
  // so requests of other connections that waited longer start first;
  // it cannot write before this response, which holds `mu`.
  if (!conn->close_after_flush && !conn->pending.empty()) {
    WorkItem next = std::move(conn->pending.front());
    conn->pending.pop_front();
    next.conn = conn;
    Dispatch(std::move(next));
  } else {
    conn->in_flight = false;
  }
  // On a socket error the bytes stay buffered, EPOLLOUT is armed below,
  // and the loop's retry fails and closes: only the loop closes fds.
  WriteLocked(*conn, std::move(bytes));
  WatchLocked(*conn);
  return true;
}

// ---------------------------------------------------------------------
// Request tasks
// ---------------------------------------------------------------------

std::string Server::ErrorResponseFor(uint8_t opcode, uint64_t id,
                                     WireCode code, std::string message) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kQuery: {
      QueryResponse r;
      r.id = id;
      r.code = code;
      r.error = std::move(message);
      return Encode(r);
    }
    case Opcode::kQueryBatch: {
      QueryBatchResponse r;
      r.id = id;
      r.code = code;
      r.error = std::move(message);
      return Encode(r);
    }
    case Opcode::kUpdate: {
      UpdateResponse r;
      r.id = id;
      r.code = code;
      r.error = std::move(message);
      return Encode(r);
    }
    case Opcode::kStat: {
      StatResponse r;
      r.id = id;
      r.code = code;
      r.error = std::move(message);
      return Encode(r);
    }
    default: {
      ErrorResponse r;
      r.id = id;
      r.code = code;
      r.message = std::move(message);
      return Encode(r);
    }
  }
}

std::shared_ptr<telemetry::Trace> Server::BeginWireTrace(
    const char* op, const TraceContext& ctx, const Connection& conn,
    const WorkItem& item) {
  if (!ctx.has()) return nullptr;
  telemetry::Telemetry* tel = engine_->telemetry();
  if (tel == nullptr) return nullptr;
  std::shared_ptr<telemetry::Trace> trace =
      tel->traces().Begin(std::string("server.") + op, ctx.trace_id);
  // The queue wait happened before the trace existed; back-date it so
  // the span tree reads arrival → dispatch → facade stages.
  trace->AddCompletedSpan("queue_wait", NsSince(item.enqueue));
  trace->SetAttr("pipeline_depth", std::to_string(item.pending_depth));
  const std::string& role = conn.session->role();
  trace->SetAttr("role", role.empty() ? "direct" : role);
  return trace;
}

void Server::FinishTrace(const std::shared_ptr<telemetry::Trace>& trace) {
  if (trace == nullptr) return;
  telemetry::Telemetry* tel = engine_->telemetry();
  if (tel != nullptr) tel->traces().Finish(trace);
}

std::string Server::ExecuteRequest(const WorkItem& item,
                                   std::shared_ptr<telemetry::Trace>* trace) {
  // A request can only reach a task after the handshake bound the
  // session, so `conn.session` is set; the loop never rebinds it.
  Connection& conn = *item.conn;
  core::Session& session = *conn.session;
  const RawFrame& frame = item.frame;
  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kQuery: {
      auto req = DecodeQueryRequest(frame.body);
      if (!req.ok()) break;
      // A v1 peer cannot have sent a trace context intentionally; any
      // well-formed-looking trailing block on its frames is noise.
      if (conn.version < 2) req->trace = TraceContext{};
      *trace = BeginWireTrace("query", req->trace, conn, item);
      return ExecuteQuery(session, *req, item, *trace);
    }
    case Opcode::kQueryBatch: {
      auto req = DecodeQueryBatchRequest(frame.body);
      if (!req.ok()) break;
      if (conn.version < 2) req->trace = TraceContext{};
      *trace = BeginWireTrace("query_batch", req->trace, conn, item);
      return ExecuteQueryBatch(session, *req, item, *trace);
    }
    case Opcode::kUpdate: {
      auto req = DecodeUpdateRequest(frame.body);
      if (!req.ok()) break;
      if (conn.version < 2) req->trace = TraceContext{};
      *trace = BeginWireTrace("update", req->trace, conn, item);
      return ExecuteUpdate(session, *req, item, *trace);
    }
    case Opcode::kStat: {
      auto req = DecodeStatRequest(frame.body);
      if (!req.ok()) break;
      return ExecuteStat(*req);
    }
    default:
      break;  // unreachable: the loop routes only known opcodes here
  }
  // Known opcode, undecodable body: the frame boundary held, so the
  // connection survives; the request itself is unanswerable.
  metrics_.Count(metrics_.protocol_errors);
  metrics_.Count(metrics_.responses_error);
  return ErrorResponseFor(frame.opcode, PeekRequestId(frame.body),
                          WireCode::kProtocolError, "malformed request body");
}

template <typename Resp>
bool Server::SettleResponse(const Status& status, Resp* resp) {
  if (status.ok()) {
    metrics_.Count(metrics_.responses_ok);
    return true;
  }
  resp->code = FromStatus(status.code());
  resp->error = status.message();
  metrics_.Count(metrics_.responses_error);
  return false;
}

std::string Server::ExecuteQuery(
    core::Session& session, const QueryRequest& req, const WorkItem& item,
    const std::shared_ptr<telemetry::Trace>& trace) {
  core::SessionQueryOptions opts;
  opts.mode = req.mode == WireEvalMode::kStax ? core::EvalMode::kStax
                                              : core::EvalMode::kDom;
  opts.use_tax = req.use_tax != 0;
  auto r =
      session.Query(req.doc, req.query, opts, SessionOptionsOf(req, trace));
  QueryResponse resp;
  resp.id = req.id;
  if (SettleResponse(r.status(), &resp)) {
    resp.doc_epoch = r->doc_epoch;
    resp.answers_xml = std::move(r->answers_xml);
  }
  FillEcho(req.trace, trace, item.enqueue,
           r.ok() ? r->profile.get() : nullptr, &resp.echo);
  return Encode(resp);
}

std::string Server::ExecuteQueryBatch(
    core::Session& session, const QueryBatchRequest& req, const WorkItem& item,
    const std::shared_ptr<telemetry::Trace>& trace) {
  std::vector<core::SessionBatchItem> items;
  items.reserve(req.items.size());
  for (const BatchItem& it : req.items) {
    core::SessionBatchItem s;
    s.query = it.query;
    s.options.mode = it.mode == WireEvalMode::kStax ? core::EvalMode::kStax
                                                    : core::EvalMode::kDom;
    s.options.use_tax = it.use_tax != 0;
    items.push_back(std::move(s));
  }
  auto r = session.QueryBatch(req.doc, items, SessionOptionsOf(req, trace));
  QueryBatchResponse resp;
  resp.id = req.id;
  if (SettleResponse(r.status(), &resp)) {
    resp.items.reserve(r->size());
    for (core::QueryAnswer& a : *r) {
      BatchItemResult item_out;
      if (!a.status.ok()) {
        item_out.code = FromStatus(a.status.code());
        item_out.error = a.status.message();
      } else {
        item_out.doc_epoch = a.doc_epoch;
        item_out.answers_xml = std::move(a.answers_xml);
      }
      resp.items.push_back(std::move(item_out));
    }
  }
  // The facade attaches the batch profile to the first answer.
  FillEcho(req.trace, trace, item.enqueue,
           r.ok() && !r->empty() ? r->front().profile.get() : nullptr,
           &resp.echo);
  return Encode(resp);
}

std::string Server::ExecuteUpdate(
    core::Session& session, const UpdateRequest& req, const WorkItem& item,
    const std::shared_ptr<telemetry::Trace>& trace) {
  auto r = session.Update(req.doc, req.statement, req.dry_run != 0,
                          SessionOptionsOf(req, trace));
  UpdateResponse resp;
  resp.id = req.id;
  if (SettleResponse(r.status(), &resp)) {
    resp.doc_epoch = r->stats.doc_epoch;
    resp.canonical = std::move(r->canonical);
    resp.nodes_inserted = r->stats.nodes_inserted;
    resp.nodes_deleted = r->stats.nodes_deleted;
  }
  // Updates never carry a profile back; the echo is id + timing only.
  FillEcho(req.trace, trace, item.enqueue, nullptr, &resp.echo);
  return Encode(resp);
}

std::string Server::ExecuteStat(const StatRequest& req) {
  StatResponse resp;
  resp.id = req.id;
  if (req.format == StatFormat::kSlow) {
    resp.payload = engine_->DumpSlowQueries();
  } else {
    resp.payload = engine_->DumpMetrics(req.format == StatFormat::kPrometheus
                                            ? telemetry::DumpFormat::kPrometheus
                                            : telemetry::DumpFormat::kJson);
  }
  metrics_.Count(metrics_.responses_ok);
  return Encode(resp);
}

}  // namespace smoqe::server
