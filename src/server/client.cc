#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace smoqe::server {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      frames_(std::move(other.frames_)),
      last_id_(other.last_id_),
      hello_(std::move(other.hello_)),
      role_(std::move(other.role_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
    frames_ = std::move(other.frames_);
    last_id_ = other.last_id_;
    hello_ = std::move(other.hello_);
    role_ = std::move(other.role_);
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Result<Client> Client::Connect(const ClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad server address: " + options.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (options.recv_timeout_ms > 0) {
    timeval tv;
    tv.tv_sec = static_cast<time_t>(options.recv_timeout_ms / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((options.recv_timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  Client client(fd, options.max_response_frame);
  client.role_ = options.role;

  HelloRequest hello;
  hello.id = 0;
  hello.version = kProtocolVersion;
  hello.role = options.role;
  Status sent = client.SendBytes(Encode(hello));
  if (!sent.ok()) return sent;

  auto frame = client.ReceiveFrame();
  if (!frame.ok()) return frame.status();
  if (frame->opcode != static_cast<uint8_t>(Opcode::kHelloOk)) {
    // The server answers a malformed/rejected HELLO with an ERROR frame.
    if (frame->opcode == static_cast<uint8_t>(Opcode::kError)) {
      auto err = DecodeErrorResponse(frame->body);
      if (err.ok()) return ToStatus(err->code, err->message);
    }
    return Status::Internal("handshake: unexpected response opcode " +
                            std::to_string(frame->opcode));
  }
  auto resp = DecodeHelloResponse(frame->body);
  if (!resp.ok()) return resp.status().WithContext("handshake response");
  if (resp->code != WireCode::kOk) {
    return ToStatus(resp->code, resp->message);
  }
  client.hello_ = resp.MoveValue();
  return client;
}

Status Client::SendBytes(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a closed server is an error Status, not a SIGPIPE
    // that kills the calling process.
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Status s = Errno("write");
    Close();
    return s;
  }
  return Status::OK();
}

Result<RawFrame> Client::ReceiveFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  for (;;) {
    if (auto frame = frames_.Next()) return std::move(*frame);
    if (frames_.overflow()) {
      Close();
      return Status::InvalidArgument(
          "server frame exceeds max_response_frame");
    }
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      frames_.Append(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Status s = n == 0 ? Status::IOError("connection closed by server")
                      : Errno("read");
    Close();
    return s;
  }
}

namespace {

/// Shared shape of every typed call: expect `op` with `id`; an ERROR
/// frame (undecodable request) is translated into a transport status.
template <typename Resp, typename DecodeFn>
Result<Resp> ExpectResponse(Result<RawFrame> frame, Opcode op, uint64_t id,
                            DecodeFn decode) {
  if (!frame.ok()) return frame.status();
  if (frame->opcode == static_cast<uint8_t>(Opcode::kError)) {
    auto err = DecodeErrorResponse(frame->body);
    if (err.ok()) return ToStatus(err->code, err->message);
    return Status::Internal("undecodable ERROR frame from server");
  }
  if (frame->opcode != static_cast<uint8_t>(op)) {
    return Status::Internal("unexpected response opcode " +
                            std::to_string(frame->opcode));
  }
  auto resp = decode(frame->body);
  if (!resp.ok()) return resp.status().WithContext("response decode");
  if (resp->id != id) {
    return Status::Internal("response id mismatch: sent " +
                            std::to_string(id) + ", got " +
                            std::to_string(resp->id));
  }
  return resp.MoveValue();
}

}  // namespace

Result<QueryResponse> Client::Query(QueryRequest req) {
  req.id = NextId();
  Status s = SendBytes(Encode(req));
  if (!s.ok()) return s;
  return ExpectResponse<QueryResponse>(ReceiveFrame(), Opcode::kQueryResult,
                                       req.id, DecodeQueryResponse);
}

Result<QueryBatchResponse> Client::QueryBatch(QueryBatchRequest req) {
  req.id = NextId();
  Status s = SendBytes(Encode(req));
  if (!s.ok()) return s;
  return ExpectResponse<QueryBatchResponse>(
      ReceiveFrame(), Opcode::kQueryBatchResult, req.id,
      DecodeQueryBatchResponse);
}

Result<UpdateResponse> Client::Update(UpdateRequest req) {
  req.id = NextId();
  Status s = SendBytes(Encode(req));
  if (!s.ok()) return s;
  return ExpectResponse<UpdateResponse>(ReceiveFrame(), Opcode::kUpdateResult,
                                        req.id, DecodeUpdateResponse);
}

Result<StatResponse> Client::Stat(StatFormat format) {
  StatRequest req;
  req.id = NextId();
  req.format = format;
  Status s = SendBytes(Encode(req));
  if (!s.ok()) return s;
  return ExpectResponse<StatResponse>(ReceiveFrame(), Opcode::kStatResult,
                                      req.id, DecodeStatResponse);
}

}  // namespace smoqe::server
