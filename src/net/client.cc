#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/coding.h"

namespace prima::net {

using util::Result;
using util::Slice;
using util::Status;

// --- Client ----------------------------------------------------------------

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const int gai = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                &hints, &res);
  if (gai != 0) {
    return Status::IoError(std::string("resolve ") + host + ": " +
                           ::gai_strerror(gai));
  }
  int fd = -1;
  int last_errno = ECONNREFUSED;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    return Status::IoError("connect " + host + ":" + std::to_string(port) +
                           ": " + std::strerror(last_errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto client = std::unique_ptr<Client>(new Client());
  client->fd_ = fd;
  std::string hello;
  util::PutFixed32(&hello, kHandshakeMagic);
  util::PutFixed32(&hello, kProtocolVersion);
  Result<Frame> reply =
      client->RoundTrip(MsgKind::kHello, hello, MsgKind::kHelloOk);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  uint32_t version = 0;
  uint64_t conn_id = 0;
  if (!util::GetFixed32(&in, &version) || !util::GetFixed64(&in, &conn_id)) {
    return Status::Corruption("malformed handshake reply");
  }
  client->connection_id_ = conn_id;
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Frame> Client::RoundTrip(MsgKind kind, Slice payload, MsgKind expect) {
  if (fd_ < 0) return Status::IoError("client is not connected");
  Status st = WriteFrame(fd_, kind, payload);
  if (st.ok()) {
    Frame reply;
    st = ReadFrame(fd_, kMaxReplyFrame, &reply);
    if (st.ok()) {
      if (reply.kind == MsgKind::kError) {
        Slice in(reply.payload);
        return DecodeStatus(&in);
      }
      if (reply.kind != expect) {
        st = Status::Corruption(
            "protocol violation: unexpected reply kind " +
            std::to_string(static_cast<int>(reply.kind)));
      } else {
        return reply;
      }
    }
  }
  // A transport or framing failure desynchronizes request/reply lockstep;
  // drop the socket so later calls fail fast instead of misparsing.
  ::close(fd_);
  fd_ = -1;
  return st;
}

Result<mql::ExecResult> Client::Execute(const std::string& mql) {
  Result<Frame> reply = RoundTrip(MsgKind::kExecute, mql, MsgKind::kResult);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  return DecodeExecResult(&in);
}

namespace {
/// Trailing field list of kOpenCursor forms 1 and 2 (count-prefixed
/// varints; field 0 = isolation override encoded +1, 0 = none).
void AppendCursorFields(std::optional<Isolation> isolation,
                        std::string* payload) {
  util::PutVarint64(payload, 1);
  util::PutVarint64(
      payload, isolation.has_value()
                   ? (*isolation == Isolation::kSnapshot ? 2u : 1u)
                   : 0u);
}
}  // namespace

Status Client::Begin(bool read_only) {
  if (read_only) {
    return Execute("BEGIN WORK READ ONLY").status();
  }
  return RoundTrip(MsgKind::kBeginWork, {}, MsgKind::kOk).status();
}
Status Client::Commit() {
  return RoundTrip(MsgKind::kCommitWork, {}, MsgKind::kOk).status();
}
Status Client::Abort() {
  return RoundTrip(MsgKind::kAbortWork, {}, MsgKind::kOk).status();
}

Result<RemoteStatement> Client::Prepare(const std::string& mql) {
  Result<Frame> reply = RoundTrip(MsgKind::kPrepare, mql, MsgKind::kPrepared);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  uint32_t id = 0, params = 0;
  if (!util::GetFixed32(&in, &id) || !util::GetFixed32(&in, &params)) {
    return Status::Corruption("malformed prepare reply");
  }
  return RemoteStatement(this, id, params);
}

Status Client::set_default_isolation(Isolation isolation) {
  std::string payload;
  payload.push_back(static_cast<char>(isolation));
  return RoundTrip(MsgKind::kSetIsolation, payload, MsgKind::kOk).status();
}

Result<RemoteCursor> Client::OpenCursor(const std::string& mql,
                                        uint32_t batch_size,
                                        std::optional<Isolation> isolation) {
  std::string payload;
  if (isolation.has_value()) {
    // Form 2: length-prefixed text + trailing field list. Only used when
    // there is something to say — the legacy form 0 (bare text) keeps
    // working against any server.
    payload.push_back(2);
    util::PutLengthPrefixed(&payload, mql);
    AppendCursorFields(isolation, &payload);
  } else {
    payload.push_back(0);  // not prepared: the rest is statement text
    payload.append(mql);
  }
  Result<Frame> reply =
      RoundTrip(MsgKind::kOpenCursor, payload, MsgKind::kCursorOpened);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  uint32_t id = 0;
  if (!util::GetFixed32(&in, &id)) {
    return Status::Corruption("malformed cursor reply");
  }
  return RemoteCursor(this, id, batch_size == 0 ? 1 : batch_size);
}

Result<StatsMap> Client::Stats() {
  Result<Frame> reply = RoundTrip(MsgKind::kStats, {}, MsgKind::kStatsReply);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  return DecodeStats(&in);
}

Result<std::string> Client::MetricsText() {
  Result<Frame> reply =
      RoundTrip(MsgKind::kMetrics, {}, MsgKind::kMetricsReply);
  if (!reply.ok()) return reply.status();
  return std::move(reply->payload);
}

Status Client::Close() {
  if (fd_ < 0) return Status::Ok();
  const Status st = RoundTrip(MsgKind::kGoodbye, {}, MsgKind::kOk).status();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return st;
}

// --- RemoteStatement -------------------------------------------------------

Status RemoteStatement::Bind(uint32_t index, const access::Value& value) {
  std::string payload;
  util::PutFixed32(&payload, id_);
  payload.push_back(0);  // by index
  util::PutFixed32(&payload, index);
  value.EncodeInto(&payload);
  return client_->RoundTrip(MsgKind::kBind, payload, MsgKind::kOk).status();
}

Status RemoteStatement::Bind(const std::string& name,
                             const access::Value& value) {
  std::string payload;
  util::PutFixed32(&payload, id_);
  payload.push_back(1);  // by name
  util::PutLengthPrefixed(&payload, name);
  value.EncodeInto(&payload);
  return client_->RoundTrip(MsgKind::kBind, payload, MsgKind::kOk).status();
}

Result<mql::ExecResult> RemoteStatement::Execute() {
  std::string payload;
  util::PutFixed32(&payload, id_);
  Result<Frame> reply =
      client_->RoundTrip(MsgKind::kExecutePrepared, payload, MsgKind::kResult);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  return DecodeExecResult(&in);
}

Result<RemoteCursor> RemoteStatement::Query(
    uint32_t batch_size, std::optional<Isolation> isolation) {
  std::string payload;
  payload.push_back(1);  // prepared
  util::PutFixed32(&payload, id_);
  // Trailing fields: a pre-snapshot server stops after the statement id
  // and ignores these (its decode reads exactly what it knows).
  AppendCursorFields(isolation, &payload);
  Result<Frame> reply =
      client_->RoundTrip(MsgKind::kOpenCursor, payload, MsgKind::kCursorOpened);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  uint32_t id = 0;
  if (!util::GetFixed32(&in, &id)) {
    return Status::Corruption("malformed cursor reply");
  }
  return RemoteCursor(client_, id, batch_size == 0 ? 1 : batch_size);
}

Status RemoteStatement::Close() {
  std::string payload;
  util::PutFixed32(&payload, id_);
  return client_->RoundTrip(MsgKind::kCloseStatement, payload, MsgKind::kOk)
      .status();
}

// --- RemoteCursor ----------------------------------------------------------

Result<std::optional<mql::Molecule>> RemoteCursor::Next() {
  if (buffer_.empty() && !server_done_) {
    std::string payload;
    util::PutFixed32(&payload, id_);
    util::PutFixed32(&payload, batch_size_);
    Result<Frame> reply =
        client_->RoundTrip(MsgKind::kFetch, payload, MsgKind::kMolecules);
    if (!reply.ok()) return reply.status();
    Slice in(reply->payload);
    if (in.empty()) return Status::Corruption("malformed fetch reply");
    server_done_ = in[0] != 0;
    in.RemovePrefix(1);
    uint64_t n = 0;
    if (!util::GetVarint64(&in, &n)) {
      return Status::Corruption("malformed fetch reply");
    }
    for (uint64_t i = 0; i < n; ++i) {
      Result<mql::Molecule> m = DecodeMolecule(&in);
      if (!m.ok()) return m.status();
      buffer_.push_back(std::move(*m));
    }
  }
  if (buffer_.empty()) return std::optional<mql::Molecule>();
  std::optional<mql::Molecule> out(std::move(buffer_.front()));
  buffer_.pop_front();
  return out;
}

Status RemoteCursor::Close() {
  std::string payload;
  util::PutFixed32(&payload, id_);
  buffer_.clear();
  server_done_ = true;
  return client_->RoundTrip(MsgKind::kCloseCursor, payload, MsgKind::kOk)
      .status();
}

}  // namespace prima::net
