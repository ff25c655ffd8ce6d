#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "mql/lexer.h"
#include "util/coding.h"

namespace prima::net {

using util::Result;
using util::Slice;
using util::Status;

namespace {

/// True when `mql` lexes as exactly BEGIN WORK. Only text that starts with
/// a B or a comment can, so every other statement skips the lexer.
bool IsBeginWork(const std::string& mql) {
  const size_t first = mql.find_first_not_of(" \t\n\v\f\r");
  if (first == std::string::npos ||
      (mql[first] != 'B' && mql[first] != 'b' && mql[first] != '(')) {
    return false;
  }
  Result<std::vector<mql::Token>> tokens = mql::Lex(mql);
  return tokens.ok() && tokens->size() == 3 &&
         (*tokens)[0].kind == mql::TokenKind::kIdent &&
         (*tokens)[0].upper == "BEGIN" &&
         (*tokens)[1].kind == mql::TokenKind::kIdent &&
         (*tokens)[1].upper == "WORK";
}

}  // namespace

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
  const size_t size = payload.size() + (begin_pending_ ? 1 : 0);
  if (size > kMaxRequestFrame) {
    // The server would refuse the frame and close the connection; refuse it
    // here instead, before a byte is written, so the connection survives.
    return Status::InvalidArgument(
        "request of " + std::to_string(size) + " bytes exceeds the " +
        std::to_string(kMaxRequestFrame) + "-byte limit");
  }
  Status st;
  if (begin_pending_) {
    begin_pending_ = false;
    std::string begun;
    begun.reserve(size);
    begun.push_back(static_cast<char>(kind));
    begun.append(payload.data(), payload.size());
    st = WriteFrame(fd_, MsgKind::kBegun, begun);
  } else {
    st = WriteFrame(fd_, kind, payload);
  }
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
  if (IsBeginWork(mql)) {
    PRIMA_RETURN_IF_ERROR(Begin());
    return mql::ExecResult();
  }
  Result<Frame> reply = RoundTrip(MsgKind::kExecute, mql, MsgKind::kResult);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  return DecodeExecResult(&in);
}

Status Client::Begin(bool read_only) {
  if (read_only) {
    return Execute("BEGIN WORK READ ONLY").status();
  }
  if (fd_ < 0) return Status::IoError("client is not connected");
  if (begin_pending_) {
    // A kBegun frame carries one BEGIN; the second is its wrapped request.
    return RoundTrip(MsgKind::kExecute, "BEGIN WORK", MsgKind::kResult)
        .status();
  }
  begin_pending_ = true;
  return Status::Ok();
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
  if (!util::GetFixed32(&in, &id) || !util::GetFixed32(&in, &params) ||
      params > in.size()) {  // every name costs at least its length byte
    return Status::Corruption("malformed prepare reply");
  }
  std::vector<std::string> names(params);
  for (std::string& name : names) {
    Slice s;
    if (!util::GetLengthPrefixed(&in, &s)) {
      return Status::Corruption("malformed prepare reply");
    }
    name.assign(s.data(), s.size());
  }
  return RemoteStatement(this, id, std::move(names));
}

Result<RemoteCursor> Client::OpenCursor(const std::string& mql,
                                        uint32_t batch_size) {
  std::string payload;
  payload.push_back(2);  // statement text
  util::PutLengthPrefixed(&payload, mql);
  return OpenCursorWith(std::move(payload), batch_size);
}

Result<RemoteCursor> Client::OpenCursorWith(std::string payload,
                                            uint32_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  util::PutFixed32(&payload, batch_size);
  Result<Frame> reply =
      RoundTrip(MsgKind::kOpenCursor, payload, MsgKind::kCursorOpened);
  if (!reply.ok()) return reply.status();
  return RemoteCursor::Opened(this, batch_size, reply->payload);
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
  begin_pending_ = false;
  const Status st = RoundTrip(MsgKind::kGoodbye, {}, MsgKind::kOk).status();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return st;
}

// --- RemoteStatement -------------------------------------------------------

// The refusals and their messages are core::PreparedStatement::Bind's, so
// a caller sees the same errors whichever side of the wire it binds on.
Status RemoteStatement::Bind(uint32_t index, const access::Value& value) {
  if (index >= bound_.size()) {
    return Status::InvalidArgument(
        "parameter index " + std::to_string(index) + " out of range (" +
        std::to_string(bound_.size()) + " placeholders)");
  }
  bound_[index] = value;
  return Status::Ok();
}

Status RemoteStatement::Bind(const std::string& name,
                             const access::Value& value) {
  if (name.empty()) {
    return Status::InvalidArgument("bind by name needs a non-empty name");
  }
  for (size_t i = 0; i < param_names_.size(); ++i) {
    if (param_names_[i] == name) {
      return Bind(static_cast<uint32_t>(i), value);
    }
  }
  return Status::InvalidArgument("no placeholder named :" + name);
}

std::string RemoteStatement::RequestHeader() const {
  std::string payload;
  util::PutFixed32(&payload, id_);
  util::PutVarint64(&payload, bound_.size());
  for (const std::optional<access::Value>& value : bound_) {
    payload.push_back(value.has_value() ? 1 : 0);
    if (value.has_value()) value->EncodeInto(&payload);
  }
  return payload;
}

Result<mql::ExecResult> RemoteStatement::Execute() {
  Result<Frame> reply = client_->RoundTrip(
      MsgKind::kExecutePrepared, RequestHeader(), MsgKind::kResult);
  if (!reply.ok()) return reply.status();
  Slice in(reply->payload);
  return DecodeExecResult(&in);
}

Result<RemoteCursor> RemoteStatement::Query(uint32_t batch_size) {
  std::string payload;
  payload.push_back(1);  // prepared
  payload.append(RequestHeader());
  return client_->OpenCursorWith(std::move(payload), batch_size);
}

Status RemoteStatement::Close() {
  std::string payload;
  util::PutFixed32(&payload, id_);
  return client_->RoundTrip(MsgKind::kCloseStatement, payload, MsgKind::kOk)
      .status();
}

// --- RemoteCursor ----------------------------------------------------------

Result<RemoteCursor> RemoteCursor::Opened(Client* client,
                                          uint32_t batch_size,
                                          Slice reply) {
  RemoteCursor cursor(client, batch_size);
  if (!util::GetFixed32(&reply, &cursor.id_)) {
    return Status::Corruption("malformed cursor reply");
  }
  PRIMA_RETURN_IF_ERROR(cursor.Absorb(&reply));
  return cursor;
}

Status RemoteCursor::Absorb(Slice* in) {
  uint64_t n = 0;
  if (in->empty()) return Status::Corruption("malformed molecule batch");
  const bool done = (*in)[0] != 0;
  in->RemovePrefix(1);
  if (!util::GetVarint64(in, &n)) {
    return Status::Corruption("malformed molecule batch");
  }
  for (uint64_t i = 0; i < n; ++i) {
    Result<mql::Molecule> m = DecodeMolecule(in);
    if (!m.ok()) return m.status();
    buffer_.push_back(std::move(*m));
  }
  server_done_ = done;
  return Status::Ok();
}

Result<std::optional<mql::Molecule>> RemoteCursor::Next() {
  if (buffer_.empty() && !server_done_) {
    std::string payload;
    util::PutFixed32(&payload, id_);
    util::PutFixed32(&payload, batch_size_);
    Result<Frame> reply =
        client_->RoundTrip(MsgKind::kFetch, payload, MsgKind::kMolecules);
    if (!reply.ok()) return reply.status();
    Slice in(reply->payload);
    PRIMA_RETURN_IF_ERROR(Absorb(&in));
  }
  if (buffer_.empty()) return std::optional<mql::Molecule>();
  std::optional<mql::Molecule> out(std::move(buffer_.front()));
  buffer_.pop_front();
  return out;
}

Status RemoteCursor::Close() {
  if (closed_) {
    return Status::NotFound("no open cursor with id " + std::to_string(id_));
  }
  closed_ = true;
  buffer_.clear();
  if (server_done_) return Status::Ok();  // released with its last batch
  server_done_ = true;
  std::string payload;
  util::PutFixed32(&payload, id_);
  return client_->RoundTrip(MsgKind::kCloseCursor, payload, MsgKind::kOk)
      .status();
}

}  // namespace prima::net
