#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>

#include "core/prima.h"
#include "obs/telemetry.h"
#include "util/coding.h"

namespace prima::net {

using util::Result;
using util::Slice;
using util::Status;

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Wait up to `timeout_ms` (> 0) for a readable byte or peer close.
/// Returns Ok when readable, NotFound on timeout, IoError on poll failure.
Status WaitReadable(int fd, uint32_t timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int r = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (r == 0) return Status::NotFound("idle timeout");
    return Status::Ok();  // POLLIN / POLLHUP / POLLERR all unblock the read
  }
}

Status SendError(int fd, const Status& st) {
  std::string payload;
  EncodeStatus(st, &payload);
  return WriteFrame(fd, MsgKind::kError, payload);
}

/// Replace `stmt`'s bindings with a request's bindings field: varint n +
/// n x (u8 present, Value if present), one entry per placeholder. A slot
/// the client left unbound stays unbound, so running the statement reports
/// it exactly as a local execution would.
Status ApplyBindings(Slice* in, core::PreparedStatement* stmt) {
  uint64_t n = 0;
  if (!util::GetVarint64(in, &n)) {
    return Status::InvalidArgument("malformed bindings");
  }
  if (n != stmt->param_count()) {
    return Status::InvalidArgument(
        "request carries " + std::to_string(n) + " bindings for " +
        std::to_string(stmt->param_count()) + " placeholders");
  }
  stmt->ClearBindings();
  for (size_t i = 0; i < n; ++i) {
    if (in->empty()) return Status::InvalidArgument("malformed bindings");
    const bool present = (*in)[0] != 0;
    in->RemovePrefix(1);
    if (!present) continue;
    PRIMA_ASSIGN_OR_RETURN(access::Value value, access::Value::Decode(in));
    PRIMA_RETURN_IF_ERROR(stmt->Bind(i, std::move(value)));
  }
  return Status::Ok();
}

/// Append one molecule batch — u8 done + varint n + n molecules — pulled
/// from `cursor`: at most `max_n` molecules, and no more once the batch
/// crosses kFetchByteTarget bytes, so one greedy request cannot blow the
/// reply frame. kCursorOpened and kFetch both carry it. Returns n.
Result<uint64_t> AppendBatch(mql::MoleculeCursor* cursor, uint32_t max_n,
                             bool* done, std::string* out) {
  std::string body;
  uint64_t count = 0;
  *done = false;
  while (count < max_n && body.size() < kFetchByteTarget) {
    PRIMA_ASSIGN_OR_RETURN(std::optional<mql::Molecule> next, cursor->Next());
    if (!next.has_value()) {
      *done = true;
      break;
    }
    EncodeMolecule(*next, &body);
    ++count;
  }
  out->push_back(*done ? 1 : 0);
  util::PutVarint64(out, count);
  out->append(body);
  return count;
}

}  // namespace

/// Per-connection state. The socket fd is owned by the SERVER: the serving
/// thread only ever shutdown()s it, and close() happens strictly after the
/// thread is joined — so Stop()'s wake-up shutdown can never race a close
/// that recycled the descriptor to another connection.
struct Server::Conn {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

Server::Server(core::Prima* db, ServerOptions options)
    : db_(db), options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  stopping_.store(false, std::memory_order_release);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the accept loop: shutdown makes the blocking accept() fail
  // immediately; the fd itself is closed only after the thread is gone.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Wake every serving thread out of its poll/read; the threads then run
    // their normal drain path (open transaction rolls back through the
    // session destructor, logged, before the thread finishes).
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.back());
      conns_.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::ReapFinishedLocked() {
  for (size_t i = 0; i < conns_.size();) {
    if (conns_[i]->done.load(std::memory_order_acquire)) {
      std::unique_ptr<Conn> conn = std::move(conns_[i]);
      conns_[i] = std::move(conns_.back());
      conns_.pop_back();
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    } else {
      ++i;
    }
  }
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion: back off instead of spinning; pending
        // clients wait in the listen backlog.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listener gone (shutdown) or unrecoverable
    }
    stats_.connections_accepted++;
    std::lock_guard<std::mutex> lock(conns_mu_);
    ReapFinishedLocked();
    if (options_.max_connections != 0 &&
        conns_.size() >= options_.max_connections) {
      stats_.connections_refused++;
      (void)SendError(fd, Status::NoSpace(
                              "server connection limit (" +
                              std::to_string(options_.max_connections) +
                              ") reached"));
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    conns_.push_back(std::move(conn));
  }
}

void Server::ServeConnection(Conn* conn) {
  const int fd = conn->fd;
  SetNoDelay(fd);
  connections_active_.fetch_add(1, std::memory_order_relaxed);

  // --- versioned handshake -------------------------------------------------
  // Without an idle timeout there is nothing to poll for: the blocking recv
  // in ReadFrame waits, and Stop()'s shutdown wakes it.
  const uint32_t idle_ms = options_.idle_timeout_ms;
  bool ok = false;
  do {
    if (idle_ms != 0 && !WaitReadable(fd, idle_ms).ok()) break;
    Frame hello;
    if (!ReadFrame(fd, kMaxRequestFrame, &hello).ok()) break;
    if (hello.kind != MsgKind::kHello) {
      (void)SendError(fd, Status::InvalidArgument(
                              "expected a hello frame to open the session"));
      break;
    }
    Slice in(hello.payload);
    uint32_t magic = 0, version = 0;
    if (!util::GetFixed32(&in, &magic) || !util::GetFixed32(&in, &version) ||
        magic != kHandshakeMagic) {
      (void)SendError(fd, Status::InvalidArgument("malformed hello frame"));
      break;
    }
    if (version != kProtocolVersion) {
      (void)SendError(
          fd, Status::NotSupported(
                  "protocol version " + std::to_string(version) +
                  " not supported (server speaks " +
                  std::to_string(kProtocolVersion) + ")"));
      break;
    }
    std::string reply;
    util::PutFixed32(&reply, kProtocolVersion);
    util::PutFixed64(&reply, stats_.connections_accepted);
    if (!WriteFrame(fd, MsgKind::kHelloOk, reply).ok()) break;
    ok = true;
  } while (false);

  if (ok) {
    // --- session + request loop -------------------------------------------
    // Everything a remote client owns lives in this scope: the session
    // (transaction state), prepared statements, and open cursors. Leaving
    // the scope — clean goodbye, protocol violation, disconnect, or server
    // drain — destroys them in order: cursors and statements first (both
    // borrow the session), then the session, whose destructor rolls an
    // open transaction back LOGGED. A connection that vanishes therefore
    // leaves exactly its acknowledged commits behind.
    std::unique_ptr<core::Session> session = db_->OpenSession();
    std::map<uint32_t, core::PreparedStatement> statements;
    std::map<uint32_t, mql::MoleculeCursor> cursors;
    uint32_t next_stmt_id = 1, next_cursor_id = 1;
    obs::Telemetry* tel = db_->telemetry();

    for (;;) {
      const Status waited =
          idle_ms == 0 ? Status::Ok() : WaitReadable(fd, idle_ms);
      if (!waited.ok()) {
        if (waited.IsNotFound()) {
          stats_.idle_closes++;
          (void)SendError(fd, Status::Aborted("idle timeout - closing"));
        }
        break;
      }
      Frame req;
      const Status read = ReadFrame(fd, kMaxRequestFrame, &req);
      if (!read.ok()) {
        // Oversized or corrupt frames get a best-effort error reply, but
        // the stream position is unrecoverable — close. A plain
        // disconnect (IoError) just closes.
        if (!read.IsIoError()) (void)SendError(fd, read);
        break;
      }
      Slice in(req.payload);
      bool close_conn = false;
      // Request-handling latency: decode + execute + encode + write, i.e.
      // what the client waits for beyond the network itself.
      const uint64_t req_t0 = tel != nullptr ? obs::NowNs() : 0;
      // Reply to a statement execution; false when the write failed.
      auto send_result = [&](const Result<mql::ExecResult>& result) {
        if (!result.ok()) return SendError(fd, result.status()).ok();
        if (result->kind == mql::ExecResult::Kind::kMolecules) {
          stats_.molecules_streamed += result->molecules.size();
        }
        const uint64_t enc_t0 = tel != nullptr ? obs::NowNs() : 0;
        std::string payload;
        EncodeExecResult(*result, &payload);
        const bool sent = WriteFrame(fd, MsgKind::kResult, payload).ok();
        if (tel != nullptr) {
          tel->net_encode_us()->Record((obs::NowNs() - enc_t0) / 1000);
        }
        return sent;
      };

      // A kBegun frame carries one BEGIN WORK and one request. The BEGIN
      // runs first; if it fails, its error is the reply and the request
      // does not run. The frame is unwrapped once, so a kBegun inside it
      // cannot recurse.
      Status begun;
      if (req.kind == MsgKind::kBegun) {
        if (in.empty() || static_cast<MsgKind>(in[0]) == MsgKind::kBegun ||
            static_cast<MsgKind>(in[0]) == MsgKind::kHello) {
          (void)SendError(fd, Status::InvalidArgument(
                                  "a begun frame must wrap one request"));
          break;
        }
        req.kind = static_cast<MsgKind>(in[0]);
        in.RemovePrefix(1);
        begun = session->Execute("BEGIN WORK").status();
      }
      if (!begun.ok()) {
        close_conn = !SendError(fd, begun).ok();
      } else {
        switch (req.kind) {
          case MsgKind::kExecute: {
            stats_.statements_executed++;
            close_conn = !send_result(
                session->Execute(std::string(in.data(), in.size())));
            break;
          }

          case MsgKind::kPrepare: {
            if (statements.size() >= options_.max_statements) {
              close_conn =
                  !SendError(fd, Status::NoSpace(
                                     "too many open prepared statements"))
                       .ok();
              break;
            }
            Result<core::PreparedStatement> stmt =
                session->Prepare(std::string(in.data(), in.size()));
            if (!stmt.ok()) {
              close_conn = !SendError(fd, stmt.status()).ok();
              break;
            }
            stats_.statements_prepared++;
            const uint32_t id = next_stmt_id++;
            std::string payload;
            util::PutFixed32(&payload, id);
            util::PutFixed32(&payload,
                             static_cast<uint32_t>(stmt->param_count()));
            for (size_t i = 0; i < stmt->param_count(); ++i) {
              util::PutLengthPrefixed(&payload, stmt->param_name(i));
            }
            statements.emplace(id, std::move(*stmt));
            close_conn = !WriteFrame(fd, MsgKind::kPrepared, payload).ok();
            break;
          }

          case MsgKind::kExecutePrepared: {
            uint32_t id = 0;
            if (!util::GetFixed32(&in, &id)) {
              close_conn =
                  !SendError(fd,
                             Status::InvalidArgument("malformed execute frame"))
                       .ok();
              break;
            }
            auto it = statements.find(id);
            if (it == statements.end()) {
              close_conn = !SendError(fd, Status::NotFound(
                                              "no prepared statement with id " +
                                              std::to_string(id)))
                                .ok();
              break;
            }
            Status bound = ApplyBindings(&in, &it->second);
            if (bound.ok() && !in.empty()) {
              bound = Status::InvalidArgument("malformed execute frame");
            }
            if (!bound.ok()) {
              close_conn = !SendError(fd, bound).ok();
              break;
            }
            stats_.statements_executed++;
            close_conn = !send_result(it->second.Execute());
            break;
          }

          case MsgKind::kOpenCursor: {
            if (cursors.size() >= options_.max_cursors) {
              close_conn =
                  !SendError(fd, Status::NoSpace("too many open cursors")).ok();
              break;
            }
            uint32_t batch_size = 0;
            Result<mql::MoleculeCursor> cursor = [&]() ->
                Result<mql::MoleculeCursor> {
              const Status malformed =
                  Status::InvalidArgument("malformed cursor frame");
              if (in.empty()) return malformed;
              const uint8_t form = static_cast<uint8_t>(in[0]);
              in.RemovePrefix(1);
              core::PreparedStatement* stmt = nullptr;
              Slice mql;
              if (form == 1) {
                uint32_t id = 0;
                if (!util::GetFixed32(&in, &id)) return malformed;
                auto it = statements.find(id);
                if (it == statements.end()) {
                  return Status::NotFound("no prepared statement with id " +
                                          std::to_string(id));
                }
                stmt = &it->second;
                PRIMA_RETURN_IF_ERROR(ApplyBindings(&in, stmt));
              } else if (form != 2 || !util::GetLengthPrefixed(&in, &mql)) {
                return malformed;
              }
              // The batch size ends the frame.
              if (!util::GetFixed32(&in, &batch_size) || !in.empty()) {
                return malformed;
              }
              if (stmt != nullptr) return stmt->Query();
              return session->Query(std::string(mql.data(), mql.size()));
            }();
            if (!cursor.ok()) {
              close_conn = !SendError(fd, cursor.status()).ok();
              break;
            }
            stats_.cursors_opened++;
            // The reply carries the first batch; a cursor it drains is done
            // and is released here instead of waiting for a close.
            const uint32_t id = next_cursor_id++;
            std::string payload;
            util::PutFixed32(&payload, id);
            bool done = false;
            Result<uint64_t> sent =
                AppendBatch(&*cursor, batch_size, &done, &payload);
            if (!sent.ok()) {
              close_conn = !SendError(fd, sent.status()).ok();
              break;
            }
            stats_.molecules_streamed += *sent;
            if (!done) cursors.emplace(id, std::move(*cursor));
            close_conn = !WriteFrame(fd, MsgKind::kCursorOpened, payload).ok();
            break;
          }

          case MsgKind::kFetch: {
            uint32_t id = 0, max_n = 0;
            if (!util::GetFixed32(&in, &id) || !util::GetFixed32(&in, &max_n)) {
              close_conn =
                  !SendError(fd,
                             Status::InvalidArgument("malformed fetch frame"))
                       .ok();
              break;
            }
            auto it = cursors.find(id);
            if (it == cursors.end()) {
              close_conn = !SendError(fd, Status::NotFound(
                                              "no open cursor with id " +
                                              std::to_string(id)))
                                .ok();
              break;
            }
            std::string payload;
            bool done = false;
            Result<uint64_t> sent =
                AppendBatch(&it->second, max_n, &done, &payload);
            if (!sent.ok()) {  // e.g. Aborted after a rollback
              close_conn = !SendError(fd, sent.status()).ok();
              break;
            }
            stats_.molecules_streamed += *sent;
            close_conn = !WriteFrame(fd, MsgKind::kMolecules, payload).ok();
            if (done) cursors.erase(it);  // the client closes it locally
            break;
          }

          case MsgKind::kCloseCursor: {
            uint32_t id = 0;
            if (!util::GetFixed32(&in, &id)) {
              close_conn =
                  !SendError(fd,
                             Status::InvalidArgument("malformed close frame"))
                       .ok();
              break;
            }
            auto it = cursors.find(id);
            if (it == cursors.end()) {
              // Double close: reject cleanly, keep the connection.
              close_conn = !SendError(fd, Status::NotFound(
                                              "no open cursor with id " +
                                              std::to_string(id)))
                                .ok();
              break;
            }
            cursors.erase(it);
            close_conn = !WriteFrame(fd, MsgKind::kOk, {}).ok();
            break;
          }

          case MsgKind::kCloseStatement: {
            uint32_t id = 0;
            if (!util::GetFixed32(&in, &id)) {
              close_conn =
                  !SendError(fd,
                             Status::InvalidArgument("malformed close frame"))
                       .ok();
              break;
            }
            if (statements.erase(id) == 0) {
              close_conn = !SendError(fd, Status::NotFound(
                                              "no prepared statement with id " +
                                              std::to_string(id)))
                                .ok();
              break;
            }
            close_conn = !WriteFrame(fd, MsgKind::kOk, {}).ok();
            break;
          }

          case MsgKind::kCommitWork:
          case MsgKind::kAbortWork: {
            const char* text = req.kind == MsgKind::kCommitWork ? "COMMIT WORK"
                                                                : "ABORT WORK";
            Result<mql::ExecResult> result = session->Execute(text);
            close_conn = !(result.ok() ? WriteFrame(fd, MsgKind::kOk, {})
                                       : SendError(fd, result.status()))
                              .ok();
            break;
          }

          case MsgKind::kStats: {
            std::string payload;
            EncodeStats(db_->telemetry()->registry().Snapshot(), &payload);
            close_conn = !WriteFrame(fd, MsgKind::kStatsReply, payload).ok();
            break;
          }

          case MsgKind::kMetrics: {
            close_conn = !WriteFrame(fd, MsgKind::kMetricsReply,
                                     db_->MetricsText())
                              .ok();
            break;
          }

          case MsgKind::kGoodbye:
            (void)WriteFrame(fd, MsgKind::kOk, {});
            close_conn = true;
            break;

          default:
            // An unknown request kind means the peer speaks something this
            // server does not; after answering, close — the stream cannot
            // be trusted to stay framed.
            (void)SendError(
                fd, Status::InvalidArgument(
                        "unknown request kind " +
                        std::to_string(static_cast<int>(req.kind))));
            close_conn = true;
            break;
        }
      }
      if (tel != nullptr) {
        tel->net_request_us()->Record((obs::NowNs() - req_t0) / 1000);
      }
      if (close_conn) break;
    }
  }

  // Release the slot before the peer can see EOF: a client that reconnects
  // the moment its socket closes must find this connection uncounted.
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  ::shutdown(fd, SHUT_RDWR);  // close() happens after join, by the server
  conn->done.store(true, std::memory_order_release);
}

}  // namespace prima::net
