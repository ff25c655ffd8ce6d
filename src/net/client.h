#ifndef PRIMA_NET_CLIENT_H_
#define PRIMA_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/result.h"
#include "util/status.h"

namespace prima::net {

class RemoteStatement;
class RemoteCursor;

/// Thin client for the PRIMA wire protocol, mapping 1:1 onto the
/// core::Session API: one Client is one connection is one server-side
/// session, so BEGIN WORK on the client holds its transaction open across
/// round trips and ABORT WORK invalidates the connection's remote cursors.
/// Like a Session, a Client is a single-threaded context — one per client
/// thread. RemoteStatement and RemoteCursor handles borrow the Client and
/// must not outlive it (they address per-connection server state, so they
/// are meaningless on any other connection anyway).
///
/// Every statement costs one request: Bind only records the value on the
/// client, and the bindings travel inside the Execute or Query request; a
/// cursor's open reply carries its first batch, so a result that fits in
/// one batch needs no fetch and no close request.
///
/// BEGIN WORK costs no request at all. Begin() and Execute("BEGIN WORK")
/// send nothing and return OK; the BEGIN rides with the next request of any
/// kind, and the server runs it first. A BEGIN that fails there reports its
/// error as the result of that next call, which then did not run. BEGIN
/// WORK READ ONLY is sent at once, because its view is pinned at BEGIN.
///
///   auto client = *Client::Connect("127.0.0.1", port);
///   client->Execute("BEGIN WORK");                    // local
///   auto stmt = *client->Prepare("INSERT point (x = ?)");  // 1 request
///   stmt.Bind(0, access::Value::Real(1.5));           // local
///   stmt.Execute();                                   // 1 request
///   client->Execute("COMMIT WORK");                   // 1 request
///   auto cursor = *client->OpenCursor("SELECT ALL FROM point");
///   while (auto m = *cursor.Next()) { /* fetches once the batch is used */ }
class Client {
 public:
  /// Connect + versioned handshake. `host` is a name or numeric address.
  static util::Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                       uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One round trip: parse and execute one MQL statement server-side
  /// (DDL, DML, query, or BEGIN/COMMIT/ABORT WORK). SELECT results come
  /// back materialized; use OpenCursor to stream instead. Text that lexes
  /// as exactly BEGIN WORK (any case, whitespace or comments) is Begin().
  util::Result<mql::ExecResult> Execute(const std::string& mql);

  /// Transaction control. Begin() sends nothing: the BEGIN rides with the
  /// next request (see the class comment); while one is held back, a
  /// second Begin() is sent as that next request. Begin(true) opens BEGIN
  /// WORK READ ONLY at once — a transaction whose queries all read the one
  /// view pinned at BEGIN and whose DML/DDL are refused.
  util::Status Begin(bool read_only = false);
  util::Status Commit();
  util::Status Abort();

  /// Compile a statement server-side for repeated execution with `?` /
  /// `:name` placeholders.
  util::Result<RemoteStatement> Prepare(const std::string& mql);

  /// Open a server-side streaming cursor over a SELECT (one request, whose
  /// reply carries the first batch); molecules arrive in batches of
  /// `batch_size` (further bounded server-side by bytes). Like a session
  /// cursor, it reads the view pinned server-side at this open.
  util::Result<RemoteCursor> OpenCursor(const std::string& mql,
                                        uint32_t batch_size = 128);

  /// Every metric of the server database by name (see EncodeStats), e.g.
  /// "prima_net_connections_active", "prima_wal_active_txns" or
  /// "prima_statement_us_p99".
  util::Result<StatsMap> Stats();

  /// The server's full metrics page (Prima::MetricsText — Prometheus-style
  /// text exposition), for remote scraping.
  util::Result<std::string> MetricsText();

  /// Polite goodbye; the server rolls back an open transaction, and a BEGIN
  /// still held back is dropped unsent. The destructor just drops the
  /// socket, which has the same server-side effect without the round trip.
  util::Status Close();

  bool connected() const { return fd_ >= 0; }
  /// Server-assigned connection id from the handshake.
  uint64_t connection_id() const { return connection_id_; }

 private:
  friend class RemoteStatement;
  friend class RemoteCursor;
  Client() = default;

  /// Send one request, read one reply. A held-back BEGIN goes with it, the
  /// request wrapped in a kBegun frame. A kError reply decodes into the
  /// returned status; a reply of any kind other than `expect` is a
  /// protocol violation and poisons the connection. A payload over
  /// kMaxRequestFrame is refused with InvalidArgument before anything is
  /// written, so the connection stays usable.
  util::Result<Frame> RoundTrip(MsgKind kind, util::Slice payload,
                                MsgKind expect);
  /// Finish a kOpenCursor payload (`payload` holds the form and statement)
  /// with the batch size, send it, and decode the cursor with its first
  /// batch.
  util::Result<RemoteCursor> OpenCursorWith(std::string payload,
                                            uint32_t batch_size);

  int fd_ = -1;
  uint64_t connection_id_ = 0;
  bool begin_pending_ = false;  ///< a BEGIN WORK rides with the next request
};

/// Client handle to a server-side prepared statement. The bindings live on
/// the client and are sent whole with every Execute and Query, which
/// replace the server-side statement's bindings before running it.
class RemoteStatement {
 public:
  RemoteStatement(RemoteStatement&&) = default;
  RemoteStatement& operator=(RemoteStatement&&) = default;

  uint32_t param_count() const {
    return static_cast<uint32_t>(bound_.size());
  }

  /// Bind by 0-based placeholder position / by `:name`. Local — no request
  /// — and refusing exactly what core::PreparedStatement::Bind refuses,
  /// with the same messages: an index out of range, an empty name, a name
  /// no placeholder has.
  util::Status Bind(uint32_t index, const access::Value& value);
  util::Status Bind(const std::string& name, const access::Value& value);

  /// Execute with the current bindings (one request). A slot never bound
  /// fails server-side with InvalidArgument naming it, as a local
  /// execution does.
  util::Result<mql::ExecResult> Execute();
  /// Open a streaming cursor over the bound SELECT (one request, whose
  /// reply carries the first batch).
  util::Result<RemoteCursor> Query(uint32_t batch_size = 128);

  /// Release the server-side statement. Closing twice reports NotFound
  /// (the server rejects the stale id cleanly).
  util::Status Close();

 private:
  friend class Client;
  RemoteStatement(Client* client, uint32_t id,
                  std::vector<std::string> param_names)
      : client_(client),
        id_(id),
        param_names_(std::move(param_names)),
        bound_(param_names_.size()) {}

  /// u32 statement id + the bindings field of the request payload.
  std::string RequestHeader() const;

  Client* client_;
  uint32_t id_;
  std::vector<std::string> param_names_;  ///< "" for `?` slots
  std::vector<std::optional<access::Value>> bound_;
};

/// Client handle to a server-side molecule cursor. It opens holding its
/// first batch; Next() serves buffered molecules locally and fetches the
/// next batch once they run out. An ABORT WORK (or any rollback)
/// server-side makes the next fetch that reaches the server fail with
/// Aborted, exactly like a local MoleculeCursor; molecules already
/// buffered are still served.
class RemoteCursor {
 public:
  RemoteCursor(RemoteCursor&&) = default;
  RemoteCursor& operator=(RemoteCursor&&) = default;

  /// Next molecule, or nullopt when the result set is drained.
  util::Result<std::optional<mql::Molecule>> Next();

  /// Release the server-side cursor. A cursor whose last batch has arrived
  /// was released by the server already, so this sends nothing. Closing
  /// twice reports NotFound.
  util::Status Close();

 private:
  friend class Client;
  friend class RemoteStatement;
  RemoteCursor(Client* client, uint32_t batch_size)
      : client_(client), batch_size_(batch_size) {}

  /// Decode a kCursorOpened reply: the cursor id, then its first batch.
  static util::Result<RemoteCursor> Opened(Client* client,
                                           uint32_t batch_size,
                                           util::Slice reply);
  /// Decode one batch (u8 done + varint n + n molecules) into the buffer.
  util::Status Absorb(util::Slice* in);

  Client* client_;
  uint32_t id_ = 0;
  uint32_t batch_size_;
  std::deque<mql::Molecule> buffer_;
  bool server_done_ = false;  ///< last batch received; server released it
  bool closed_ = false;
};

}  // namespace prima::net

#endif  // PRIMA_NET_CLIENT_H_
