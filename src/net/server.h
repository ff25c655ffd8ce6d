#ifndef PRIMA_NET_SERVER_H_
#define PRIMA_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "obs/counter.h"
#include "util/status.h"

namespace prima::core {
class Prima;
}

namespace prima::net {

struct ServerOptions {
  /// TCP port to listen on (0 = let the kernel pick an ephemeral port —
  /// read it back via Server::port()). Listens on all interfaces.
  uint16_t port = 0;
  /// Accepted connections beyond this are refused with an error frame
  /// before the handshake (0 = unlimited).
  uint32_t max_connections = 256;
  /// A connection idle (no request frame) longer than this is closed and
  /// its session drained — the open transaction rolls back logged, open
  /// cursors die with the session (0 = never).
  uint32_t idle_timeout_ms = 0;
  /// Per-connection caps on concurrently open server-side objects; a
  /// client leaking statement or cursor ids hits NoSpace instead of
  /// growing the server without bound.
  uint32_t max_statements = 1024;
  uint32_t max_cursors = 1024;
};

/// The server's own counters (PrimaStatsSnapshot::net).
struct NetStats {
  obs::Counter connections_accepted;
  obs::Counter connections_refused;  ///< over max_connections
  obs::Counter idle_closes;
  obs::Counter statements_executed;
  obs::Counter statements_prepared;
  obs::Counter cursors_opened;
  obs::Counter molecules_streamed;
};

inline constexpr obs::CounterDef<NetStats> kNetCounters[] = {
    {&NetStats::connections_accepted, "prima_net_connections_accepted", "connections accepted"},
    {&NetStats::connections_refused, "prima_net_connections_refused", "connections refused over the connection cap"},
    {&NetStats::idle_closes, "prima_net_idle_closes", "connections closed for idling"},
    {&NetStats::statements_executed, "prima_net_statements_executed", "statements executed for remote sessions"},
    {&NetStats::statements_prepared, "prima_net_statements_prepared", "statements prepared for remote sessions"},
    {&NetStats::cursors_opened, "prima_net_cursors_opened", "remote cursors opened"},
    {&NetStats::molecules_streamed, "prima_net_molecules_streamed", "molecules sent to remote clients"},
};

/// The TCP front door: accepts connections and speaks the framed protocol
/// of net/protocol.h, thread-per-connection. Each connection owns exactly
/// one core::Session (plus its prepared statements and cursors), so
/// transaction and cursor state live server-side: BEGIN WORK holds locks
/// across round trips, an ABORT WORK invalidates the connection's remote
/// cursors exactly as local ones, and a connection that dies — or a server
/// drain on Stop() — rolls its open transaction back through the session
/// destructor, logged, so a killed server recovers like any crash and
/// acknowledged commits alone survive.
class Server {
 public:
  /// `db` must outlive the server; Prima wires this up when
  /// PrimaOptions::listen_port is set and stops the server first in ~Prima.
  Server(core::Prima* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the accept loop. Fails if the port is taken.
  util::Status Start();

  /// Drain: stop accepting, shut every connection's socket down, join all
  /// connection threads (their sessions roll open transactions back), then
  /// release the listener. Idempotent.
  void Stop();

  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  const NetStats& stats() const { return stats_; }
  /// Connections being served right now.
  uint64_t connections_active() const {
    return connections_active_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void AcceptLoop();
  void ServeConnection(Conn* conn);
  /// Join and drop finished connection slots (called from the accept loop
  /// so a long-lived server does not accumulate dead threads).
  void ReapFinishedLocked();

  core::Prima* const db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  NetStats stats_;
  std::atomic<uint64_t> connections_active_{0};
};

}  // namespace prima::net

#endif  // PRIMA_NET_SERVER_H_
