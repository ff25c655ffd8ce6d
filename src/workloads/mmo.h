#ifndef PRIMA_WORKLOADS_MMO_H_
#define PRIMA_WORKLOADS_MMO_H_

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/prima.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/retry.h"

namespace prima::workloads {

/// Multi-user online workload: a game-backend persistence scenario — the
/// OLTP counterpart to the engineering workloads (brep/geo/vlsi). Thousands
/// of small keyed reads and writes over shared hot rows, with one molecule
/// query ("a guild and its members and their inventories") standing in for
/// the structured reads the paper's molecule model was built for.
///
/// The subsystem has four parts:
///   MmoWorkload  — schema installer + deterministic populator
///   PlanOp       — deterministic, seedable op generator (Zipfian skew)
///   MmoDriver    — N session threads, in-process or over the wire, every
///                  op via prepared statements inside explicit transactions
///   MmoOracle    — client-side shadow of every ACKNOWLEDGED commit, plus
///                  conservation invariants; audits a live database after a
///                  clean run, an ABORT storm, or a kill -9 mid-storm
///
/// Correctness-by-construction choices the oracle leans on:
///   * Every read-modify-write (gold, item count, quest ticks) runs under
///     the touch-lock idiom — a dummy MODIFY acquires the write lock BEFORE
///     the read — so lost updates are impossible and the final value of a
///     counter is exactly initial + sum of committed deltas, in any commit
///     order (the deltas commute).
///   * Guild membership does not commute (last writer wins), so each
///     session owns a disjoint slice of the players (player_no % sessions)
///     and only ever joins/leaves with its own players; per-player guild
///     history is then the owner session's sequential op order.
///   * Every write transaction also stamps its session's account atom with
///     the op sequence number (`last_op`). Because a session is sequential
///     and retries transient failures until success, the recovered marker
///     after a crash identifies EXACTLY which generated ops committed, and
///     the oracle rebuilds its shadow from the seed + the marker alone.
struct MmoConfig {
  uint64_t seed = 42;
  int sessions = 4;
  uint64_t ops_per_session = 200;
  int players = 64;   ///< must be >= sessions
  int guilds = 8;
  int items_per_player = 2;
  int quests_per_player = 1;
  int64_t initial_gold = 1000;

  /// Op mix weights (any non-negative ints; zero removes the op type).
  struct Mix {
    int login = 25;        ///< keyed read of one player
    int item_grant = 15;   ///< RMW: item count += amount
    int gold_transfer = 20;///< RMW on two players, canonical lock order
    int guild_join = 10;   ///< MODIFY player SET guild (locks old+new guild)
    int guild_leave = 5;   ///< DISCONNECT from the current guild
    int roster_scan = 15;  ///< guild-player-item molecule scan
    int quest_tick = 10;   ///< RMW: ticks += 1
  } mix;

  /// Fraction of ops executed fully and then ABORTed instead of committed
  /// (the ABORT-storm drive). The decision is part of the deterministic op
  /// stream, so the oracle knows these never count.
  double abort_fraction = 0.0;

  /// Retry budget per op (0 = forever; crash drives use forever so the
  /// acked-op protocol is never abandoned mid-sequence).
  int max_attempts = 0;

  /// Over-the-wire mode: connect each session to this server instead of
  /// opening in-process sessions (MmoDriver's wire constructor sets these).
  std::string host;
  uint16_t port = 0;
};

enum class OpKind : uint8_t {
  kLogin = 0,
  kItemGrant,
  kGoldTransfer,
  kGuildJoin,
  kGuildLeave,
  kRosterScan,
  kQuestTick,
};
inline constexpr int kOpKinds = 7;
const char* OpKindName(OpKind k);

/// One generated operation — fully determined by (config, session, seq, and
/// the session's own guild-membership history).
struct Op {
  OpKind kind = OpKind::kLogin;
  int session = 0;
  uint64_t seq = 0;           ///< 1-based per session
  bool voluntary_abort = false;
  int player_a = 0;           ///< primary player (transfer source / owner)
  int player_b = 0;           ///< transfer destination
  int item = 0;
  int quest = 0;
  int guild = 0;              ///< join target / leave source / scan target
  int64_t amount = 0;         ///< gold moved or items granted

  bool IsWrite() const {
    return kind != OpKind::kLogin && kind != OpKind::kRosterScan;
  }
};

/// Plan op `seq` of `session` deterministically. `guild_of` is the session's
/// view of per-player membership (index = player_no, -1 = none) — only the
/// session's own players are consulted, so the driver thread and the oracle
/// replay reach identical decisions without sharing state. A kGuildLeave
/// drawn while the chosen player is guildless resolves to a kGuildJoin.
Op PlanOp(const MmoConfig& cfg, int session, uint64_t seq,
          const std::vector<int>& guild_of);

/// Schema installer + deterministic populator.
class MmoWorkload {
 public:
  explicit MmoWorkload(core::Prima* db) : db_(db) {}

  /// Install the six atom types and their association pairs. Verifies that
  /// the attribute positions match the kAttr constants below (wire-mode
  /// drivers decode atoms positionally, without a catalog).
  util::Status CreateSchema();

  /// Insert cfg.sessions accounts, cfg.players players (initial_gold each,
  /// no guild), cfg.guilds guilds, and per-player items/quests. Not crash-
  /// durable by itself — callers that fork a storm should Flush() after.
  util::Status Populate(const MmoConfig& cfg);

 private:
  core::Prima* db_;
};

/// Positional attribute indexes of the MMO schema (SELECT ALL order). The
/// installer cross-checks them against the catalog.
struct MmoAttrs {
  static constexpr size_t kAccountNo = 1, kAccountLastOp = 2;
  static constexpr size_t kPlayerNo = 1, kPlayerGold = 3, kPlayerTouch = 4,
                          kPlayerGuild = 6;
  static constexpr size_t kGuildNo = 1, kGuildMembers = 3;
  static constexpr size_t kItemNo = 1, kItemCount = 3, kItemTouch = 4;
  static constexpr size_t kQuestNo = 1, kQuestTicks = 2, kQuestTouch = 3;
};

/// Client-side shadow of the database: expected value of every counter and
/// membership after a set of acknowledged ops.
class MmoShadow {
 public:
  explicit MmoShadow(const MmoConfig& cfg);
  void Apply(const Op& op);

  int64_t gold(int p) const { return gold_[p]; }
  int guild_of(int p) const { return guild_of_[p]; }
  int64_t item_count(int i) const { return items_[i]; }
  int64_t quest_ticks(int q) const { return quests_[q]; }
  int64_t total_gold() const;

 private:
  std::vector<int64_t> gold_;
  std::vector<int> guild_of_;
  std::vector<int64_t> items_;
  std::vector<int64_t> quests_;
};

/// Per-run results: per-op-type latency (microseconds, end-to-end including
/// retries) and driver counters.
struct MmoRunResult {
  uint64_t ops_acked = 0;
  uint64_t ops_aborted = 0;   ///< voluntary (storm) aborts
  uint64_t retries = 0;       ///< transient-conflict re-runs across sessions
  uint64_t molecules_scanned = 0;
  obs::HistogramSnapshot latency_us[kOpKinds];
};

/// The multi-session driver. Each of cfg.sessions threads opens its own
/// session (core::Session in-process, net::Client over the wire), prepares
/// its statement set once, and executes its deterministic op stream — every
/// op inside an explicit transaction, transient conflicts retried through
/// util::RetryTransient with bounded backoff.
class MmoDriver {
 public:
  /// In-process driver over `db` (also the kernel whose txn_retries counter
  /// absorbs this run's retries, so they surface through Prima::stats()).
  MmoDriver(core::Prima* db, MmoConfig cfg);
  /// Wire driver: one net::Client per session thread against host:port.
  MmoDriver(std::string host, uint16_t port, MmoConfig cfg);

  /// Called after every acknowledged COMMIT, from the session's thread —
  /// the crash drive publishes its acked high-water marks through this.
  void set_ack_hook(std::function<void(const Op&)> hook) {
    ack_hook_ = std::move(hook);
  }

  /// Run the full workload. On success the shadow holds every acknowledged
  /// op, in a state equivalent to any serialization of the commits.
  util::Result<MmoRunResult> Run();

  const MmoShadow& shadow() const { return *shadow_; }
  const MmoConfig& config() const { return cfg_; }

 private:
  class SessionRunner;

  core::Prima* db_ = nullptr;  ///< null in wire mode
  MmoConfig cfg_;
  std::function<void(const Op&)> ack_hook_;
  std::unique_ptr<MmoShadow> shadow_;
};

/// The correctness oracle: a shadow rebuilt from acknowledged ops (clean and
/// ABORT-storm runs) or from the recovered per-session `last_op` markers
/// (crash drive), audited value-for-value against a live database.
class MmoOracle {
 public:
  explicit MmoOracle(MmoConfig cfg);

  /// Adopt a driver's post-run shadow (clean / storm runs).
  void AdoptShadow(const MmoShadow& shadow) { shadow_ = shadow; }

  /// Crash drive: replay each session's deterministic op stream up to its
  /// recovered marker. Because writes commit strictly in sequence order per
  /// session, the committed set is exactly {write ops with seq <= marker}
  /// minus the voluntary aborts.
  void RebuildFromMarkers(const std::vector<int64_t>& markers);

  /// Full audit: every player's gold, guild membership (both directions of
  /// the association), item counts, quest ticks — value for value against
  /// the shadow — plus the conservation invariants: total gold unchanged
  /// (transferred, never minted), each player in <= 1 guild, inventory
  /// counts equal grants applied. Returns the first mismatch found.
  util::Status Audit(core::Prima* db) const;

  const MmoShadow& shadow() const { return shadow_; }

 private:
  MmoConfig cfg_;
  MmoShadow shadow_;
};

/// Read the per-session `last_op` markers (index = account_no) from a live
/// (e.g. just-recovered) database.
util::Result<std::vector<int64_t>> ReadMarkers(core::Prima* db, int sessions);

}  // namespace prima::workloads

#endif  // PRIMA_WORKLOADS_MMO_H_
