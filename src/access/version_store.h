#ifndef PRIMA_ACCESS_VERSION_STORE_H_
#define PRIMA_ACCESS_VERSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "access/tid.h"
#include "access/value.h"
#include "obs/counter.h"

namespace prima::access {

/// A reader's consistent view of the database: every transaction whose
/// commit sequence is <= `seq` is visible, everything newer (and everything
/// still uncommitted) is resolved to its before-image. `own_txn` names the
/// top-level transaction the reader itself runs under (0 = none) — a reader
/// always sees its own uncommitted writes (degree-3 consistency within the
/// transaction).
struct ReadView {
  ReadView() = default;
  ReadView(uint64_t seq, uint64_t own_txn) : seq(seq), own_txn(own_txn) {}
  uint64_t seq = 0;
  uint64_t own_txn = 0;
};

/// Version-store health counters.
struct VersionStoreStats {
  obs::Counter versions_installed;
  obs::Counter versions_retired;
  obs::Counter versions_resolved;  ///< reads served off-chain
  obs::Counter chain_walks;        ///< Resolve calls that found a chain
  /// Chain-walk depth histogram: walks that visited 1 / 2 / 3 / >=4 entries.
  obs::Counter chain_depth_1;
  obs::Counter chain_depth_2;
  obs::Counter chain_depth_3;
  obs::Counter chain_depth_4plus;
  obs::Counter snapshots_opened;
};

inline constexpr obs::CounterDef<VersionStoreStats> kVersionStoreCounters[] = {
    {&VersionStoreStats::versions_installed, "prima_versions_installed", "before-images chained by writers"},
    {&VersionStoreStats::versions_retired, "prima_versions_retired", "chain entries trimmed by the watermark"},
    {&VersionStoreStats::versions_resolved, "prima_versions_resolved", "snapshot reads served off-chain"},
    {&VersionStoreStats::chain_walks, "prima_version_chain_walks", "Resolve calls that found a chain"},
    {&VersionStoreStats::chain_depth_1, "prima_version_chain_depth_1", "chain walks visiting 1 entry"},
    {&VersionStoreStats::chain_depth_2, "prima_version_chain_depth_2", "chain walks visiting 2 entries"},
    {&VersionStoreStats::chain_depth_3, "prima_version_chain_depth_3", "chain walks visiting 3 entries"},
    {&VersionStoreStats::chain_depth_4plus, "prima_version_chain_depth_4plus", "chain walks visiting >= 4 entries"},
    {&VersionStoreStats::snapshots_opened, "prima_snapshots_opened", "read views pinned, ever"},
};

/// The counters plus the store's gauges — one leg of the coherent
/// Prima::stats() snapshot.
struct VersionStoreStatsSnapshot : VersionStoreStats {
  uint64_t versions_retained = 0;    ///< live entries right now
  uint64_t snapshots_active = 0;     ///< pinned read views
  uint64_t oldest_snapshot_lsn = 0;  ///< WAL LSN the oldest pin holds back
  uint64_t commit_seq = 0;           ///< logical commit clock
};

/// In-memory version chains for pinned-view reads: the
/// before-images the undo path already produces are kept, per atom, for as
/// long as any live read view might need them. Writers install a pending
/// entry at mutation time (before the base record changes); commit stamps
/// the transaction's entries with the next tick of a logical commit clock;
/// retirement trims every entry no pinned snapshot can still reach. The
/// store is entirely volatile — a restart begins empty, which is correct
/// because recovery rolls every loser back and readers of the old
/// incarnation are gone.
///
/// Visibility walk (chains are oldest -> newest; write locks serialize the
/// writers of one atom, so pending entries only ever sit at the tail):
/// the first entry that is NOT visible to the view (pending by another
/// transaction, or committed after the view's seq) carries the value the
/// view must see — its before-image, or "no atom" for an insert. If every
/// entry is visible, the current base record is the answer.
class VersionStore {
 public:
  VersionStore();

  /// One pinned read view. Destroying the pin releases it and lets the
  /// store retire entries the view was holding.
  class Pin {
   public:
    ~Pin();
    const ReadView& view() const { return view_; }

   private:
    friend class VersionStore;
    VersionStore* store_ = nullptr;
    ReadView view_;
  };

  /// Install a pending version for `tid`, written by top-level transaction
  /// `txn`. `before` is the atom's image prior to this mutation; nullptr
  /// for an insert (the atom did not exist before). Must be called BEFORE
  /// the base record is overwritten.
  void Install(uint64_t txn, const Tid& tid, const Atom* before);

  /// Stamp every pending entry of `txn` with the next commit sequence and
  /// publish it. `wal_lsn` is the transaction's commit LSN (0 unlogged),
  /// kept so a pinned snapshot is diagnosable in WAL terms. Returns the
  /// assigned sequence (0 when the transaction installed nothing).
  ///
  /// A top-level abort publishes too, once its compensations have
  /// restored every base record (with wal_lsn 0): each entry then records
  /// a change from its before-image to that same restored value. Views
  /// pinned before the abort resolve through the entry to the before-image,
  /// so a record a reader fetched while it still held the aborted value is
  /// never trusted; views pinned after it read the restored base. Dropping
  /// the entries instead would leave such a reader with no chain to find.
  uint64_t Publish(uint64_t txn, uint64_t wal_lsn);

  /// Pin a read view at the current commit clock. Thread-safe.
  std::shared_ptr<Pin> OpenSnapshot(uint64_t own_txn);

  /// How a read of `tid` resolves against a view.
  enum class Outcome : uint8_t {
    kCurrent,    ///< the current base record is the visible version
    kBefore,     ///< the visible version is `before` (base is too new)
    kInvisible,  ///< the atom does not exist in this view
  };
  struct Resolution {
    Outcome outcome = Outcome::kCurrent;
    std::optional<Atom> before;
  };
  Resolution Resolve(const Tid& tid, const ReadView& view);

  /// True when no chains are live (fast reject for readers; also the
  /// "retires to empty" acceptance gauge).
  bool Empty() const {
    return retained_.load(std::memory_order_acquire) == 0;
  }

  /// Packed tids of type `type` that currently carry a chain, sorted.
  /// A cursor's ghost pass resolves these to recover atoms the base-record
  /// index/scan no longer surfaces (deleted, or moved out of the scanned
  /// key range, after its view was pinned).
  std::vector<uint64_t> ChainedTids(AtomTypeId type) const;

  VersionStoreStats& stats() { return stats_; }
  VersionStoreStatsSnapshot StatsSnapshot() const;

  uint64_t commit_seq() const {
    return last_seq_.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    uint64_t txn = 0;
    uint64_t seq = 0;      ///< 0 = pending (uncommitted)
    uint64_t wal_lsn = 0;  ///< commit LSN once stamped
    bool has_before = false;
    Atom before;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> chains;  ///< packed tid
  };
  static constexpr size_t kShards = 16;

  Shard& ShardFor(uint64_t packed) const {
    return shards_[(packed * 0x9E3779B97F4A7C15ull) >> 60 & (kShards - 1)];
  }

  void ReleasePin(const ReadView& view);
  /// Trim every stamped entry all live pins can already see. Caller must
  /// NOT hold any shard mutex.
  void Retire();

  mutable std::unique_ptr<Shard[]> shards_;

  /// Commit clock. Stamping happens entirely before the release-store that
  /// publishes the new sequence, so a reader that observes seq S finds
  /// every entry of every transaction with seq <= S fully stamped.
  std::atomic<uint64_t> last_seq_{0};
  std::atomic<int64_t> retained_{0};
  std::mutex commit_mu_;
  /// Highest commit LSN seen; atomic so pin-open never nests into
  /// commit_mu_ (Publish calls Retire, which takes pins_mu_ — the reverse
  /// nesting would deadlock).
  std::atomic<uint64_t> last_lsn_{0};

  /// Per-transaction index of installed (pending) entries, so Publish
  /// touches only the transaction's own chains.
  std::mutex txns_mu_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> pending_by_txn_;

  /// Stamped entries in commit order, awaiting retirement.
  struct Tomb {
    uint64_t packed = 0;
    uint64_t seq = 0;
  };
  std::mutex retire_mu_;
  std::deque<Tomb> graveyard_;
  /// graveyard_.size() as of the last change, read without retire_mu_.
  std::atomic<size_t> buried_{0};

  /// Live pins: seq -> {count, wal_lsn at pin time}.
  struct PinInfo {
    uint64_t count = 0;
    uint64_t lsn = 0;
  };
  mutable std::mutex pins_mu_;
  std::map<uint64_t, PinInfo> pins_;

  VersionStoreStats stats_;
};

}  // namespace prima::access

#endif  // PRIMA_ACCESS_VERSION_STORE_H_
