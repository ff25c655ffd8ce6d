#ifndef PRIMA_RECOVERY_WAL_WRITER_H_
#define PRIMA_RECOVERY_WAL_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <memory>

#include "obs/counter.h"
#include "recovery/log_archiver.h"
#include "recovery/log_record.h"
#include "storage/block_device.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/status.h"

namespace prima::obs {
class Histogram;
}  // namespace prima::obs

namespace prima::recovery {

struct WalStats {
  obs::Counter records_appended;
  obs::Counter bytes_appended;
  obs::Counter forces;              ///< device write batches
  obs::Counter blocks_forced;
  obs::Counter records_forced;      ///< records made durable by forces
  obs::Counter commits_forced;      ///< kCommit records among them
  obs::Counter auto_checkpoints;    ///< checkpoints the daemon took on its
                                    ///< ring-fraction trigger
  obs::Counter archived_bytes;      ///< WAL bytes copied to the archive
                                    ///< before truncation recycled them
  /// Payload bytes of full-page-image records (torn-page protection logs a
  /// complete image on each page's first change per checkpoint epoch). The
  /// FPI share of bytes_appended is the log-volume inflation frequent
  /// checkpoints cause on hot pages — the gauge the batching/compression
  /// follow-on needs.
  obs::Counter full_page_image_bytes;
  /// Bytes forces spent sealing their tail block (pad fragments and the
  /// zero tails too short for one): the price of write-once durable
  /// blocks, below kBlockSize per force.
  obs::Counter pad_bytes;

  /// Records per force > 1 means group commit is batching.
  double GroupCommitFactor() const {
    const uint64_t f = forces;
    return f == 0 ? 0.0 : static_cast<double>(records_forced) / f;
  }
  /// Commits per force > 1 means concurrent committers share device writes.
  double CommitsPerForce() const {
    const uint64_t f = forces;
    return f == 0 ? 0.0 : static_cast<double>(commits_forced) / f;
  }
};

inline constexpr obs::CounterDef<WalStats> kWalCounters[] = {
    {&WalStats::records_appended, "prima_wal_records_appended", "log records appended"},
    {&WalStats::bytes_appended, "prima_wal_bytes_appended", "log payload bytes appended"},
    {&WalStats::forces, "prima_wal_forces", "log device write batches"},
    {&WalStats::blocks_forced, "prima_wal_blocks_forced", "log blocks written by forces"},
    {&WalStats::records_forced, "prima_wal_records_forced", "records made durable by forces"},
    {&WalStats::commits_forced, "prima_wal_commits_forced", "commit records made durable by forces"},
    {&WalStats::auto_checkpoints, "prima_wal_auto_checkpoints", "checkpoints the daemon took"},
    {&WalStats::archived_bytes, "prima_wal_archived_bytes", "log bytes copied to the archive"},
    {&WalStats::full_page_image_bytes, "prima_wal_full_page_image_bytes", "payload bytes of full-page-image records"},
    {&WalStats::pad_bytes, "prima_wal_pad_bytes", "bytes of pad fragments and zero tails written by forces"},
};

/// The log's counters plus the derived footprint numbers — what
/// Prima::wal_stats() hands to benchmarks and monitoring.
struct WalStatsSnapshot : WalStats {
  /// Page redo records the LAST recovery of this database installed (zero
  /// on a clean open). Filled by Prima::wal_stats() from RecoveryManager —
  /// the log itself never replays anything.
  uint64_t redo_records_applied = 0;
  double records_per_force = 0.0;
  double commits_per_force = 0.0;
  uint64_t live_bytes = 0;       ///< append_lsn - truncate_lsn
  uint64_t footprint_bytes = 0;  ///< device bytes the log occupies
  uint64_t capacity_bytes = 0;   ///< ring capacity (0 = unbounded)
  /// Transactions with a begin but no commit/abort yet, and the begin-LSN
  /// of the oldest of them (meaningful only when active_txns > 0 — LSN 0
  /// is a legitimate begin position on a fresh log). The undo floor can
  /// never pass that LSN: a long-running transaction pinning it far back
  /// stops truncation from freeing ring space, and a small ring wedges
  /// (checkpoints stop helping) until it finishes — watch this when
  /// NoSpace appears despite automatic checkpoints.
  uint64_t active_txns = 0;
  uint64_t oldest_active_lsn = 0;
};

/// WalWriter tuning knobs (plumbed from PrimaOptions).
struct WalOptions {
  /// Cap on the WAL file size. 0 = unbounded append-only log (the log file
  /// only grows). Non-zero turns the segment into a circular log of
  /// max_bytes/kBlockSize - 2 data blocks (at least 64 KiB): after a
  /// checkpoint commits via the master record, blocks below the
  /// checkpoint's undo floor are recycled and appends wrap around onto
  /// them. When the live window (append_lsn - truncate_lsn) would overflow
  /// the ring, forces fail with NoSpace until a checkpoint truncates —
  /// a headroom reserve is kept back so the checkpoint itself can always
  /// log and force its way through (see SetCheckpointWindow).
  uint64_t max_bytes = 0;

  /// Archive WAL blocks before truncation recycles them: every checkpoint's
  /// master write first copies the blocks it is about to retire into the
  /// append-only archive file (kArchiveSegmentId, CRC-framed with absolute
  /// stream offsets), keeping the whole log history readable for media
  /// recovery. Scans below the truncation floor then read transparently
  /// from the archive. Once an archive file exists it is honored on every
  /// reopen regardless of this flag, so coverage never silently gaps;
  /// enabling it on a log whose truncation already recycled blocks starts
  /// the archive at the current floor.
  bool archive = false;
};

/// The write-ahead log: a stream of CRC32-framed LogRecords stored in a
/// dedicated block-device file (kWalSegmentId).
///
/// On-disk layout
/// --------------
/// Blocks 0 and 1 are two alternating master-record slots. Each slot:
///
///   [0,4)   magic "PWAL"
///   [4,8)   format version (3: 512-byte blocks; earlier formats used
///           4096-byte blocks and are refused on open)
///   [8,16)  checkpoint_lsn — LSN of the last completed checkpoint's
///           kCheckpointBegin record (0 = never checkpointed); restart
///           recovery scans forward from here
///   [16,24) truncate_lsn — the checkpoint's undo floor; every log byte
///           below it is dead and its blocks may be recycled. Writing the
///           master is the atomic commit point of both the checkpoint and
///           the truncation: a crash before the write leaves the previous
///           checkpoint (and its floor) in charge
///   [24,32) ring_bytes — circular-log capacity recorded at creation
///           (0 = unbounded). Persisted so reopen maps LSNs to blocks with
///           the same geometry regardless of the current options
///   [32,40) master_seq — monotonically increasing write counter
///   [40,44) CRC32 over bytes [0,40)
///
/// Successive master writes alternate between the two slots; Open takes
/// the valid slot with the higher master_seq. A torn master write can
/// therefore destroy at most the slot being written — the previous
/// checkpoint's slot survives intact. (With a single in-place slot, a
/// torn master write on a WRAPPED circular log would silently discard the
/// whole database: checkpoint 0 + stale-CRC early blocks = empty log.)
///
/// Every block is kBlockSize = 512 bytes, PRIMA's smallest page size
/// (storage/page.h): a force seals its tail block, so the block is the
/// padding unit, and a lone commit writes ~1 KiB of log, not 4 KiB.
///
/// Blocks 2.. hold the log stream. An LSN is a byte offset into that
/// stream and NEVER wraps — only the physical mapping does:
///
///   unbounded:  block(lsn) = 2 +  lsn/kBlockSize
///   circular:   block(lsn) = 2 + (lsn/kBlockSize) % ring_blocks
///
/// Within a block, records are packed as fragments
/// `[crc32][len:u16][kind:u8][payload]`, where kind distinguishes
/// full / first / middle / last so records may span blocks (a fragment
/// never does). The CRC is seeded with the fragment's absolute stream
/// offset, then covers kind + payload: besides torn writes and misframed
/// garbage, this rejects STALE data from a previous lap of the ring — a
/// recycled block still holds old fragments with valid-looking framing,
/// but their CRCs were computed with a stream offset ring_bytes*k smaller,
/// so the scan terminates exactly at the durable end of log without any
/// per-block sequence numbers. Block tails shorter than a fragment header
/// are zero-padded; a zeroed header marks the never-written end of log.
///
/// Appends go to an in-memory group-commit buffer. A force seals the tail
/// block with a pad fragment, swaps the buffer out under the mutex, and
/// performs the chained device write + fsync with the mutex RELEASED, so
/// concurrent Append callers never block on device I/O; committers queued
/// behind an in-flight force are absorbed into the next batch.
class WalWriter : public storage::WriteAheadLog {
 public:
  static constexpr uint32_t kBlockSize = 512;
  /// Floor on the circular capacity: the ring must hold at least one
  /// maximum-size record (an 8K full-page image spans 17 blocks) plus
  /// checkpoint brackets plus the checkpoint reserve.
  static constexpr uint64_t kMinRingBytes = 64u << 10;
  /// Headroom non-checkpoint forces leave free in a ring:
  /// max(kForceReserveBytes, capacity/4), so the checkpoint that will
  /// truncate can always log and force its way through.
  static constexpr uint64_t kForceReserveBytes = 32u << 10;

  explicit WalWriter(storage::BlockDevice* device,
                     storage::SegmentId file = storage::kWalSegmentId);
  WalWriter(storage::BlockDevice* device, WalOptions options,
            storage::SegmentId file = storage::kWalSegmentId);

  /// Create the log file if absent (persisting the ring geometry in an
  /// initial master record); otherwise read the master record and scan
  /// forward from the checkpoint to locate the durable end of log (where
  /// appending resumes). For an existing file the persisted ring geometry
  /// is authoritative — a differing WalOptions::max_bytes is ignored.
  util::Status Open();

  // --- appending -----------------------------------------------------------

  /// Append a record to the group-commit buffer; returns its LSN. The
  /// record is durable only after a force reaches it.
  uint64_t Append(const LogRecord& rec);

  // storage::WriteAheadLog (the storage layer's view):
  uint64_t LogPageDelta(storage::SegmentId segment, uint32_t page,
                        uint32_t page_size, const char* before,
                        const char* after) override;
  uint64_t LogFullPage(storage::SegmentId segment, uint32_t page,
                       uint32_t page_size, const char* after) override;
  uint64_t LogSegmentMeta(storage::SegmentId segment, uint8_t page_size_code,
                          uint32_t page_count, uint32_t free_head) override;
  util::Status ForceUpTo(uint64_t lsn) override;
  uint64_t durable_lsn() const override { return durable_lsn_.load(); }
  uint64_t append_lsn() const override { return append_lsn_.load(); }
  uint64_t epoch() const override { return epoch_.load(); }

  /// Commit-path force: make the log durable up to `lsn`, timed into the
  /// commit-wait histogram and the statement's trace. Concurrent committers
  /// share forces: one in flight makes the others wait, and the next one
  /// covers every record appended meanwhile. The device write itself
  /// happens with the buffer mutex released, so appenders keep running
  /// during the fsync.
  util::Status CommitForce(uint64_t lsn);

  /// Force everything appended so far.
  util::Status ForceAll();

  // --- checkpoint plumbing -------------------------------------------------

  /// LSN of the last completed checkpoint's kCheckpointBegin record
  /// (0 = never checkpointed). Atomic: BackupManager snapshots it from the
  /// dumping thread while the checkpoint daemon's WriteMaster advances it.
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_.load(); }

  /// Oldest live LSN: log bytes below it are recyclable (circular mode)
  /// and are never scanned again. Atomic: the checkpoint daemon polls it
  /// against append_lsn() while WriteMaster advances it.
  uint64_t truncate_lsn() const { return truncate_lsn_.load(); }

  /// Persist the master record pointing at `checkpoint_begin_lsn`, and
  /// advance the truncation floor to `truncate_up_to` (the checkpoint's
  /// undo floor; 0 or a regressing value leaves the floor unchanged).
  /// Called after kCheckpointEnd is forced; the master write is the atomic
  /// commit point of the checkpoint AND of the block recycling.
  util::Status WriteMaster(uint64_t checkpoint_begin_lsn,
                           uint64_t truncate_up_to = 0);

  /// While set, forces LED BY THE CALLING THREAD may consume the capacity
  /// headroom reserved for checkpointing. RecoveryManager::Checkpoint
  /// brackets its fuzzy window with this so a log that already refuses
  /// commit forces with NoSpace can still log + force the checkpoint that
  /// will truncate it. The bypass is scoped to the registering thread:
  /// concurrent committers keep hitting the reserve, otherwise they could
  /// consume the headroom mid-checkpoint and wedge the ring for good.
  void SetCheckpointWindow(bool active);

  /// Transactions with a kBegin but no kCommit/kAbort yet, with the LSN of
  /// their begin record (the undo floor for fuzzy checkpoints).
  std::vector<std::pair<uint64_t, uint64_t>> ActiveTxns() const;

  // --- reading -------------------------------------------------------------

  /// Invoke `fn` for every durable record from LSN `from` (which must be a
  /// record start, e.g. 0 or a checkpoint LSN, and must not lie below the
  /// truncation floor — those blocks may have been recycled) to the
  /// recovered end of log. A CRC failure (torn tail, or stale bytes from a
  /// previous ring lap) or zeroed tail terminates the scan normally; a
  /// non-OK status from `fn` aborts it. When `end_lsn` is non-null it
  /// receives the stream offset just past the last complete record — the
  /// safe append resume point (dangling fragments of a torn record are
  /// overwritten).
  util::Status Scan(uint64_t from,
                    const std::function<util::Status(const LogRecord&)>& fn,
                    uint64_t* end_lsn = nullptr) const;

  WalStats& stats() { return stats_; }
  /// Copyable counters + footprint numbers for reporting.
  WalStatsSnapshot StatsSnapshot() const;

  /// Observe every CommitForce wait (microseconds) in `h`. The histogram
  /// must outlive the writer (Prima owns both and declares telemetry
  /// first). Null disables recording. Set before concurrent commits start.
  void SetForceWaitHistogram(obs::Histogram* h) { force_wait_hist_ = h; }

  /// Ring capacity in bytes (0 = unbounded).
  uint64_t capacity_bytes() const {
    return static_cast<uint64_t>(ring_blocks_) * kBlockSize;
  }

  // --- archiving -----------------------------------------------------------

  /// The log archive, when archiving is active (WalOptions::archive, or an
  /// archive file already on the device). Null otherwise.
  LogArchiver* archiver() const { return archiver_.get(); }

  /// Lowest stream offset from which Scan can read contiguously through to
  /// the durable end of log: the archive base when the archive extends the
  /// recycled prefix, otherwise the truncation floor's block start (0 for
  /// an unbounded log, whose blocks are never recycled). Media recovery
  /// must not replay from below this.
  uint64_t ScanFloor() const;

 private:
  // Fragment kinds (leveldb-style record fragmentation). kPad seals the
  // rest of a block on force so a later force never rewrites durable bytes
  // in place — a torn rewrite could otherwise corrupt already-acknowledged
  // commits.
  enum FragKind : uint8_t { kFull = 1, kFirst = 2, kMiddle = 3, kLast = 4,
                            kPad = 5 };
  static constexpr uint32_t kFragHeader = 7;  // crc32 + len:u16 + kind:u8
  static constexpr uint32_t kMasterMagic = 0x5057414Cu;  // "PWAL"
  static constexpr uint32_t kFormatVersion = 3;
  static constexpr uint32_t kMasterSlots = 2;  // alternating master blocks

  // Stream offset -> device block (wraparound-aware) / in-block offset.
  uint64_t BlockOf(uint64_t lsn) const { return BlockAt(lsn / kBlockSize); }
  uint64_t BlockAt(uint64_t logical_block) const {
    return kMasterSlots + (ring_blocks_ == 0 ? logical_block
                                             : logical_block % ring_blocks_);
  }
  static uint32_t OffsetIn(uint64_t lsn) {
    return static_cast<uint32_t>(lsn % kBlockSize);
  }
  // Fragment CRC, seeded with the fragment's absolute stream offset (see
  // class comment: rejects stale previous-lap data in circular mode).
  static uint32_t FragCrc(uint64_t frag_lsn, uint8_t kind, const char* payload,
                          size_t len);

  // Append raw serialized record bytes as fragments. Caller holds mu_.
  uint64_t AppendPayloadLocked(const std::string& payload);
  // Build + write + sync one master slot. No locks taken; callers
  // serialize via master_mu_ (or run pre-concurrency, in Open).
  util::Status WriteMasterSlot(uint32_t slot, uint64_t checkpoint_begin_lsn,
                               uint64_t truncate_lsn, uint64_t seq);
  // Seal the trailing partial block of pending_ with a pad fragment.
  // Caller holds mu_.
  void SealTailLocked();
  // Copy every not-yet-archived block below `new_floor`'s block into the
  // archive and sync it. Caller holds master_mu_ (never mu_ — the copies
  // read durable, write-once blocks straight off the device).
  util::Status ArchiveUpTo(uint64_t new_floor);
  // Wait out any in-flight force, then lead one if `lsn` is still not
  // durable. `lk` owns mu_ on entry and exit.
  util::Status ForceLocked(std::unique_lock<std::mutex>& lk, uint64_t lsn);
  // Perform one force as the leader: capacity check + seal + buffer swap
  // under the lock, chained write + fsync with the lock RELEASED, then
  // publish durable_lsn_ and wake every waiter. `lk` owns mu_ on entry and
  // exit; flushing_ must be false on entry.
  util::Status FlushAsLeaderLocked(std::unique_lock<std::mutex>& lk);
  util::Status SyncDevice();

  storage::BlockDevice* device_;
  const WalOptions options_;
  const storage::SegmentId file_;
  std::unique_ptr<LogArchiver> archiver_;  ///< null = archiving off

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< force completion
  bool flushing_ = false;       ///< a leader is writing outside the lock
  // Thread currently allowed to consume the checkpoint reserve (forces it
  // leads skip the headroom check); default-constructed id = none.
  std::thread::id ckpt_thread_;
  std::mutex master_mu_;  ///< serializes master-slot writers
  // Unforced stream bytes from stream offset pending_base_ (block-aligned;
  // the first block may already be partially durable after a torn-tail
  // reopen and is rewritten whole).
  std::string pending_;
  uint64_t pending_base_ = 0;
  uint64_t pending_records_ = 0;
  uint64_t pending_commits_ = 0;
  std::atomic<uint64_t> append_lsn_{0};
  std::atomic<uint64_t> durable_lsn_{0};
  // Starts above any frame's wal_epoch (0) so the first logged change of
  // every page ships a full image.
  std::atomic<uint64_t> epoch_{1};
  // Both atomic so lock-free readers stay clean against the checkpoint
  // daemon (threshold polls read truncate_lsn_, backup snapshots read
  // checkpoint_lsn_); every write still happens under mu_.
  std::atomic<uint64_t> checkpoint_lsn_{0};
  std::atomic<uint64_t> truncate_lsn_{0};
  uint64_t master_seq_ = 0;    ///< seq of the live master slot
  uint32_t master_slot_ = 0;   ///< slot the NEXT master write targets
  uint32_t ring_blocks_ = 0;  ///< data blocks in the ring; 0 = unbounded

  // txn id -> LSN of its begin record, maintained on append.
  std::map<uint64_t, uint64_t> active_txns_;

  WalStats stats_;
  obs::Histogram* force_wait_hist_ = nullptr;
};

}  // namespace prima::recovery

#endif  // PRIMA_RECOVERY_WAL_WRITER_H_
