#ifndef PRIMA_RECOVERY_RECOVERY_MANAGER_H_
#define PRIMA_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "access/access_system.h"
#include "recovery/log_record.h"
#include "recovery/wal_writer.h"
#include "storage/storage_system.h"
#include "util/status.h"

namespace prima::recovery {

/// ARIES-style restart recovery over the PRIMA stack, adapted to its split
/// of state: page-resident data (record files, B-trees, grids, blobs) is
/// repeated by physiological redo, while the memory-resident address table
/// and the deferred-update queue are repeated by atom-level fixups.
///
/// Restart protocol (driven by Prima::Open, or manually in tests):
///   1. StorageSystem::Open()   — load last-flushed segment metadata
///   2. WalWriter::Open()       — master record, find end of log
///   3. AnalyzeAndRedo()        — scan: txn table + segment metadata, then
///                                repeat page history (parallel apply)
///   4. AccessSystem::Open()    — load catalog/address blobs (now redone)
///   5. UndoAndFixup(access)    — address-table fixups in log order, then
///                                roll back losers (CLR-logged), then
///                                re-enqueue lost deferred redundancy
///   6. Checkpoint(access)      — make the recovered state durable
///
/// Parallel redo: the scan (single-threaded — the log is one stream) keeps
/// every record with global-order semantics inline (segment-metadata redo,
/// the transaction table, atom undo/fixup collection) and partitions the
/// page-redo records into per-page chains. Records for one page replay in
/// log order inside their chain; chains for different pages are independent
/// (physiological redo never spans pages), so the apply phase fans them out
/// over a util::ThreadPool of `redo_threads` workers. The partition makes
/// the result bit-identical to serial replay for every thread count.
class RecoveryManager {
 public:
  struct Stats {
    uint64_t records_scanned = 0;
    uint64_t redo_applied = 0;
    uint64_t redo_skipped = 0;   ///< page-LSN already current
    uint64_t redo_chains = 0;    ///< distinct pages with redo work
    uint64_t redo_threads = 0;   ///< workers the apply phase fanned out to
    uint64_t segmeta_applied = 0;
    /// Crash-torn newborn segment files replay never reinstated — deleted
    /// as residue (see StorageSystem::DropUnrecoveredSegments).
    uint64_t torn_segments_dropped = 0;
    uint64_t fixups_applied = 0;
    uint64_t struct_roots_applied = 0;  ///< index root/meta re-points
    uint64_t loser_txns = 0;
    uint64_t undo_applied = 0;
    uint64_t checkpoints = 0;
  };

  /// `redo_threads` sizes the parallel apply phase: 1 = serial replay on
  /// the calling thread (no pool), 0 = one worker per CPU this process may
  /// run on (serial when that is one).
  RecoveryManager(storage::StorageSystem* storage, WalWriter* wal,
                  size_t redo_threads = 1)
      : storage_(storage), wal_(wal), redo_threads_(redo_threads) {}

  /// Phases 1+2: scan from the undo floor of the last checkpoint, building
  /// the transaction table and applying every page/segment-metadata redo
  /// record whose target is older than the record (repeating history).
  util::Status AnalyzeAndRedo();

  /// Media recovery: replay history from a FUZZY BACKUP's start point
  /// instead of the last checkpoint. Runs in AnalyzeAndRedo's slot of the
  /// restart protocol, after BackupManager::Restore rewrote the destroyed
  /// data device from the dump (and before AccessSystem::Open); the
  /// remaining phases (UndoAndFixup, post-recovery Checkpoint) are
  /// unchanged. `dump_start_lsn` is the dump's recorded start LSN — the
  /// checkpoint the dumped page images are guaranteed to reflect; the scan
  /// reaches from its undo floor through the archived log into the live
  /// WAL. Fails with Corruption if the archive + live WAL no longer cover
  /// that far back (the dump predates the archive base).
  util::Status MediaRecover(uint64_t dump_start_lsn);

  /// Phase 3: replay address-table fixups in log order, undo every loser
  /// transaction via the access layer (writing compensation records), and
  /// re-enqueue the deferred redundancy the crash dropped.
  util::Status UndoAndFixup(access::AccessSystem* access);

  /// One past the highest transaction id seen in the scan window. New
  /// transaction ids must start here — a reused id would collide with
  /// same-id records still inside the window at the next restart.
  uint64_t next_txn_id() const { return max_txn_id_ + 1; }

  /// True when AnalyzeAndRedo/UndoAndFixup changed anything — callers use
  /// it to decide whether a post-recovery checkpoint is worth taking.
  bool recovered() const {
    return stats_.redo_applied > 0 || stats_.segmeta_applied > 0 ||
           stats_.loser_txns > 0;
  }

  /// Fuzzy checkpoint: bracket a full flush (deferred-update drain,
  /// metadata persist, dirty-page write-back — each write-back forcing the
  /// log per the WAL rule) with checkpoint records, then commit it via the
  /// master record. Shortens the next restart's scan to this point, and —
  /// with a bounded WAL — atomically retires every log block below the
  /// checkpoint's undo floor for recycling (circular log truncation).
  util::Status Checkpoint(access::AccessSystem* access);

  const Stats& stats() const { return stats_; }

 private:
  struct TxnState {
    uint64_t first_lsn = 0;
    bool finished = false;             ///< saw kCommit or kAbort
    std::vector<size_t> undo_stack;    ///< indexes into atom_recs_
  };

  /// Shared body of AnalyzeAndRedo (ckpt = the log's last checkpoint) and
  /// MediaRecover (ckpt = the dump's recorded start point): the serial
  /// partitioning scan followed by the parallel chain apply.
  util::Status AnalyzeAndRedoFrom(uint64_t ckpt_lsn);

  /// One page's redo chain, in log order (the scan appends as it goes).
  struct PageChain {
    uint32_t page_size = 0;
    std::vector<LogRecord> recs;
  };

  /// Apply phase: fan `chains` out over `redo_threads_` pool workers (or
  /// replay inline when effectively serial), aggregate counters and torn
  /// pages, and return the lowest-LSN failure when any chain errored.
  util::Status ApplyRedoChains(
      std::map<std::pair<uint32_t, uint32_t>, PageChain>* chains);

  storage::StorageSystem* storage_;
  WalWriter* wal_;
  const size_t redo_threads_;

  /// Serializes Checkpoint(): the daemon, foreground Flush() callers, and
  /// the NoSpace-retry path may all ask for one concurrently, and the
  /// checkpoint window (SetCheckpointWindow) is one-at-a-time state.
  std::mutex ckpt_mu_;

  uint64_t ckpt_lsn_ = 0;
  uint64_t max_txn_id_ = 0;
  /// Pages whose on-device image is torn and whose full-image record has
  /// not been reached yet. Non-empty after the scan = unrecoverable.
  std::set<std::pair<uint32_t, uint32_t>> torn_pages_;
  std::vector<LogRecord> atom_recs_;   ///< every kAtomUndo, in scan order
  /// (structure id, new root/meta page) in scan order — replayed onto the
  /// recovered catalog before undo (a stale persisted root would orphan
  /// every index key that migrated in a post-checkpoint split).
  std::vector<std::pair<uint32_t, uint32_t>> struct_roots_;
  std::map<uint64_t, TxnState> txns_;
  Stats stats_;
};

}  // namespace prima::recovery

#endif  // PRIMA_RECOVERY_RECOVERY_MANAGER_H_
