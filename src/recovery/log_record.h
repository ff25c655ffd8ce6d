#ifndef PRIMA_RECOVERY_LOG_RECORD_H_
#define PRIMA_RECOVERY_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace prima::recovery {

/// Typed write-ahead log records. The log is the union of three concerns:
///  - transaction outcome (begin / commit / abort),
///  - repeating history (physiological page redo + segment metadata redo),
///  - rollback (atom-level undo with before images, compensation markers),
/// plus the fuzzy-checkpoint brackets that bound the restart scan.
enum class LogRecordType : uint8_t {
  kBegin = 1,            ///< top-level transaction started
  kCommit = 2,           ///< top-level transaction committed (force point)
  kAbort = 3,            ///< top-level transaction fully rolled back
  kPageRedo = 4,         ///< physiological redo: changed byte ranges of a page
  kSegMeta = 5,          ///< segment bookkeeping redo (page_count, free list)
  kAtomUndo = 6,         ///< atom-level undo/fixup: op, tid, rid, before image
  kCompensation = 7,     ///< n most recent undo entries of txn were compensated
  kCheckpointBegin = 8,  ///< fuzzy checkpoint start: active txns, undo floor
  kCheckpointEnd = 9,    ///< fuzzy checkpoint completed
  kStructRoot = 10,      ///< access structure's root/meta page moved
  /// Full page image: kPageRedo's encoding, but the ranges are the page's
  /// non-zero runs and redo zeroes the page before installing them, so
  /// the record rebuilds the page whatever the device holds (torn-page
  /// repair) without logging the page's free space.
  kPageImage = 11,
};

/// Atom operation kinds mirrored from access::UndoRecord.
/// Recovery cannot include access headers (access already depends on
/// recovery), so the op travels as a plain byte.
enum class AtomOp : uint8_t { kInsert = 0, kModify = 1, kDelete = 2 };

/// One log record; a tagged union over all record types. Only the fields of
/// the active type are meaningful. `lsn` is assigned by the WalWriter on
/// append and recovered by the reader on scan — it is not serialized.
struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  uint64_t lsn = 0;
  uint64_t txn_id = 0;  ///< top-level transaction, 0 = system/auto-commit

  // --- kPageRedo / kPageImage ----------------------------------------------
  struct ByteRange {
    uint32_t offset = 0;
    std::string bytes;
  };
  uint32_t segment = 0;
  uint32_t page = 0;
  uint32_t page_size = 0;
  std::vector<ByteRange> ranges;

  // --- kSegMeta ------------------------------------------------------------
  uint8_t page_size_code = 0;
  uint32_t page_count = 0;
  uint32_t free_head = 0;

  // --- kStructRoot ---------------------------------------------------------
  // A B-tree root split/collapse (or a grid file's meta-page assignment)
  // moved an access structure's entry page. The catalog records the new
  // root only in memory and persists it wholesale at the next checkpoint,
  // so without this record a crash reattaches the structure at its
  // checkpoint-time root and every key that migrated above it silently
  // vanishes from index lookups (while scans still see the atoms). Restart
  // replays these in log order — last one wins — before undo needs the
  // structures. Reuses `segment` as the structure id and `page` as the new
  // root page.

  // --- kAtomUndo -----------------------------------------------------------
  AtomOp op = AtomOp::kModify;
  bool clr = false;     ///< compensation write (redo-only, never undone)
  uint64_t tid = 0;     ///< packed surrogate
  uint64_t rid = 0;     ///< packed base-record id after the operation
  std::string before;   ///< encoded before image (kModify / kDelete)

  // --- kCompensation -------------------------------------------------------
  uint32_t undo_count = 0;  ///< undo entries cancelled (aborted subtree)
  /// LSNs of the exact kAtomUndo records compensated. A bare count would
  /// mis-cancel when a parent's operations interleave with an active
  /// child's (the child's records are not necessarily the stream's tail).
  std::vector<uint64_t> comp_lsns;

  // --- kCheckpointBegin ----------------------------------------------------
  /// (txn id, first LSN) of every transaction active at checkpoint begin.
  std::vector<std::pair<uint64_t, uint64_t>> active_txns;
  /// Restart must scan from here to see every loser's undo records.
  uint64_t undo_low_lsn = 0;

  /// Serialize the record body (everything except lsn).
  void EncodeInto(std::string* out) const;
  /// Inverse of EncodeInto; fails on malformed bytes.
  static util::Result<LogRecord> Decode(util::Slice in);

  // --- convenience constructors -------------------------------------------

  static LogRecord Begin(uint64_t txn);
  static LogRecord Commit(uint64_t txn);
  static LogRecord Abort(uint64_t txn);
  static LogRecord SegMeta(uint32_t segment, uint8_t page_size_code,
                           uint32_t page_count, uint32_t free_head);
  static LogRecord Compensation(uint64_t txn, std::vector<uint64_t> lsns);
  static LogRecord StructRoot(uint32_t structure_id, uint32_t root_page);
};

/// Compute the changed byte ranges between two page images, excluding
/// [0,4) (checksum, recomputed on write-back) and [24,32) (page-LSN,
/// stamped with this record's own LSN). A changed run extends over gaps of
/// fewer than 8 equal bytes, so the framing overhead stays small. Returns an
/// empty vector when the images agree outside the excluded fields.
///
/// Equal bytes are skipped eight at a time (this runs on every release of a
/// page guard that changed its page), but the ranges are exactly those of a
/// byte-by-byte scan, so `kPageRedo` records do not depend on the scan.
std::vector<LogRecord::ByteRange> DiffPageImages(const char* before,
                                                 const char* after,
                                                 uint32_t page_size);

}  // namespace prima::recovery

#endif  // PRIMA_RECOVERY_LOG_RECORD_H_
