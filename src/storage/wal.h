#ifndef PRIMA_STORAGE_WAL_H_
#define PRIMA_STORAGE_WAL_H_

#include <cstdint>

#include "storage/page.h"
#include "util/status.h"

namespace prima::storage {

/// The block-device file holding the write-ahead log. Not a data segment:
/// StorageSystem::Open skips it and it never appears in ListSegments().
inline constexpr SegmentId kWalSegmentId = 0xFFFFFFFFu;

/// The append-only log archive: WAL blocks are copied here before circular
/// truncation recycles them, so the full log history stays readable for
/// media recovery (recovery::LogArchiver owns the format).
inline constexpr SegmentId kArchiveSegmentId = 0xFFFFFFFEu;

/// The fuzzy-backup dump files (recovery::BackupManager owns the format).
/// Two alternating slots, like the WAL's dual master slots: a new dump is
/// written into the slot NOT holding the newest committed dump, so a crash
/// mid-backup can never destroy the last good one. They model separate
/// backup media: destroying every data segment while these (plus WAL +
/// archive) survive is the media-recovery scenario.
inline constexpr SegmentId kBackupSegmentId = 0xFFFFFFFDu;
inline constexpr SegmentId kBackupAltSegmentId = 0xFFFFFFFCu;

/// Files the storage layer must never treat as data segments (the WAL, the
/// log archive, and the backup dumps live at the top of the id space).
inline constexpr bool IsReservedFileId(SegmentId id) {
  return id >= kBackupAltSegmentId;
}

/// The storage layer's view of the write-ahead log (implemented by
/// recovery::WalWriter). Kept abstract here so storage/ does not depend on
/// recovery/ headers: the buffer manager only needs the WAL rule primitives
/// (force before write-back), and PageGuard only needs to append
/// physiological redo for the page bytes it changed.
class WriteAheadLog {
 public:
  virtual ~WriteAheadLog() = default;

  /// Append a physiological redo record for the byte ranges that differ
  /// between `before` and `after` (both `page_size` bytes). The page-LSN and
  /// checksum header fields are excluded from the diff — the caller stamps
  /// the returned LSN into the header, and checksums are recomputed at
  /// write-back. Returns the record's LSN, or 0 when the images are
  /// identical outside those fields (nothing logged).
  virtual uint64_t LogPageDelta(SegmentId segment, uint32_t page,
                                uint32_t page_size, const char* before,
                                const char* after) = 0;

  /// Append a physiological redo record carrying the complete page image
  /// (excluding checksum and page-LSN fields). Used for freshly formatted
  /// pages, whose prior on-device bytes are unknown to the buffer — a delta
  /// against the in-memory before image would not replay correctly onto a
  /// recycled free-list page. Returns the record's LSN.
  virtual uint64_t LogFullPage(SegmentId segment, uint32_t page,
                               uint32_t page_size, const char* after) = 0;

  /// Append a segment-metadata redo record (page_count / free list head).
  /// Covers the bookkeeping that otherwise reaches the device only at
  /// flush time. Returns the record's LSN.
  virtual uint64_t LogSegmentMeta(SegmentId segment, uint8_t page_size_code,
                                  uint32_t page_count, uint32_t free_head) = 0;

  /// Make the log durable up to and including `lsn` (group commit: one
  /// device write covers every record buffered so far). This is the
  /// WAL-rule force used on the write-back path.
  virtual util::Status ForceUpTo(uint64_t lsn) = 0;

  /// End of the durable log: every record starting below it is on the
  /// device. A page-LSN is the START of its newest record, so the WAL rule
  /// is: a dirty page may be written back only once its page-LSN <
  /// durable_lsn().
  virtual uint64_t durable_lsn() const = 0;

  /// Next LSN to be assigned (current end of the stream). A checkpoint
  /// flush forces up to here once, in front of the write-back loop, so the
  /// per-page WAL-rule forces all turn into no-ops (one big device write
  /// instead of one per dirty page).
  virtual uint64_t append_lsn() const = 0;

  /// Checkpoint epoch, bumped on every checkpoint-begin record. A page's
  /// FIRST mutation in a new epoch is logged as a full image (not a delta):
  /// restart redo scans from the last checkpoint, so a page torn on disk
  /// can only be rebuilt if the scan starts with its complete contents —
  /// the same reasoning as PostgreSQL's full_page_writes.
  virtual uint64_t epoch() const = 0;
};

}  // namespace prima::storage

#endif  // PRIMA_STORAGE_WAL_H_
