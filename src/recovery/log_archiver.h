#ifndef PRIMA_RECOVERY_LOG_ARCHIVER_H_
#define PRIMA_RECOVERY_LOG_ARCHIVER_H_

#include <cstdint>
#include <mutex>

#include "storage/block_device.h"
#include "storage/wal.h"
#include "util/status.h"

namespace prima::recovery {

/// The log archive: an append-only copy of WAL blocks, written and synced
/// BEFORE the circular log's truncation retires those blocks for reuse
/// (WalWriter::WriteMaster drives the copy). Together with the live WAL it
/// keeps the complete log stream readable from the archive base onwards —
/// the replay source for media recovery (rebuild a destroyed data device
/// from a fuzzy backup + the archived history).
///
/// On-disk layout (block-device file kArchiveSegmentId, blocks of
/// kWalBlockSize = 512 bytes, the WAL's own block size)
/// ------------------------------------------------------------------
/// Block 0 — archive header, written once at creation:
///
///   [0,4)   magic "PARH"
///   [4,8)   format version (1)
///   [8,16)  base_offset — absolute WAL stream offset of the first
///           archived block (block-aligned). 0 when archiving began at
///           log creation; the then-current truncation floor when it was
///           enabled later (earlier blocks were already recycled — gone)
///   [16,20) wal_block_size (sanity check on open)
///   [20,24) CRC32 over bytes [0,20)
///
/// Blocks 1.. — RAW WAL blocks in stream order: block 1+k holds the WAL
/// block whose absolute stream offset is base_offset + k*kWalBlockSize,
/// byte for byte. No per-frame header is needed: every fragment inside a
/// WAL block carries a CRC seeded with its ABSOLUTE stream offset (the
/// circular log's stale-lap defense), so a log scan through the archive
/// validates — and rejects misplaced, stale, or torn archive content —
/// with exactly the machinery it uses on the live device.
///
/// The durable end is not stored: the WAL's truncation floor bounds it.
/// Archive copies are synced before the master record commits the floor
/// that retires them, so every block below the floor is durably archived;
/// anything the archiver wrote beyond that is an uncommitted copy from a
/// crashed checkpoint, and the next checkpoint simply writes it again
/// (same offsets, same bytes). WalWriter::Open passes the floor in as
/// `end_hint`.
class LogArchiver {
 public:
  static constexpr uint32_t kWalBlockSize = 512;

  explicit LogArchiver(storage::BlockDevice* device,
                       storage::SegmentId file = storage::kArchiveSegmentId);

  /// Create the archive (base = `base_if_created`, block-aligned) or open
  /// an existing one. `end_hint` is the caller's bound on the committed
  /// end (the WAL truncation floor's block start); the archive resumes
  /// appending there. An archive with another block size (one written
  /// next to a 4096-byte-block log of an older format) is refused with
  /// NotSupported before any block is read.
  util::Status Open(uint64_t base_if_created, uint64_t end_hint);

  /// First archived stream byte.
  uint64_t base_lsn() const;
  /// One past the last committed archived stream byte: the archive holds
  /// exactly [base_lsn, archived_lsn).
  uint64_t archived_lsn() const;

  /// Append one WAL block. `stream_offset` must be block-aligned and equal
  /// archived_lsn() — except offsets already archived, which are accepted
  /// and rewritten in place (a crash between the copy and the master-
  /// record commit re-archives the same blocks with the same bytes).
  util::Status AppendBlock(uint64_t stream_offset, const char* block);

  /// Read the archived WAL block starting at `stream_offset` (block-
  /// aligned) into `dst` (kWalBlockSize bytes). NotFound outside
  /// [base_lsn, archived_lsn). Content is validated by the caller's
  /// fragment-CRC scan, not here.
  util::Status ReadBlock(uint64_t stream_offset, char* dst) const;

  /// Make appended blocks durable (device fsync). Must complete before
  /// the master record retires the copied blocks.
  util::Status Sync();

  /// Drop the archive and restart it empty at `base` (block-aligned).
  /// Used when coverage is already broken — e.g. a leftover archive from
  /// a deleted log describes a different stream.
  util::Status Rebase(uint64_t base);

 private:
  static constexpr uint32_t kBlockSize = kWalBlockSize;
  static constexpr uint32_t kHeaderMagic = 0x50415248u;  // "PARH"
  static constexpr uint32_t kFormatVersion = 1;

  util::Status CreateLocked(uint64_t base);

  storage::BlockDevice* device_;
  const storage::SegmentId file_;

  mutable std::mutex mu_;
  uint64_t base_ = 0;  ///< stream offset of archive block 1
  uint64_t end_ = 0;   ///< stream offset one past the last committed block
};

}  // namespace prima::recovery

#endif  // PRIMA_RECOVERY_LOG_ARCHIVER_H_
