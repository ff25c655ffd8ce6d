#ifndef PRIMA_STORAGE_STORAGE_SYSTEM_H_
#define PRIMA_STORAGE_STORAGE_SYSTEM_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "storage/block_device.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace prima::storage {

/// How a PageGuard latches the frame's bytes.
enum class LatchMode { kShared, kExclusive };

/// RAII handle for a pinned, latched page. Obtained from
/// StorageSystem::FixPage / NewPage; unlatches and unpins on destruction.
///
/// When a WAL is attached to the buffer, an exclusive guard is also the
/// unit of physiological logging: the first mutable_data() call snapshots
/// the page, and Release() appends a redo record for the changed bytes and
/// stamps the record's LSN into the page header — all before the latch
/// drops, so the page can never reach the device ahead of its log record.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferManager* buffer, Frame* frame, LatchMode mode);
  ~PageGuard() { Release(); }

  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return frame_ != nullptr; }
  uint32_t page_no() const { return frame_->id.page; }
  uint32_t page_size() const { return frame_->size; }

  /// Read access to the page bytes.
  const char* data() const { return frame_->data.get(); }

  /// Write access; requires kExclusive and marks the page dirty.
  char* mutable_data();

  /// Mark the page as freshly formatted: Release() logs the complete image
  /// instead of a delta, because the on-device bytes (a recycled free-list
  /// page, say) may not match the in-memory before image.
  void MarkFreshlyFormatted() { fresh_format_ = true; }

  /// Unlatch + unpin early.
  void Release();

 private:
  BufferManager* buffer_ = nullptr;
  Frame* frame_ = nullptr;
  LatchMode mode_ = LatchMode::kShared;
  std::unique_ptr<char[]> before_;  ///< pre-image for physiological logging
  bool fresh_format_ = false;
};

struct StorageOptions {
  /// Total buffer budget in bytes across all page sizes.
  size_t buffer_bytes = 8u << 20;
  BufferPolicy buffer_policy = BufferPolicy::kUnifiedLru;
  /// Buffer pool partitions (page-id hashed, each with its own mutex and
  /// clock ring). 1 = the single-partition pool, behaviorally identical to
  /// the pre-sharding manager; Prima resolves its default (one per usable
  /// CPU) into this before construction.
  size_t buffer_shards = 1;
};

/// The storage system (paper §3.3, bottom layer of Fig. 3.1): maps segments
/// divided into pages of one of five sizes — plus page sequences as
/// containers of arbitrary length — onto the blocks of the file manager.
class StorageSystem {
 public:
  StorageSystem(std::unique_ptr<BlockDevice> device, StorageOptions options);
  /// Writes nothing: pages and segment metadata not written by Flush()
  /// (or a checkpoint) are dropped.
  ~StorageSystem();

  /// Load segment metadata for every file already present on the device
  /// (database reopen).
  util::Status Open();

  // --- segments ------------------------------------------------------------

  util::Status CreateSegment(SegmentId id, PageSize size);
  util::Status DropSegment(SegmentId id);
  bool SegmentExists(SegmentId id) const;
  util::Result<PageSize> SegmentPageSize(SegmentId id) const;
  std::vector<SegmentId> ListSegments() const;
  /// Lowest unused segment id (for catalog-driven allocation).
  SegmentId NextFreeSegmentId() const;

  // --- pages ---------------------------------------------------------------

  /// Pin + latch an existing page.
  util::Result<PageGuard> FixPage(SegmentId seg, uint32_t page_no,
                                  LatchMode mode);
  /// Allocate a fresh page (free list first, then segment growth), formatted
  /// to `type`, returned exclusively latched and dirty.
  util::Result<PageGuard> NewPage(SegmentId seg, PageType type);
  /// Return a page to the segment's free list.
  util::Status FreePage(SegmentId seg, uint32_t page_no);
  /// Number of pages ever allocated (including freed ones and the header).
  util::Result<uint32_t> PageCount(SegmentId seg) const;

  // --- page sequences (paper §3.3, Fig. 3.2c) -------------------------------

  /// Store `payload` as a page sequence; returns the header page number,
  /// which identifies the sequence from then on.
  util::Result<uint32_t> CreateSequence(SegmentId seg, util::Slice payload);
  /// Read the full payload. On a cold buffer this issues one chained device
  /// read for all component pages (experiment E9).
  util::Result<std::string> ReadSequence(SegmentId seg, uint32_t header_page);
  /// Replace the payload, keeping the header page number stable.
  util::Status RewriteSequence(SegmentId seg, uint32_t header_page,
                               util::Slice payload);
  util::Status DropSequence(SegmentId seg, uint32_t header_page);

  /// Always 0 (no read-ahead); kept until perfbench drops its config field.
  size_t readahead_window() const { return 0; }

  // --- maintenance ----------------------------------------------------------

  /// Write back all dirty pages and segment metadata; sync the device.
  /// With a WAL attached this participates in checkpointing: every
  /// write-back forces the log first (WAL rule), so after Flush() returns,
  /// log and data are consistent up to the flush point.
  util::Status Flush();

  /// Attach (or detach) the write-ahead log. Segment bookkeeping changes
  /// and every page mutation are logged from then on.
  void SetWal(WriteAheadLog* wal);
  WriteAheadLog* wal() const { return wal_; }

  // --- restart recovery (RecoveryManager only) -------------------------------

  /// One physiological redo record of a page's chain: the record LSN and
  /// the changed byte ranges (offset, bytes). A full image's ranges are the
  /// page's non-zero bytes: redo zeroes the page before installing them.
  /// The views borrow the caller's record storage and must outlive the
  /// apply call.
  struct RedoEntry {
    uint64_t lsn = 0;
    bool full_image = false;
    std::vector<std::pair<uint32_t, util::Slice>> ranges;
  };

  struct RedoChainResult {
    uint64_t applied = 0;  ///< records whose bytes were installed
    uint64_t skipped = 0;  ///< page-LSN already current (redo idempotence)
    /// The device image is torn (bad page CRC) and no full-image record
    /// arrived in the chain to rebuild it from — the page is unrecoverable
    /// by log replay and the caller must fail loudly (media recovery).
    bool torn = false;
  };

  /// Replay one page's complete redo chain (entries in LSN order): ensure
  /// the segment exists and is large enough, then apply every entry whose
  /// LSN is newer than the page (repeating history, ARIES-idempotent).
  ///
  /// A page already resident in the buffer (segment headers loaded at
  /// Open) is updated in place under its frame latch and left dirty for
  /// the post-recovery checkpoint; a non-resident page is replayed in a
  /// local copy and written back (sealed) directly — its redo records are
  /// already durable in the log, so the WAL rule is vacuously satisfied.
  ///
  /// A page torn on the device is rebuilt only from a full-image record
  /// (the epoch rule logs one as the page's first post-checkpoint change);
  /// deltas ahead of it are held back, and a chain that ends still torn
  /// reports so via RedoChainResult::torn.
  util::Result<RedoChainResult> RecoverApplyPageRedoChain(
      SegmentId seg, uint32_t page, uint32_t page_size,
      const std::vector<RedoEntry>& entries);

  /// Reinstall segment bookkeeping from a kSegMeta record (repeating the
  /// history of allocations and frees that never reached the device).
  util::Status RecoverSegmentMeta(SegmentId seg, PageSize size,
                                  uint32_t page_count, uint32_t free_head);

  /// Delete the crash-torn segment files replay never reinstated. A
  /// segment absent from the durable log was never referenced by any
  /// committed work (the WAL rule forces the creation record out before
  /// any dependent write), so the file is crash residue, not data.
  /// Returns how many files were removed.
  util::Result<size_t> DropUnrecoveredSegments();

  BufferManager& buffer() { return *buffer_; }
  BlockDevice& device() { return *device_; }

 private:
  struct SegmentMeta {
    PageSize page_size = PageSize::k8K;
    uint32_t page_count = 1;  // page 0 is the segment header
    uint32_t free_head = 0;   // 0 = empty free list
    bool dirty = false;
  };

  // False = the header page is all-zero (crash-torn newborn): the segment
  // was skipped and recorded in crash_torn_ for replay to reinstate.
  util::Result<bool> LoadSegmentMeta(SegmentId id);
  util::Status PersistSegmentMeta(SegmentId id, SegmentMeta* meta);
  util::Result<uint32_t> AllocatePageLocked(SegmentId seg, SegmentMeta* meta);
  // Log a kSegMeta record for the segment's current bookkeeping.
  void LogSegMeta(SegmentId seg, const SegmentMeta& meta);

  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<BufferManager> buffer_;
  WriteAheadLog* wal_ = nullptr;

  mutable std::mutex mu_;  // guards segments_ and crash_torn_
  std::map<SegmentId, SegmentMeta> segments_;
  // Segment files whose header page read back all-zero at Open(): files
  // born just before a crash whose formatting never reached the device.
  // Open() skips them instead of failing — they are unaddressable until
  // WAL replay repeats their creation (RecoverSegmentMeta / page redo,
  // which removes them from this set as it reinstates them).
  std::set<SegmentId> crash_torn_;
};

}  // namespace prima::storage

#endif  // PRIMA_STORAGE_STORAGE_SYSTEM_H_
