#ifndef PRIMA_STORAGE_BUFFER_MANAGER_H_
#define PRIMA_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "obs/counter.h"
#include "storage/block_device.h"
#include "storage/page.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/status.h"

namespace prima::storage {

/// Globally unique page address.
struct PageId {
  SegmentId segment = 0;
  uint32_t page = 0;

  friend bool operator==(const PageId& a, const PageId& b) {
    return a.segment == b.segment && a.page == b.page;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(id.segment) << 32) |
                                 id.page);
  }
};

/// Replacement policy (paper §3.3). The paper discusses two ways to manage
/// different page sizes in one buffer: static partitioning ("not very
/// flexible when reference patterns change") and a modified LRU that handles
/// multiple sizes directly — the one PRIMA adopts. Both are implemented so
/// the claim is benchmarkable (experiment E10). Replacement within a chain
/// is clock / second-chance: the reference bit is set only on a buffer HIT
/// (never on first insertion), so a page that is fixed once and never
/// touched again is evicted exactly when plain LRU would evict it.
enum class BufferPolicy {
  kUnifiedLru,         ///< single chain, byte-budget, size-aware eviction
  kStaticPartitioned,  ///< one classic pool per page size, fixed budgets
};

/// Page traffic of the pool, counted both per shard and pool-wide.
struct BufferShardStats {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter evictions;
  obs::Counter writebacks;
  obs::Counter prefetched_pages;
};

/// Pool-wide counters: the shard traffic summed over the shards.
struct BufferStats : BufferShardStats {
  /// Never incremented; kept until perfbench drops its metric.
  obs::Counter readahead_dropped;

  double HitRatio() const {
    const uint64_t h = hits, m = misses;
    return (h + m) == 0 ? 0.0 : static_cast<double>(h) / (h + m);
  }
  void Reset() { *this = BufferStats(); }
};

inline constexpr obs::CounterDef<BufferStats> kBufferCounters[] = {
    {&BufferStats::hits, "prima_buffer_hits", "page fixes served from the pool"},
    {&BufferStats::misses, "prima_buffer_misses", "page fixes that read the device"},
    {&BufferStats::evictions, "prima_buffer_evictions", "clock-sweep evictions"},
    {&BufferStats::writebacks, "prima_buffer_writebacks", "dirty pages written back"},
    {&BufferStats::prefetched_pages, "prima_buffer_prefetched_pages", "pages loaded by chained sequence reads"},
};

/// Point-in-time copy of the pool's counters plus each shard's share and
/// resident bytes (surfaced on Prima::stats()).
struct BufferStatsSnapshot : BufferStats {
  struct Shard : BufferShardStats {
    uint64_t resident_bytes = 0;
  };
  std::vector<Shard> shards;
};

/// One buffered page. Callers access frames only through PageGuard
/// (storage_system.h); the latch serializes readers/writers of the bytes.
struct Frame {
  PageId id;
  uint32_t size = 0;
  std::unique_ptr<char[]> data;
  // Atomic so MarkDirty stays lock-free: guard holders set it while
  // latched, and taking the pool mutex there would deadlock against a
  // flusher that holds the mutex while waiting for the latch.
  std::atomic<bool> dirty{false};
  uint32_t pins = 0;
  std::shared_mutex latch;
  // Last checkpoint epoch in which this frame's changes were logged; a
  // mismatch with the WAL's current epoch makes the next logged change a
  // full-page image (torn-page protection). Guarded by the frame latch.
  uint64_t wal_epoch = 0;
  // Clock / second-chance bit: set on every buffer hit, cleared when the
  // sweep passes the frame. Guarded by the owning shard's mutex.
  bool referenced = false;
  // Position in the owning clock ring (valid while resident). Front of the
  // ring is where the sweep hand points next.
  std::list<Frame*>::iterator ring_pos;
};

/// The database buffer: holds pages of all five sizes simultaneously.
///
/// Sharded for concurrency: the frame table is split into N partitions by
/// page-id hash, each with its own mutex, its own clock ring(s), and an
/// equal slice of the byte budget, so concurrent fixes of unrelated pages
/// never serialize on one pool-wide lock. Victim selection within a shard
/// is clock / second-chance (reference bit set on hits only — see
/// BufferPolicy), replacing the old global-LRU-under-mutex.
///
/// Compatibility contract: with `shards` == 1 (the default, and what every
/// pre-sharding caller gets) the pool is behaviorally indistinguishable
/// from the unsharded manager — one budget, one victim ring, the same
/// eviction order for workloads whose resident pages are touched at most
/// once between misses, and the identical Fix/TryFix/WriteBack/FlushAll
/// semantics including the WAL write-back rule.
///
/// Thread-safe; page content accesses are serialized by per-frame latches
/// taken by PageGuard.
class BufferManager {
 public:
  /// budget_bytes is the total data budget across all page sizes; each of
  /// the `shards` partitions manages budget_bytes / shards of it.
  BufferManager(BlockDevice* device, size_t budget_bytes, BufferPolicy policy,
                size_t shards = 1);
  /// Writes nothing: dirty pages not written by FlushAll() are dropped.
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Pin the page, reading it from the device if absent. `page_size` must be
  /// the page size of the segment. If `format_new` is true the page is not
  /// read from the device; the frame starts zeroed (used for freshly
  /// allocated pages). The returned frame is pinned but not latched.
  util::Result<Frame*> Fix(PageId id, uint32_t page_size, bool format_new);

  /// Pin the page only if it is already resident; returns nullptr without
  /// touching the device otherwise. Used by parallel recovery apply: a
  /// resident frame (e.g. a segment header loaded at Open) must be updated
  /// in place or it would shadow a direct device write, while non-resident
  /// pages are replayed device-side without polluting the buffer. Does not
  /// count a hit or set the reference bit — it is a probe, not an access.
  Frame* TryFix(PageId id);

  /// Release one pin.
  void Unfix(Frame* frame);

  /// Mark a pinned frame dirty (caller holds the exclusive latch).
  void MarkDirty(Frame* frame);

  /// Load all missing pages of the list with a single chained device read
  /// (the page-sequence fast path, experiment E9). No pins are taken.
  util::Status Prefetch(SegmentId segment, const std::vector<uint32_t>& pages,
                        uint32_t page_size);

  /// Write back every dirty page (sealing checksums). Pages stay resident.
  util::Status FlushAll();

  /// Drop all pages of a segment without write-back (segment drop).
  /// Fails if any of them is pinned.
  util::Status Discard(SegmentId segment);

  /// Attach (or detach, with nullptr) the write-ahead log. While attached,
  /// the WAL rule is enforced on every write-back: a dirty page whose
  /// page-LSN exceeds the durable LSN forces the log first, and PageGuard
  /// logs physiological redo for every page it mutates.
  void SetWal(WriteAheadLog* wal) { wal_ = wal; }
  WriteAheadLog* wal() const { return wal_; }

  BufferStats& stats() { return stats_; }
  size_t resident_bytes() const;
  size_t shard_count() const { return shards_.size(); }

  /// Consistent copy of the whole-pool counters plus each shard's share.
  BufferStatsSnapshot SnapshotStats() const;

 private:
  /// One partition of the pool: its own lock, frame table, clock ring(s)
  /// and budget slice. The per-shard counters are atomic because
  /// write-backs (FlushAll) run outside the shard mutex.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<PageId, std::unique_ptr<Frame>, PageIdHash> frames;
    // Unified policy uses ring 0 / budget 0 only; partitioned uses one ring
    // per size class. Front = sweep hand.
    std::list<Frame*> ring[5];
    size_t budget[5] = {0, 0, 0, 0, 0};
    size_t used[5] = {0, 0, 0, 0, 0};
    BufferShardStats stats;
  };

  Shard& ShardOf(PageId id) {
    return *shards_[PageIdHash()(id) % shards_.size()];
  }
  const Shard& ShardOf(PageId id) const {
    return *shards_[PageIdHash()(id) % shards_.size()];
  }

  // Size-class index for the partitioned policy.
  static int SizeClass(uint32_t page_size);
  int ChainOf(uint32_t page_size) const {
    return policy_ == BufferPolicy::kUnifiedLru ? 0 : SizeClass(page_size);
  }

  // Ensure `bytes` fit in the shard's (sub-)pool, running the clock sweep
  // over unpinned victims. Caller holds shard.mu.
  util::Status MakeRoom(Shard& shard, int size_class, uint32_t bytes);

  // Write a dirty frame back to the device; takes the frame latch shared
  // so it never captures a half-mutated page (or one whose redo record is
  // not yet appended). Called from MakeRoom with the shard mutex held —
  // safe, because eviction victims are unpinned and latched frames are
  // always pinned — and from FlushAll WITHOUT any shard mutex (a latch
  // holder may need a shard to fix further pages, e.g. a B-tree split).
  util::Status WriteBack(Frame* frame);

  BlockDevice* device_;
  const BufferPolicy policy_;
  WriteAheadLog* wal_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;

  BufferStats stats_;
};

}  // namespace prima::storage

#endif  // PRIMA_STORAGE_BUFFER_MANAGER_H_
