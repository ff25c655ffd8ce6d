#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "storage/buffer_manager.h"

namespace prima::storage {
namespace {

class BufferManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = std::make_unique<MemoryBlockDevice>();
    ASSERT_TRUE(device_->Create(1, 512).ok());
    ASSERT_TRUE(device_->Create(2, 8192).ok());
  }

  std::unique_ptr<MemoryBlockDevice> device_;
};

TEST_F(BufferManagerTest, HitAfterMiss) {
  BufferManager buffer(device_.get(), 1 << 20, BufferPolicy::kUnifiedLru);
  auto f1 = buffer.Fix(PageId{1, 0}, 512, true);
  ASSERT_TRUE(f1.ok());
  buffer.Unfix(*f1);
  auto f2 = buffer.Fix(PageId{1, 0}, 512, false);
  ASSERT_TRUE(f2.ok());
  buffer.Unfix(*f2);
  EXPECT_EQ(buffer.stats().misses.load(), 1u);
  EXPECT_EQ(buffer.stats().hits.load(), 1u);
}

TEST_F(BufferManagerTest, DirtyPageWrittenBackOnEviction) {
  // Budget: exactly 2 x 512 pages.
  BufferManager buffer(device_.get(), 1024, BufferPolicy::kUnifiedLru);
  {
    auto f = buffer.Fix(PageId{1, 0}, 512, true);
    ASSERT_TRUE(f.ok());
    (*f)->data[PageHeader::kSize] = 'D';
    buffer.MarkDirty(*f);
    buffer.Unfix(*f);
  }
  // Fill the buffer so page 0 is evicted.
  for (uint32_t p = 1; p <= 2; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  EXPECT_GE(buffer.stats().evictions.load(), 1u);
  EXPECT_GE(buffer.stats().writebacks.load(), 1u);
  // The page must be readable from the device (sealed with checksum).
  auto f = buffer.Fix(PageId{1, 0}, 512, false);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->data[PageHeader::kSize], 'D');
  buffer.Unfix(*f);
}

TEST_F(BufferManagerTest, PinnedPagesAreNotEvicted) {
  BufferManager buffer(device_.get(), 1024, BufferPolicy::kUnifiedLru);
  auto pinned = buffer.Fix(PageId{1, 0}, 512, true);
  ASSERT_TRUE(pinned.ok());
  // Cycle many other pages through the second frame.
  for (uint32_t p = 1; p < 20; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  // The pinned page must still be resident: fixing it again is a hit.
  const uint64_t misses_before = buffer.stats().misses.load();
  auto again = buffer.Fix(PageId{1, 0}, 512, false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(buffer.stats().misses.load(), misses_before);
  buffer.Unfix(*again);
  buffer.Unfix(*pinned);
}

TEST_F(BufferManagerTest, AllPinnedReportsNoSpace) {
  BufferManager buffer(device_.get(), 1024, BufferPolicy::kUnifiedLru);
  auto a = buffer.Fix(PageId{1, 0}, 512, true);
  auto b = buffer.Fix(PageId{1, 1}, 512, true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = buffer.Fix(PageId{1, 2}, 512, true);
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsNoSpace());
  buffer.Unfix(*a);
  buffer.Unfix(*b);
}

TEST_F(BufferManagerTest, SizeAwareEvictionDisplacesManySmallPages) {
  // Paper §3.3: one buffer manages different page sizes. Budget fits 16
  // small pages; fixing one 8K page must evict all 16.
  BufferManager buffer(device_.get(), 8192, BufferPolicy::kUnifiedLru);
  for (uint32_t p = 0; p < 16; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  EXPECT_EQ(buffer.resident_bytes(), 16 * 512u);
  auto big = buffer.Fix(PageId{2, 0}, 8192, true);
  ASSERT_TRUE(big.ok());
  buffer.Unfix(*big);
  EXPECT_EQ(buffer.stats().evictions.load(), 16u);
  EXPECT_EQ(buffer.resident_bytes(), 8192u);
}

TEST_F(BufferManagerTest, LruOrderRespected) {
  // Three-frame buffer; touch page 0 again so page 1 is the LRU victim.
  BufferManager buffer(device_.get(), 1536, BufferPolicy::kUnifiedLru);
  for (uint32_t p = 0; p < 3; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  {
    auto f = buffer.Fix(PageId{1, 0}, 512, false);  // refresh page 0
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  {
    auto f = buffer.Fix(PageId{1, 3}, 512, true);  // evicts page 1
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  const uint64_t misses = buffer.stats().misses.load();
  auto f0 = buffer.Fix(PageId{1, 0}, 512, false);
  ASSERT_TRUE(f0.ok());
  buffer.Unfix(*f0);
  EXPECT_EQ(buffer.stats().misses.load(), misses);  // page 0 was resident
  auto f1 = buffer.Fix(PageId{1, 1}, 512, false);
  ASSERT_TRUE(f1.ok());
  buffer.Unfix(*f1);
  EXPECT_EQ(buffer.stats().misses.load(), misses + 1);  // page 1 was evicted
}

TEST_F(BufferManagerTest, StaticPartitionedPoolsAreIndependent) {
  // Equal split: each size class gets 1/5 of 10240 bytes = 2048.
  BufferManager buffer(device_.get(), 10240, BufferPolicy::kStaticPartitioned);
  // 512-byte class holds 4 frames; the 8K class cannot hold even one page
  // (2048 < 8192) -> NoSpace, demonstrating the inflexibility the paper
  // criticizes.
  for (uint32_t p = 0; p < 4; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  auto big = buffer.Fix(PageId{2, 0}, 8192, true);
  EXPECT_TRUE(big.status().IsNoSpace());
}

TEST_F(BufferManagerTest, PrefetchUsesOneChainedRead) {
  BufferManager buffer(device_.get(), 1 << 20, BufferPolicy::kUnifiedLru);
  // Seed four pages on the device.
  for (uint32_t p = 10; p < 14; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.MarkDirty(*f);
    buffer.Unfix(*f);
  }
  ASSERT_TRUE(buffer.FlushAll().ok());
  ASSERT_TRUE(buffer.Discard(1).ok());
  device_->stats().Reset();

  ASSERT_TRUE(buffer.Prefetch(1, {10, 11, 12, 13}, 512).ok());
  EXPECT_EQ(device_->stats().chained_reads.load(), 1u);
  EXPECT_EQ(device_->stats().block_reads.load(), 0u);
  EXPECT_EQ(buffer.stats().prefetched_pages.load(), 4u);
  // All four pages are now hits.
  for (uint32_t p = 10; p < 14; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, false);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  EXPECT_EQ(device_->stats().block_reads.load(), 0u);
}

TEST_F(BufferManagerTest, ChecksumCorruptionDetected) {
  BufferManager buffer(device_.get(), 1 << 20, BufferPolicy::kUnifiedLru);
  {
    auto f = buffer.Fix(PageId{1, 0}, 512, true);
    ASSERT_TRUE(f.ok());
    (*f)->data[30] = 'x';
    buffer.MarkDirty(*f);
    buffer.Unfix(*f);
  }
  ASSERT_TRUE(buffer.FlushAll().ok());
  ASSERT_TRUE(buffer.Discard(1).ok());
  // Corrupt the block behind the buffer's back.
  std::string raw(512, '\0');
  ASSERT_TRUE(device_->Read(1, 0, raw.data()).ok());
  raw[100] ^= 0x5A;
  ASSERT_TRUE(device_->Write(1, 0, raw.data()).ok());
  device_->stats().Reset();

  auto f = buffer.Fix(PageId{1, 0}, 512, false);
  EXPECT_FALSE(f.ok());
  EXPECT_TRUE(f.status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Sharded pool
// ---------------------------------------------------------------------------

TEST_F(BufferManagerTest, ShardCountOneMatchesUnshardedPool) {
  // The compatibility contract: an explicit shards=1 pool must replay the
  // unsharded pool's behavior exactly — same victim, same counters.
  auto run = [&](BufferManager& buffer) {
    for (uint32_t p = 0; p < 3; ++p) {
      auto f = buffer.Fix(PageId{1, p}, 512, true);
      ASSERT_TRUE(f.ok());
      buffer.Unfix(*f);
    }
    {
      auto f = buffer.Fix(PageId{1, 0}, 512, false);  // refresh page 0
      ASSERT_TRUE(f.ok());
      buffer.Unfix(*f);
    }
    {
      auto f = buffer.Fix(PageId{1, 3}, 512, true);  // evicts page 1
      ASSERT_TRUE(f.ok());
      buffer.Unfix(*f);
    }
    // Page 0 survived, page 1 was the victim.
    EXPECT_NE(buffer.TryFix(PageId{1, 0}), nullptr);
    EXPECT_EQ(buffer.TryFix(PageId{1, 1}), nullptr);
    auto f0 = buffer.TryFix(PageId{1, 0});
    buffer.Unfix(f0);
    buffer.Unfix(f0);  // both TryFix pins
  };
  BufferManager legacy(device_.get(), 1536, BufferPolicy::kUnifiedLru);
  run(legacy);
  BufferManager sharded(device_.get(), 1536, BufferPolicy::kUnifiedLru, 1);
  run(sharded);
  EXPECT_EQ(sharded.shard_count(), 1u);
  EXPECT_EQ(legacy.stats().hits.load(), sharded.stats().hits.load());
  EXPECT_EQ(legacy.stats().misses.load(), sharded.stats().misses.load());
  EXPECT_EQ(legacy.stats().evictions.load(), sharded.stats().evictions.load());
}

TEST_F(BufferManagerTest, PerShardCountersSumToTotals) {
  BufferManager buffer(device_.get(), 1 << 20, BufferPolicy::kUnifiedLru, 4);
  ASSERT_EQ(buffer.shard_count(), 4u);
  for (uint32_t p = 0; p < 32; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  for (uint32_t p = 0; p < 32; p += 2) {  // re-touch half: hits
    auto f = buffer.Fix(PageId{1, p}, 512, false);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  const BufferStatsSnapshot snap = buffer.SnapshotStats();
  ASSERT_EQ(snap.shards.size(), 4u);
  EXPECT_EQ(snap.misses, 32u);
  EXPECT_EQ(snap.hits, 16u);
  uint64_t hits = 0, misses = 0, resident = 0;
  for (const auto& s : snap.shards) {
    hits += s.hits;
    misses += s.misses;
    resident += s.resident_bytes;
  }
  EXPECT_EQ(hits, snap.hits);
  EXPECT_EQ(misses, snap.misses);
  EXPECT_EQ(resident, 32 * 512u);
  EXPECT_EQ(resident, buffer.resident_bytes());
}

TEST_F(BufferManagerTest, ParallelFixStormAcrossShards) {
  // 4 shards x 16 frames of 512 bytes each; 8 threads hammer a 4x larger
  // working set so every shard runs a continuous eviction storm. The pool
  // must neither lose accounting nor report NoSpace (at most 8 pins are
  // live at any instant, far below any shard's frame count).
  constexpr uint32_t kPages = 256;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 2000;
  BufferManager buffer(device_.get(), 4 * 16 * 512, BufferPolicy::kUnifiedLru,
                       4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t p = static_cast<uint32_t>((rng >> 33) % kPages);
        auto f = buffer.Fix(PageId{1, p}, 512, true);
        if (!f.ok()) {
          failures++;
          continue;
        }
        if ((rng & 1) != 0) buffer.MarkDirty(*f);
        buffer.Unfix(*f);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const BufferStatsSnapshot snap = buffer.SnapshotStats();
  // Every Fix was either a hit or a miss — the accounting is lossless.
  EXPECT_EQ(snap.hits + snap.misses,
            static_cast<uint64_t>(kThreads) * kItersPerThread);
  EXPECT_GT(snap.evictions, 0u);
  // The budget was honored throughout: at most 16 frames stay per shard.
  EXPECT_LE(buffer.resident_bytes(), 4 * 16 * 512u);
  // The storm spread across partitions, not one hot shard.
  size_t active_shards = 0;
  for (const auto& s : snap.shards) {
    if (s.misses > 0) active_shards++;
  }
  EXPECT_GT(active_shards, 1u);
}

TEST_F(BufferManagerTest, ClockEvictionRespectsPinsUnderStorm) {
  BufferManager buffer(device_.get(), 4 * 8 * 512, BufferPolicy::kUnifiedLru,
                       4);
  // Pin four pages, then let concurrent scanners churn every shard.
  std::vector<Frame*> pinned;
  for (uint32_t p = 0; p < 4; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    pinned.push_back(*f);
  }
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t p = 10 + t * 50; p < 10 + t * 50 + 50; ++p) {
        auto f = buffer.Fix(PageId{1, p}, 512, true);
        if (f.ok()) buffer.Unfix(*f);
      }
    });
  }
  for (auto& th : threads) th.join();
  // The pinned pages rode out every sweep.
  const uint64_t misses_before = buffer.stats().misses.load();
  for (uint32_t p = 0; p < 4; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, false);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  EXPECT_EQ(buffer.stats().misses.load(), misses_before);
  for (Frame* f : pinned) buffer.Unfix(f);
}

/// Minimal WAL recording the force protocol, for asserting the write-back
/// rule without standing up the real log.
class RecordingWal : public WriteAheadLog {
 public:
  uint64_t LogPageDelta(SegmentId, uint32_t, uint32_t, const char*,
                        const char*) override {
    return 0;
  }
  uint64_t LogFullPage(SegmentId, uint32_t, uint32_t, const char*) override {
    return 0;
  }
  uint64_t LogSegmentMeta(SegmentId, uint8_t, uint32_t, uint32_t) override {
    return 0;
  }
  util::Status ForceUpTo(uint64_t lsn) override {
    force_calls++;
    forced_up_to = std::max(forced_up_to, lsn);
    // `lsn` is the START of the newest record to force; once it is on the
    // device the durable end lies past it, as a real log reports.
    durable = std::max(durable, lsn + 1);
    return util::Status::Ok();
  }
  uint64_t durable_lsn() const override { return durable; }
  uint64_t append_lsn() const override { return append; }
  uint64_t epoch() const override { return 1; }

  uint64_t durable = 0;
  uint64_t append = 0;
  uint64_t forced_up_to = 0;
  int force_calls = 0;
};

TEST_F(BufferManagerTest, EvictionForcesLogBeforeDirtyWriteBack) {
  // The WAL rule on the sharded eviction path: a dirty page whose page-LSN
  // exceeds the durable LSN must force the log before reaching the device.
  RecordingWal wal;
  wal.append = 42;
  BufferManager buffer(device_.get(), 1024, BufferPolicy::kUnifiedLru, 1);
  buffer.SetWal(&wal);
  {
    auto f = buffer.Fix(PageId{1, 0}, 512, true);
    ASSERT_TRUE(f.ok());
    PageHeader::set_lsn((*f)->data.get(), 42);
    buffer.MarkDirty(*f);
    buffer.Unfix(*f);
  }
  ASSERT_EQ(wal.force_calls, 0);
  // Fill the two-frame pool: evicting dirty page 0 triggers the force.
  for (uint32_t p = 1; p <= 2; ++p) {
    auto f = buffer.Fix(PageId{1, p}, 512, true);
    ASSERT_TRUE(f.ok());
    buffer.Unfix(*f);
  }
  EXPECT_GE(wal.force_calls, 1);
  EXPECT_EQ(wal.forced_up_to, 42u);
  EXPECT_EQ(buffer.stats().writebacks.load(), 1u);
}

}  // namespace
}  // namespace prima::storage
