#include <gtest/gtest.h>

#include <filesystem>

#include "recovery/crash_device.h"
#include "storage/storage_system.h"
#include "util/random.h"

namespace prima::storage {
namespace {

std::unique_ptr<StorageSystem> MakeMemory(size_t buffer = 4 << 20) {
  StorageOptions opts;
  opts.buffer_bytes = buffer;
  return std::make_unique<StorageSystem>(
      std::make_unique<MemoryBlockDevice>(), opts);
}

TEST(StorageSystemTest, DestructorWritesNothing) {
  // Durability is Flush()'s (or a checkpoint's) job: a layer torn down
  // with dirty pages and segment metadata drops them. The shared device
  // outlives the wrapper the layer owns, so its counters can be read after.
  auto device = std::make_shared<MemoryBlockDevice>();
  auto storage = std::make_unique<StorageSystem>(
      std::make_unique<recovery::CrashingBlockDevice>(device),
      StorageOptions{});
  ASSERT_TRUE(storage->Open().ok());
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k1K).ok());
  {
    auto page = storage->NewPage(1, PageType::kSlotted);
    ASSERT_TRUE(page.ok());
  }
  const uint64_t before = device->stats().blocks_written;
  storage.reset();
  EXPECT_EQ(device->stats().blocks_written.load(), before);
}

TEST(StorageSystemTest, CreateAndDropSegments) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k512).ok());
  ASSERT_TRUE(storage->CreateSegment(2, PageSize::k8K).ok());
  EXPECT_TRUE(storage->SegmentExists(1));
  EXPECT_TRUE(storage->CreateSegment(1, PageSize::k512).IsAlreadyExists());
  auto ps = storage->SegmentPageSize(2);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(*ps, PageSize::k8K);
  ASSERT_TRUE(storage->DropSegment(1).ok());
  EXPECT_FALSE(storage->SegmentExists(1));
  EXPECT_TRUE(storage->DropSegment(1).IsNotFound());
}

TEST(StorageSystemTest, NextFreeSegmentId) {
  auto storage = MakeMemory();
  EXPECT_EQ(storage->NextFreeSegmentId(), 1u);
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k1K).ok());
  ASSERT_TRUE(storage->CreateSegment(5, PageSize::k1K).ok());
  EXPECT_EQ(storage->NextFreeSegmentId(), 6u);
}

TEST(StorageSystemTest, NewPageFormatsAndPersistsType) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k1K).ok());
  uint32_t page_no;
  {
    auto page = storage->NewPage(1, PageType::kSlotted);
    ASSERT_TRUE(page.ok());
    page_no = page->page_no();
    EXPECT_EQ(page_no, 1u);  // page 0 is the segment header
  }
  auto guard = storage->FixPage(1, page_no, LatchMode::kShared);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(PageHeader::type(guard->data()), PageType::kSlotted);
  EXPECT_EQ(PageHeader::page_no(guard->data()), page_no);
}

TEST(StorageSystemTest, FreedPagesAreRecycled) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k512).ok());
  uint32_t a, b;
  {
    auto pa = storage->NewPage(1, PageType::kMeta);
    ASSERT_TRUE(pa.ok());
    a = pa->page_no();
    auto pb = storage->NewPage(1, PageType::kMeta);
    ASSERT_TRUE(pb.ok());
    b = pb->page_no();
  }
  ASSERT_TRUE(storage->FreePage(1, a).ok());
  ASSERT_TRUE(storage->FreePage(1, b).ok());
  // LIFO free list: b comes back first, then a; no segment growth.
  auto p1 = storage->NewPage(1, PageType::kMeta);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->page_no(), b);
  auto p2 = storage->NewPage(1, PageType::kMeta);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->page_no(), a);
  auto count = storage->PageCount(1);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);  // header + 2
}

TEST(StorageSystemTest, CannotFreeHeaderPage) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k512).ok());
  EXPECT_TRUE(storage->FreePage(1, 0).IsInvalidArgument());
}

TEST(StorageSystemTest, FixBeyondEndFails) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k512).ok());
  EXPECT_TRUE(
      storage->FixPage(1, 42, LatchMode::kShared).status().IsInvalidArgument());
}

class SequenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SequenceTest, RoundTrip) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k512).ok());
  util::Random rng(GetParam());
  std::string payload(GetParam(), '\0');
  for (auto& c : payload) c = static_cast<char>(rng.Uniform(256));

  auto header = storage->CreateSequence(1, payload);
  ASSERT_TRUE(header.ok());
  auto back = storage->ReadSequence(1, *header);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SequenceTest,
                         ::testing::Values(0, 1, 100, 488, 489, 1000, 5000,
                                           50000));

TEST(StorageSystemTest, SequenceRewriteKeepsHeaderPage) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k512).ok());
  auto header = storage->CreateSequence(1, std::string(3000, 'a'));
  ASSERT_TRUE(header.ok());
  ASSERT_TRUE(storage->RewriteSequence(1, *header, std::string(10, 'b')).ok());
  auto small = storage->ReadSequence(1, *header);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(*small, std::string(10, 'b'));
  ASSERT_TRUE(
      storage->RewriteSequence(1, *header, std::string(9000, 'c')).ok());
  auto big = storage->ReadSequence(1, *header);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(*big, std::string(9000, 'c'));
}

TEST(StorageSystemTest, DropSequenceFreesPages) {
  auto storage = MakeMemory();
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k512).ok());
  auto before = storage->PageCount(1);
  ASSERT_TRUE(before.ok());
  auto header = storage->CreateSequence(1, std::string(4000, 'x'));
  ASSERT_TRUE(header.ok());
  ASSERT_TRUE(storage->DropSequence(1, *header).ok());
  // Freed pages are reused: creating the same sequence again must not grow
  // the segment beyond the first allocation.
  auto count_after_drop = storage->PageCount(1);
  ASSERT_TRUE(count_after_drop.ok());
  auto header2 = storage->CreateSequence(1, std::string(4000, 'y'));
  ASSERT_TRUE(header2.ok());
  auto count_final = storage->PageCount(1);
  ASSERT_TRUE(count_final.ok());
  EXPECT_EQ(*count_final, *count_after_drop);
}

TEST(StorageSystemTest, SequenceColdReadUsesChainedIo) {
  auto device = std::make_unique<MemoryBlockDevice>();
  MemoryBlockDevice* dev = device.get();
  StorageOptions opts;
  opts.buffer_bytes = 1 << 20;
  StorageSystem storage(std::move(device), opts);
  ASSERT_TRUE(storage.CreateSegment(1, PageSize::k512).ok());
  auto header = storage.CreateSequence(1, std::string(8000, 's'));
  ASSERT_TRUE(header.ok());
  ASSERT_TRUE(storage.Flush().ok());
  ASSERT_TRUE(storage.buffer().Discard(1).ok());
  dev->stats().Reset();

  auto payload = storage.ReadSequence(1, *header);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload->size(), 8000u);
  // Header page: one single-block read; all components: one chained read.
  EXPECT_EQ(dev->stats().chained_reads.load(), 1u);
  EXPECT_LE(dev->stats().block_reads.load(), 2u);
}

TEST(StorageSystemTest, FlushAndReopenFromFileDevice) {
  const std::string dir = ::testing::TempDir() + "/prima_storage_reopen";
  std::filesystem::remove_all(dir);
  uint32_t header_page = 0;
  {
    StorageSystem storage(std::make_unique<FileBlockDevice>(dir), {});
    ASSERT_TRUE(storage.Open().ok());
    ASSERT_TRUE(storage.CreateSegment(3, PageSize::k2K).ok());
    auto header = storage.CreateSequence(3, std::string(6000, 'r'));
    ASSERT_TRUE(header.ok());
    header_page = *header;
    ASSERT_TRUE(storage.Flush().ok());
  }
  {
    StorageSystem storage(std::make_unique<FileBlockDevice>(dir), {});
    ASSERT_TRUE(storage.Open().ok());
    ASSERT_TRUE(storage.SegmentExists(3));
    auto ps = storage.SegmentPageSize(3);
    ASSERT_TRUE(ps.ok());
    EXPECT_EQ(*ps, PageSize::k2K);
    auto payload = storage.ReadSequence(3, header_page);
    ASSERT_TRUE(payload.ok());
    EXPECT_EQ(*payload, std::string(6000, 'r'));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace prima::storage
