#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <tuple>

#include "storage/block_device.h"

namespace prima::storage {
namespace {

template <typename T>
std::unique_ptr<BlockDevice> MakeDevice(const std::string& dir);

template <>
std::unique_ptr<BlockDevice> MakeDevice<MemoryBlockDevice>(const std::string&) {
  return std::make_unique<MemoryBlockDevice>();
}
template <>
std::unique_ptr<BlockDevice> MakeDevice<FileBlockDevice>(
    const std::string& dir) {
  return std::make_unique<FileBlockDevice>(dir);
}

// An independent copy of a device's current contents: Clone() for the
// memory device, a copy of the directory for the file device.
std::unique_ptr<BlockDevice> CopyDevice(MemoryBlockDevice& dev,
                                        const std::string&) {
  return dev.Clone();
}
std::unique_ptr<BlockDevice> CopyDevice(FileBlockDevice& dev,
                                        const std::string& dir) {
  EXPECT_TRUE(dev.Sync().ok());
  const std::string copy_dir = dir + "_copy";
  std::filesystem::remove_all(copy_dir);
  std::filesystem::copy(dir, copy_dir);
  return std::make_unique<FileBlockDevice>(copy_dir);
}

// A block-sized pattern that differs per (tag, block).
std::string Pattern(uint32_t block_size, char tag, uint64_t block) {
  std::string out(block_size, '\0');
  for (uint32_t i = 0; i < block_size; ++i) {
    out[i] = static_cast<char>(tag + (block * 7 + i) % 23);
  }
  return out;
}

template <typename T>
class BlockDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/prima_dev_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    device_ = MakeDevice<T>(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_copy");
  }

  std::string dir_;
  std::unique_ptr<BlockDevice> device_;
};

using DeviceTypes = ::testing::Types<MemoryBlockDevice, FileBlockDevice>;
TYPED_TEST_SUITE(BlockDeviceTest, DeviceTypes);

TYPED_TEST(BlockDeviceTest, CreateRejectsInvalidBlockSize) {
  EXPECT_TRUE(this->device_->Create(1, 777).IsInvalidArgument());
  EXPECT_TRUE(this->device_->Create(1, 0).IsInvalidArgument());
}

TYPED_TEST(BlockDeviceTest, AllFiveBlockSizesSupported) {
  uint32_t id = 1;
  for (PageSize s : kAllPageSizes) {
    ASSERT_TRUE(this->device_->Create(id, PageSizeBytes(s)).ok());
    auto bs = this->device_->BlockSizeOf(id);
    ASSERT_TRUE(bs.ok());
    EXPECT_EQ(*bs, PageSizeBytes(s));
    ++id;
  }
}

TYPED_TEST(BlockDeviceTest, DuplicateCreateFails) {
  ASSERT_TRUE(this->device_->Create(1, 512).ok());
  EXPECT_TRUE(this->device_->Create(1, 512).IsAlreadyExists());
}

TYPED_TEST(BlockDeviceTest, WriteReadRoundTrip) {
  ASSERT_TRUE(this->device_->Create(1, 512).ok());
  std::string block(512, 'A');
  block[0] = 'X';
  block[511] = 'Z';
  ASSERT_TRUE(this->device_->Write(1, 5, block.data()).ok());
  std::string out(512, '\0');
  ASSERT_TRUE(this->device_->Read(1, 5, out.data()).ok());
  EXPECT_EQ(out, block);
}

TYPED_TEST(BlockDeviceTest, UnwrittenBlockReadsZero) {
  ASSERT_TRUE(this->device_->Create(1, 1024).ok());
  std::string out(1024, 'q');
  ASSERT_TRUE(this->device_->Read(1, 99, out.data()).ok());
  for (char c : out) EXPECT_EQ(c, '\0');
}

TYPED_TEST(BlockDeviceTest, ChainedTransferCountsOneOperation) {
  ASSERT_TRUE(this->device_->Create(1, 512).ok());
  std::string bulk(512 * 4, '\0');
  for (int i = 0; i < 4; ++i) bulk[i * 512] = static_cast<char>('a' + i);
  const std::vector<uint64_t> blocks = {3, 9, 4, 17};
  ASSERT_TRUE(this->device_->WriteChained(1, blocks, bulk.data()).ok());
  EXPECT_EQ(this->device_->stats().chained_writes.load(), 1u);
  EXPECT_EQ(this->device_->stats().blocks_written.load(), 4u);

  std::string in(512 * 4, '\0');
  ASSERT_TRUE(this->device_->ReadChained(1, blocks, in.data()).ok());
  EXPECT_EQ(this->device_->stats().chained_reads.load(), 1u);
  EXPECT_EQ(this->device_->stats().blocks_read.load(), 4u);
  EXPECT_EQ(in, bulk);
  // One chained op vs four single ops (the paper's page-sequence benefit).
  EXPECT_EQ(this->device_->stats().TotalOps(), 2u);
}

TYPED_TEST(BlockDeviceTest, RemoveDeletesFile) {
  ASSERT_TRUE(this->device_->Create(7, 2048).ok());
  EXPECT_TRUE(this->device_->Exists(7));
  ASSERT_TRUE(this->device_->Remove(7).ok());
  EXPECT_FALSE(this->device_->Exists(7));
  EXPECT_TRUE(this->device_->Remove(7).IsNotFound());
}

TYPED_TEST(BlockDeviceTest, ListFiles) {
  ASSERT_TRUE(this->device_->Create(3, 512).ok());
  ASSERT_TRUE(this->device_->Create(12, 8192).ok());
  auto files = this->device_->ListFiles();
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<uint32_t>{3, 12}));
}

TYPED_TEST(BlockDeviceTest, SparseWriteFarOutReadsBackWithZeroNeighbours) {
  ASSERT_TRUE(this->device_->Create(1, 512).ok());
  const std::string block = Pattern(512, 'a', 10000);
  ASSERT_TRUE(this->device_->Write(1, 10000, block.data()).ok());
  std::string out(512, 'q');
  ASSERT_TRUE(this->device_->Read(1, 10000, out.data()).ok());
  EXPECT_EQ(out, block);
  for (uint64_t neighbour : {0ull, 9999ull, 10001ull, 10100ull}) {
    std::fill(out.begin(), out.end(), 'q');
    ASSERT_TRUE(this->device_->Read(1, neighbour, out.data()).ok());
    EXPECT_EQ(out, std::string(512, '\0')) << "block " << neighbour;
  }
}

TYPED_TEST(BlockDeviceTest, ChainedTransferStraddlesExtentBoundary) {
  uint32_t id = 1;
  for (const uint32_t bs : {512u, 8192u}) {
    ASSERT_TRUE(this->device_->Create(id, bs).ok());
    // Two blocks either side of the first memory-device extent boundary.
    const uint64_t boundary = MemoryBlockDevice::kExtentBytes / bs;
    std::vector<uint64_t> blocks;
    std::string bulk;
    for (uint64_t b = boundary - 2; b < boundary + 2; ++b) {
      blocks.push_back(b);
      bulk += Pattern(bs, 'A', b);
    }
    ASSERT_TRUE(this->device_->WriteChained(id, blocks, bulk.data()).ok());

    std::string in(bulk.size(), '\0');
    ASSERT_TRUE(this->device_->ReadChained(id, blocks, in.data()).ok());
    EXPECT_EQ(in, bulk) << "block size " << bs;
    std::string one(bs, '\0');
    for (uint64_t b : blocks) {
      ASSERT_TRUE(this->device_->Read(id, b, one.data()).ok());
      EXPECT_EQ(one, Pattern(bs, 'A', b)) << "block size " << bs;
    }
    ++id;
  }
}

TYPED_TEST(BlockDeviceTest, CopyAndOriginalDoNotSeeEachOthersWrites) {
  ASSERT_TRUE(this->device_->Create(1, 1024).ok());
  const std::string base = Pattern(1024, 'a', 3);
  ASSERT_TRUE(this->device_->Write(1, 3, base.data()).ok());
  ASSERT_TRUE(this->device_->Write(1, 300, base.data()).ok());
  auto copy = CopyDevice(static_cast<TypeParam&>(*this->device_), this->dir_);

  const std::string mine = Pattern(1024, 'm', 3);
  const std::string theirs = Pattern(1024, 't', 3);
  const std::string zeros(1024, '\0');
  ASSERT_TRUE(this->device_->Write(1, 3, mine.data()).ok());
  ASSERT_TRUE(this->device_->Write(1, 500, mine.data()).ok());
  ASSERT_TRUE(copy->Write(1, 3, theirs.data()).ok());
  ASSERT_TRUE(copy->Write(1, 200, theirs.data()).ok());

  std::string out(1024, '\0');
  for (auto [dev, block, want] :
       {std::tuple{this->device_.get(), 3, mine},
        {this->device_.get(), 300, base},
        {this->device_.get(), 200, zeros},
        {this->device_.get(), 500, mine},
        {copy.get(), 3, theirs},
        {copy.get(), 300, base},
        {copy.get(), 200, theirs},
        {copy.get(), 500, zeros}}) {
    ASSERT_TRUE(dev->Read(1, block, out.data()).ok());
    EXPECT_EQ(out, want) << (dev == copy.get() ? "copy" : "original")
                         << " block " << block;
  }
}

TEST(FileBlockDeviceTest, PersistsAcrossReopen) {
  const std::string dir = ::testing::TempDir() + "/prima_dev_persist";
  std::filesystem::remove_all(dir);
  {
    FileBlockDevice dev(dir);
    ASSERT_TRUE(dev.Create(1, 4096).ok());
    std::string block(4096, 'p');
    ASSERT_TRUE(dev.Write(1, 2, block.data()).ok());
    ASSERT_TRUE(dev.Sync().ok());
  }
  {
    FileBlockDevice dev(dir);
    EXPECT_TRUE(dev.Exists(1));
    auto bs = dev.BlockSizeOf(1);
    ASSERT_TRUE(bs.ok());
    EXPECT_EQ(*bs, 4096u);
    std::string out(4096, '\0');
    ASSERT_TRUE(dev.Read(1, 2, out.data()).ok());
    EXPECT_EQ(out, std::string(4096, 'p'));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace prima::storage
