#include <gtest/gtest.h>

#include <map>

#include "access/record_file.h"
#include "util/random.h"

namespace prima::access {
namespace {

using storage::MemoryBlockDevice;
using storage::PageSize;
using storage::StorageSystem;

class RecordFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageSystem>(
        std::make_unique<MemoryBlockDevice>(), storage::StorageOptions{});
    ASSERT_TRUE(storage_->CreateSegment(1, PageSize::k512).ok());
    file_ = std::make_unique<RecordFile>(storage_.get(), 1);
    ASSERT_TRUE(file_->Open().ok());
  }

  std::unique_ptr<StorageSystem> storage_;
  std::unique_ptr<RecordFile> file_;
};

TEST_F(RecordFileTest, InsertReadRoundTrip) {
  auto rid = file_->Insert("hello record");
  ASSERT_TRUE(rid.ok());
  auto data = file_->Read(*rid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->bytes().ToString(), "hello record");
  EXPECT_EQ(file_->record_count(), 1u);
}

TEST_F(RecordFileTest, DeleteMakesRecordUnreachable) {
  auto rid = file_->Insert("gone soon");
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(file_->Delete(*rid).ok());
  EXPECT_TRUE(file_->Read(*rid).status().IsNotFound());
  EXPECT_TRUE(file_->Delete(*rid).IsNotFound());
  EXPECT_EQ(file_->record_count(), 0u);
}

TEST_F(RecordFileTest, ShrinkingUpdateStaysInPlace) {
  auto rid = file_->Insert(std::string(100, 'a'));
  ASSERT_TRUE(rid.ok());
  auto new_rid = file_->Update(*rid, "tiny");
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(new_rid->Pack(), rid->Pack());
  auto data = file_->Read(*new_rid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->bytes().ToString(), "tiny");
}

TEST_F(RecordFileTest, GrowingUpdateMayMove) {
  auto rid = file_->Insert("small");
  ASSERT_TRUE(rid.ok());
  const std::string big(300, 'B');
  auto new_rid = file_->Update(*rid, big);
  ASSERT_TRUE(new_rid.ok());
  auto data = file_->Read(*new_rid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->bytes().ToString(), big);
}

TEST_F(RecordFileTest, LongRecordsUsePageSequences) {
  const std::string huge(5000, 'L');  // >> 512-byte pages
  auto rid = file_->Insert(huge);
  ASSERT_TRUE(rid.ok());
  EXPECT_TRUE(rid->IsLong());
  auto data = file_->Read(*rid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->bytes().ToString(), huge);
  // Long -> long update keeps the id.
  const std::string huger(9000, 'M');
  auto new_rid = file_->Update(*rid, huger);
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(new_rid->Pack(), rid->Pack());
  // Long -> short transition re-homes the record.
  auto short_rid = file_->Update(*new_rid, "now short");
  ASSERT_TRUE(short_rid.ok());
  EXPECT_FALSE(short_rid->IsLong());
  auto back = file_->Read(*short_rid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->bytes().ToString(), "now short");
}

TEST_F(RecordFileTest, ShortToLongTransition) {
  auto rid = file_->Insert("short");
  ASSERT_TRUE(rid.ok());
  auto new_rid = file_->Update(*rid, std::string(4000, 'G'));
  ASSERT_TRUE(new_rid.ok());
  EXPECT_TRUE(new_rid->IsLong());
  auto data = file_->Read(*new_rid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->bytes().size(), 4000u);
}

TEST_F(RecordFileTest, NavigationVisitsEverythingInBothDirections) {
  std::vector<uint64_t> rids;
  for (int i = 0; i < 50; ++i) {
    auto rid = file_->Insert("rec" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid->Pack());
  }
  // Long record in the middle of the scan range.
  auto long_rid = file_->Insert(std::string(2000, 'z'));
  ASSERT_TRUE(long_rid.ok());

  size_t forward = 0;
  auto cur = file_->First();
  ASSERT_TRUE(cur.ok());
  std::vector<uint64_t> forward_order;
  while (cur->has_value()) {
    ++forward;
    forward_order.push_back((*cur)->Pack());
    cur = file_->Next(**cur);
    ASSERT_TRUE(cur.ok());
  }
  EXPECT_EQ(forward, 51u);

  size_t backward = 0;
  auto back = file_->Last();
  ASSERT_TRUE(back.ok());
  std::vector<uint64_t> backward_order;
  while (back->has_value()) {
    ++backward;
    backward_order.push_back((*back)->Pack());
    back = file_->Prev(**back);
    ASSERT_TRUE(back.ok());
  }
  EXPECT_EQ(backward, 51u);
  std::reverse(backward_order.begin(), backward_order.end());
  EXPECT_EQ(forward_order, backward_order);
}

TEST_F(RecordFileTest, CompactionReclaimsGarbage) {
  // Fill one page with records, delete every other one, then insert a
  // record that only fits after compaction.
  std::vector<RecordId> rids;
  for (int i = 0; i < 8; ++i) {
    auto rid = file_->Insert(std::string(50, static_cast<char>('a' + i)));
    ASSERT_TRUE(rid.ok());
    if (rid->page != 1) break;
    rids.push_back(*rid);
  }
  ASSERT_GE(rids.size(), 4u);
  for (size_t i = 0; i < rids.size(); i += 2) {
    ASSERT_TRUE(file_->Delete(rids[i]).ok());
  }
  // A 150-byte record does not fit contiguously but fits after compaction.
  auto rid = file_->Insert(std::string(150, 'C'));
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(rid->page, 1u);
  auto data = file_->Read(*rid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->bytes().size(), 150u);
  // Survivors still readable.
  for (size_t i = 1; i < rids.size(); i += 2) {
    EXPECT_TRUE(file_->Read(rids[i]).ok());
  }
}

TEST_F(RecordFileTest, OpenRebuildsStateFromPages) {
  std::map<uint64_t, std::string> expect;
  util::Random rng(99);
  for (int i = 0; i < 200; ++i) {
    std::string payload(rng.Range(1, 200), static_cast<char>('a' + i % 26));
    auto rid = file_->Insert(payload);
    ASSERT_TRUE(rid.ok());
    expect[rid->Pack()] = payload;
  }
  // Re-attach a fresh RecordFile to the same segment.
  RecordFile reopened(storage_.get(), 1);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.record_count(), 200u);
  for (const auto& [packed, payload] : expect) {
    auto data = reopened.Read(RecordId::Unpack(packed));
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->bytes().ToString(), payload);
  }
  // And inserts still work (free-space cache was rebuilt).
  auto rid = reopened.Insert("after reopen");
  ASSERT_TRUE(rid.ok());
}

class RecordFileRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecordFileRandomTest, RandomOpsMatchModel) {
  auto storage = std::make_unique<StorageSystem>(
      std::make_unique<MemoryBlockDevice>(), storage::StorageOptions{});
  ASSERT_TRUE(storage->CreateSegment(1, PageSize::k1K).ok());
  RecordFile file(storage.get(), 1);
  ASSERT_TRUE(file.Open().ok());

  util::Random rng(GetParam());
  std::map<uint64_t, std::string> model;
  for (int op = 0; op < 1500; ++op) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 50 || model.empty()) {
      std::string payload(rng.Range(0, 900),
                          static_cast<char>('A' + rng.Uniform(26)));
      auto rid = file.Insert(payload);
      ASSERT_TRUE(rid.ok());
      ASSERT_EQ(model.count(rid->Pack()), 0u);
      model[rid->Pack()] = payload;
    } else if (dice < 75) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      std::string payload(rng.Range(0, 1500),
                          static_cast<char>('a' + rng.Uniform(26)));
      auto rid = file.Update(RecordId::Unpack(it->first), payload);
      ASSERT_TRUE(rid.ok());
      model.erase(it);
      model[rid->Pack()] = payload;
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(file.Delete(RecordId::Unpack(it->first)).ok());
      model.erase(it);
    }
  }
  EXPECT_EQ(file.record_count(), model.size());
  for (const auto& [packed, payload] : model) {
    auto data = file.Read(RecordId::Unpack(packed));
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(data->bytes().ToString(), payload);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordFileRandomTest,
                         ::testing::Values(1, 17, 4242));

}  // namespace
}  // namespace prima::access
