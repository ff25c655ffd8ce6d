#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "access/btree.h"
#include "util/coding.h"
#include "util/random.h"

namespace prima::access {
namespace {

using storage::MemoryBlockDevice;
using storage::PageSize;
using storage::StorageSystem;

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_unique<StorageSystem>(
        std::make_unique<MemoryBlockDevice>(), storage::StorageOptions{});
    ASSERT_TRUE(storage_->CreateSegment(1, PageSize::k512).ok());
    auto root = BTree::Create(storage_.get(), 1);
    ASSERT_TRUE(root.ok());
    tree_ = std::make_unique<BTree>(storage_.get(), 1, *root,
                                    [this](uint32_t r) { root_changes_.push_back(r); });
  }

  static std::string Key(int64_t v) {
    std::string k;
    util::PutKeyInt64(&k, v);
    return k;
  }

  std::unique_ptr<StorageSystem> storage_;
  std::unique_ptr<BTree> tree_;
  std::vector<uint32_t> root_changes_;
};

TEST_F(BTreeTest, InsertGetDelete) {
  ASSERT_TRUE(tree_->Insert(Key(5), "five").ok());
  ASSERT_TRUE(tree_->Insert(Key(3), "three").ok());
  auto v = tree_->Get(Key(5));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "five");
  auto missing = tree_->Get(Key(99));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
  ASSERT_TRUE(tree_->Delete(Key(5)).ok());
  auto gone = tree_->Get(Key(5));
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
  EXPECT_TRUE(tree_->Delete(Key(5)).IsNotFound());
}

TEST_F(BTreeTest, DuplicateInsertRejectedPutReplaces) {
  ASSERT_TRUE(tree_->Insert(Key(1), "a").ok());
  EXPECT_TRUE(tree_->Insert(Key(1), "b").IsAlreadyExists());
  ASSERT_TRUE(tree_->Put(Key(1), "b").ok());
  auto v = tree_->Get(Key(1));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "b");
}

TEST_F(BTreeTest, RootSplitsAndCallbackFires) {
  // 512-byte pages force splits quickly.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i), "value_" + std::to_string(i)).ok());
  }
  EXPECT_FALSE(root_changes_.empty());
  EXPECT_EQ(tree_->root_page(), root_changes_.back());
  for (int i = 0; i < 200; ++i) {
    auto v = tree_->Get(Key(i));
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->has_value()) << i;
    EXPECT_EQ(**v, "value_" + std::to_string(i));
  }
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 200u);
}

TEST_F(BTreeTest, IterationIsOrderedBothWays) {
  for (int i = 199; i >= 0; --i) {
    ASSERT_TRUE(tree_->Insert(Key(i * 2), std::to_string(i * 2)).ok());
  }
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  int64_t expect = 0;
  while (it.Valid()) {
    util::Slice k(it.key());
    int64_t v;
    ASSERT_TRUE(util::GetKeyInt64(&k, &v));
    EXPECT_EQ(v, expect);
    expect += 2;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(expect, 400);

  ASSERT_TRUE(it.SeekToLast().ok());
  expect = 398;
  while (it.Valid()) {
    util::Slice k(it.key());
    int64_t v;
    ASSERT_TRUE(util::GetKeyInt64(&k, &v));
    EXPECT_EQ(v, expect);
    expect -= 2;
    ASSERT_TRUE(it.Prev().ok());
  }
  EXPECT_EQ(expect, -2);
}

TEST_F(BTreeTest, SeekSemantics) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i * 10), std::to_string(i)).ok());
  }
  auto it = tree_->NewIterator();
  // Seek to existing key.
  ASSERT_TRUE(it.Seek(Key(500)).ok());
  ASSERT_TRUE(it.Valid());
  util::Slice k(it.key());
  int64_t v;
  ASSERT_TRUE(util::GetKeyInt64(&k, &v));
  EXPECT_EQ(v, 500);
  // Seek between keys -> next larger.
  ASSERT_TRUE(it.Seek(Key(501)).ok());
  ASSERT_TRUE(it.Valid());
  k = util::Slice(it.key());
  ASSERT_TRUE(util::GetKeyInt64(&k, &v));
  EXPECT_EQ(v, 510);
  // Seek past the end.
  ASSERT_TRUE(it.Seek(Key(100000)).ok());
  EXPECT_FALSE(it.Valid());
  // SeekForPrev between keys -> previous smaller.
  ASSERT_TRUE(it.SeekForPrev(Key(501)).ok());
  ASSERT_TRUE(it.Valid());
  k = util::Slice(it.key());
  ASSERT_TRUE(util::GetKeyInt64(&k, &v));
  EXPECT_EQ(v, 500);
  // SeekForPrev before the first key.
  ASSERT_TRUE(it.SeekForPrev(Key(-1)).ok());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, NextPriorMixedTraversal) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i), std::to_string(i)).ok());
  }
  auto it = tree_->NewIterator();
  ASSERT_TRUE(it.Seek(Key(25)).ok());
  ASSERT_TRUE(it.Next().ok());   // 26
  ASSERT_TRUE(it.Next().ok());   // 27
  ASSERT_TRUE(it.Prev().ok());   // 26
  util::Slice k(it.key());
  int64_t v;
  ASSERT_TRUE(util::GetKeyInt64(&k, &v));
  EXPECT_EQ(v, 26);
}

TEST_F(BTreeTest, MassDeleteShrinksTree) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i), std::string(30, 'v')).ok());
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree_->Delete(Key(i)).ok()) << i;
  }
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  // Tree remains usable.
  ASSERT_TRUE(tree_->Insert(Key(7), "back").ok());
  auto v = tree_->Get(Key(7));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, "back");
}

TEST_F(BTreeTest, OversizedEntryRejected) {
  const std::string huge(4000, 'x');  // larger than a 512-byte node can hold
  EXPECT_TRUE(tree_->Insert(Key(1), huge).IsNotSupported());
}

TEST_F(BTreeTest, ReattachByRootPage) {
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(tree_->Insert(Key(i), std::to_string(i)).ok());
  }
  const uint32_t root = tree_->root_page();
  BTree reattached(storage_.get(), 1, root, nullptr);
  for (int i = 0; i < 150; ++i) {
    auto v = reattached.Get(Key(i));
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->has_value());
    EXPECT_EQ(**v, std::to_string(i));
  }
}

TEST_F(BTreeTest, GetFixesOnePagePerLevel) {
  // One root split: an inner root over leaves, a tree of height 2.
  int n = 0;
  while (root_changes_.empty()) {
    ASSERT_TRUE(tree_->Insert(Key(n), "value_" + std::to_string(n)).ok());
    ++n;
  }
  for (int i = 0; i < n; i += 7) {
    storage::BufferStats& stats = storage_->buffer().stats();
    const uint64_t before = stats.hits + stats.misses;
    auto v = tree_->Get(Key(i));
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->has_value());
    EXPECT_EQ(**v, "value_" + std::to_string(i));
    EXPECT_EQ(stats.hits + stats.misses - before, 2u) << "key " << i;
  }
  // A miss descends the same way.
  storage::BufferStats& stats = storage_->buffer().stats();
  const uint64_t before = stats.hits + stats.misses;
  auto missing = tree_->Get(Key(n + 100));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
  EXPECT_EQ(stats.hits + stats.misses - before, 2u);
}

TEST_F(BTreeTest, OverrunningLeafEntryIsCorruption) {
  ASSERT_TRUE(tree_->Insert(Key(1), "one").ok());
  {
    // The root is the only leaf: make its first key length claim 65535
    // bytes, far past the end of the 512-byte page's payload.
    auto guard = storage_->FixPage(1, tree_->root_page(),
                                   storage::LatchMode::kExclusive);
    ASSERT_TRUE(guard.ok());
    char* payload = guard->mutable_data() + storage::PageHeader::kSize;
    payload[0] = '\xFF';
    payload[1] = '\xFF';
    payload[2] = '\x03';
  }
  EXPECT_TRUE(tree_->Get(Key(1)).status().IsCorruption());
  EXPECT_TRUE(tree_->Get(Key(0)).status().IsCorruption());
  auto it = tree_->NewIterator();
  EXPECT_TRUE(it.Seek(Key(1)).IsCorruption());
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, ConcurrentGetDuringSplits) {
  // Readers look keys up while one writer grows the tree through leaf and
  // root splits; a key is either absent or carries its own value.
  constexpr int kKeys = 3000;
  std::atomic<bool> done{false};
  std::atomic<int> inserted{0};
  std::atomic<uint64_t> found{0};
  std::vector<std::thread> readers;
  std::vector<std::string> failures(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      util::Random rng(100 + r);
      while (!done.load()) {
        const int upto = inserted.load();
        const int k = static_cast<int>(rng.Uniform(kKeys));
        auto v = tree_->Get(Key(k));
        if (!v.ok()) {
          failures[r] = v.status().ToString();
          return;
        }
        if (v->has_value()) {
          ++found;
          if (**v != "value_" + std::to_string(k)) {
            failures[r] = "key " + std::to_string(k) + " read " + **v;
            return;
          }
        } else if (k < upto) {
          failures[r] = "inserted key " + std::to_string(k) + " missing";
          return;
        }
      }
    });
  }
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree_->Insert(Key(k), "value_" + std::to_string(k)).ok());
    inserted.store(k + 1);
  }
  done.store(true);
  for (auto& t : readers) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  EXPECT_GE(root_changes_.size(), 2u);  // the root split more than once
  EXPECT_GT(found.load(), 0u);
  for (int k = 0; k < kKeys; k += 97) {
    auto v = tree_->Get(Key(k));
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(v->has_value());
    EXPECT_EQ(**v, "value_" + std::to_string(k));
  }
}

struct RandomParam {
  uint64_t seed;
  int ops;
  PageSize page_size;
};

class BTreeRandomTest : public ::testing::TestWithParam<RandomParam> {};

TEST_P(BTreeRandomTest, MatchesStdMap) {
  auto storage = std::make_unique<StorageSystem>(
      std::make_unique<MemoryBlockDevice>(), storage::StorageOptions{});
  ASSERT_TRUE(storage->CreateSegment(1, GetParam().page_size).ok());
  auto root = BTree::Create(storage.get(), 1);
  ASSERT_TRUE(root.ok());
  BTree tree(storage.get(), 1, *root, nullptr);

  util::Random rng(GetParam().seed);
  std::map<std::string, std::string> model;
  for (int op = 0; op < GetParam().ops; ++op) {
    const uint64_t dice = rng.Uniform(100);
    std::string key;
    util::PutKeyInt64(&key, rng.Range(0, 500));
    if (dice < 60) {
      std::string value(rng.Range(1, 40), static_cast<char>('a' + rng.Uniform(26)));
      const bool existed = model.count(key) != 0;
      auto st = tree.Insert(key, value);
      if (existed) {
        EXPECT_TRUE(st.IsAlreadyExists());
      } else {
        ASSERT_TRUE(st.ok());
        model[key] = value;
      }
    } else if (dice < 85) {
      const bool existed = model.count(key) != 0;
      auto st = tree.Delete(key);
      EXPECT_EQ(st.ok(), existed);
      model.erase(key);
    } else {
      auto v = tree.Get(key);
      ASSERT_TRUE(v.ok());
      auto it = model.find(key);
      EXPECT_EQ(v->has_value(), it != model.end());
      if (v->has_value() && it != model.end()) {
        EXPECT_EQ(**v, it->second);
      }
    }
  }
  // Full ordered comparison via iteration.
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  auto mit = model.begin();
  while (it.Valid() && mit != model.end()) {
    EXPECT_EQ(it.key(), mit->first);
    EXPECT_EQ(it.value(), mit->second);
    ASSERT_TRUE(it.Next().ok());
    ++mit;
  }
  EXPECT_FALSE(it.Valid());
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, BTreeRandomTest,
    ::testing::Values(RandomParam{1, 2000, PageSize::k512},
                      RandomParam{2, 2000, PageSize::k512},
                      RandomParam{3, 3000, PageSize::k1K},
                      RandomParam{4, 1500, PageSize::k4K},
                      RandomParam{99, 4000, PageSize::k512}));

}  // namespace
}  // namespace prima::access
