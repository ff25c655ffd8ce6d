#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "access/address_table.h"
#include "util/coding.h"
#include "util/random.h"
#include "util/slice.h"

namespace prima::access {
namespace {

// A handful of atoms over three types, with a second materialization on
// some, so the encoded blob has multi-entry lists and several type counters.
std::vector<Tid> SampleTids() {
  std::vector<Tid> tids;
  for (AtomTypeId type : {3, 7, 9}) {
    for (uint64_t seq = 1; seq <= 200; ++seq) tids.emplace_back(type, seq * 3);
  }
  return tids;
}

void RegisterAll(AddressTable* table, const std::vector<Tid>& tids) {
  for (const Tid& tid : tids) {
    ASSERT_TRUE(table->Register(tid, kBaseStructure, tid.Pack() ^ 0x55).ok());
    if (tid.seq % 2 == 0) {
      ASSERT_TRUE(table->Register(tid, 4, tid.seq).ok());
    }
  }
}

TEST(AddressTableTest, EncodeIsIndependentOfInsertionOrder) {
  std::vector<Tid> tids = SampleTids();
  AddressTable ascending;
  RegisterAll(&ascending, tids);
  const std::string want = ascending.Encode();

  util::Random rng(7);
  for (int round = 0; round < 5; ++round) {
    std::vector<Tid> shuffled = tids;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
    }
    AddressTable table;
    RegisterAll(&table, shuffled);
    EXPECT_EQ(table.Encode(), want) << "round " << round;
  }

  // Atoms are written in ascending packed-tid order: the first one follows
  // the type count, two (type, next) counter pairs and the atom count, one
  // varint byte each.
  AddressTable two;
  ASSERT_TRUE(two.Register(Tid(2, 9), kBaseStructure, 1).ok());
  ASSERT_TRUE(two.Register(Tid(1, 5), kBaseStructure, 1).ok());
  const std::string blob = two.Encode();
  util::Slice in(blob);
  in.RemovePrefix(6);
  uint64_t first = 0;
  ASSERT_TRUE(util::GetFixed64(&in, &first));
  EXPECT_EQ(first, Tid(1, 5).Pack());
}

TEST(AddressTableTest, EncodeDecodeRoundTripsByteForByte) {
  AddressTable table;
  RegisterAll(&table, SampleTids());
  ASSERT_TRUE(table.Remove(Tid(7, 30)).ok());
  (void)table.NewTid(11);  // a counter with no live atoms
  const std::string blob = table.Encode();

  AddressTable decoded;
  ASSERT_TRUE(decoded.DecodeFrom(blob).ok());
  EXPECT_EQ(decoded.Encode(), blob);
  EXPECT_FALSE(decoded.Exists(Tid(7, 30)));
  EXPECT_EQ(*decoded.Lookup(Tid(9, 6), 4), 6u);
  EXPECT_EQ(decoded.NewTid(11), Tid(11, 2));

  AddressTable empty;
  AddressTable empty_decoded;
  ASSERT_TRUE(empty_decoded.DecodeFrom(empty.Encode()).ok());
  EXPECT_EQ(empty_decoded.Encode(), empty.Encode());
  EXPECT_FALSE(empty_decoded.DecodeFrom(blob.substr(0, blob.size() - 3)).ok());
}

TEST(AddressTableTest, TypeQueriesSeeOnlyTheirType) {
  AddressTable table;
  util::Random rng(3);
  std::vector<uint64_t> seqs;
  for (int i = 0; i < 300; ++i) seqs.push_back(1 + rng.Uniform(1u << 20));
  std::sort(seqs.begin(), seqs.end());
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  // Registered in descending order, interleaved with neighbouring types.
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    ASSERT_TRUE(table.Register(Tid(5, *it), kBaseStructure, *it).ok());
    ASSERT_TRUE(table.Register(Tid(4, *it), kBaseStructure, *it).ok());
    ASSERT_TRUE(table.Register(Tid(6, *it + 1), kBaseStructure, *it).ok());
  }

  std::vector<Tid> want;
  for (uint64_t s : seqs) want.emplace_back(5, s);
  EXPECT_EQ(table.AllOfType(5), want);
  EXPECT_EQ(table.CountOfType(5), seqs.size());
  EXPECT_EQ(table.CountOfType(4), seqs.size());
  EXPECT_TRUE(table.AllOfType(8).empty());
  EXPECT_EQ(table.CountOfType(8), 0u);

  table.RemoveType(5);
  EXPECT_TRUE(table.AllOfType(5).empty());
  EXPECT_EQ(table.CountOfType(5), 0u);
  EXPECT_EQ(table.CountOfType(4), seqs.size());
  EXPECT_EQ(table.CountOfType(6), seqs.size());
  EXPECT_EQ(table.NewTid(5), Tid(5, 1));  // the type's counter went too
  EXPECT_EQ(*table.Lookup(Tid(6, seqs[0] + 1), kBaseStructure), seqs[0]);
}

// Readers resolve atoms while a writer registers enough new ones to make
// the table grow (and rehash) many times over. Each side does a fixed amount
// of work; the readers yield so that the two overlap.
TEST(AddressTableTest, ConcurrentLookupDuringRegister) {
  AddressTable table;
  constexpr uint64_t kPreloaded = 1000;
  constexpr uint64_t kRegistered = 100000;
  constexpr int kLookupsPerReader = 50000;
  for (uint64_t seq = 1; seq <= kPreloaded; ++seq) {
    ASSERT_TRUE(table.Register(Tid(1, seq), kBaseStructure, seq * 10).ok());
  }

  std::atomic<uint64_t> published{kPreloaded};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      util::Random rng(100 + r);
      for (int i = 0; i < kLookupsPerReader; ++i) {
        const uint64_t seq = 1 + rng.Uniform(published.load());
        auto rid = table.Lookup(Tid(1, seq), kBaseStructure);
        if (!rid.ok() || *rid != seq * 10) wrong.fetch_add(1);
        std::this_thread::yield();
      }
    });
  }
  for (uint64_t seq = kPreloaded + 1; seq <= kPreloaded + kRegistered; ++seq) {
    const bool registered =
        table.Register(Tid(1, seq), kBaseStructure, seq * 10).ok();
    EXPECT_TRUE(registered);
    if (!registered) break;
    published.store(seq);
  }
  for (auto& t : readers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(table.CountOfType(1), kPreloaded + kRegistered);
}

// Readers that never pause must not hold off a writer: four threads spin on
// Lookup until the writer has registered 100k atoms, or until a deadline
// passes (so a starved writer fails the test instead of hanging it).
TEST(AddressTableTest, WriterFinishesWhileReadersSpin) {
  AddressTable table;
  constexpr uint64_t kPreloaded = 1000;
  constexpr uint64_t kRegistered = 100000;
  for (uint64_t seq = 1; seq <= kPreloaded; ++seq) {
    ASSERT_TRUE(table.Register(Tid(1, seq), kBaseStructure, seq * 10).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);

  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      util::Random rng(200 + r);
      while (!writer_done.load() &&
             std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 256; ++i) {
          (void)table.Lookup(Tid(1, 1 + rng.Uniform(kPreloaded)),
                             kBaseStructure);
        }
      }
    });
  }
  for (uint64_t seq = kPreloaded + 1; seq <= kPreloaded + kRegistered; ++seq) {
    const bool registered =
        table.Register(Tid(1, seq), kBaseStructure, seq * 10).ok();
    EXPECT_TRUE(registered);
    if (!registered) break;
  }
  const bool in_time = std::chrono::steady_clock::now() < deadline;
  writer_done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_TRUE(in_time) << "the writer was starved past the deadline";
  EXPECT_EQ(table.CountOfType(1), kPreloaded + kRegistered);
}

}  // namespace
}  // namespace prima::access
