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

// Two types, a deleted hole, a base entry plus a sort copy (5) plus a
// partition (6) on one atom, a partition registered before its atom's base,
// a cluster entry on an atom with no base, and a counter with no live atoms.
// The hex is what the hash-map table this one replaced wrote for the same
// calls, so it pins the persisted format and each atom's entry order.
TEST(AddressTableTest, GoldenEncoding) {
  AddressTable t;
  const Tid a1 = t.NewTid(2), a2 = t.NewTid(2), a3 = t.NewTid(2);
  ASSERT_TRUE(t.Register(a1, kBaseStructure, (7ull << 16) | 1).ok());
  ASSERT_TRUE(t.Register(a2, kBaseStructure, (7ull << 16) | 2).ok());
  ASSERT_TRUE(t.Register(a3, kBaseStructure, (8ull << 16) | 0).ok());
  ASSERT_TRUE(t.Register(a1, 5, 0x1234).ok());
  ASSERT_TRUE(t.Register(a1, 6, (30ull << 16) | 4).ok());
  ASSERT_TRUE(t.Remove(a2).ok());
  const Tid b1 = t.NewTid(5), b2 = t.NewTid(5), b3 = t.NewTid(5);
  ASSERT_TRUE(t.Register(b1, kBaseStructure, (9ull << 16) | 3).ok());
  ASSERT_TRUE(t.Register(b3, 6, (31ull << 16) | 0).ok());
  ASSERT_TRUE(t.Register(b3, kBaseStructure, (9ull << 16) | 5).ok());
  ASSERT_TRUE(t.Register(b2, 7, 0xABCD).ok());
  (void)t.NewTid(9);

  const std::string golden =
      "03020305030901050100000000000200030001000700000000000534120000000000"
      "000604001e000000000003000000000002000100000008000000000001000000000005"
      "000100030009000000000002000000000005000107cdab000000000000030000000000"
      "0500020600001f0000000000000500090000000000";
  std::string hex;
  for (unsigned char c : t.Encode()) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  EXPECT_EQ(hex, golden);

  AddressTable decoded;
  ASSERT_TRUE(decoded.DecodeFrom(t.Encode()).ok());
  EXPECT_EQ(decoded.Encode(), t.Encode());
  const std::vector<AddressEntry> b3_entries = decoded.EntriesFor(b3);
  ASSERT_EQ(b3_entries.size(), 2u);
  EXPECT_EQ(b3_entries[0].structure_id, 6u);
  EXPECT_EQ(b3_entries[1].structure_id, kBaseStructure);
  // An atom exists while it has a base entry; the cluster-only b2 does not.
  EXPECT_FALSE(decoded.Exists(b2));
  EXPECT_EQ(*decoded.Lookup(b2, 7), 0xABCDu);
  EXPECT_EQ(decoded.AllOfType(5), (std::vector<Tid>{b1, b3}));
  EXPECT_EQ(decoded.CountOfType(2), 2u);
}

// A surrogate far beyond the dense range (as crash recovery may
// re-register) allocates its own chunk, not the span before it.
TEST(AddressTableTest, FarSurrogateAllocatesOneChunk) {
  AddressTable table;
  const Tid far(3, 1ull << 40);
  ASSERT_TRUE(table.Register(far, kBaseStructure, 77).ok());
  EXPECT_EQ(table.ChunksInUse(), 1u);
  EXPECT_EQ(*table.Lookup(far, kBaseStructure), 77u);
  EXPECT_FALSE(table.Exists(Tid(3, (1ull << 40) - 1)));
  EXPECT_FALSE(table.Exists(Tid(3, 1)));
  EXPECT_EQ(table.NewTid(3), Tid(3, (1ull << 40) + 1));

  // A low sequence of the same type after the directory grew, and the
  // highest sequence a surrogate can carry.
  ASSERT_TRUE(table.Register(Tid(3, 1), kBaseStructure, 5).ok());
  const Tid top(3, (1ull << 48) - 1);
  ASSERT_TRUE(table.Register(top, kBaseStructure, 6).ok());
  EXPECT_EQ(table.ChunksInUse(), 3u);
  EXPECT_EQ(table.AllOfType(3), (std::vector<Tid>{Tid(3, 1), far, top}));
  EXPECT_EQ(*table.Lookup(Tid(3, 1), kBaseStructure), 5u);
  EXPECT_EQ(*table.Lookup(top, kBaseStructure), 6u);
}

// Deleting every atom of a chunk's range releases the chunk; a lookup into
// the released range finds nothing, and the next chunk reuses the memory.
TEST(AddressTableTest, DeleteHeavyTypeReleasesChunks) {
  AddressTable table;
  constexpr uint64_t kAtoms = 8 * 1024;
  for (uint64_t seq = 1; seq <= kAtoms; ++seq) {
    ASSERT_TRUE(table.Register(Tid(4, seq), kBaseStructure, seq * 10).ok());
  }
  const size_t full = table.ChunksInUse();
  EXPECT_EQ(full, 9u);  // seq 0 shares the first chunk; 8192 opens a ninth
  for (uint64_t seq = 1; seq < kAtoms - 100; ++seq) {
    ASSERT_TRUE(table.Remove(Tid(4, seq)).ok());
  }
  EXPECT_EQ(table.ChunksInUse(), 2u);
  EXPECT_EQ(table.CountOfType(4), 101u);
  for (uint64_t seq : {uint64_t{1}, uint64_t{512}, kAtoms - 1025}) {
    EXPECT_TRUE(table.Lookup(Tid(4, seq), kBaseStructure).status().IsNotFound())
        << seq;
  }
  EXPECT_EQ(*table.Lookup(Tid(4, kAtoms), kBaseStructure), kAtoms * 10);

  // Another type's new atoms take the released chunks back.
  for (uint64_t seq = 1; seq <= 3 * 1024; ++seq) {
    ASSERT_TRUE(table.Register(Tid(8, seq), kBaseStructure, seq).ok());
  }
  EXPECT_EQ(table.ChunksInUse(), 6u);
  EXPECT_TRUE(table.Lookup(Tid(4, 1), kBaseStructure).status().IsNotFound());

  table.RemoveType(8);
  EXPECT_EQ(table.ChunksInUse(), 2u);
  EXPECT_FALSE(table.Exists(Tid(8, 1)));
  EXPECT_TRUE(table.AllOfType(8).empty());
}

// A chunk stays while any of its slots is live: survivors spread one per
// chunk keep every chunk they sit in, and no more.
TEST(AddressTableTest, ScatteredSurvivorsKeepTheirChunks) {
  AddressTable table;
  constexpr uint64_t kAtoms = 16 * 1024;
  for (uint64_t seq = 1; seq <= kAtoms; ++seq) {
    ASSERT_TRUE(table.Register(Tid(4, seq), kBaseStructure, seq).ok());
  }
  EXPECT_EQ(table.ChunksInUse(), 17u);
  // Keep every 1,500th atom: 10 survivors, each in a chunk of its own.
  for (uint64_t seq = 1; seq <= kAtoms; ++seq) {
    if (seq % 1500 == 0) continue;
    ASSERT_TRUE(table.Remove(Tid(4, seq)).ok());
  }
  EXPECT_EQ(table.CountOfType(4), 10u);
  EXPECT_EQ(table.ChunksInUse(), 10u);
  // Deleting a survivor releases its chunk.
  ASSERT_TRUE(table.Remove(Tid(4, 1500)).ok());
  EXPECT_EQ(table.ChunksInUse(), 9u);
}

// Dropping a structure removes its entry from every atom of the type, also
// from an atom that has no base entry (a partition copy re-attached to a
// deleted atom); other structures and other types keep theirs.
TEST(AddressTableTest, UnregisterStructureReachesSideOnlyAtoms) {
  AddressTable t;
  const Tid based(2, 1), side_only(2, 2), both(2, 3), other(3, 1);
  ASSERT_TRUE(t.Register(based, kBaseStructure, 10).ok());
  ASSERT_TRUE(t.Register(based, 6, 11).ok());
  ASSERT_TRUE(t.Register(side_only, 6, 21).ok());
  ASSERT_TRUE(t.Register(both, 6, 31).ok());
  ASSERT_TRUE(t.Register(both, kBaseStructure, 30).ok());
  ASSERT_TRUE(t.Register(both, 5, 32).ok());
  ASSERT_TRUE(t.Register(other, kBaseStructure, 40).ok());
  ASSERT_TRUE(t.Register(other, 6, 41).ok());

  t.UnregisterStructure(2, 6);
  for (const Tid& tid : {based, side_only, both}) {
    EXPECT_TRUE(t.Lookup(tid, 6).status().IsNotFound()) << tid.ToString();
  }
  EXPECT_EQ(*t.Lookup(other, 6), 41u);
  EXPECT_EQ(*t.Lookup(both, 5), 32u);
  EXPECT_EQ(t.EntriesFor(based).size(), 1u);
  EXPECT_TRUE(t.EntriesFor(side_only).empty());
  const std::vector<AddressEntry> both_entries = t.EntriesFor(both);
  ASSERT_EQ(both_entries.size(), 2u);
  EXPECT_EQ(both_entries[0].structure_id, kBaseStructure);
  EXPECT_EQ(both_entries[1].structure_id, 5u);

  // The blob no longer names structure 6 on type 2; the side-only atom is
  // still written, with no entry, as a per-atom Unregister leaves it.
  AddressTable want;
  ASSERT_TRUE(want.Register(side_only, 6, 21).ok());
  ASSERT_TRUE(want.Unregister(side_only, 6).ok());
  ASSERT_TRUE(want.Register(based, kBaseStructure, 10).ok());
  ASSERT_TRUE(want.Register(both, kBaseStructure, 30).ok());
  ASSERT_TRUE(want.Register(both, 5, 32).ok());
  ASSERT_TRUE(want.Register(other, kBaseStructure, 40).ok());
  ASSERT_TRUE(want.Register(other, 6, 41).ok());
  EXPECT_EQ(t.Encode(), want.Encode());
}

// The base entry goes only with its atom.
TEST(AddressTableTest, UnregisterRefusesTheBaseEntry) {
  AddressTable t;
  ASSERT_TRUE(t.Register(Tid(2, 1), kBaseStructure, 10).ok());
  EXPECT_TRUE(t.Unregister(Tid(2, 1), kBaseStructure).IsInvalidArgument());
  EXPECT_EQ(*t.Lookup(Tid(2, 1), kBaseStructure), 10u);
  ASSERT_TRUE(t.Remove(Tid(2, 1)).ok());
  EXPECT_FALSE(t.Exists(Tid(2, 1)));
}

// Readers resolve atoms while a writer registers enough new ones to grow
// the directory by many chunks. Each side does a fixed amount of work; the
// readers yield so that the two overlap.
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

// Readers race a writer that deletes atoms oldest first and registers new
// ones, so chunks are released and reattached under the readers to other
// ranges of both types. A lookup may miss an atom deleted meanwhile, but a
// hit must carry that atom's own rid, never one from the range a reused
// chunk serves now.
TEST(AddressTableTest, ConcurrentLookupDuringChunkRelease) {
  AddressTable table;
  constexpr uint64_t kWindow = 3000;  // live atoms per type
  constexpr uint64_t kRounds = 200000;
  const auto rid_of = [](const Tid& tid) { return tid.seq * 16 + tid.type; };
  for (uint64_t seq = 1; seq <= kWindow; ++seq) {
    for (AtomTypeId type : {1, 2}) {
      ASSERT_TRUE(table.Register(Tid(type, seq), kBaseStructure,
                                 rid_of(Tid(type, seq))).ok());
    }
  }

  std::atomic<uint64_t> newest{kWindow};
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> wrong{0}, hits{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      util::Random rng(300 + r);
      started.fetch_add(1);
      while (!done.load()) {
        const uint64_t top = newest.load();
        const uint64_t seq = top - kWindow + 1 + rng.Uniform(kWindow + 64);
        const Tid tid(static_cast<AtomTypeId>(1 + rng.Uniform(2)), seq);
        auto rid = table.Lookup(tid, kBaseStructure);
        if (rid.ok()) {
          hits.fetch_add(1);
          if (*rid != rid_of(tid)) wrong.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < 4) std::this_thread::yield();
  for (uint64_t seq = kWindow + 1; seq <= kWindow + kRounds; ++seq) {
    for (AtomTypeId type : {1, 2}) {
      EXPECT_TRUE(table.Remove(Tid(type, seq - kWindow)).ok());
      EXPECT_TRUE(table.Register(Tid(type, seq), kBaseStructure,
                                 rid_of(Tid(type, seq))).ok());
    }
    newest.store(seq);
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(table.CountOfType(1), kWindow);
  EXPECT_LE(table.ChunksInUse(), 2 * (kWindow / 1024 + 2));
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
