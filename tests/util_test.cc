#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace prima::util {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: thing");
}

TEST(StatusTest, AllCodesDistinguishable) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NoSpace("x").IsNoSpace());
  EXPECT_TRUE(Status::Constraint("x").IsConstraint());
  EXPECT_TRUE(Status::Conflict("x").IsConflict());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_FALSE(Status::Aborted("x").IsConflict());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PRIMA_ASSIGN_OR_RETURN(const int h, Half(x));
  return Half(h);
}

TEST(ResultTest, ValuePropagation) {
  auto r = Quarter(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
}

TEST(ResultTest, ErrorPropagation) {
  auto r = Quarter(6);  // 6/2 = 3 -> odd
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

TEST(SliceTest, CompareAndPrefix) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abcdef").StartsWith(Slice("abc")));
  EXPECT_FALSE(Slice("ab").StartsWith(Slice("abc")));
}

TEST(SliceTest, RemovePrefix) {
  Slice s("hello");
  s.RemovePrefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(GetFixed32(&in, &a));
  ASSERT_TRUE(GetFixed64(&in, &b));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  const uint64_t cases[] = {0, 1, 127, 128, 16383, 16384, 1ull << 33,
                            UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    Slice in(buf);
    uint64_t out;
    ASSERT_TRUE(GetVarint64(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarsintRoundTrip) {
  const int64_t cases[] = {0, -1, 1, INT64_MIN, INT64_MAX, -123456789};
  for (int64_t v : cases) {
    std::string buf;
    PutVarsint64(&buf, v);
    Slice in(buf);
    int64_t out;
    ASSERT_TRUE(GetVarint64(&in, reinterpret_cast<uint64_t*>(&out)) || true);
    in = Slice(buf);
    ASSERT_TRUE(GetVarsint64(&in, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t out;
  EXPECT_FALSE(GetVarint64(&in, &out));
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, Slice("hello"));
  PutLengthPrefixed(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
}

// Order-preservation property: encoded keys sort exactly like values.
class KeyIntOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyIntOrderTest, OrderPreserved) {
  Random rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const int64_t a = static_cast<int64_t>(rng.Next());
    const int64_t b = static_cast<int64_t>(rng.Next());
    std::string ka, kb;
    PutKeyInt64(&ka, a);
    PutKeyInt64(&kb, b);
    EXPECT_EQ(a < b, ka < kb) << a << " vs " << b;
    // Round trip.
    Slice in(ka);
    int64_t back;
    ASSERT_TRUE(GetKeyInt64(&in, &back));
    EXPECT_EQ(back, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyIntOrderTest,
                         ::testing::Values(1, 2, 3, 42, 1234));

class KeyDoubleOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyDoubleOrderTest, OrderPreserved) {
  Random rng(GetParam());
  auto gen = [&rng]() -> double {
    switch (rng.Uniform(5)) {
      case 0: return 0.0;
      case 1: return -rng.NextDouble() * 1e6;
      case 2: return rng.NextDouble() * 1e-6;
      case 3: return rng.NextDouble() * 1e12;
      default: return -rng.NextDouble();
    }
  };
  for (int i = 0; i < 500; ++i) {
    const double a = gen(), b = gen();
    std::string ka, kb;
    PutKeyDouble(&ka, a);
    PutKeyDouble(&kb, b);
    EXPECT_EQ(a < b, ka < kb) << a << " vs " << b;
    Slice in(ka);
    double back;
    ASSERT_TRUE(GetKeyDouble(&in, &back));
    EXPECT_EQ(back, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyDoubleOrderTest,
                         ::testing::Values(7, 8, 9));

TEST(CodingTest, KeyStringOrderWithEmbeddedNulAndPrefix) {
  const std::string cases[] = {
      "", std::string("\x00", 1), std::string("\x00\x01", 2),
      "a", "ab", std::string("a\x00b", 3), "b"};
  std::vector<std::pair<std::string, std::string>> encoded;
  for (const auto& s : cases) {
    std::string k;
    PutKeyString(&k, s);
    encoded.emplace_back(k, s);
    // round-trip
    Slice in(k);
    std::string back;
    ASSERT_TRUE(GetKeyString(&in, &back));
    EXPECT_EQ(back, s);
  }
  for (const auto& [ka, sa] : encoded) {
    for (const auto& [kb, sb] : encoded) {
      EXPECT_EQ(sa < sb, ka < kb) << "'" << sa << "' vs '" << sb << "'";
    }
  }
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // Standard test vector: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(Slice("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, DetectsCorruption) {
  std::string data(1024, 'x');
  const uint32_t clean = Crc32(data);
  data[512] ^= 1;
  EXPECT_NE(Crc32(data), clean);
}

TEST(Crc32Test, ExtendMatchesWhole) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t a = Crc32(Slice(data.data(), 10));
  EXPECT_EQ(Crc32Extend(a, Slice(data.data() + 10, data.size() - 10)),
            Crc32(data));
}

// The one-byte-at-a-time table CRC; the folded and the sliced Crc32Extend
// must agree with it on every input so stored page, log and wire checksums
// stay valid.
uint32_t BytewiseCrc32Extend(uint32_t crc, Slice data) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < data.size(); ++i) {
    c ^= static_cast<unsigned char>(data.data()[i]);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::string RandomBytes(Random* rng, size_t n) {
  std::string data(n, '\0');
  for (char& c : data) c = static_cast<char>(rng->Next());
  return data;
}

TEST(Crc32Test, MatchesBytewiseReferenceWhenSplit) {
  Random rng(0xC3C);
  for (int round = 0; round < 300; ++round) {
    const std::string data = RandomBytes(&rng, rng.Uniform(9001));
    const uint32_t seed = round % 2 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    const uint32_t want = BytewiseCrc32Extend(seed, data);
    EXPECT_EQ(Crc32Extend(seed, data), want) << "length " << data.size();
    // Extending over two pieces, split anywhere (including unaligned
    // offsets and empty pieces), gives the same value.
    const size_t cut = rng.Uniform(data.size() + 1);
    const uint32_t head = Crc32Extend(seed, Slice(data.data(), cut));
    EXPECT_EQ(Crc32Extend(head, Slice(data.data() + cut, data.size() - cut)),
              want)
        << "length " << data.size() << " cut " << cut;
  }
  EXPECT_EQ(Crc32(Slice("")), 0u);
}

// The dispatched routine folds 16-byte lanes from 64 bytes on and slices
// the rest; the portable one slices everything. Both must equal the
// bytewise CRC at every length 0..9000 (which covers the fold's edges:
// 15, 16, 63, 64, 65, 79, 80, 127, 128, and the page bodies 508, 4092 and
// 8188) starting at every offset 0..63.
TEST(Crc32Test, BothImplementationsMatchBytewiseAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 9000, kOffsets = 64;
  Random rng(0xF01D);
  const std::string buf = RandomBytes(&rng, kMaxLen + kOffsets);
  for (size_t off = 0; off < kOffsets; ++off) {
    const uint32_t seed = off % 2 == 0 ? 0 : static_cast<uint32_t>(rng.Next());
    // The reference grows one byte at a time along the sweep.
    uint32_t want = seed;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) want = BytewiseCrc32Extend(want, Slice(&buf[off + len - 1], 1));
      const Slice piece(buf.data() + off, len);
      ASSERT_EQ(Crc32Extend(seed, piece), want) << "offset " << off << " length " << len;
      ASSERT_EQ(Crc32ExtendPortable(seed, piece), want)
          << "offset " << off << " length " << len;
    }
  }
}

// A running checksum chained across a cut equals the whole, whether the cut
// falls inside the folded part of the whole or in its sliced tail, and
// whether either piece is long enough to be folded on its own.
TEST(Crc32Test, ExtendChainsAcrossCutsInAndOutsideTheFold) {
  Random rng(0xC4A1);
  for (size_t len : {64, 65, 79, 80, 127, 128, 200, 4092, 8188}) {
    const std::string data = RandomBytes(&rng, len);
    const uint32_t want = BytewiseCrc32Extend(0, data);
    for (size_t cut = 0; cut <= len; ++cut) {
      const Slice head(data.data(), cut), tail(data.data() + cut, len - cut);
      ASSERT_EQ(Crc32Extend(Crc32Extend(0, head), tail), want)
          << "length " << len << " cut " << cut;
      ASSERT_EQ(Crc32ExtendPortable(Crc32ExtendPortable(0, head), tail), want)
          << "length " << len << " cut " << cut;
    }
  }
}

// The fold is chosen exactly where the CPU can run it, so on a host with
// PCLMULQDQ the tests above exercise both implementations.
TEST(Crc32Test, FoldIsChosenWhereTheCpuHasIt) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(Crc32UsesFold(), __builtin_cpu_supports("pclmul") &&
                                 __builtin_cpu_supports("sse4.1"));
#else
  EXPECT_FALSE(Crc32UsesFold());
#endif
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, SkewedPrefersLowRanks) {
  Random rng(11);
  uint64_t low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Skewed(100);
    if (v < 20) ++low;
    if (v >= 80) ++high;
  }
  EXPECT_GT(low, high * 2);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter++; });
    }
  }  // the destructor runs every queued task before it joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelismIsReal) {
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&] {
        const int now = ++concurrent;
        int old_peak = peak.load();
        while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        --concurrent;
      });
    }
  }
  EXPECT_GT(peak.load(), 1);
}

}  // namespace
}  // namespace prima::util
