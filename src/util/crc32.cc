#include "util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PRIMA_CRC32_FOLD 1
#endif

namespace prima::util {

namespace {
// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: table 0 is
// the classic one-byte table, and table k maps byte b to the CRC of b
// followed by k zero bytes, so eight lookups advance the CRC over 8 bytes.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const Tables& GetTables() {
  static const Tables tables = MakeTables();
  return tables;
}

// Little-endian load of four bytes, independent of the host byte order.
uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The implementations below work on the raw CRC register (the checksum
// with its pre- and post-inversion taken off).
using Impl = uint32_t (*)(uint32_t c, const unsigned char* p, size_t n);

uint32_t SliceBy8(uint32_t c, const unsigned char* p, size_t n) {
  const Tables& t = GetTables();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ Load32(p);
    const uint32_t hi = Load32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef PRIMA_CRC32_FOLD
// Folding constants for the reflected polynomial, each bit-reflected and
// shifted left by one (Gopal et al., §4): k1 = x^(4*128+32) mod P and
// k2 = x^(4*128-32) mod P fold a 64-byte stride, k3 = x^(128+32) mod P and
// k4 = x^(128-32) mod P a 16-byte one, and k5 = x^64 mod P takes the last
// 64 bits to 32. The Barrett reduction uses P itself (0x1DB710641) and
// u = floor(x^64 / P) (0x1F7011641).
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kPoly = 0x1db710641, kMu = 0x1f7011641;

// One 128-bit fold: the lane x, multiplied forward by the distance its
// two halves must travel, added into the data it lands on.
__attribute__((target("pclmul,sse4.1"))) inline __m128i FoldInto(
    __m128i x, __m128i k, __m128i data) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), data);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i LoadU(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds n >= 64 bytes: four 16-byte lanes in parallel over each 64-byte
// stride, the lanes into one, the remaining whole 16-byte blocks into it,
// then a reduction to 32 bits. The last n % 16 bytes go to SliceBy8.
__attribute__((target("pclmul,sse4.1"))) uint32_t Fold(
    uint32_t c, const unsigned char* p, size_t n) {
  if (n < 64) return SliceBy8(c, p, n);
  __m128i x0 = _mm_xor_si128(LoadU(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = LoadU(p + 16);
  __m128i x2 = LoadU(p + 32);
  __m128i x3 = LoadU(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = FoldInto(x0, k1k2, LoadU(p));
    x1 = FoldInto(x1, k1k2, LoadU(p + 16));
    x2 = FoldInto(x2, k1k2, LoadU(p + 32));
    x3 = FoldInto(x3, k1k2, LoadU(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  __m128i x = FoldInto(x0, k3k4, x1);
  x = FoldInto(x, k3k4, x2);
  x = FoldInto(x, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = FoldInto(x, k3k4, LoadU(p));

  // 128 -> 64 bits: the low half times k4 into the high half, which also
  // appends the 32 zero bits the CRC definition multiplies by.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  // 64 -> 32 bits: the low 32 bits times k5 into the rest.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32),
                                         _mm_set_epi64x(0, kK5), 0x00));
  // Barrett reduction of the 64-bit remainder to the 32-bit CRC.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  c = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
  return SliceBy8(c, p, n);
}
#endif

Impl ChooseImpl() {
#ifdef PRIMA_CRC32_FOLD
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return Fold;
  }
#endif
  return SliceBy8;
}

Impl GetImpl() {
  static const Impl impl = ChooseImpl();
  return impl;
}

uint32_t Extend(Impl impl, uint32_t crc, Slice data) {
  return impl(crc ^ 0xFFFFFFFFu,
              reinterpret_cast<const unsigned char*>(data.data()),
              data.size()) ^
         0xFFFFFFFFu;
}
}  // namespace

uint32_t Crc32Extend(uint32_t crc, Slice data) {
  return Extend(GetImpl(), crc, data);
}

uint32_t Crc32ExtendPortable(uint32_t crc, Slice data) {
  return Extend(SliceBy8, crc, data);
}

uint32_t Crc32(Slice data) { return Crc32Extend(0, data); }

bool Crc32UsesFold() { return GetImpl() != SliceBy8; }

}  // namespace prima::util
