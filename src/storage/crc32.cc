// CRC-32 (IEEE 802.3 polynomial, reflected): the two kernels behind
// Crc32 and the one-time choice between them.

#include <array>
#include <bit>
#include <cstring>

#include "storage/crc32_internal.h"
#include "storage/page_codec.h"
#include "util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define STINDEX_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace stindex {
namespace crc32_internal {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected 0x04C11DB7

// kSliceTables[0] is the classic byte-at-a-time table. kSliceTables[s][b]
// is the CRC contribution of byte b followed by s zero bytes, so one step
// can look up eight bytes independently and XOR the results.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables BuildSliceTables() {
  SliceTables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
    }
    tables[0][b] = c;
  }
  for (size_t s = 1; s < tables.size(); ++s) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables[s - 1][b];
      tables[s][b] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

alignas(64) constexpr SliceTables kSliceTables = BuildSliceTables();

uint32_t LoadLittleEndian32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

// Advances the CRC register `crc` (not yet final-XORed) over `size` bytes.
uint32_t SliceBy8(uint32_t crc, const uint8_t* p, size_t size) {
  const SliceTables& t = kSliceTables;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLittleEndian32(p) ^ crc;
    const uint32_t hi = LoadLittleEndian32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef STINDEX_CRC32_CLMUL

// Folding constants for the reflected polynomial, from Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009). Each pair is (low qword, high qword).
//   k1, k2: x^(512+32) and x^(512-32) mod P, folding across 64 bytes;
//   k3, k4: x^(128+32) and x^(128-32) mod P, folding across 16 bytes;
//   k5:     x^64 mod P, folding 64 bits down to 32;
//   P', mu: the polynomial and its Barrett constant floor(x^64 / P).
constexpr int64_t kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr int64_t kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr int64_t kK5 = 0x163cd6124;
constexpr int64_t kPolyP = 0x1db710641, kBarrettMu = 0x1f7011641;

// Smallest input FoldClmul takes: one block for each of its four lanes.
constexpr size_t kClmulMinBytes = 64;

#define STINDEX_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

STINDEX_CLMUL_TARGET inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries the 128-bit remainder `acc` forward by the distance `k` encodes
// and adds the block that sits there.
STINDEX_CLMUL_TARGET inline __m128i Fold(__m128i acc, __m128i k,
                                         __m128i block) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), block);
}

// Advances the CRC register `crc` over `size` bytes; size >= 64 and a
// multiple of 16.
STINDEX_CLMUL_TARGET uint32_t FoldClmul(uint32_t crc, const uint8_t* p,
                                        size_t size) {
  // Four lanes, each 16 bytes of the current 64-byte block.
  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  size -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load128(p));
    x1 = Fold(x1, k1k2, Load128(p + 16));
    x2 = Fold(x2, k1k2, Load128(p + 32));
    x3 = Fold(x3, k1k2, Load128(p + 48));
  }

  // Lanes into one 128-bit remainder, then the remaining 16-byte blocks.
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  __m128i r = Fold(x0, k3k4, x1);
  r = Fold(r, k3k4, x2);
  r = Fold(r, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) r = Fold(r, k3k4, Load128(p));

  // 128 bits to 64: the low qword times k4, added to the high qword.
  const __m128i low32_mask = _mm_setr_epi32(-1, 0, -1, 0);
  r = _mm_xor_si128(_mm_srli_si128(r, 8),
                    _mm_clmulepi64_si128(r, k3k4, 0x10));
  // 64 bits to 32: the low 32 bits times k5, added to the rest.
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  r = _mm_xor_si128(
      _mm_srli_si128(r, 4),
      _mm_clmulepi64_si128(_mm_and_si128(r, low32_mask), k5, 0x00));

  // Barrett reduction: q = floor(r / P) via mu, then r - q * P.
  const __m128i p_mu = _mm_set_epi64x(kBarrettMu, kPolyP);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(r, low32_mask), p_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32_mask), p_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(r, q), 1));
}

#undef STINDEX_CLMUL_TARGET

#endif  // STINDEX_CRC32_CLMUL

}  // namespace

uint32_t Crc32Portable(const uint8_t* data, size_t size) {
  return SliceBy8(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

bool ClmulAvailable() {
#ifdef STINDEX_CRC32_CLMUL
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

uint32_t Crc32Clmul(const uint8_t* data, size_t size) {
#ifdef STINDEX_CRC32_CLMUL
  uint32_t crc = 0xFFFFFFFFu;
  if (size >= kClmulMinBytes) {
    const size_t folded = size & ~static_cast<size_t>(15);
    crc = FoldClmul(crc, data, folded);
    data += folded;
    size -= folded;
  }
  return SliceBy8(crc, data, size) ^ 0xFFFFFFFFu;
#else
  (void)data;
  (void)size;
  STINDEX_CHECK_MSG(false, "Crc32Clmul needs an x86-64 build");
  return 0;
#endif
}

}  // namespace crc32_internal

uint32_t Crc32(const uint8_t* data, size_t size) {
  // Chosen once, at first call, by what this CPU supports.
  static const auto kernel = crc32_internal::ClmulAvailable()
                                 ? crc32_internal::Crc32Clmul
                                 : crc32_internal::Crc32Portable;
  return kernel(data, size);
}

}  // namespace stindex
