#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && !defined(MINIHIVE_DISABLE_SIMD)
#define MINIHIVE_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace minihive {

namespace {

/// 8 tables of 256 entries: table[0] is the classic byte-at-a-time CRC-32
/// table; table[k][b] advances a CRC whose low byte is b by k more zero
/// bytes, enabling the slice-by-8 main loop below.
struct Crc32Tables {
  uint32_t t[8][256];

  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

/// Slice-by-8 over the raw (already inverted) CRC register.
uint32_t SliceBy8(const char* p, size_t n, uint32_t crc) {
  const Crc32Tables& tables = Tables();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    crc ^= lo;
    crc = tables.t[7][crc & 0xFF] ^ tables.t[6][(crc >> 8) & 0xFF] ^
          tables.t[5][(crc >> 16) & 0xFF] ^ tables.t[4][crc >> 24] ^
          tables.t[3][hi & 0xFF] ^ tables.t[2][(hi >> 8) & 0xFF] ^
          tables.t[1][(hi >> 16) & 0xFF] ^ tables.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
#endif
  while (n-- > 0) {
    crc = tables.t[0][(crc ^ static_cast<uint8_t>(*p++)) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#ifdef MINIHIVE_CRC32_CLMUL

#define MINIHIVE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

MINIHIVE_CLMUL_TARGET inline __m128i Load128(const char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Advances `acc` past one more lane distance and adds in `next`:
/// clmul(acc.lo, k.lo) ^ clmul(acc.hi, k.hi) ^ next.
MINIHIVE_CLMUL_TARGET inline __m128i Fold128(__m128i acc, __m128i k,
                                             __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009) in the bit-reflected
/// domain of the same 0xEDB88320 polynomial. Four 128-bit lanes fold 64
/// bytes per step; they are then folded into one lane, single 16-byte blocks
/// fold in, and a Barrett reduction brings the 128-bit remainder down to 32
/// bits. Requires n >= 64 and n % 16 == 0; `crc` is the raw register.
MINIHIVE_CLMUL_TARGET uint32_t FoldClmul(const char* p, size_t n,
                                         uint32_t crc) {
  // Folding constants x^(512+32), x^(512-32) mod P (four lanes apart) and
  // x^(128+32), x^(128-32) mod P (one lane apart), bit-reflected.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P itself and mu = floor(x^64 / P) for the Barrett step.
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = Fold128(x1, k1k2, Load128(p));
    x2 = Fold128(x2, k1k2, Load128(p + 16));
    x3 = Fold128(x3, k1k2, Load128(p + 32));
    x4 = Fold128(x4, k1k2, Load128(p + 48));
    p += 64;
    n -= 64;
  }
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  while (n >= 16) {
    x1 = Fold128(x1, k3k4, Load128(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t);

  // Barrett reduction 64 -> 32 bits.
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef MINIHIVE_CLMUL_TARGET

bool ClmulAvailable() {
  static const bool available =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return available;
}

#endif  // MINIHIVE_CRC32_CLMUL

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  uint32_t crc = ~seed;
  const char* p = data.data();
  size_t n = data.size();
#ifdef MINIHIVE_CRC32_CLMUL
  if (n >= 64 && ClmulAvailable()) {
    size_t folded = n & ~static_cast<size_t>(15);
    crc = FoldClmul(p, folded, crc);
    p += folded;
    n -= folded;
  }
#endif
  return ~SliceBy8(p, n, crc);
}

}  // namespace minihive
