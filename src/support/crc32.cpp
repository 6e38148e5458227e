#include "support/crc32.hpp"

#include <array>
#include <cstring>

#if VSENSOR_HW_CRC32
#include <arm_acle.h>
#elif defined(__x86_64__)
#include <immintrin.h>
#endif

namespace vsensor {

namespace {

constexpr std::array<uint32_t, 256> make_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// kTables[0] is the classic byte table; kTables[k] extends it so that
// eight table lookups advance the CRC over eight message bytes at once
// (the standard slice-by-8 construction).
constexpr std::array<std::array<uint32_t, 256>, 8> make_tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  t[0] = make_table();
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

constexpr bool kLittleEndian =
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    true;
#else
    false;
#endif

/// Advance the running CRC register `c` (seed already inverted) over `len`
/// bytes with the tables: slice-by-8 on little-endian hosts, then bytewise.
uint32_t table_update(const unsigned char* p, size_t len, uint32_t c) {
  if (kLittleEndian) {
    // Slice-by-8: fold two 32-bit loads through the eight tables per step.
    // The low word absorbs the running CRC; table index k handles the byte
    // that sits k positions from the end of the 8-byte block.
    while (len >= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
      p += 8;
      len -= 8;
    }
  }
  while (len-- > 0) {
    c = kTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if !VSENSOR_HW_CRC32 && defined(__x86_64__)

/// Smallest input the carry-less-multiply path takes: one 64-byte block
/// fills its four 16-byte lanes.
constexpr size_t kFoldMin = 64;

// Folding by carry-less multiplication (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009), with the paper's bit-reflected constants for the IEEE
// polynomial. k1..k5 are x^n mod P(x) for the fold distances n:
// multiplying a lane by one carries it n bits further along the message.
// P' is the polynomial itself and mu its Barrett quotient, x^64 / P(x).
alignas(16) constexpr uint64_t kFold4[2] = {0x154442bd4, 0x1c6e41596};  // k1 k2
alignas(16) constexpr uint64_t kFold1[2] = {0x1751997d0, 0x0ccaa009e};  // k3 k4
constexpr uint64_t kFold64 = 0x163cd6124;                                // k5
// P' then mu.
alignas(16) constexpr uint64_t kBarrett[2] = {0x1db710641, 0x1f7011641};

/// One fold step: carry `acc` forward by the distance the constant pair
/// `k` encodes and absorb the 16 bytes `next` at that position.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(__m128i acc,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Advance the running CRC register `c` over `len` bytes, where `len` is at
/// least kFoldMin and a multiple of 16: fold four 16-byte lanes per 64-byte
/// block, fold the lanes into one, fold any remaining 16-byte blocks into
/// it, then reduce the 128-bit remainder to 64 bits and Barrett-reduce that
/// to the 32-bit register.
__attribute__((target("pclmul,sse4.1"))) uint32_t fold_update(
    const unsigned char* p, size_t len, uint32_t c) {
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold4));
  for (; len >= 64; p += 64, len -= 64) {
    x0 = fold16(x0, k, load(p));
    x1 = fold16(x1, k, load(p + 16));
    x2 = fold16(x2, k, load(p + 32));
    x3 = fold16(x3, k, load(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold1));
  x0 = fold16(x0, k, x1);
  x0 = fold16(x0, k, x2);
  x0 = fold16(x0, k, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = fold16(x0, k, load(p));

  // 128 -> 64 bits: the low quadword, times k4, onto the high one; then
  // the low 32 bits of the result, times k5, onto the bits above them.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                           _mm_cvtsi64_si128(static_cast<long long>(kFold64)),
                           0x00));

  // Barrett reduction: quotient estimate by mu, remainder by P'.
  const __m128i poly =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

/// Whether this CPU runs fold_update: probed once, on first use.
bool have_fold() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return yes;
}

#endif

}  // namespace

uint32_t crc32_reference(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = kTables[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t crc32_portable(const void* data, size_t len, uint32_t seed) {
  return table_update(static_cast<const unsigned char*>(data), len,
                      seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

uint32_t crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#if VSENSOR_HW_CRC32
  while (len >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    c = __crc32d(c, chunk);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) c = __crc32b(c, *p++);
  return c ^ 0xFFFFFFFFu;
#else
#if defined(__x86_64__)
  if (len >= kFoldMin && have_fold()) {
    // Whole 16-byte blocks fold; the tail continues in the tables from
    // the folded register, so a split input chains exactly.
    const size_t blocks = len & ~size_t{15};
    c = fold_update(p, blocks, c);
    p += blocks;
    len -= blocks;
  }
#endif
  return table_update(p, len, c) ^ 0xFFFFFFFFu;
#endif
}

const char* crc32_impl_name() {
#if VSENSOR_HW_CRC32
  return "hw-arm";
#else
#if defined(__x86_64__)
  if (have_fold()) return "pclmul";
#endif
  return kLittleEndian ? "slice8" : "bytewise";
#endif
}

}  // namespace vsensor
