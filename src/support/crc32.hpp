// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check framing every durable artifact: journal frames, checkpoint
// payloads, and v3 session lines.
//
// Three paths compute it, all returning bit-identical checksums:
//  * x86-64: carry-less-multiply folding (PCLMULQDQ, Intel's 2009 method)
//    for inputs of 64 bytes or more, the tail finished in slice-by-8. It
//    is chosen at run time, once, from the CPU's feature bits, not by a
//    build switch: a binary built without -march flags still runs it, and
//    every build of the library (including stand-alone ones that never
//    run the top-level feature tests) times the same path. A CPU without
//    PCLMULQDQ gets slice-by-8. SSE4.2's crc32 instruction stays unused:
//    it computes CRC-32C, a different polynomial.
//  * ARMv8 with VSENSOR_HW_CRC32: the ACLE __crc32d instructions, which
//    compute this exact polynomial (a build-time feature test).
//  * everywhere else: slice-by-8 (8 bytes per step through eight derived
//    tables, ~4-5x the classic one-byte table walk).
// The one-byte reference and the table-driven path stay exported so tests
// and the bench trajectory can pin and measure the equivalence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace vsensor {

/// CRC of `len` bytes starting at `data`, continuing from `seed` (pass the
/// previous return value to checksum discontiguous pieces; start at 0).
uint32_t crc32(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t crc32(std::string_view bytes, uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// Reference one-byte-per-step implementation (the pre-optimization
/// algorithm). Kept for equivalence tests and as the bench baseline the
/// speedup of crc32() is measured against.
uint32_t crc32_reference(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t crc32_reference(std::string_view bytes, uint32_t seed = 0) {
  return crc32_reference(bytes.data(), bytes.size(), seed);
}

/// The table-driven path crc32() falls back to (slice-by-8 on
/// little-endian hosts). Exported so tests run it on hosts where crc32()
/// takes a hardware path.
uint32_t crc32_portable(const void* data, size_t len, uint32_t seed = 0);

/// Name of the active implementation ("pclmul", "hw-arm", "slice8", or
/// "bytewise"), surfaced in the bench JSON so a trajectory compares like
/// with like.
const char* crc32_impl_name();

}  // namespace vsensor
