// Fixed-width binary serialization primitives shared by the durability
// layer (journal frames, checkpoints).
//
// Writes are byte-exact memcpy of trivially-copyable values — doubles
// round-trip bit for bit, which the recovery-equivalence invariant depends
// on. Reads go through a bounds-checked cursor so untrusted bytes (a
// corrupted journal or checkpoint) can only ever produce a clean failure,
// never a crash or out-of-bounds access.
//
// Byte order is the host's. The journal and checkpoint of one server are
// written and read by the same process family on the same machine, so
// cross-endian portability is explicitly out of scope (the CRC would fail
// closed on a foreign-endian file anyway).
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <type_traits>

namespace vsensor {

/// Append the raw bytes of `v` to `out`.
template <typename T>
void put_raw(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Write cursor into a buffer already sized for everything it will hold:
/// the in-place counterpart of put_raw, for encoders that know their exact
/// size up front and so skip the per-field capacity checks of append.
struct ByteCursor {
  char* p = nullptr;

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(p, &v, sizeof(T));
    p += sizeof(T);
  }
};

/// Bounds-checked cursor over untrusted bytes: every read is validated, so
/// corrupt input can only ever produce a clean failure, never a crash.
struct ByteReader {
  const char* p = nullptr;
  size_t len = 0;
  size_t pos = 0;

  bool has(size_t n) const { return len - pos >= n; }
  bool done() const { return pos == len; }

  template <typename T>
  bool read(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!has(sizeof(T))) return false;
    std::memcpy(v, p + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
};

}  // namespace vsensor
