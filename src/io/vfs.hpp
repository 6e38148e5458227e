// Minimal virtual filesystem seam for every durable write the pipeline
// makes (journal frames, checkpoint publishes, session exports, health /
// event / flight JSONL dumps).
//
// The paper's monitor is pitched as always-on; a production filesystem is
// not. Routing all durable I/O through one small interface lets a
// deterministic fault injector (io::FaultFs) stand between the writers and
// the disk, so ENOSPC, short writes, failed flushes, and failed renames
// become schedulable, replayable events instead of untestable accidents —
// the same move simmpi::FaultInjector made for the network.
//
// Design rules:
//  * Operations never throw. Every failure is an IoResult the caller must
//    translate into its own degradation policy (retry, degrade, warn).
//  * The interface is write-side only. Loaders (load_journal,
//    load_checkpoint, load_session) already fail closed on damaged bytes;
//    injecting read faults would only re-test that salvage logic. They
//    read through the plain read_file below.
//  * Passing a null Vfs* anywhere means "the real filesystem" — existing
//    call sites keep working untouched via resolve().
#pragma once

#include <cstdint>
#include <memory>
#include <streambuf>
#include <string>

namespace vsensor::io {

/// Outcome of one vfs operation. `written` only means something for
/// append: the bytes that reached the file before the failure (a short
/// write reports ok = false with 0 < written < len).
struct IoResult {
  bool ok = true;
  size_t written = 0;
  std::string error;

  explicit operator bool() const { return ok; }

  static IoResult success(size_t written = 0) { return {true, written, ""}; }
  static IoResult failure(std::string error, size_t written = 0) {
    return {false, written, std::move(error)};
  }
};

/// An open writable file. Destroying the handle closes it (best effort —
/// data not yet flushed rides on the implementation's buffer discipline).
class File {
 public:
  virtual ~File() = default;

  /// Append `len` bytes. May write a prefix and fail (see IoResult).
  virtual IoResult append(const char* data, size_t len) = 0;
  IoResult append(const std::string& bytes) {
    return append(bytes.data(), bytes.size());
  }

  /// Push buffered bytes to the OS (no fsync anywhere in this codebase).
  virtual IoResult flush() = 0;
};

/// The write-side filesystem interface. One process-wide RealFs instance
/// backs the default path; tests wrap it in a FaultFs.
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Open `path` truncated (creating it) for writing.
  virtual std::unique_ptr<File> open_truncate(const std::string& path,
                                              std::string* error) = 0;
  /// Open `path` for appending, creating it when absent.
  virtual std::unique_ptr<File> open_append(const std::string& path,
                                            std::string* error) = 0;
  /// Atomically rename `from` over `to` (the checkpoint publish step).
  virtual IoResult rename_file(const std::string& from,
                               const std::string& to) = 0;
  /// Truncate `path` in place to `size` bytes (torn-tail trimming).
  virtual IoResult truncate_file(const std::string& path, uint64_t size) = 0;
  /// Remove `path`. ok = a file existed and is gone; a missing file is
  /// ok = false with an empty error (not-a-failure, nothing-removed).
  virtual IoResult remove_file(const std::string& path) = 0;
};

/// Passthrough to the real filesystem.
class RealFs final : public Vfs {
 public:
  std::unique_ptr<File> open_truncate(const std::string& path,
                                      std::string* error) override;
  std::unique_ptr<File> open_append(const std::string& path,
                                    std::string* error) override;
  IoResult rename_file(const std::string& from, const std::string& to) override;
  IoResult truncate_file(const std::string& path, uint64_t size) override;
  IoResult remove_file(const std::string& path) override;
};

/// The process-wide real filesystem instance.
RealFs& real_fs();

/// Read all of `path` into `out`, which is sized from the file first, so
/// the bytes are copied once and the file is held once. False when the
/// file cannot be opened or read in full.
bool read_file(const std::string& path, std::string* out);

/// Null-tolerant resolution: every durable-I/O entry point takes a Vfs*
/// that may be null, meaning the real filesystem.
inline Vfs& resolve(Vfs* vfs) {
  return vfs != nullptr ? *vfs : real_fs();
}

/// std::streambuf over an io::File, so the JSONL exporters (session,
/// events, health, metrics) can keep their ostream-shaped renderers while
/// still routing bytes through the vfs. Failures latch: once any append
/// fails, failed() stays true and further output is dropped.
class FileStreambuf final : public std::streambuf {
 public:
  explicit FileStreambuf(File* file) : file_(file) {}

  bool failed() const { return failed_ || file_ == nullptr; }

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int sync() override;

 private:
  File* file_;
  bool failed_ = false;
};

}  // namespace vsensor::io
