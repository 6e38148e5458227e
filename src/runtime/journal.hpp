// Write-ahead journal of the analysis server (crash tolerance layer).
//
// Every batch the server ingests is appended here as a CRC32-framed,
// length-prefixed binary record *before* it folds into streaming state, so
// a server crash loses no acknowledged delivery: restart loads the newest
// checkpoint and replays the journal suffix through the normal delivery
// path. It is the server's only copy of the records (its collector counts
// and forwards them without storing them), and each frame is encoded
// straight from the delivered span into the writer's buffer.
//
// Durability model: appends buffer in user space and drain to the file in
// large writes (`commit`), with no fsync anywhere — a process crash keeps
// everything committed to the OS page cache, a torn in-flight frame at the
// crash instant is expected and salvaged away on read. The writer counts
// its own frames, bytes, commits, failures and losses; the owning server
// exposes them as health gauges, so the durability cost is a measured
// quantity, not a guess.
//
// Frame layout (little-endian, after the one-line file header; session
// and checkpoint files use the same frames and walker under their own
// header lines):
//   u32 payload_len | u32 crc32(payload) | payload
//   payload: u8 kind | i32 rank | u64 seq | u32 count | count * record
//   record:  i32 sensor_id | i32 rank | f32 metric | f32 reserved |
//            f64 t_begin | f64 t_end | f64 avg | f64 min | u32 count |
//            u32 flags                       (= kRecordWireBytes bytes)
// Kinds: 0 = batch delivery, 1 = stale-rank mark (seq/count unused),
//        2 = standard update — a peer shard's (sensor, group) standard-time
//            minimum broadcast by the sharded tier. Field reuse keeps the
//            wire format unchanged: rank carries the sensor id, seq the
//            group (as u32), and a single carrier record holds the value in
//            avg_duration. See make_standard_frame / decode_standard_frame.
//        3 = rank-rejoin mark (elastic revival; seq/count unused)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/vfs.hpp"
#include "runtime/types.hpp"

namespace vsensor::rt {

enum class JournalFrameKind : uint8_t {
  Batch = 0,
  StaleRank = 1,
  Standard = 2,
  /// Elastic revival: rank rejoined after a stale verdict (seq/count
  /// unused, like StaleRank). Replay re-lifts the exclusion in fold order.
  RankRejoin = 3,
};

struct JournalFrame {
  JournalFrameKind kind = JournalFrameKind::Batch;
  int32_t rank = -1;
  uint64_t seq = 0;  ///< transport sequence number (Batch frames)
  std::vector<SliceRecord> records;
};

/// Frame a payload in place: open_frame appends the `u32 len | u32 crc32`
/// placeholders and returns their offset, the caller appends the payload,
/// close_frame patches both. Journals, sessions and checkpoints all frame
/// this way. close_frame throws vsensor::Error for a payload longer than
/// UINT32_MAX bytes rather than write a wrapped length.
size_t open_frame(std::string& out);
void close_frame(std::string& out, size_t at);

/// Append one frame to `out`, its payload straight from `records`. The
/// journal writer and the session writer's batch frames both use it.
void append_journal_frame(std::string& out, JournalFrameKind kind,
                          int32_t rank, uint64_t seq,
                          std::span<const SliceRecord> records);

/// Bytes of one encoded frame carrying `records` records (header + CRC +
/// payload), without encoding it.
size_t journal_frame_bytes(size_t records);

/// Serialize one frame exactly as the writer appends it (header + CRC +
/// payload). Exposed so tests and the crash injector can construct torn
/// prefixes of a real frame.
std::string encode_journal_frame(const JournalFrame& frame);

/// Bytes of a frame's `u32 len | u32 crc32` header.
inline constexpr size_t kFrameHeaderBytes = 8;

/// The salvage rule of the journal, session and checkpoint loaders: walk
/// the frames of `bytes` from `pos`, handing each intact payload to
/// `accept`, which returns null to take it or why it is malformed. The
/// first torn, CRC-damaged or rejected frame ends the walk and is named,
/// with its offset, in `warning`. A frame whose length runs past the end is
/// torn before any of it is read. Returns the offset past the last accepted
/// frame. Over a file, `bytes` reads one frame at a time and `payload` is
/// valid only during `accept`.
uint64_t walk_frames(
    io::ReadWindow& bytes, uint64_t pos,
    const std::function<const char*(std::string_view payload)>& accept,
    std::string* warning);

/// Build a Standard frame from one broadcast standard minimum (see the
/// field-reuse note in the header comment).
JournalFrame make_standard_frame(int32_t sensor_id, int32_t group,
                                 double value);

/// Decoded Standard frame payload, or unset if the frame is not a
/// well-formed Standard frame (wrong kind, missing carrier record, or a
/// value no real standard can take). Recovery skips malformed frames.
struct StandardFrameView {
  int32_t sensor_id = 0;
  int32_t group = 0;
  double value = 0.0;
};
std::optional<StandardFrameView> decode_standard_frame(
    const JournalFrame& frame);

struct JournalWriterConfig {
  /// User-space buffer; appends drain to the file once it exceeds this.
  size_t buffer_bytes = 64 * 1024;
  /// Group commit: force a drain every N appended frames (1 = every frame
  /// is on the file — i.e. durable against process crash — before the
  /// ingest that wrote it returns; larger values trade a wider crash
  /// window for fewer writes).
  uint64_t commit_every_frames = 1;
};

/// A journal writer's own tallies. The server sums them over the writers
/// it retires, so its journal gauges cover the whole run.
struct JournalCounters {
  uint64_t appended_frames = 0;
  uint64_t appended_bytes = 0;
  uint64_t commits = 0;
  uint64_t committed_bytes = 0;
  /// Failed vfs operations (open/append/flush).
  uint64_t io_errors = 0;
  /// Appended-and-acknowledged bytes that never reached the file: dropped
  /// at degraded entry or left over by the final drain (close()).
  uint64_t lost_bytes = 0;

  void add(const JournalCounters& c);
};

class JournalWriter {
 public:
  /// Opens `path` truncated (through `vfs`; null = the real filesystem)
  /// and writes the header. Never throws: an open failure leaves the
  /// writer unhealthy — appends keep buffering, commits keep failing, and
  /// the owner decides whether to retry (reopen_truncated) or degrade.
  JournalWriter(std::string path, JournalWriterConfig cfg = {},
                io::Vfs* vfs = nullptr);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Append one frame, encoded straight from `records` into the buffer
  /// (commits per the config). Returns false when an auto-commit drain
  /// failed — the frame stays buffered, so a later commit() retry can still
  /// land it. Not thread-safe: the owning server serializes appends with
  /// its ingest order.
  bool append(JournalFrameKind kind, int32_t rank, uint64_t seq,
              std::span<const SliceRecord> records);
  /// The same append, from a frame value.
  bool append(const JournalFrame& frame) {
    return append(frame.kind, frame.rank, frame.seq, frame.records);
  }

  /// Drain the user-space buffer to the file (no fsync). Returns false on
  /// failure; partial progress (a short write) is accounted — the written
  /// prefix leaves the buffer, the rest stays for the next retry.
  bool commit();

  /// Truncate the journal to an empty file (after a checkpoint made its
  /// content redundant), reset the frame counter, and clear any failed
  /// state. Returns false when the reopen itself failed (still unhealthy).
  bool reopen_truncated();

  /// Drop everything still buffered in user space — the portion of history
  /// a process crash destroys. The file keeps only committed bytes. This
  /// models intentional loss and does NOT count toward lost_bytes().
  void discard_buffer();

  /// The final drain: commit what is buffered, then release the file.
  /// Bytes the drain cannot land were acknowledged and are gone: they
  /// count in lost_bytes() and are returned. The destructor closes too,
  /// but an owner that needs the count must close() first.
  uint64_t close();

  /// Drop the buffer *as loss* (degraded-mode entry: the owner stops
  /// journaling and the buffered acked-but-undrained bytes are gone).
  /// Returns the byte count dropped.
  size_t drop_buffer_as_lost();

  /// Stream open and no unrecovered failure.
  bool healthy() const { return file_ != nullptr; }

  const std::string& path() const { return path_; }
  const JournalCounters& counters() const { return n_; }
  uint64_t appended_frames() const { return n_.appended_frames; }
  uint64_t appended_bytes() const { return n_.appended_bytes; }
  uint64_t commits() const { return n_.commits; }
  uint64_t committed_bytes() const { return n_.committed_bytes; }
  size_t buffered_bytes() const { return buf_.size(); }
  uint64_t io_errors() const { return n_.io_errors; }
  uint64_t lost_bytes() const { return n_.lost_bytes; }
  const std::string& last_error() const { return last_error_; }

 private:
  bool open_truncated();
  void record_error(std::string what);

  std::string path_;
  JournalWriterConfig cfg_;
  io::Vfs* vfs_;
  std::unique_ptr<io::File> file_;
  std::string buf_;
  uint64_t frames_since_commit_ = 0;
  JournalCounters n_;
  std::string last_error_;
};

/// What walking a journal file found. Walking never throws on corrupt or
/// truncated content: the valid frame prefix is salvaged and the damage is
/// described, so recovery can proceed with what survived.
struct JournalWalk {
  uint64_t valid_bytes = 0;    ///< bytes covered by header + intact frames
  uint64_t total_bytes = 0;    ///< file size as read
  uint64_t torn_bytes = 0;     ///< trailing bytes dropped by salvage
  bool header_valid = false;
  /// Human-readable description of any salvage action ("" = clean load).
  std::string warning;

  bool clean() const { return header_valid && torn_bytes == 0; }
};

/// Walk the journal at `path` one frame at a time, salvaging the valid
/// prefix (see JournalWalk): each intact frame is decoded into one reused
/// JournalFrame, whose records keep their capacity, and handed to `apply`
/// as it is read, so `apply` copies whatever it keeps. A missing file walks
/// as empty-with-warning; a bad header yields no frame.
JournalWalk load_journal(const std::string& path,
                         const std::function<void(const JournalFrame&)>& apply);

/// The same walk over journal bytes already in memory (the whole file,
/// header line included).
JournalWalk parse_journal(std::string_view bytes,
                          const std::function<void(const JournalFrame&)>& apply);

/// A journal walked whole, with a copy of every frame it applied.
struct JournalLoad : JournalWalk {
  std::vector<JournalFrame> frames;
};

/// load_journal collecting the frames.
JournalLoad load_journal(const std::string& path);

}  // namespace vsensor::rt
