// Checkpoint/restore of the analysis server (crash tolerance layer).
//
// A checkpoint is one versioned file of CRC-protected binary frames that
// together hold everything the server must remember to continue a run
// after a crash:
//  * the complete StreamingDetector state (running minima, Welford
//    accumulators, standard-free matrix cell sums, per-rank last slices,
//    stale set, flag counters) — every double carried byte-exact;
//  * the Collector's cumulative accounting counters, so ingest/byte/batch
//    accounting stays continuous across the restart;
//  * the per-rank delivery watermarks (SeqTracker), which make replaying a
//    journal suffix that overlaps the checkpoint idempotent — a batch at
//    or below its rank's watermark is skipped, never double-counted;
//  * shape fields (sensor count, ranks, run time, matrix buckets) so a
//    checkpoint is never restored into a differently-shaped server.
//
// File layout (`vsensor-checkpoint 3`): a one-line header, then frames,
// each u64 payload_len | u32 crc32(payload) | payload. Every payload is
//
//   u32 sensor_count | i32 ranks | f64 run_time | u32 buckets
//   collector counters, watermarks
//   u64 slots; per slot, (sensor, group) ascending:
//     i32 sensor | i32 group | f64 standard | u64 rows
//     per row, rank ascending: i32 rank | f64 rank_standard | u32 cells
//     per cell, bucket ascending: u32 bucket | f64 weight_over_avg
//                                 | f64 weight
//   Welford stats, per-sensor record counts, last slices, stale ranks,
//   flag counters
//
// A row carries its key once for all its cells, so a cell costs 20 bytes.
// Each other container is a u64 count then fixed-width entries in
// ascending key order.
//
// The first frame is the base: the whole state. Each later frame is a
// delta: every standard, the rows the fold changed since the previous
// frame (each with its rank standard and its cells from the lowest changed
// bucket up), the last slices of those rows' (sensor, rank) pairs, and
// every other section whole. Loading applies a delta by assigning its
// entries over the state so far and replacing the whole sections. That is
// exact because between two frames a fold only adds or changes entries;
// the stale set can shrink, which is why it is written whole.
//
// The server publishes a base atomically: `<path>.tmp`, then a rename over
// the target, which drops the deltas of the previous base in the same
// step. It appends a delta to the file in place. A file of another version
// is not read: it fails closed with a warning naming its version, and
// recovery replays the journal.
//
// Two encoders write base bytes. The server writes each frame straight
// from its live state (encode_live_checkpoint): no Snapshot copy, one
// reused buffer, the CRC patched in place. encode_checkpoint writes a base
// from a ServerCheckpoint without validating it; it is what
// save_checkpoint writes and the reference the live encoder is tested
// against. The decoder validates every frame: keys strictly ascending,
// buckets in [0, buckets), counts within the bytes left. Loading never
// throws on corrupt content. A damaged base fails closed with a structured
// warning, and recovery falls back to replaying the journal from scratch.
// After the base, the first torn, damaged or out-of-shape frame ends the
// chain: the frames before it are applied and the rest is reported as a
// torn tail, as the journal's is. Recovery truncates the journal after its
// post-recovery base, so from then on the checkpoint file is the only copy
// of the earlier state; rejecting a good base over a torn append would
// lose it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/vfs.hpp"
#include "runtime/collector.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"

namespace vsensor::rt {

struct ServerCheckpoint {
  // Shape sanity: restoring into a server with a different sensor table,
  // rank count, analysis horizon, or matrix resolution is refused.
  uint32_t sensor_count = 0;
  int32_t ranks = 0;
  double run_time = 0.0;
  /// Matrix time buckets per row (StreamingDetector::buckets()); never 0
  /// in a valid checkpoint.
  uint32_t buckets = 0;

  Collector::Counters collector;
  /// Per-rank delivery watermarks at checkpoint time (journal-replay dedup).
  std::vector<SeqTracker> watermarks;
  StreamingDetector::Snapshot detector;
};

/// Serialize a checkpoint exactly as save_checkpoint writes it: the header
/// and one base frame. Exposed so tests can corrupt real bytes. The
/// detector snapshot must be one restore() accepts (every cell under its
/// rank standard, every rank standard under its standard); it is written
/// as given, not checked.
std::string encode_checkpoint(const ServerCheckpoint& ckpt);

/// Encode a running server's checkpoint frame into `out` straight from
/// live state, clearing the detector's marks. A base is a whole file: the
/// same bytes encode_checkpoint writes for ServerCheckpoint{shape and
/// buckets of `detector`, collector, watermarks, detector.snapshot()}. A
/// delta is one frame, to append after the file's last frame. `out` is
/// overwritten and keeps its capacity, so a server that reuses it grows the
/// buffer once. The caller must keep the detector from folding meanwhile
/// (the server holds its lock).
void encode_live_checkpoint(std::string& out, CheckpointFrame frame,
                            const Collector::Counters& collector,
                            const std::vector<SeqTracker>& watermarks,
                            StreamingDetector& detector);

/// Outcome of a non-throwing checkpoint publish attempt.
struct CheckpointSaveResult {
  bool ok = false;
  /// The `<path>.tmp` staging file survived the failure (rename window):
  /// recovery should sweep it. False when the write failed early enough
  /// that the tmp was removed (or never materialized).
  bool tmp_left = false;
  std::string error;
};

/// Publish encoded checkpoint bytes atomically through `vfs` (null = real
/// filesystem): write `<path>.tmp`, flush, rename over `path`. On failure
/// the previous checkpoint at `path` is untouched; the result says whether
/// the staging tmp was left behind.
CheckpointSaveResult try_publish_checkpoint(const std::string& path,
                                            std::string_view bytes,
                                            io::Vfs* vfs = nullptr);

/// Append one encoded delta frame to the checkpoint at `path` through
/// `vfs`: open for append, append, flush, no rename. A failure can leave a
/// torn frame at the end of the file, which the loader drops; the caller
/// must then write a base before any further delta.
CheckpointSaveResult try_append_checkpoint(const std::string& path,
                                           std::string_view frame,
                                           io::Vfs* vfs = nullptr);

/// Encode `ckpt` and publish it on the real filesystem; throws on failure.
void save_checkpoint(const std::string& path, const ServerCheckpoint& ckpt);

/// Result of reading a checkpoint back. Never throws on corrupt content.
struct CheckpointLoad {
  bool ok = false;
  /// The base with every applied delta.
  ServerCheckpoint ckpt;
  uint64_t total_bytes = 0;
  /// Delta frames applied after the base.
  uint64_t deltas = 0;
  /// Bytes after the last applied frame, dropped as a torn tail.
  uint64_t torn_bytes = 0;
  /// Why the load failed, or what tail it dropped ("" for a clean load).
  std::string warning;
};

/// Load `path`. A missing file, or a truncated, CRC-damaged or
/// structurally malformed base, yields ok = false with a warning — the
/// caller recovers from the journal alone. Damage after the base ends the
/// delta chain: ok stays true, and `torn_bytes` and `warning` describe the
/// dropped tail.
CheckpointLoad load_checkpoint(const std::string& path);

/// Parse checkpoint bytes already in memory (the file-format body,
/// including header). Shared by load_checkpoint and fuzz tests.
CheckpointLoad parse_checkpoint(const std::string& bytes);

}  // namespace vsensor::rt
