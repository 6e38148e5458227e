// Checkpoints of the analysis server (crash tolerance layer).
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
//    checkpoint is never decoded into a differently-shaped server.
//
// File layout (`vsensor-checkpoint 4`): a one-line header, then frames in
// the journal's framing (runtime/journal.hpp), u32 payload_len |
// u32 crc32(payload) | payload, written by open_frame/close_frame and read
// by walk_frames, as journals and sessions are. Every payload is
//
//   u32 sensor_count | i32 ranks | f64 run_time | u32 buckets
//   collector counters, watermarks
//   detector section:
//     u64 slots; per slot, (sensor, group) ascending:
//       i32 sensor | i32 group | f64 standard | u64 rows
//       per row, rank ascending: i32 rank | f64 rank_standard | u32 cells
//       per cell, bucket ascending: u32 bucket | f64 weight_over_avg
//                                   | f64 weight
//     Welford stats, per-sensor record counts, last slices, stale ranks,
//     flag counters
//
// A row carries its key once for all its cells, so a cell costs 20 bytes.
// Each other container is a u64 count then fixed-width entries in
// ascending key order. This file handles the leading fields; the detector
// section is StreamingDetector's, encoded from its dense state and decoded
// straight back into it, with no map form in between.
//
// The first frame is the base: the whole state. Each later frame is a
// delta: every standard, the rows the fold changed since the previous
// frame (each with its rank standard and its cells from the lowest to the
// highest bucket the fold changed), the last slices of those rows'
// (sensor, rank) pairs, and every other section whole. Decoding a delta
// assigns its entries over the state so far and replaces the whole
// sections. That is exact because between two frames a fold only adds or
// changes entries; the stale set can shrink, which is why it is written
// whole.
//
// The server publishes a base atomically: `<path>.tmp`, then a rename over
// the target, which drops the deltas of the previous base in the same
// step. It appends a delta to the file in place. A file of another version
// (3 and older included) is not read: it fails closed with a warning
// naming its version, and recovery replays the journal.
//
// Loading never throws on corrupt content. Every frame is checked in full
// (CRC, then one decode routine run once to check) before it is applied
// (the same routine run again). The check: the shape (sensor count, ranks,
// run time, buckets, one watermark per rank) matches the detector decoded
// into; counts fit the bytes left; keys strictly ascend; buckets lie in
// [0, buckets) and ranks in [0, ranks); rows and last slices name known
// sensors; no cell weight is negative; statistics cover exactly the sensor
// table; no bytes trail. A base that fails fails closed with a warning, and
// recovery replays the journal from scratch. After the base, the first
// frame that fails ends the chain: the frames before it stay applied and
// the rest is a torn tail, as the journal's is. Recovery truncates the
// journal after its post-recovery base, so from then on the checkpoint
// file is the only copy of the earlier state; rejecting a good base over a
// torn append would lose it.
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

/// The leading fields of a checkpoint frame: everything but the detector
/// section.
struct ServerCheckpoint {
  // Shape sanity: decoding into a detector with a different sensor table,
  // rank count, analysis horizon, or matrix resolution is refused.
  uint32_t sensor_count = 0;
  int32_t ranks = 0;
  double run_time = 0.0;
  /// Matrix time buckets per row (StreamingDetector::buckets()); never 0
  /// in a valid checkpoint.
  uint32_t buckets = 0;

  Collector::Counters collector;
  /// Per-rank delivery watermarks at checkpoint time (journal-replay dedup);
  /// one per rank.
  std::vector<SeqTracker> watermarks;
};

/// Encode a running server's checkpoint frame into `out` straight from
/// live state, clearing the detector's marks. A base is a whole file: the
/// header line and one frame. A delta is one frame, to append after the
/// file's last frame. `out` is overwritten and keeps its capacity, so a
/// server that reuses it grows the buffer once. The caller must keep the
/// detector from folding meanwhile (the server holds its lock).
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

/// Result of reading a checkpoint back. Never throws on corrupt content.
struct CheckpointLoad {
  bool ok = false;
  /// The leading fields of the last applied frame: the shape, and the
  /// collector counters and watermarks as of that frame.
  ServerCheckpoint ckpt;
  /// The detector section of the last applied frame, as its decoder
  /// counted it.
  StreamingDetector::CheckpointCounts detector;
  uint64_t total_bytes = 0;
  /// Delta frames applied after the base.
  uint64_t deltas = 0;
  /// Bytes after the last applied frame, dropped as a torn tail.
  uint64_t torn_bytes = 0;
  /// Why the load failed, or what tail it dropped ("" for a clean load).
  std::string warning;
};

/// Load `path` one frame at a time through one bounded buffer and decode
/// its frames straight into `into`: the base replaces its state, then each
/// delta is applied over it. A missing file,
/// another format version, or a truncated, CRC-damaged, malformed or
/// out-of-shape base yields ok = false with a warning and leaves `into`
/// untouched; the caller recovers from the journal alone. Damage after the
/// base ends the delta chain: ok stays true, the deltas before it stay
/// applied, and `torn_bytes` and `warning` describe the dropped tail.
/// With no detector, every frame is only checked, against the shape its
/// base declares (vsensor-report's inspection).
CheckpointLoad load_checkpoint(const std::string& path,
                               StreamingDetector* into = nullptr);

/// The same, over checkpoint bytes already in memory (the whole file,
/// header line included).
CheckpointLoad parse_checkpoint(std::string_view bytes,
                                StreamingDetector* into = nullptr);

}  // namespace vsensor::rt
