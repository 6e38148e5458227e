// Checkpoint/restore of the analysis server (crash tolerance layer).
//
// A checkpoint is one versioned, CRC-protected binary snapshot of
// everything the server must remember to continue a run after a crash:
//  * the complete StreamingDetector state (running minima, Welford
//    accumulators, standard-free matrix cell sums, per-rank last slices,
//    stale set, flag counters) — every double carried byte-exact;
//  * the Collector's cumulative accounting counters, so ingest/byte/batch
//    accounting stays continuous across the restart;
//  * the per-rank delivery watermarks (SeqTracker), which make replaying a
//    journal suffix that overlaps the checkpoint idempotent — a batch at
//    or below its rank's watermark is skipped, never double-counted;
//  * sanity fields (sensor count, ranks, run time) so a checkpoint is
//    never restored into a differently-shaped server.
//
// File layout: one-line header, then u64 payload_len | u32 crc32(payload)
// | payload. The payload is the fields of ServerCheckpoint in declaration
// order; each container is a u64 count then fixed-width entries in
// ascending key order.
//
// Two encoders write these bytes. The server writes each checkpoint
// straight from its live state (encode_live_checkpoint): no Snapshot copy,
// one reused buffer, the CRC patched in place. encode_checkpoint writes the
// same bytes from a ServerCheckpoint; it is what save_checkpoint writes and
// the reference the live encoder is tested against. Writing goes to `<path>.tmp` and renames over the target, so
// a crash mid-checkpoint leaves the previous checkpoint intact — the file
// at `path` is always either absent or a complete previous snapshot.
// Loading never throws on corrupt content: damage fails closed with a
// structured warning and recovery falls back to replaying the journal
// from scratch.
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
  // rank count, or analysis horizon is refused.
  uint32_t sensor_count = 0;
  int32_t ranks = 0;
  double run_time = 0.0;

  Collector::Counters collector;
  /// Per-rank delivery watermarks at checkpoint time (journal-replay dedup).
  std::vector<SeqTracker> watermarks;
  StreamingDetector::Snapshot detector;
};

/// Serialize a checkpoint exactly as save_checkpoint writes it (header +
/// length + CRC + payload). Exposed so tests can corrupt real bytes.
std::string encode_checkpoint(const ServerCheckpoint& ckpt);

/// Encode a running server's checkpoint into `out` straight from live
/// state: the same bytes encode_checkpoint writes for
/// ServerCheckpoint{shape of `detector`, collector, watermarks,
/// detector.snapshot()}. `out` is overwritten and keeps its capacity, so a
/// server that reuses it grows the buffer once. The caller must keep the
/// detector from folding meanwhile (the server holds its lock).
void encode_live_checkpoint(std::string& out,
                            const Collector::Counters& collector,
                            const std::vector<SeqTracker>& watermarks,
                            const StreamingDetector& detector);

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

/// Encode `ckpt` and publish it on the real filesystem; throws on failure.
void save_checkpoint(const std::string& path, const ServerCheckpoint& ckpt);

/// Result of reading a checkpoint back. Never throws on corrupt content.
struct CheckpointLoad {
  bool ok = false;
  ServerCheckpoint ckpt;
  uint64_t total_bytes = 0;
  /// Why the load failed ("" on success).
  std::string warning;
};

/// Load `path`. A missing, truncated, CRC-damaged, or structurally
/// malformed file yields ok = false with a warning — the caller recovers
/// from the journal alone.
CheckpointLoad load_checkpoint(const std::string& path);

/// Parse checkpoint bytes already in memory (the file-format body,
/// including header). Shared by load_checkpoint and fuzz tests.
CheckpointLoad parse_checkpoint(const std::string& bytes);

}  // namespace vsensor::rt
