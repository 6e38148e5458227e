// Session persistence: the paper's shared-file transport (§5.4 — processes
// report "by sending messages to analysis-server or by updating shared
// files"). A session file carries the sensor table and every slice record,
// so analysis and visualization can run offline (tools/vsensor-report).
//
// A session is stored as the journal's frames (`u32 len | u32 crc32 |
// payload`, journal.hpp) under its own header line, little-endian:
//
//   vsensor-session 4\n
//   meta     (first frame): u8 4 | i32 ranks | f64 run_time | u64 records |
//                           u32 sensors | per sensor: u8 type | i32 line |
//                           u32 n | n bytes file | u32 n | n bytes name
//   batch    (0..k frames): the journal's Batch payload — u8 0 | i32 -1 |
//                           u64 frame index | u32 count | count records —
//                           4096 records each, the last one possibly fewer
//   trailer  (last frame):  u8 5 | u32 n | n x RankChannelStats (rank
//                           order) | u32 m | m x i32 stale rank
//
// Loading follows the journal's salvage rule (walk_frames): the first torn,
// CRC-damaged or malformed frame ends the load and the frames before it are
// kept. A session is written whole, so a load with no trailer frame, or
// with another record count than the meta frame's, is not clean either.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/vfs.hpp"
#include "runtime/collector.hpp"
#include "runtime/transport.hpp"
#include "runtime/types.hpp"

namespace vsensor::rt {

struct Session {
  int ranks = 0;
  double run_time = 0.0;
  std::vector<SensorInfo> sensors;
  std::vector<SliceRecord> records;
  /// Per-rank transport channel counters, in rank order (empty for runs
  /// that bypassed the transport). Never more than `ranks` entries.
  std::vector<RankChannelStats> transport;
  /// Field-wise sum over `transport` (recomputed on load).
  RankChannelStats transport_totals;
  /// Ranks the transport declared stale at end of run.
  std::vector<int> stale_ranks;
  /// Integrity warnings: why the load stopped early or found the file
  /// incomplete. The data above is the valid frame prefix. Empty = clean.
  std::vector<std::string> warnings;
  /// Bytes after the last intact frame, dropped by salvage.
  uint64_t torn_bytes = 0;

  bool has_transport() const { return !transport.empty(); }
  bool clean() const { return warnings.empty(); }
};

/// Write the collector's sensors and records, the per-rank transport
/// counters and the stale-rank list to `path`, streaming frame by frame.
/// Bytes route through `vfs` (null = real filesystem); I/O failure throws
/// Error — a session export is an explicit user ask, not a background
/// durability write the pipeline can degrade around.
void save_session_file(const std::string& path, const Collector& collector,
                       int ranks, double run_time,
                       std::span<const RankChannelStats> transport = {},
                       std::span<const int> stale_ranks = {},
                       io::Vfs* vfs = nullptr);

/// The bytes save_session_file writes for a collector holding `session`'s
/// sensors and records.
std::string encode_session(const Session& session);

/// Load the session at `path` one frame at a time through one bounded
/// buffer, appending each batch frame's records to `Session::records`,
/// which is reserved once. Throws Error when the file cannot be opened or
/// its header line is not `vsensor-session 4`; damage after it is salvaged
/// instead.
Session load_session_file(const std::string& path);
/// The same load over session bytes already in memory.
Session parse_session(std::string_view bytes);

}  // namespace vsensor::rt
