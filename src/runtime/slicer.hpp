// Per-sensor slice aggregation (the data-smoothing stage of §5.1) and the
// per-rank staging buffer that batches completed slices for transfer to
// the analysis server (§5.4).
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "runtime/types.hpp"

namespace vsensor::rt {

/// Accumulates individual sensor executions and emits one SliceRecord per
/// time slice. High-frequency OS noise averages out inside a slice, so
/// downstream detection sees only durable variance (paper Fig 12).
class SliceAccumulator {
 public:
  SliceAccumulator(int sensor_id, int rank, double slice_seconds);

  /// Record one execution finishing at `end_time` with length `duration`.
  /// Returns the completed record of the *previous* slice if `end_time`
  /// crossed a slice boundary.
  std::optional<SliceRecord> add(double end_time, double duration, double metric);

  /// Emit the in-progress slice, if any (end of run).
  std::optional<SliceRecord> flush();

 private:
  SliceRecord make_record() const;

  int sensor_id_;
  int rank_;
  double slice_seconds_;
  int64_t slice_index_ = -1;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double metric_sum_ = 0.0;
  uint32_t count_ = 0;
};

class BatchTransport;

/// Per-rank staging buffer: completed slices batch locally and ship through
/// the transport as the rank's channel (sequenced, deduplicated, retried —
/// see runtime/transport.hpp) only when `capacity` records accumulated, so
/// the rank reaches the analysis side once per batch instead of once per
/// record (§5.4). Records stage as plain SliceRecords and ship in place,
/// as one contiguous span of the staging buffer — the form the transport,
/// its sinks and the streaming fold all take. One per rank thread; not
/// thread-safe — cross-thread contention exists only past the transport.
class BatchStage {
 public:
  /// `transport` may be null: records are then staged and discarded on
  /// ship, for uninstrumented baselines and benchmarks.
  BatchStage(BatchTransport* transport, int rank, size_t capacity);

  /// Flushes: records staged at teardown are shipped, not dropped. The
  /// count of records rescued this way is surfaced process-wide through
  /// unflushed_records(), so a missing explicit flush() stays observable.
  /// Never throws, and never double-ships: flush() clears the staged
  /// records even when shipping throws, so a ship failure can't leave them
  /// queued for a second send.
  ~BatchStage();

  /// Stage one record; ships the batch when the capacity is reached.
  void push(const SliceRecord& rec);

  /// Ship whatever is staged (end of run / rank completion).
  void flush();

  size_t staged() const { return buf_.size(); }
  uint64_t shipped_batches() const { return shipped_batches_; }
  /// Records the transport refused permanently (retries exhausted or the
  /// rank's transport was killed). Always 0 without a transport.
  uint64_t lost_records() const { return lost_records_; }

  /// Process-wide count of records that reached a BatchStage destructor
  /// still staged — i.e. flush() was never called. They are shipped, not
  /// lost, but a nonzero count points at a teardown path skipping flush().
  static uint64_t unflushed_records();

 private:
  BatchTransport* transport_;
  int rank_;
  size_t capacity_;
  std::vector<SliceRecord> buf_;
  uint64_t shipped_batches_ = 0;
  uint64_t lost_records_ = 0;
};

}  // namespace vsensor::rt
