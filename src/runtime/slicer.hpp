// Per-sensor slice aggregation (the data-smoothing stage of §5.1) and the
// per-rank staging buffer that batches completed slices for transfer to
// the analysis server (§5.4).
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "runtime/collector.hpp"
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

/// Per-rank staging buffer: completed slices batch locally and ship to the
/// collector only when `capacity` records accumulated, so the rank takes a
/// lane lock once per batch instead of once per record (§5.4). Records
/// stage as plain SliceRecords and ship as one contiguous span — the form
/// the transport, collector and streaming fold all take. One per rank
/// thread; not thread-safe — cross-thread contention exists only inside
/// the collector.
class BatchStage {
 public:
  /// `collector` may be null (records are then staged and discarded on
  /// ship, useful for uninstrumented baselines and benchmarks). `reserve`
  /// caps the staging buffer's pre-allocation
  /// (RuntimeConfig::stage_reserve_records).
  BatchStage(Collector* collector, size_t capacity,
             size_t reserve = RuntimeConfig{}.stage_reserve_records);

  /// Transport mode: batches ship through the resilient transport as
  /// `rank`'s channel (sequenced, deduplicated, retried — see
  /// runtime/transport.hpp) instead of straight into a collector.
  BatchStage(BatchTransport& transport, int rank, size_t capacity,
             size_t reserve = RuntimeConfig{}.stage_reserve_records);

  /// Flushes: records staged at teardown are shipped, not dropped. The
  /// count of records rescued this way is surfaced process-wide through
  /// unflushed_records(), so a missing explicit flush() stays observable.
  /// Never throws, and never double-ships: flush() detaches the staged
  /// records before shipping, so a ship failure can't leave them queued
  /// for a second send.
  ~BatchStage();

  /// Stage one record; ships the batch when the capacity is reached.
  void push(const SliceRecord& rec);

  /// Ship whatever is staged (end of run / rank completion).
  void flush();

  size_t staged() const { return buf_.size(); }
  size_t reserve_cap() const { return reserve_; }
  uint64_t shipped_batches() const { return shipped_batches_; }
  /// Records the transport refused permanently (retries exhausted or the
  /// rank's transport was killed). Always 0 in direct-collector mode.
  uint64_t lost_records() const { return lost_records_; }

  /// Process-wide count of records that reached a BatchStage destructor
  /// still staged — i.e. flush() was never called. They are shipped, not
  /// lost, but a nonzero count points at a teardown path skipping flush().
  static uint64_t unflushed_records();

 private:
  void ship(std::span<const SliceRecord> batch);

  Collector* collector_;
  BatchTransport* transport_ = nullptr;
  int rank_ = -1;
  size_t capacity_;
  size_t reserve_;
  std::vector<SliceRecord> buf_;
  uint64_t shipped_batches_ = 0;
  uint64_t lost_records_ = 0;
};

}  // namespace vsensor::rt
