// The analysis server (paper §5.4).
//
// The paper dedicates one extra process to inter-process analysis; ranks
// buffer slice records locally and periodically push them in batches. Here
// the server is an in-process thread-safe object ingesting concurrently from
// all rank threads; the wire volume of every batch is accounted so the
// trace-volume comparison against tracing tools (§6.4) is faithful.
//
// Storage is sharded by sensor id: each shard has its own mutex and a
// bounded ring-buffer store, so concurrent ranks pushing records of
// different sensors never contend on one global lock and memory stays
// bounded no matter how long the run is. When a shard overflows, the oldest
// records are overwritten and counted in dropped_records() — backpressure
// accounting instead of unbounded growth.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/health.hpp"
#include "runtime/record_batch.hpp"
#include "runtime/types.hpp"
#include "support/ring_buffer.hpp"

namespace vsensor::rt {

/// Sink receiving every ingested batch in arrival order. The streaming
/// detector implements this to fold batches into running statistics as
/// they arrive (on-line analysis without replaying history).
class BatchSink {
 public:
  virtual ~BatchSink() = default;
  virtual void on_batch(std::span<const SliceRecord> batch) = 0;
  /// Struct-of-arrays bridge for callers that hold columns: gathers to AoS
  /// and folds through the span entry, so every sink has one fold path.
  /// Virtual only so wrapping sinks can interpose on it.
  virtual void on_batch(const RecordBatch& batch) {
    const auto aos = batch.to_aos();
    on_batch(std::span<const SliceRecord>(aos));
  }
  /// Transport-layer stale verdict for `rank`, forwarded by
  /// Collector::mark_stale. Default ignores it; the streaming detector
  /// overrides to exclude the rank's stragglers. This is how the verdict
  /// reaches a detector on server-less runs, where no AnalysisServer
  /// exists to journal and forward it.
  virtual void on_stale_rank(int rank) { (void)rank; }
  /// Elastic revival for `rank`. Default ignores it; the streaming
  /// detector overrides to lift the rank's stale exclusion. Nothing in the
  /// library calls it: it stays virtual only so wrapping sinks that
  /// override it keep compiling.
  virtual void on_live_rank(int rank) { (void)rank; }
};

/// The one destination of a run's deliveries (paper §5.4: ranks push their
/// batches to one analysis process). BatchTransport hands it every unique
/// batch with the transport metadata (origin rank, send-side sequence
/// number, virtual arrival time) intact. Collector ingests the batch,
/// AnalysisServer journals it before folding, ShardedAnalysisTier routes
/// it to the rank's shard. The other hooks default to no-ops, so a sink
/// that wraps another overrides only what it needs.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void on_delivery(int rank, uint64_t seq,
                           std::span<const SliceRecord> batch, double now) = 0;
  /// The run's sensor table, registered before deliveries start.
  virtual void set_sensors(std::vector<SensorInfo> sensors) { (void)sensors; }
  /// Transport stale verdict for `rank` at virtual time `now`
  /// (BatchTransport::sweep_stale).
  virtual void mark_stale(int rank, double now) {
    (void)rank;
    (void)now;
  }
  /// The fault model's server crash schedule
  /// (TransportFaultModel::server_crash_schedule); only crash-tolerant
  /// sinks act on it. Call before deliveries start.
  virtual void set_crash_plan(std::vector<double> times, uint64_t seed) {
    (void)times;
    (void)seed;
  }
};

struct CollectorConfig {
  /// Number of independent storage shards (sensor_id % shards).
  size_t shards = 16;
  /// Bound on records retained per shard. Storage is allocated lazily, so
  /// a generous bound costs nothing until records actually arrive.
  size_t shard_capacity = 1u << 20;
};

class Collector : public DeliverySink, public obs::HealthSource {
 public:
  Collector() : Collector(CollectorConfig{}) {}
  explicit Collector(CollectorConfig cfg);

  /// Register the sensor table (identical on every rank; registration is
  /// deterministic because instrumentation is static).
  void set_sensors(std::vector<SensorInfo> sensors) override;

  /// Receive one batch from a rank. Thread-safe: records scatter to their
  /// sensor's shard, and each shard mutex is taken at most once per batch.
  void ingest(std::span<const SliceRecord> batch);

  /// DeliverySink: ingest the batch (the collector keeps no transport
  /// metadata).
  void on_delivery(int /*rank*/, uint64_t /*seq*/,
                   std::span<const SliceRecord> batch,
                   double /*now*/) override {
    ingest(batch);
  }

  /// Attach a streaming sink; every subsequent batch is forwarded to it
  /// after being stored. Pass nullptr to detach. Not thread-safe against
  /// concurrent ingest — attach before the run starts.
  void attach_sink(BatchSink* sink) { sink_ = sink; }

  /// Forward a transport stale verdict to the attached sink's
  /// on_stale_rank (no-op when none is attached). Thread-safe for the same
  /// reason ingest's forward is: the sink pointer is fixed before the run
  /// starts.
  void mark_stale(int rank, double /*now*/) override {
    if (sink_ != nullptr) sink_->on_stale_rank(rank);
  }

  const std::vector<SensorInfo>& sensors() const { return sensors_; }

  /// All retained records, gathered into one vector (shard-major order;
  /// stable only after the run joined). This copies — analysis paths
  /// should prefer visit_records() or take_records().
  std::vector<SliceRecord> records() const;

  /// Locked view: invokes `fn` on contiguous spans of retained records,
  /// shard by shard under each shard's lock, without copying anything.
  /// `fn` must not call back into the collector.
  void visit_records(
      const std::function<void(std::span<const SliceRecord>)>& fn) const;

  /// Move all retained records out, leaving the shards empty. Cumulative
  /// counters (ingested/bytes/batches/dropped) are unaffected.
  std::vector<SliceRecord> take_records();

  /// Cumulative accounting counters as one value, for checkpointing: a
  /// crash-recovered server restores these so ingest/byte/batch accounting
  /// stays continuous across the restart (replayed journal batches then
  /// advance them exactly as the originals did).
  struct Counters {
    uint64_t ingested = 0;
    uint64_t dropped = 0;
    uint64_t taken = 0;
    uint64_t bytes = 0;
    uint64_t batches = 0;
  };
  Counters counters() const;
  void restore_counters(const Counters& c);

  /// Crash simulation: drop every retained record and zero all counters,
  /// keeping the sensor table and attached sink. The server's recovery
  /// path then restores checkpointed counters and replays the journal.
  void reset();

  /// Records currently retained (ingested minus dropped minus taken).
  uint64_t record_count() const;
  /// Records ever ingested, including any later dropped or taken.
  uint64_t ingested_records() const { return ingested_.load(std::memory_order_relaxed); }
  /// Records overwritten because their shard hit capacity.
  uint64_t dropped_records() const { return dropped_.load(std::memory_order_relaxed); }
  /// Total bytes shipped to the server (batches x record wire size).
  uint64_t bytes_received() const { return bytes_.load(std::memory_order_relaxed); }
  /// Number of batch transfers (network messages to the server).
  uint64_t batch_count() const { return batches_.load(std::memory_order_relaxed); }

  size_t shard_count() const { return shards_.size(); }

  /// Health plane: cumulative ingest/drop/byte/batch counters plus the
  /// currently retained record count. All lock-free atomic reads.
  void sample_health(double now, obs::HealthRecorder& rec) const override;

 private:
  struct Shard {
    mutable std::mutex mu;
    RingBuffer<SliceRecord> store;
    explicit Shard(size_t capacity) : store(capacity) {}
  };

  size_t shard_of(int32_t sensor_id) const;

  CollectorConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<SensorInfo> sensors_;
  BatchSink* sink_ = nullptr;
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> taken_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace vsensor::rt
