// The collection point of the paper's analysis server (§5.4).
//
// The paper dedicates one extra process to inter-process analysis; ranks
// buffer slice records locally and periodically push them in batches. Here
// the collector is an in-process thread-safe object receiving concurrently
// from all rank threads; the wire volume of every batch is accounted so the
// trace-volume comparison against tracing tools (§6.4) is faithful, and
// every batch is handed on to the attached streaming sink.
//
// A plain collector (ingest) also keeps the records, for the readers that
// need them after the run: session export, the offline Detector and
// component series. Storage is one lane per rank (rank mod kLanes): each
// lane has its own mutex and holds its records in delivery order, in
// fixed-size chunks that never move or grow. A transport batch holds one
// rank's records, so an ingest takes one lane lock and makes one bulk
// copy; each rank's deliveries already arrive one at a time
// (docs/pipeline.md §6e), so with at most kLanes ranks no rank waits on a
// lock another rank holds. Nothing is dropped: a plain collector keeps
// every record it ingests, 56 bytes each, the bytes the run's session
// file holds.
//
// A collector inside an AnalysisServer stores nothing (forward): the
// server's journal already holds every record, so its memory is the fold
// state, not the length of the run.
#pragma once

#include <array>
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

class Collector : public DeliverySink, public obs::HealthSource {
 public:
  /// Register the sensor table (identical on every rank; registration is
  /// deterministic because instrumentation is static).
  void set_sensors(std::vector<SensorInfo> sensors) override;

  /// Receive one batch from a rank. Thread-safe: each maximal run of
  /// records bound for one lane is appended under one lock of that lane
  /// with one bulk copy; a transport batch, one rank's records, is one run.
  void ingest(std::span<const SliceRecord> batch);

  /// Count one batch and hand it to the attached sink exactly as ingest
  /// does, but store nothing: forwarded records count as taken, so
  /// record_count() does not move. The path of an owner that keeps the
  /// records itself — AnalysisServer, whose journal holds them. Thread-safe.
  void forward(std::span<const SliceRecord> batch);

  /// DeliverySink: ingest the batch (the collector keeps no transport
  /// metadata).
  void on_delivery(int /*rank*/, uint64_t /*seq*/,
                   std::span<const SliceRecord> batch,
                   double /*now*/) override {
    ingest(batch);
  }

  /// Attach a streaming sink; every subsequent batch is handed to it after
  /// being stored (ingest) or counted (forward). Pass nullptr to detach.
  /// Not thread-safe against concurrent ingest — attach before the run
  /// starts.
  void attach_sink(BatchSink* sink) { sink_ = sink; }

  /// Forward a transport stale verdict to the attached sink's
  /// on_stale_rank (no-op when none is attached). Thread-safe for the same
  /// reason ingest's forward is: the sink pointer is fixed before the run
  /// starts.
  void mark_stale(int rank, double /*now*/) override {
    if (sink_ != nullptr) sink_->on_stale_rank(rank);
  }

  const std::vector<SensorInfo>& sensors() const { return sensors_; }

  /// All retained records, gathered into one vector (lane-major order;
  /// stable only after the run joined). This copies — analysis paths
  /// should prefer visit_records() or take_records().
  std::vector<SliceRecord> records() const;

  /// Locked view: invokes `fn` on contiguous spans of retained records,
  /// lane by lane under each lane's lock and chunk by chunk within a lane
  /// (no span is longer than one chunk), without copying anything. The
  /// records of each rank, and so of each (sensor, rank) pair, come in
  /// delivery order. `fn` must not call back into the collector.
  void visit_records(
      const std::function<void(std::span<const SliceRecord>)>& fn) const;

  /// Move all retained records out (lane-major order), leaving the lanes
  /// empty. Cumulative counters (ingested/bytes/batches/dropped) are
  /// unaffected.
  std::vector<SliceRecord> take_records();

  /// Cumulative accounting counters as one value, for checkpointing: a
  /// crash-recovered server restores these so ingest/byte/batch accounting
  /// stays continuous across the restart (replayed journal batches then
  /// advance them exactly as the originals did).
  struct Counters {
    uint64_t ingested = 0;  ///< every record received, stored or forwarded
    /// Kept for the checkpoint layout: no path drops a record, so it reads
    /// 0 unless restored from an older checkpoint's counters.
    uint64_t dropped = 0;
    /// Moved out by take_records or never stored (forward). A server's
    /// collector therefore reads taken == ingested.
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

  /// Records currently retained (ingested minus dropped minus taken); 0 on
  /// a collector that only forwards.
  uint64_t record_count() const;
  /// Records ever ingested or forwarded, including any later dropped or
  /// taken.
  uint64_t ingested_records() const { return ingested_.load(std::memory_order_relaxed); }
  /// Counters::dropped: 0 unless restored from an older checkpoint.
  uint64_t dropped_records() const { return dropped_.load(std::memory_order_relaxed); }
  /// Total bytes shipped to the server (batches x record wire size).
  uint64_t bytes_received() const { return bytes_.load(std::memory_order_relaxed); }
  /// Number of batch transfers (network messages to the server).
  uint64_t batch_count() const { return batches_.load(std::memory_order_relaxed); }

  /// Health plane: cumulative ingest/drop/byte/batch counters plus the
  /// currently retained record count. All lock-free atomic reads.
  void sample_health(double now, obs::HealthRecorder& rec) const override;

 private:
  /// Lanes, by rank mod kLanes; a negative rank goes to lane 0.
  static constexpr size_t kLanes = 64;
  /// Records per chunk: 56 KiB, below glibc's default mmap threshold.
  static constexpr size_t kChunkRecords = 1024;

  /// Chunk storage is allocated raw: SliceRecord's member initializers
  /// would otherwise write every record before the copy does.
  struct ChunkFree {
    void operator()(SliceRecord* chunk) const;
  };
  using Chunk = std::unique_ptr<SliceRecord[], ChunkFree>;

  struct Lane {
    mutable std::mutex mu;
    std::vector<Chunk> chunks;
    size_t tail = 0;  ///< records in chunks.back()

    /// Copy `run` to the end of the lane. Caller holds `mu`.
    void append(std::span<const SliceRecord> run);
    /// `fn` on each chunk's records, in order. Caller holds `mu`.
    template <typename Fn>
    void each_chunk(const Fn& fn) const;
  };

  static size_t lane_of(int32_t rank);
  /// The wire accounting ingest and forward share.
  void count_batch(size_t records);

  std::array<Lane, kLanes> lanes_;
  std::vector<SensorInfo> sensors_;
  BatchSink* sink_ = nullptr;
  std::atomic<uint64_t> ingested_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> taken_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> batches_{0};
};

}  // namespace vsensor::rt
