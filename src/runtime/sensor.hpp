// Per-rank sensor runtime: Tick/Tock probes, smoothing, auto-disable,
// batched transfer through the rank's transport channel, and
// sense-distribution statistics (paper §4-§5).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "runtime/slicer.hpp"
#include "runtime/types.hpp"
#include "support/histogram.hpp"

namespace vsensor::rt {

/// Sense-distribution statistics of one rank (paper Fig 15): how long
/// sensors execute (duration), how big the gaps between senses are
/// (interval), and what fraction of run time is covered.
struct SenseStats {
  double sense_time = 0.0;   ///< sum of all sense durations
  uint64_t sense_count = 0;  ///< number of senses
  BoundedHistogram durations = make_sense_length_histogram();
  BoundedHistogram intervals = make_sense_length_histogram();
  double last_sense_end = -1.0;
  double max_duration = 0.0;  ///< longest single sense
  double max_interval = 0.0;  ///< longest gap with no sensor executing

  void merge(const SenseStats& other);
  double coverage(double total_time) const;   ///< sense_time / total_time
  double frequency(double total_time) const;  ///< sense_count / total_time (Hz)
};

/// One per rank. Not thread-safe (each rank thread owns exactly one).
class SensorRuntime {
 public:
  /// `now` reads the rank's virtual clock; `charge` advances it by the probe
  /// overhead (so instrumentation cost shows up in measured run time exactly
  /// as real probes would).
  using NowFn = std::function<double()>;
  using ChargeFn = std::function<void(double)>;

  /// Completed slices ship through `transport` as this rank's channel. A
  /// null transport stages them and drops each batch (probe-cost baselines
  /// and benchmarks).
  SensorRuntime(RuntimeConfig cfg, int rank, BatchTransport* transport,
                NowFn now, ChargeFn charge);

  ~SensorRuntime();

  SensorRuntime(const SensorRuntime&) = delete;
  SensorRuntime& operator=(const SensorRuntime&) = delete;

  /// Register one sensor; ids are dense and assigned in call order, which is
  /// identical on every rank (instrumentation is static).
  int register_sensor(SensorInfo info);

  /// Enter the sensor snippet.
  void tick(int id);

  /// Leave the sensor snippet. `metric` is the optional dynamic-rule metric
  /// (e.g. cache-miss rate) attached to the execution (§5.3, Fig 13).
  void tock(int id, double metric = 0.0);

  /// Emit in-progress slices and drain the batch buffer. Call once per rank
  /// at the end of the run.
  void flush();

  // --- introspection (tests / Table 1 harness) ---
  bool disabled(int id) const;
  uint64_t execution_count(int id) const;
  const SenseStats& sense_stats() const { return sense_stats_; }
  const std::vector<SensorInfo>& sensors() const { return infos_; }
  uint64_t records_emitted() const { return records_emitted_; }
  /// Records the transport refused permanently.
  uint64_t records_lost() const { return stage_.lost_records(); }

  // --- intra-process on-line detection (§5.3) ---
  // Each emitted slice is compared against the sensor's standard time (its
  // fastest slice so far); slices below the variance threshold are counted
  // as local variance flags — the per-process detection that runs inside
  // the probes, before any data reaches the analysis server.
  /// Fastest slice average seen so far; 0 before the first slice.
  double standard_time(int id) const;
  /// Slices flagged as variance on this rank (all sensors).
  uint64_t local_variance_flags() const { return local_flags_; }

 private:
  struct State;
  void emit(const SliceRecord& rec);

  RuntimeConfig cfg_;
  int rank_;
  NowFn now_;
  ChargeFn charge_;
  std::vector<SensorInfo> infos_;
  std::vector<State> states_;
  BatchStage stage_;  ///< per-rank staging buffer (§5.4 batched transfer)
  SenseStats sense_stats_;
  uint64_t records_emitted_ = 0;
  uint64_t local_flags_ = 0;
};

/// RAII probe pair: `ScopedSense s{rt, id};` brackets a snippet.
class ScopedSense {
 public:
  ScopedSense(SensorRuntime& rt, int id, double metric = 0.0)
      : rt_(rt), id_(id), metric_(metric) {
    rt_.tick(id_);
  }
  ~ScopedSense() { rt_.tock(id_, metric_); }

  ScopedSense(const ScopedSense&) = delete;
  ScopedSense& operator=(const ScopedSense&) = delete;

 private:
  SensorRuntime& rt_;
  int id_;
  double metric_;
};

}  // namespace vsensor::rt
