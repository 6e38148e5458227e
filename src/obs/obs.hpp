// Observability core: the run-time switch, pipeline-stage wall-time
// attribution, and the stage-scope macro the runtime layers use.
//
// One switch: obs::enabled(), default OFF, flipped only by
// obs::set_enabled(). When off, every stage scope and span is a single
// relaxed atomic load and a branch. Counts are not kept here: each
// component keeps its own counters once and exposes them through its
// health gauges (obs/health.hpp); the metrics file renders those gauges
// plus this StageClock (obs/metrics.hpp).
//
// Attribution model: ScopedStage measures *exclusive* wall time via a
// per-thread scope chain — a nested stage's duration is subtracted from
// its parent, so the per-stage seconds sum to exactly the wall time spent
// inside monitoring code, with no double counting across the call tree
// (probe tock → slicing → staging → transport → collector ingest →
// streaming detection all nest within one tock).
//
// Nothing here ever touches simMPI virtual time: detection output is
// bit-identical with observability on or off (pinned by tests/test_obs).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vsensor::obs {

/// The run-time switch (default off).
bool enabled();
void set_enabled(bool on);

/// Pipeline stages the monitoring layer attributes its own cost to.
enum class Stage : uint8_t {
  ProbeTick,        ///< SensorRuntime::tick
  ProbeTock,        ///< SensorRuntime::tock (exclusive of nested stages)
  Slicing,          ///< slice aggregation + completed-slice handling
  Staging,          ///< BatchStage buffering and batch ship
  TransportShip,    ///< BatchTransport ship/retry/backoff/drain
  CollectorIngest,  ///< Collector count + lane append
  DetectStreaming,  ///< StreamingDetector fold + finalize, live or offline
  Export,           ///< session/metric/trace serialization
  Durability,       ///< journal append/commit + checkpoint save/load
  kCount,
};

inline constexpr size_t kStageCount = static_cast<size_t>(Stage::kCount);

const char* stage_name(Stage stage);

/// Per-stage accumulated exclusive wall nanoseconds and entry counts.
/// Each thread adds to its own slot of cells, so rank threads running
/// monitoring stages at once never write one cache line; reads sum the
/// slots.
class StageClock {
 public:
  void add(Stage stage, uint64_t ns);
  uint64_t nanos(Stage stage) const;
  uint64_t count(Stage stage) const;
  /// Sum of exclusive nanoseconds over all stages.
  uint64_t total_nanos() const;
  void reset();

  static StageClock& global();

 private:
  /// Threads take slots round robin: up to kSlots threads at once each
  /// have their own. A slot two threads share stays exact, since every add
  /// is atomic.
  static constexpr size_t kSlots = 64;
  struct alignas(64) Slot {
    std::array<std::atomic<uint64_t>, kStageCount> ns{};
    std::array<std::atomic<uint64_t>, kStageCount> n{};
  };
  std::array<Slot, kSlots> slots_{};
};

/// RAII stage scope with exclusive-time accounting (see file comment).
/// Cheap no-op when observability is disabled at construction.
class ScopedStage {
 public:
  explicit ScopedStage(Stage stage);
  ~ScopedStage();

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  Stage stage_;
  bool armed_ = false;
  uint64_t t0_ = 0;
  uint64_t child_ns_ = 0;
  ScopedStage* parent_ = nullptr;
};

/// One stage's share of the self-overhead breakdown.
struct StageBreakdown {
  Stage stage = Stage::ProbeTick;
  const char* name = "";
  uint64_t count = 0;            ///< scope entries
  double seconds = 0.0;          ///< exclusive wall seconds
  double share_of_monitoring = 0.0;
  double share_of_workload = 0.0;  ///< of the workload's thread time
};

/// Self-overhead attribution: where the monitoring layer's own wall time
/// went, and what it cost the simulated application.
struct OverheadReport {
  std::vector<StageBreakdown> stages;  ///< occupied stages, largest first
  double monitoring_wall_seconds = 0.0;  ///< summed over threads
  double workload_wall_seconds = 0.0;
  int workload_threads = 1;  ///< threads that ran the workload
  /// Thread-time share: monitoring_wall / (workload_threads x
  /// workload_wall) (how much of the workload threads' time the telemetry
  /// machinery itself consumed). At most 1 when only those threads enter
  /// monitoring stages, however much they overlap.
  double monitoring_wall_fraction = 0.0;

  // Virtual-time side — the paper's §6.2 overhead claim. Deterministic
  // (derives from charged probe costs, not the host), so this is the
  // quantity tests assert < 4%.
  double virtual_overhead_seconds = 0.0;  ///< instrumented - plain makespan
  double virtual_makespan = 0.0;          ///< plain (uninstrumented) makespan
  double virtual_overhead_fraction = 0.0;

  std::string to_string() const;  ///< aligned table + summary lines
};

/// Build the attribution from the global StageClock. `workload_wall_seconds`
/// is the wall time of the monitored run section (caller-measured); pass 0
/// to skip the wall-fraction column. `workload_threads` is the number of
/// threads that ran it at once (a simulated job's rank count): the clock
/// sums stage time over threads, so shares are taken of threads x wall.
/// Virtual fields are left for the caller.
OverheadReport attribution(double workload_wall_seconds, int workload_threads = 1);

/// Reset all global observability state: stage clock and spans.
void reset_all();

}  // namespace vsensor::obs

// VS_OBS_SCOPED_STAGE(s) — exclusive-time RAII stage scope.
#define VS_OBS_CONCAT_IMPL(a, b) a##b
#define VS_OBS_CONCAT(a, b) VS_OBS_CONCAT_IMPL(a, b)
#define VS_OBS_SCOPED_STAGE(stage) \
  ::vsensor::obs::ScopedStage VS_OBS_CONCAT(vs_obs_stage_, __LINE__)(stage)
