// Variance detection over collected slice records (paper §5.2-§5.5):
// fastest-record normalization, dynamic-rule grouping, intra-process
// history comparison, and inter-process matrix analysis with event
// extraction and root-cause classification.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/matrix.hpp"
#include "runtime/types.hpp"

namespace vsensor::rt {

/// Smallest admissible standard time. A slice whose avg_duration falls
/// below this (notably the literal 0.0 of a broken measurement) is
/// *degenerate*: it must neither normalize to 1.0 (a zero-duration slice
/// reported as perfect) nor become its group's standard time (a zero
/// standard zeroes every normalized score in the group). Degenerate
/// records are excluded from standards, matrices, and flagging; standard
/// times are clamped to at least this value as a second line of defense.
inline constexpr double kMinStandardTime = 1e-12;

/// True for records too short to be a meaningful measurement.
inline bool is_degenerate(const SliceRecord& rec) {
  return !(rec.avg_duration >= kMinStandardTime);
}

struct DetectorConfig {
  /// Time-bucket width of performance matrices (paper Fig 14: 200 ms).
  double matrix_resolution = 0.2;
  /// Cells with normalized performance below this are variance cells
  /// ("white means the performance is only half of the best").
  double variance_threshold = 0.7;
  /// Dynamic-rule grouping: records of one sensor whose metric falls into
  /// the same bucket of this width share a standard time (§5.3, Fig 13).
  /// Zero turns dynamic rules off.
  double metric_bucket_width = 0.0;
  /// Ignore sensors with fewer records than this (not enough history).
  uint32_t min_records = 3;
  /// Events smaller than this many cells are dropped as noise speckle.
  uint32_t min_event_cells = 2;
  /// Events of the same type with overlapping rank ranges separated by at
  /// most this many empty time buckets are merged into one region (sensor
  /// records can be sparse in time, fragmenting one episode).
  int merge_gap_buckets = 8;
};

/// One detected variance region: a component, a time range, a rank range,
/// and its severity (mean normalized performance inside the region).
struct VarianceEvent {
  SensorType type = SensorType::Computation;
  double t_begin = 0.0;
  double t_end = 0.0;
  int rank_begin = 0;
  int rank_end = 0;  ///< inclusive
  double severity = 1.0;
  uint32_t cells = 0;
  /// Set on Network events that mirror a Computation event on *other*
  /// ranks: a collective's duration on healthy ranks includes the wait for
  /// slow ranks, so the network sensors there report the victims, not the
  /// culprit. The classifier points back at the compute problem.
  bool likely_wait_on_slow_ranks = false;

  /// Root-cause hint derived from the event's shape (paper §5.5): a
  /// full-duration narrow rank band suggests a bad node; a wide transient
  /// band suggests injected noise / network degradation.
  std::string classify(double run_time, int total_ranks) const;
  std::string describe(double run_time, int total_ranks) const;
};

/// One record flagged by intra-process history comparison (Fig 13).
struct FlaggedRecord {
  SliceRecord record;
  double normalized = 1.0;  ///< standard_time / avg_duration
  int group = 0;            ///< dynamic-rule group the record belongs to
};

struct AnalysisResult {
  std::array<PerformanceMatrix, kSensorTypeCount> matrices;
  std::vector<VarianceEvent> events;
  std::vector<FlaggedRecord> flagged;
  double run_time = 0.0;
  int ranks = 0;
  /// Ranks excluded from the analysis because their batch deliveries died
  /// mid-run (streaming path; empty rows there are absence, not speed).
  std::vector<int> stale_ranks;

  const PerformanceMatrix& matrix(SensorType t) const {
    return matrices[static_cast<size_t>(t)];
  }
};

/// Offline analysis of a record set: a thin wrapper over the one
/// detection core. Every entry point folds its records into a fresh
/// StreamingDetector (this config, the sensor table, `ranks` and the
/// horizon), returns its finalize(), and then fills
/// AnalysisResult::flagged against the final standards: one pass over the
/// same records counts the flags, and a second fills a list reserved to
/// exactly that count. So an analysis equals the live fold's finalize()
/// bit for bit whenever each (sensor, rank) pair's records reach both in
/// the same order. A record of an unknown sensor or of a rank outside
/// [0, ranks) throws, degenerate or not, as it does in the fold.
class Detector {
 public:
  explicit Detector(DetectorConfig cfg = {});

  /// Full analysis of a finished run: builds per-type matrices, flags
  /// records against per-(sensor, group) standard times, and extracts
  /// variance events from the matrices. Folds the collector's records in
  /// place, lane by lane, and visits them twice more for the flags, so
  /// the collector must not ingest during the call.
  AnalysisResult analyze(const Collector& collector, int ranks,
                         double run_time) const;

  /// On-line analysis over the records collected so far: considers only
  /// records that completed by `horizon`. The paper updates its report
  /// periodically during the run ("users can notice performance variance
  /// without waiting for a program to finish", §2).
  AnalysisResult analyze_until(const Collector& collector, int ranks,
                               double horizon) const;

  /// Core entry: analysis over an explicit record set. A record is
  /// flagged when it is not degenerate, its sensor has at least
  /// min_records non-degenerate records, and max(standard,
  /// kMinStandardTime) / avg_duration is below variance_threshold; the
  /// list keeps record order.
  AnalysisResult analyze_records(std::span<const SliceRecord> records,
                                 const std::vector<SensorInfo>& sensors,
                                 int ranks, double run_time) const;

  /// §5.2 data merging: all sensors of one component type represent the
  /// same system resource, so their normalized records merge into a single
  /// time series at a finer resolution than any one sensor provides
  /// ("after data merging, we can analyze the network performance per
  /// 100us"). Buckets with no observation carry perf = -1.
  struct SeriesPoint {
    double t = 0.0;
    double perf = -1.0;   ///< mean normalized performance, -1 = no data
    uint32_t samples = 0;
  };
  std::vector<SeriesPoint> component_series(const Collector& collector,
                                            SensorType type, double resolution,
                                            double run_time) const;

  /// Intra-process detection over one sensor's records, exactly the paper's
  /// Fig 13 procedure. Returns the normalized performance of each record
  /// (order preserved); records below the variance threshold are flagged.
  /// Degenerate records (see is_degenerate) neither contribute to standard
  /// times nor score 1.0 — they come back as 0.0, pinned broken, not perfect.
  std::vector<double> normalize_records(std::span<const SliceRecord> records) const;

  const DetectorConfig& config() const { return cfg_; }

 private:
  int group_of(float metric) const;

  DetectorConfig cfg_;
};

/// Tail of StreamingDetector::finalize, the one place variance regions
/// come from: finalizes the accumulated matrices, extracts and merges
/// events, cross-references Network events against Computation events,
/// and sorts events most-severe-first.
void finalize_analysis(AnalysisResult& result, const DetectorConfig& cfg);

/// Extract rectangular variance events from a finalized matrix via
/// connected-component clustering of below-threshold cells.
std::vector<VarianceEvent> extract_events(const PerformanceMatrix& matrix,
                                          SensorType type, double threshold,
                                          uint32_t min_cells);

/// Merge same-type events whose rank ranges overlap and whose time ranges
/// are within `gap_seconds` of each other. Returns merged events.
std::vector<VarianceEvent> merge_events(std::vector<VarianceEvent> events,
                                        double gap_seconds);

/// Graceful degradation under transport failure: drop the records of ranks
/// the transport reported stale (their delivery stream died mid-run), so a
/// batch analysis covers exactly the ranks the streaming detector still
/// trusts instead of letting a half-delivered history skew the matrices.
std::vector<SliceRecord> drop_stale_ranks(std::span<const SliceRecord> records,
                                          std::span<const int> stale_ranks);

}  // namespace vsensor::rt
