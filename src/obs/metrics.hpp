// Self-telemetry metrics: the log-bucketed histogram the server's health
// gauges draw quantiles from, and the metrics file.
//
// The metrics file is a render, not a store: one HealthRecorder snapshot
// of the components a run wired (each keeps its own counters once, see
// obs/health.hpp) plus the process StageClock's per-stage entry counts
// and exclusive wall nanoseconds (obs/obs.hpp). Nothing in here touches
// simMPI virtual time — detection output is bit-identical with telemetry
// on or off.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

namespace vsensor::obs {

class HealthRecorder;
class StageClock;
struct RunIdentity;

/// Log-bucketed histogram over positive values (seconds, bytes, counts).
/// Bucket i covers [min_value * growth^i, min_value * growth^(i+1));
/// bucket 0 additionally absorbs everything below min_value, the last
/// bucket everything above the top bound. Quantiles interpolate linearly
/// inside the located bucket, so their error is bounded by one growth
/// factor — tests pin that bound against support/stats percentile_of.
class LogHistogram {
 public:
  struct Config {
    double min_value = 1e-9;  ///< lower bound of bucket 1
    double growth = 2.0;      ///< geometric bucket width
    size_t buckets = 64;      ///< covers [1e-9, ~1.8e10) at the defaults
  };

  LogHistogram() : LogHistogram(Config{}) {}
  explicit LogHistogram(Config cfg);

  void record(double value);

  uint64_t total() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min_seen() const;
  double max_seen() const;
  double mean() const;

  size_t bucket_count() const { return counts_.size(); }
  uint64_t bucket(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  /// Lower/upper value bound of bucket i (bucket 0's lower bound is 0).
  double bucket_lower(size_t i) const;
  double bucket_upper(size_t i) const;
  /// Bucket a value falls into (exposed so tests can pin boundaries).
  size_t bucket_of(double value) const;

  /// Percentile estimate, p in [0, 100]; 0 when empty. Matches the rank
  /// convention of vsensor::percentile (linear interpolation at
  /// p/100 * (n - 1)) up to in-bucket resolution.
  double quantile(double p) const;

  void reset();

  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  double log_growth_inv_ = 1.0;  ///< 1 / ln(growth), cached
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<double> sum_{0.0};
  /// +inf / -inf sentinels until the first record; min_seen()/max_seen()
  /// gate on total() so callers never observe the sentinels.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> n_{0};
};

/// `vsensor-metrics/2` JSONL: the identity header line, then one line per
/// gauge of `snapshot` in name order ({"gauge":name,"value":v}), then one
/// line per stage `clock` has entered, in stage order
/// ({"stage":name,"count":entries,"ns":exclusive wall nanoseconds}).
void write_metrics_jsonl(std::ostream& out, const RunIdentity& id,
                         const HealthRecorder& snapshot,
                         const StageClock& clock);

}  // namespace vsensor::obs
