#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "obs/health.hpp"
#include "obs/identity.hpp"
#include "obs/jsonw.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace vsensor::obs {

LogHistogram::LogHistogram(Config cfg)
    : cfg_(cfg),
      log_growth_inv_(1.0 / std::log(cfg.growth)),
      counts_(cfg.buckets) {
  VS_CHECK_MSG(cfg_.min_value > 0.0, "histogram min_value must be positive");
  VS_CHECK_MSG(cfg_.growth > 1.0, "histogram growth must exceed 1");
  VS_CHECK_MSG(cfg_.buckets >= 2, "histogram needs at least two buckets");
}

size_t LogHistogram::bucket_of(double value) const {
  if (!(value > cfg_.min_value)) return 0;  // underflow, NaN, non-positive
  const auto i = static_cast<int64_t>(
      std::floor(std::log(value / cfg_.min_value) * log_growth_inv_));
  if (i < 0) return 0;
  return std::min(static_cast<size_t>(i), counts_.size() - 1);
}

double LogHistogram::bucket_lower(size_t i) const {
  if (i == 0) return 0.0;
  return cfg_.min_value * std::pow(cfg_.growth, static_cast<double>(i));
}

double LogHistogram::bucket_upper(size_t i) const {
  return cfg_.min_value * std::pow(cfg_.growth, static_cast<double>(i + 1));
}

void LogHistogram::record(double value) {
  counts_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  n_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
  cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

uint64_t LogHistogram::total() const {
  return n_.load(std::memory_order_relaxed);
}

double LogHistogram::min_seen() const {
  return total() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double LogHistogram::max_seen() const {
  return total() ? max_.load(std::memory_order_relaxed) : 0.0;
}

double LogHistogram::mean() const {
  const uint64_t n = total();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double LogHistogram::quantile(double p) const {
  const uint64_t n = total();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Same rank convention as vsensor::percentile over a sorted sample:
  // the target sits at index p/100 * (n - 1).
  const double target = p / 100.0 * static_cast<double>(n - 1);
  uint64_t before = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    const auto last = static_cast<double>(before + c - 1);
    if (target <= last) {
      // Interpolate linearly inside the bucket. The first and last
      // occupied buckets tighten to the observed extremes so a quantile
      // never leaves [min_seen, max_seen].
      double lo = std::max(bucket_lower(i), min_seen());
      double hi = std::min(bucket_upper(i), max_seen());
      if (hi < lo) hi = lo;
      const double frac =
          c > 1 ? (target - static_cast<double>(before)) /
                      static_cast<double>(c - 1)
                : 0.0;
      return lo + frac * (hi - lo);
    }
    before += c;
  }
  return max_seen();
}

void LogHistogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  n_.store(0, std::memory_order_relaxed);
}

void write_metrics_jsonl(std::ostream& out, const RunIdentity& id,
                         const HealthRecorder& snapshot,
                         const StageClock& clock) {
  write_identity_header(out, "vsensor-metrics/2", id);
  for (const auto& [name, value] : snapshot.gauges()) {
    out << "{\"gauge\":";
    jsonw::write_string(out, name);
    out << ",\"value\":";
    jsonw::write_number(out, value);
    out << "}\n";
  }
  for (size_t i = 0; i < kStageCount; ++i) {
    const auto stage = static_cast<Stage>(i);
    const uint64_t n = clock.count(stage);
    if (n == 0) continue;
    out << "{\"stage\":";
    jsonw::write_string(out, stage_name(stage));
    out << ",\"count\":" << n << ",\"ns\":" << clock.nanos(stage) << "}\n";
  }
}

}  // namespace vsensor::obs
