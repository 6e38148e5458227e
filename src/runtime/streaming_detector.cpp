#include "runtime/streaming_detector.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {

// One online variance flag as a structured event: virtual time, rank,
// sensor, group, and the score vs. the standard it lost against.
void emit_flag(const obs::EventHooks& hooks, double t, int rank, int sensor,
               int group, double norm, double standard, const char* which) {
  obs::Event ev;
  ev.kind = obs::EventKind::VarianceFlag;
  ev.t = t;
  ev.rank = rank;
  ev.sensor = sensor;
  ev.has_group = true;
  ev.group = group;
  ev.value = norm;
  ev.standard = standard;
  ev.detail = which;
  hooks.emit(std::move(ev));
}

}  // namespace

#if VSENSOR_OBS
namespace {
struct StreamingInstruments {
  obs::Counter& batches;
  obs::Counter& records;
  obs::Counter& inter_flags;
  obs::Counter& intra_flags;

  static StreamingInstruments& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StreamingInstruments inst{
        reg.counter("streaming.batches_folded"),
        reg.counter("streaming.records_folded"),
        reg.counter("streaming.inter_rank_flags"),
        reg.counter("streaming.intra_rank_flags")};
    return inst;
  }
};
}  // namespace
#endif

StreamingDetector::StreamingDetector(DetectorConfig cfg,
                                     std::vector<SensorInfo> sensors,
                                     int ranks, double run_time)
    : cfg_(cfg),
      sensors_(std::move(sensors)),
      ranks_(ranks),
      run_time_(run_time),
      buckets_(std::max(
          1, static_cast<int>(std::ceil(run_time / cfg.matrix_resolution)))),
      stats_(sensors_.size()),
      sensor_records_(sensors_.size(), 0) {
  VS_CHECK_MSG(cfg_.matrix_resolution > 0.0, "matrix resolution must be positive");
  VS_CHECK_MSG(ranks_ > 0, "need at least one rank");
  VS_CHECK_MSG(run_time_ > 0.0, "run time must be positive");
}

int StreamingDetector::group_of(float metric) const {
  if (cfg_.metric_bucket_width <= 0.0) return 0;
  return static_cast<int>(
      std::floor(static_cast<double>(metric) / cfg_.metric_bucket_width));
}

int StreamingDetector::bucket_of(double time) const {
  // Mirrors PerformanceMatrix::bucket_of so streaming and batch analysis
  // land every record in the same cell.
  const int b = static_cast<int>(std::floor(time / cfg_.matrix_resolution));
  return std::clamp(b, 0, buckets_ - 1);
}

void StreamingDetector::on_batch(std::span<const SliceRecord> batch) {
  VS_OBS_SCOPED_STAGE(obs::Stage::DetectStreaming);
  VS_OBS_ONLY(if (obs::enabled()) {
    auto& inst = StreamingInstruments::get();
    inst.batches.add();
    inst.records.add(batch.size());
  })
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rec : batch) {
    VS_CHECK_MSG(rec.sensor_id >= 0 &&
                     static_cast<size_t>(rec.sensor_id) < sensors_.size(),
                 "record references unknown sensor");
    observed_ += 1;
    // Graceful degradation: a straggler from a rank already declared stale
    // must not reopen that rank's history.
    if (stale_.count(rec.rank) != 0) {
      ++stale_records_;
      continue;
    }
    // Mirror of the batch path's degeneracy rule: a zero/near-zero
    // duration is a broken measurement, not the fastest slice — it must
    // not ratchet the running minima down to 0 and zero every later score.
    if (is_degenerate(rec)) {
      ++degenerate_records_;
      continue;
    }
    const auto sensor = static_cast<size_t>(rec.sensor_id);
    const int g = group_of(rec.metric);
    sensor_records_[sensor] += 1;

    // Running minima. A record that lowers a standard normalizes against
    // itself (to 1.0), exactly as in the batch path where the global
    // minimum includes every record.
    auto [std_it, std_new] = standard_.try_emplace({rec.sensor_id, g},
                                                   rec.avg_duration);
    bool std_lowered = std_new;
    if (!std_new && rec.avg_duration < std_it->second) {
      std_it->second = rec.avg_duration;
      std_lowered = true;
    }
    if (publish_standards_ && std_lowered) lowered_.insert({rec.sensor_id, g});
    auto [rank_it, rank_new] = rank_standard_.try_emplace(
        {rec.sensor_id, g, rec.rank}, rec.avg_duration);
    if (!rank_new) rank_it->second = std::min(rank_it->second, rec.avg_duration);

    const double inter_norm = std_it->second / rec.avg_duration;
    const double intra_norm = rank_it->second / rec.avg_duration;
    if (inter_norm < cfg_.variance_threshold) {
      ++inter_flags_;
      VS_OBS_ONLY(
          if (obs::enabled()) StreamingInstruments::get().inter_flags.add();)
      if (hooks_) {
        emit_flag(hooks_, rec.t_end, rec.rank, rec.sensor_id, g, inter_norm,
                  std_it->second, "inter");
      }
    }
    if (intra_norm < cfg_.variance_threshold) {
      ++intra_flags_;
      VS_OBS_ONLY(
          if (obs::enabled()) StreamingInstruments::get().intra_flags.add();)
      if (hooks_) {
        emit_flag(hooks_, rec.t_end, rec.rank, rec.sensor_id, g, intra_norm,
                  rank_it->second, "intra");
      }
    }

    // Welford update over normalized performance.
    RunningStats& st = stats_[sensor];
    st.count += 1;
    const double delta = inter_norm - st.mean;
    st.mean += delta / static_cast<double>(st.count);
    st.m2 += delta * (inter_norm - st.mean);

    last_[{rec.sensor_id, rec.rank}] =
        LastSlice{rec.t_end, rec.avg_duration, inter_norm};

    if (rec.rank >= 0 && rec.rank < ranks_) {
      const double mid = 0.5 * (rec.t_begin + rec.t_end);
      CellSums& cell =
          cells_[{rec.sensor_id, g, rec.rank, bucket_of(mid)}];
      const auto weight = static_cast<double>(rec.count);
      cell.weight_over_avg += weight / rec.avg_duration;
      cell.weight += weight;
    }
  }
}

void StreamingDetector::mark_stale(int rank, double now) {
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fresh = stale_.insert(rank).second;
  }
  // Event only on the first verdict for a rank: mark_stale is idempotent
  // and replayed journals re-apply it, but "this rank went stale" is one
  // transition, not one per re-application.
  if (fresh && hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::StaleRank;
    ev.t = now;
    ev.rank = rank;
    hooks_.emit(std::move(ev));
  }
}

void StreamingDetector::mark_live(int rank, double now) {
  bool revived = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    revived = stale_.erase(rank) != 0;
  }
  // Like mark_stale: one event per actual transition, so idempotent
  // journal replays don't multiply revival events.
  if (revived && hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::RankRejoin;
    ev.t = now;
    ev.rank = rank;
    hooks_.emit(std::move(ev));
  }
}

std::vector<int> StreamingDetector::stale_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {stale_.begin(), stale_.end()};
}

void StreamingDetector::enable_standard_publication(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  publish_standards_ = on;
  if (!on) lowered_.clear();
}

std::vector<StandardUpdate> StreamingDetector::take_lowered_standards() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StandardUpdate> out;
  out.reserve(lowered_.size());
  // Publish each key's *current* board value, not the value at the moment
  // of lowering: later records of the same key may have lowered it again
  // before this drain, and the lowest value is the one peers need.
  for (const auto& key : lowered_) {
    out.push_back(StandardUpdate{key.first, key.second, standard_.at(key)});
  }
  lowered_.clear();
  return out;
}

void StreamingDetector::apply_standard_update(int sensor_id, int group,
                                              double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = standard_.try_emplace({sensor_id, group}, value);
  if (!inserted) it->second = std::min(it->second, value);
}

StreamingDetector::RunningStats StreamingDetector::sensor_stats(
    int sensor_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  VS_CHECK(sensor_id >= 0 && static_cast<size_t>(sensor_id) < stats_.size());
  return stats_[static_cast<size_t>(sensor_id)];
}

std::optional<StreamingDetector::LastSlice> StreamingDetector::last_slice(
    int sensor_id, int rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = last_.find({sensor_id, rank});
  if (it == last_.end()) return std::nullopt;
  return it->second;
}

double StreamingDetector::standard_time(int sensor_id, float metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = standard_.find({sensor_id, group_of(metric)});
  return it == standard_.end() ? 0.0 : it->second;
}

uint64_t StreamingDetector::observed_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observed_;
}

uint64_t StreamingDetector::stale_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_records_;
}

uint64_t StreamingDetector::degenerate_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degenerate_records_;
}

uint64_t StreamingDetector::intra_flags() const {
  std::lock_guard<std::mutex> lock(mu_);
  return intra_flags_;
}

void StreamingDetector::sample_health(double /*now*/,
                                      obs::HealthRecorder& rec) const {
  std::lock_guard<std::mutex> lock(mu_);
  rec.gauge("observed_records", observed_);
  rec.gauge("stale_records", stale_records_);
  rec.gauge("degenerate_records", degenerate_records_);
  rec.gauge("intra_flags", intra_flags_);
  rec.gauge("inter_flags", inter_flags_);
  rec.gauge("standards", static_cast<uint64_t>(standard_.size()));
  rec.gauge("rank_standards", static_cast<uint64_t>(rank_standard_.size()));
  rec.gauge("matrix_cells", static_cast<uint64_t>(cells_.size()));
  rec.gauge("stale_ranks", static_cast<uint64_t>(stale_.size()));
}

uint64_t StreamingDetector::inter_flags() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inter_flags_;
}

StreamingDetector::Snapshot StreamingDetector::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot{standard_,        rank_standard_,       cells_,
                  stats_,           sensor_records_,      last_,
                  stale_,           observed_,            stale_records_,
                  degenerate_records_, intra_flags_,      inter_flags_};
}

void StreamingDetector::restore(const Snapshot& snap) {
  VS_CHECK_MSG(snap.stats.size() == sensors_.size() &&
                   snap.sensor_records.size() == sensors_.size(),
               "snapshot sensor table does not match this detector");
  std::lock_guard<std::mutex> lock(mu_);
  standard_ = snap.standard;
  rank_standard_ = snap.rank_standard;
  cells_ = snap.cells;
  stats_ = snap.stats;
  sensor_records_ = snap.sensor_records;
  last_ = snap.last;
  stale_ = snap.stale;
  lowered_.clear();
  observed_ = snap.observed;
  stale_records_ = snap.stale_records;
  degenerate_records_ = snap.degenerate_records;
  intra_flags_ = snap.intra_flags;
  inter_flags_ = snap.inter_flags;
}

void StreamingDetector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  standard_.clear();
  rank_standard_.clear();
  cells_.clear();
  stats_.assign(sensors_.size(), RunningStats{});
  sensor_records_.assign(sensors_.size(), 0);
  last_.clear();
  stale_.clear();
  lowered_.clear();
  observed_ = 0;
  stale_records_ = 0;
  degenerate_records_ = 0;
  intra_flags_ = 0;
  inter_flags_ = 0;
}

StreamingDetector::Snapshot StreamingDetector::merge_snapshots(
    const Snapshot& a, const Snapshot& b) {
  VS_CHECK_MSG(a.stats.size() == b.stats.size() &&
                   a.sensor_records.size() == b.sensor_records.size(),
               "cannot merge snapshots over different sensor tables");
  Snapshot out = a;

  // Standards are running minima, so the merged board is the pointwise min
  // over the union of keys — order-independent.
  for (const auto& [key, value] : b.standard) {
    auto [it, inserted] = out.standard.try_emplace(key, value);
    if (!inserted) it->second = std::min(it->second, value);
  }
  for (const auto& [key, value] : b.rank_standard) {
    auto [it, inserted] = out.rank_standard.try_emplace(key, value);
    if (!inserted) it->second = std::min(it->second, value);
  }

  // Cells are additive contributions; under a rank partition the key sets
  // are disjoint and this reduces to a union.
  for (const auto& [key, cell] : b.cells) {
    CellSums& dst = out.cells[key];
    dst.weight_over_avg += cell.weight_over_avg;
    dst.weight += cell.weight;
  }

  // Welford state merges by Chan's parallel formula. Exact algebraically;
  // the one field of the merged snapshot whose floating-point bits can
  // differ from the sequential fold (not part of finalize()'s output).
  for (size_t s = 0; s < out.stats.size(); ++s) {
    const RunningStats& x = a.stats[s];
    const RunningStats& y = b.stats[s];
    if (x.count == 0) {
      out.stats[s] = y;
    } else if (y.count != 0) {
      RunningStats m;
      m.count = x.count + y.count;
      const double na = static_cast<double>(x.count);
      const double nb = static_cast<double>(y.count);
      const double delta = y.mean - x.mean;
      m.mean = x.mean + delta * nb / (na + nb);
      m.m2 = x.m2 + y.m2 + delta * delta * na * nb / (na + nb);
      out.stats[s] = m;
    }
  }
  for (size_t s = 0; s < out.sensor_records.size(); ++s) {
    out.sensor_records[s] += b.sensor_records[s];
  }

  // Last-slice state is keyed by (sensor, rank) — disjoint under a rank
  // partition. If both sides carry a key anyway, the newer slice wins.
  for (const auto& [key, slice] : b.last) {
    auto [it, inserted] = out.last.try_emplace(key, slice);
    if (!inserted && slice.t_end > it->second.t_end) it->second = slice;
  }

  out.stale.insert(b.stale.begin(), b.stale.end());
  out.observed += b.observed;
  out.stale_records += b.stale_records;
  out.degenerate_records += b.degenerate_records;
  out.intra_flags += b.intra_flags;
  out.inter_flags += b.inter_flags;
  return out;
}

AnalysisResult StreamingDetector::finalize() const {
  VS_OBS_SCOPED_STAGE(obs::Stage::DetectStreaming);
  VS_OBS_ONLY(obs::ScopedSpan vs_obs_span("finalize", "detect");
              if (obs::enabled()) {
                vs_obs_span.set_virtual(0.0, run_time_);
              })
  std::lock_guard<std::mutex> lock(mu_);
  AnalysisResult result{
      .matrices = {PerformanceMatrix(ranks_, buckets_, cfg_.matrix_resolution),
                   PerformanceMatrix(ranks_, buckets_, cfg_.matrix_resolution),
                   PerformanceMatrix(ranks_, buckets_, cfg_.matrix_resolution)},
      .events = {},
      .flagged = {},
      .run_time = run_time_,
      .ranks = ranks_,
      .stale_ranks = {stale_.begin(), stale_.end()},
  };

  // Apply the final standards to the standard-free cell sums. A cell's
  // records of one (sensor, group) contributed sum(count/avg); multiplying
  // by the group's final standard yields exactly the batch Detector's
  // sum(normalized * count) for those records.
  for (const auto& [key, cell] : cells_) {
    const auto& [sensor, group, rank, bucket] = key;
    if (sensor_records_[static_cast<size_t>(sensor)] < cfg_.min_records) {
      continue;
    }
    const double std_time =
        std::max(standard_.at({sensor, group}), kMinStandardTime);
    const double value_sum = std_time * cell.weight_over_avg;
    const double weight = cell.weight;
    if (weight <= 0.0) continue;
    const auto type = sensors_[static_cast<size_t>(sensor)].type;
    result.matrices[static_cast<size_t>(type)].accumulate(
        rank, bucket, value_sum / weight, weight);
  }

  finalize_analysis(result, cfg_);
  return result;
}

}  // namespace vsensor::rt
