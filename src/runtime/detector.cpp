#include "runtime/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/record_batch.hpp"
#include "support/error.hpp"
#include "support/simd.hpp"

namespace vsensor::rt {

Detector::Detector(DetectorConfig cfg) : cfg_(cfg) {
  VS_CHECK_MSG(cfg_.matrix_resolution > 0.0, "matrix resolution must be positive");
  VS_CHECK_MSG(cfg_.variance_threshold > 0.0 && cfg_.variance_threshold <= 1.0,
               "variance threshold must be in (0, 1]");
}

int Detector::group_of(float metric) const {
  if (cfg_.metric_bucket_width <= 0.0) return 0;
  return static_cast<int>(
      std::floor(static_cast<double>(metric) / cfg_.metric_bucket_width));
}

std::vector<double> Detector::normalize_records(
    std::span<const SliceRecord> records) const {
  // Group by dynamic-rule metric bucket; the fastest record of each group is
  // the group's standard time (§5.2-§5.3). Degenerate records never set a
  // standard: a zero-duration slice as the group minimum would zero every
  // score in the group.
  if (cfg_.metric_bucket_width <= 0.0) {
    // Single-group fast path (dynamic rules off, the default): gather the
    // duration column once, then the min-standard scan and the divide are
    // both SIMD passes over contiguous memory.
    const size_t n = records.size();
    std::vector<double> avg(n);
    for (size_t i = 0; i < n; ++i) avg[i] = records[i].avg_duration;
    const double fastest = simd::min_above(avg.data(), n, kMinStandardTime);
    std::vector<double> normalized(n, 0.0);
    if (fastest != std::numeric_limits<double>::infinity()) {
      simd::normalize_uniform(fastest, avg.data(), n, kMinStandardTime,
                              normalized.data());
      // Degenerate records score 0.0 — broken, not perfect.
      for (size_t i = 0; i < n; ++i) {
        if (!(avg[i] >= kMinStandardTime)) normalized[i] = 0.0;
      }
    }
    return normalized;
  }
  std::map<int, double> standard;
  for (const auto& rec : records) {
    if (is_degenerate(rec)) continue;
    const int g = group_of(rec.metric);
    auto [it, inserted] = standard.try_emplace(g, rec.avg_duration);
    if (!inserted) it->second = std::min(it->second, rec.avg_duration);
  }
  std::vector<double> normalized;
  normalized.reserve(records.size());
  for (const auto& rec : records) {
    if (is_degenerate(rec)) {
      normalized.push_back(0.0);  // broken measurement, not a perfect one
      continue;
    }
    const double std_time =
        std::max(standard.at(group_of(rec.metric)), kMinStandardTime);
    normalized.push_back(std_time / rec.avg_duration);
  }
  return normalized;
}

AnalysisResult Detector::analyze(const Collector& collector, int ranks,
                                 double run_time) const {
  // Locked view instead of Collector::records(): the full record set is
  // materialized exactly once per analysis.
  std::vector<SliceRecord> all;
  all.reserve(collector.record_count());
  collector.visit_records([&all](std::span<const SliceRecord> seg) {
    all.insert(all.end(), seg.begin(), seg.end());
  });
  return analyze_records(all, collector.sensors(), ranks, run_time);
}

AnalysisResult Detector::analyze_until(const Collector& collector, int ranks,
                                       double horizon) const {
  std::vector<SliceRecord> window;
  collector.visit_records([&window, horizon](std::span<const SliceRecord> seg) {
    for (const auto& rec : seg) {
      if (rec.t_end <= horizon) window.push_back(rec);
    }
  });
  return analyze_records(window, collector.sensors(), ranks, horizon);
}

AnalysisResult Detector::analyze_records(std::span<const SliceRecord> records,
                                         const std::vector<SensorInfo>& sensors,
                                         int ranks, double run_time) const {
  return analyze_batch(RecordBatch::from_aos(records), sensors, ranks,
                       run_time);
}

AnalysisResult Detector::analyze_batch(const RecordBatch& records,
                                       const std::vector<SensorInfo>& sensors,
                                       int ranks, double run_time) const {
  VS_CHECK_MSG(ranks > 0, "need at least one rank");
  VS_CHECK_MSG(run_time > 0.0, "run time must be positive");
  VS_OBS_SCOPED_STAGE(obs::Stage::DetectBatch);
  obs::ScopedSpan span("analyze_records", "detect");
  span.set_virtual(0.0, run_time);

  const int buckets =
      std::max(1, static_cast<int>(std::ceil(run_time / cfg_.matrix_resolution)));
  AnalysisResult result{
      .matrices = {PerformanceMatrix(ranks, buckets, cfg_.matrix_resolution),
                   PerformanceMatrix(ranks, buckets, cfg_.matrix_resolution),
                   PerformanceMatrix(ranks, buckets, cfg_.matrix_resolution)},
      .events = {},
      .flagged = {},
      .run_time = run_time,
      .ranks = ranks,
      .stale_ranks = {},
  };

  const size_t n = records.size();
  const int32_t* ids = records.sensor_id.data();
  const int32_t* rk = records.rank.data();
  const float* metric = records.metric.data();
  const double* avg = records.avg_duration.data();
  const double* t_begin = records.t_begin.data();
  const double* t_end = records.t_end.data();
  const uint32_t* count = records.count.data();
  const bool grouped = cfg_.metric_bucket_width > 0.0;

  // Pass 1 — standard time per (sensor, dynamic group): minimum
  // avg_duration over all ranks — "Each v-sensor compares their records to
  // the fastest record". Degenerate records are skipped outright: they
  // would either pose as perfect (normalized 1.0) or, as a group minimum,
  // zero the whole group. With dynamic rules off (the default) the group
  // is always 0, so the standards live in a flat per-sensor array and the
  // scan touches only the contiguous id and duration columns.
  std::vector<double> flat_standard;
  std::map<std::pair<int, int>, double> grouped_standard;
  std::vector<uint32_t> per_sensor_count(sensors.size(), 0);
  {
    VS_OBS_SCOPED_STAGE(obs::Stage::Normalize);
    if (!grouped) {
      flat_standard.assign(sensors.size(),
                           std::numeric_limits<double>::infinity());
      for (size_t i = 0; i < n; ++i) {
        const double a = avg[i];
        if (!(a >= kMinStandardTime)) continue;
        const int id = ids[i];
        VS_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < sensors.size(),
                     "record references unknown sensor");
        VS_CHECK_MSG(rk[i] >= 0 && rk[i] < ranks, "record from unknown rank");
        if (a < flat_standard[static_cast<size_t>(id)]) {
          flat_standard[static_cast<size_t>(id)] = a;
        }
        per_sensor_count[static_cast<size_t>(id)] += 1;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        const double a = avg[i];
        if (!(a >= kMinStandardTime)) continue;
        const int id = ids[i];
        VS_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < sensors.size(),
                     "record references unknown sensor");
        VS_CHECK_MSG(rk[i] >= 0 && rk[i] < ranks, "record from unknown rank");
        const auto key = std::make_pair(id, group_of(metric[i]));
        auto [it, inserted] = grouped_standard.try_emplace(key, a);
        if (!inserted) it->second = std::min(it->second, a);
        per_sensor_count[static_cast<size_t>(id)] += 1;
      }
    }
  }

  // Pass 2 — score every admissible record. The gather fills each record's
  // standard time; the normalization itself is then one vectorized
  // exactly-rounded divide over the whole batch (invalid lanes compute a
  // value the accumulation loop never reads).
  std::vector<double> std_times(n, 0.0);
  std::vector<uint8_t> admissible(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const double a = avg[i];
    if (!(a >= kMinStandardTime)) continue;
    const auto id = static_cast<size_t>(ids[i]);
    if (per_sensor_count[id] < cfg_.min_records) continue;
    std_times[i] = grouped
                       ? grouped_standard.at({ids[i], group_of(metric[i])})
                       : flat_standard[id];
    admissible[i] = 1;
  }
  std::vector<double> normalized(n);
  simd::normalize(std_times.data(), avg, n, kMinStandardTime,
                  normalized.data());

  for (size_t i = 0; i < n; ++i) {
    if (!admissible[i]) continue;
    const auto type = sensors[static_cast<size_t>(ids[i])].type;
    auto& matrix = result.matrices[static_cast<size_t>(type)];
    // Pass 1 admitted only records of ranks in [0, ranks).
    const double mid = 0.5 * (t_begin[i] + t_end[i]);
    matrix.accumulate(rk[i], matrix.bucket_of(mid), normalized[i],
                      static_cast<double>(count[i]));
    if (normalized[i] < cfg_.variance_threshold) {
      result.flagged.push_back(
          {records.get(i), normalized[i], grouped ? group_of(metric[i]) : 0});
    }
  }

  finalize_analysis(result, cfg_);
  return result;
}

void finalize_analysis(AnalysisResult& result, const DetectorConfig& cfg) {
  for (auto& matrix : result.matrices) matrix.finalize();

  for (int t = 0; t < kSensorTypeCount; ++t) {
    auto events =
        extract_events(result.matrices[static_cast<size_t>(t)],
                       static_cast<SensorType>(t), cfg.variance_threshold,
                       cfg.min_event_cells);
    events = merge_events(std::move(events),
                          cfg.merge_gap_buckets * cfg.matrix_resolution);
    result.events.insert(result.events.end(), events.begin(), events.end());
  }
  // Cross-reference: a Network event that overlaps a Computation event in
  // time but on disjoint ranks is most likely collective-wait skew — its
  // ranks are the victims waiting for the slow ranks of the compute event.
  for (auto& net : result.events) {
    if (net.type != SensorType::Network) continue;
    for (const auto& comp : result.events) {
      if (comp.type != SensorType::Computation) continue;
      const bool ranks_disjoint =
          net.rank_end < comp.rank_begin || comp.rank_end < net.rank_begin;
      const double overlap = std::min(net.t_end, comp.t_end) -
                             std::max(net.t_begin, comp.t_begin);
      if (ranks_disjoint && overlap > 0.5 * (net.t_end - net.t_begin)) {
        net.likely_wait_on_slow_ranks = true;
        break;
      }
    }
  }

  // Most severe first.
  std::sort(result.events.begin(), result.events.end(),
            [](const VarianceEvent& a, const VarianceEvent& b) {
              return a.severity < b.severity;
            });
}

std::vector<VarianceEvent> extract_events(const PerformanceMatrix& matrix,
                                          SensorType type, double threshold,
                                          uint32_t min_cells) {
  const int R = matrix.ranks();
  const int B = matrix.buckets();
  std::vector<int> component(static_cast<size_t>(R) * static_cast<size_t>(B), -1);
  auto idx = [B](int r, int b) {
    return static_cast<size_t>(r) * static_cast<size_t>(B) + static_cast<size_t>(b);
  };
  auto is_low = [&](int r, int b) {
    return matrix.has(r, b) && matrix.at(r, b) < threshold;
  };

  std::vector<VarianceEvent> events;
  std::vector<std::pair<int, int>> stack;
  for (int r = 0; r < R; ++r) {
    for (int b = 0; b < B; ++b) {
      if (!is_low(r, b) || component[idx(r, b)] >= 0) continue;
      // Flood-fill one connected component of low cells (8-connectivity, so
      // diagonal speckle merges into one region).
      const int comp_id = static_cast<int>(events.size());
      VarianceEvent ev;
      ev.type = type;
      ev.rank_begin = r;
      ev.rank_end = r;
      int bucket_lo = b;
      int bucket_hi = b;
      double severity_sum = 0.0;
      stack.push_back({r, b});
      component[idx(r, b)] = comp_id;
      while (!stack.empty()) {
        const auto [cr, cb] = stack.back();
        stack.pop_back();
        severity_sum += matrix.at(cr, cb);
        ev.cells += 1;
        ev.rank_begin = std::min(ev.rank_begin, cr);
        ev.rank_end = std::max(ev.rank_end, cr);
        bucket_lo = std::min(bucket_lo, cb);
        bucket_hi = std::max(bucket_hi, cb);
        for (int dr = -1; dr <= 1; ++dr) {
          for (int db = -1; db <= 1; ++db) {
            const int nr = cr + dr;
            const int nb = cb + db;
            if (nr < 0 || nr >= R || nb < 0 || nb >= B) continue;
            if (!is_low(nr, nb) || component[idx(nr, nb)] >= 0) continue;
            component[idx(nr, nb)] = comp_id;
            stack.push_back({nr, nb});
          }
        }
      }
      ev.t_begin = bucket_lo * matrix.resolution();
      ev.t_end = (bucket_hi + 1) * matrix.resolution();
      ev.severity = severity_sum / static_cast<double>(ev.cells);
      events.push_back(ev);
    }
  }
  std::erase_if(events, [min_cells](const VarianceEvent& e) {
    return e.cells < min_cells;
  });
  return events;
}

std::vector<Detector::SeriesPoint> Detector::component_series(
    const Collector& collector, SensorType type, double resolution,
    double run_time) const {
  VS_CHECK_MSG(resolution > 0.0, "series resolution must be positive");
  VS_CHECK_MSG(run_time > 0.0, "run time must be positive");
  const auto& sensors = collector.sensors();

  // Per-(sensor, group) standard times, as in analyze_records. Two locked
  // passes over the shards instead of one full copy of the record set.
  std::map<std::pair<int, int>, double> standard;
  collector.visit_records([&](std::span<const SliceRecord> seg) {
    for (const auto& rec : seg) {
      if (is_degenerate(rec)) continue;
      const auto key = std::make_pair(rec.sensor_id, group_of(rec.metric));
      auto [it, inserted] = standard.try_emplace(key, rec.avg_duration);
      if (!inserted) it->second = std::min(it->second, rec.avg_duration);
    }
  });

  const auto buckets = static_cast<size_t>(
      std::max(1, static_cast<int>(std::ceil(run_time / resolution))));
  std::vector<double> sum(buckets, 0.0);
  std::vector<uint32_t> count(buckets, 0);
  collector.visit_records([&](std::span<const SliceRecord> seg) {
    for (const auto& rec : seg) {
      VS_CHECK(rec.sensor_id >= 0 &&
               static_cast<size_t>(rec.sensor_id) < sensors.size());
      if (sensors[static_cast<size_t>(rec.sensor_id)].type != type) continue;
      if (is_degenerate(rec)) continue;
      const double std_time = std::max(
          standard.at({rec.sensor_id, group_of(rec.metric)}), kMinStandardTime);
      const double normalized = std_time / rec.avg_duration;
      const double mid = 0.5 * (rec.t_begin + rec.t_end);
      auto b = static_cast<size_t>(std::clamp(
          static_cast<int>(mid / resolution), 0, static_cast<int>(buckets) - 1));
      sum[b] += normalized * rec.count;
      count[b] += rec.count;
    }
  });
  std::vector<SeriesPoint> series(buckets);
  for (size_t b = 0; b < buckets; ++b) {
    series[b].t = static_cast<double>(b) * resolution;
    series[b].samples = count[b];
    if (count[b] > 0) series[b].perf = sum[b] / count[b];
  }
  return series;
}

std::vector<VarianceEvent> merge_events(std::vector<VarianceEvent> events,
                                        double gap_seconds) {
  std::sort(events.begin(), events.end(),
            [](const VarianceEvent& a, const VarianceEvent& b) {
              return a.t_begin < b.t_begin;
            });
  std::vector<VarianceEvent> merged;
  for (auto& ev : events) {
    bool absorbed = false;
    for (auto& m : merged) {
      const bool ranks_overlap =
          ev.rank_begin <= m.rank_end && m.rank_begin <= ev.rank_end;
      const bool time_close = ev.t_begin <= m.t_end + gap_seconds;
      if (m.type == ev.type && ranks_overlap && time_close) {
        const double total = static_cast<double>(m.cells + ev.cells);
        m.severity = (m.severity * m.cells + ev.severity * ev.cells) / total;
        m.t_begin = std::min(m.t_begin, ev.t_begin);
        m.t_end = std::max(m.t_end, ev.t_end);
        m.rank_begin = std::min(m.rank_begin, ev.rank_begin);
        m.rank_end = std::max(m.rank_end, ev.rank_end);
        m.cells += ev.cells;
        absorbed = true;
        break;
      }
    }
    if (!absorbed) merged.push_back(ev);
  }
  return merged;
}

std::string VarianceEvent::classify(double run_time, int total_ranks) const {
  const double time_span = (t_end - t_begin) / std::max(run_time, 1e-12);
  const double rank_span =
      static_cast<double>(rank_end - rank_begin + 1) / std::max(total_ranks, 1);
  const char* component = sensor_type_name(type);
  std::ostringstream os;
  if (type == SensorType::Network && likely_wait_on_slow_ranks) {
    os << "collective wait imbalance — these ranks are waiting for slow "
          "ranks elsewhere (see the computation events)";
  } else if (type == SensorType::Network && rank_span > 0.5) {
    os << "network performance degradation (shared interconnect, affects "
          "most ranks)";
  } else if (time_span > 0.9 && rank_span <= 0.5) {
    os << "persistent slow ranks — suspect a bad node hosting ranks "
       << rank_begin << "-" << rank_end;
  } else if (rank_span < 0.5) {
    os << "transient " << component
       << " interference on a subset of ranks (noise/zombie process?)";
  } else {
    os << "system-wide " << component << " slowdown";
  }
  return os.str();
}

std::string VarianceEvent::describe(double run_time, int total_ranks) const {
  std::ostringstream os;
  os << sensor_type_name(type) << " variance: ranks " << rank_begin << "-"
     << rank_end << ", t=[" << t_begin << "s, " << t_end << "s), perf "
     << severity << " of best — " << classify(run_time, total_ranks);
  return os.str();
}

std::vector<SliceRecord> drop_stale_ranks(std::span<const SliceRecord> records,
                                          std::span<const int> stale_ranks) {
  std::vector<SliceRecord> kept;
  kept.reserve(records.size());
  for (const auto& rec : records) {
    if (std::find(stale_ranks.begin(), stale_ranks.end(), rec.rank) !=
        stale_ranks.end()) {
      continue;
    }
    kept.push_back(rec);
  }
  return kept;
}

const char* sensor_type_name(SensorType type) {
  switch (type) {
    case SensorType::Computation:
      return "Computation";
    case SensorType::Network:
      return "Network";
    case SensorType::IO:
      return "IO";
  }
  return "Unknown";
}

}  // namespace vsensor::rt
