#include "runtime/detector.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "obs/trace.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {

/// The one detection core behind every Detector entry point: fold each
/// span `visit` passes on into a fresh StreamingDetector and finalize it,
/// then visit the same spans twice more against the final standards:
/// once to count the records to flag, once to flag them into a list
/// reserved to exactly that count (a doubling list would set the
/// analysis's memory peak).
template <typename Visit>
AnalysisResult fold_and_flag(const DetectorConfig& cfg,
                             const std::vector<SensorInfo>& sensors, int ranks,
                             double run_time, const Visit& visit) {
  obs::ScopedSpan span("analyze_records", "detect");
  span.set_virtual(0.0, run_time);
  StreamingDetector fold(cfg, sensors, ranks, run_time);
  visit([&fold](std::span<const SliceRecord> records) {
    fold.on_batch(records);
  });
  AnalysisResult result = fold.finalize();
  StreamingDetector::SlotHint hint;
  size_t flagged = 0;
  visit([&](std::span<const SliceRecord> records) {
    flagged += fold.flag_records(records, hint);
  });
  result.flagged.reserve(flagged);
  visit([&](std::span<const SliceRecord> records) {
    fold.flag_records(records, hint, &result.flagged);
  });
  return result;
}

}  // namespace

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
  return fold_and_flag(cfg_, collector.sensors(), ranks, run_time,
                       [&collector](const auto& fn) {
                         collector.visit_records(fn);
                       });
}

AnalysisResult Detector::analyze_until(const Collector& collector, int ranks,
                                       double horizon) const {
  // Each maximal run of records that completed by the horizon is one span.
  return fold_and_flag(
      cfg_, collector.sensors(), ranks, horizon, [&](const auto& fn) {
        collector.visit_records([&](std::span<const SliceRecord> seg) {
          size_t begin = 0;
          while (begin < seg.size()) {
            size_t end = begin;
            while (end < seg.size() && seg[end].t_end <= horizon) ++end;
            if (end > begin) fn(seg.subspan(begin, end - begin));
            begin = end + 1;
          }
        });
      });
}

AnalysisResult Detector::analyze_records(std::span<const SliceRecord> records,
                                         const std::vector<SensorInfo>& sensors,
                                         int ranks, double run_time) const {
  return fold_and_flag(cfg_, sensors, ranks, run_time,
                       [records](const auto& fn) { fn(records); });
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
  // passes over the lanes instead of one full copy of the record set.
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
