// The live CG configuration and the replayable record streams built from it.
#include <algorithm>
#include <set>

#include "bench.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/scenarios.hpp"

namespace pipebench {

simmpi::Config LiveSpec::sim_config() const {
  auto cfg = workloads::baseline_config(ranks, seed);
  cfg.ranks_per_node = 1;  // one rank per node: a bad node is one bad rank
  if (bad_rank >= 0) workloads::inject_bad_node(cfg, bad_rank, 0.55);
  return cfg;
}

workloads::RunOptions LiveSpec::run_options(bool instrumented) const {
  workloads::RunOptions opts;
  opts.params.iterations = iterations;
  opts.params.scale = scale;
  opts.params.seed = seed;
  opts.runtime.batch_records = batch_records;
  opts.instrumented = instrumented;
  return opts;
}

rt::DetectorConfig detector_config(double run_time) {
  rt::DetectorConfig cfg;
  cfg.matrix_resolution = run_time / 50.0;
  return cfg;
}

std::span<const rt::SliceRecord> Stream::batch(int rank, uint32_t index) const {
  const auto& recs = records[static_cast<size_t>(rank)];
  const size_t begin = static_cast<size_t>(index) * batch_records;
  const size_t n = std::min(batch_records, recs.size() - begin);
  return {recs.data() + begin, n};
}

namespace {

/// Cut per-rank record sequences into batches and order them by virtual
/// time (ties by rank: round-robin across ranks).
uint32_t batch_count(const Stream& s, int rank) {
  const size_t n = s.records[static_cast<size_t>(rank)].size();
  return static_cast<uint32_t>((n + s.batch_records - 1) / s.batch_records);
}

void finish_stream(Stream& s) {
  for (int r = 0; r < s.ranks; ++r) {
    s.total_records += s.records[static_cast<size_t>(r)].size();
    const uint32_t batches = batch_count(s, r);
    for (uint32_t i = 0; i < batches; ++i) {
      double now = 0.0;
      for (const auto& rec : s.batch(r, i)) now = std::max(now, rec.t_end);
      s.order.push_back(Delivery{r, i, now});
    }
  }
  std::stable_sort(s.order.begin(), s.order.end(),
                   [](const Delivery& a, const Delivery& b) {
                     if (a.now != b.now) return a.now < b.now;
                     return a.rank < b.rank;
                   });
}

}  // namespace

void add_soa(Stream& s) {
  if (!s.soa.empty()) return;
  s.soa.assign(static_cast<size_t>(s.ranks), {});
  for (int r = 0; r < s.ranks; ++r) {
    auto& soa = s.soa[static_cast<size_t>(r)];
    const uint32_t batches = batch_count(s, r);
    soa.reserve(batches);
    for (uint32_t i = 0; i < batches; ++i) {
      soa.push_back(rt::RecordBatch::from_aos(s.batch(r, i)));
    }
  }
}

Stream stream_from_collector(const rt::Collector& collector,
                             std::vector<rt::SensorInfo> sensors, int ranks,
                             double run_time, size_t batch_records) {
  Stream s;
  s.sensors = std::move(sensors);
  s.ranks = ranks;
  s.run_time = run_time;
  s.detector = detector_config(run_time);
  s.batch_records = batch_records;
  s.records.assign(static_cast<size_t>(ranks), {});
  collector.visit_records([&](std::span<const rt::SliceRecord> part) {
    for (const auto& rec : part) {
      VS_CHECK_MSG(rec.rank >= 0 && rec.rank < ranks, "record from unknown rank");
      s.records[static_cast<size_t>(rec.rank)].push_back(rec);
    }
  });
  for (auto& recs : s.records) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const rt::SliceRecord& a, const rt::SliceRecord& b) {
                       return a.t_end < b.t_end;
                     });
  }
  finish_stream(s);
  return s;
}

Stream make_fanin_stream(const LiveSpec& template_spec, int ranks,
                         uint64_t seed, int slowed_ranks) {
  VS_CHECK_MSG(template_spec.bad_rank < 0, "the template run must be healthy");
  const auto cg = workloads::make_workload("CG");
  rt::Collector captured;
  const auto run = workloads::run_workload(*cg, template_spec.sim_config(),
                                           template_spec.run_options(true),
                                           &captured);
  const Stream tmpl =
      stream_from_collector(captured, cg->sensors(), template_spec.ranks,
                            run.makespan, template_spec.batch_records);

  Stream s;
  s.sensors = tmpl.sensors;
  s.ranks = ranks;
  s.run_time = tmpl.run_time;
  s.detector = tmpl.detector;
  s.batch_records = tmpl.batch_records;

  Rng rng(hash_combine(seed, 0x5EED));
  std::set<int> slowed;
  while (static_cast<int>(slowed.size()) < slowed_ranks) {
    slowed.insert(static_cast<int>(rng.next_below(static_cast<uint64_t>(ranks))));
  }
  s.truth.assign(slowed.begin(), slowed.end());

  // Per-rank jitter: a rank runs up to 5% slower than its template rank on
  // every sensor, so no two ranks of one template rank read identically.
  constexpr double kJitter = 0.05;
  constexpr double kSlowdown = 0.55;  // the bad-node memory speed
  s.records.assign(static_cast<size_t>(ranks), {});
  for (int r = 0; r < ranks; ++r) {
    const double factor = 1.0 + kJitter * rng.next_double();
    const bool slow = slowed.count(r) != 0;
    auto& out = s.records[static_cast<size_t>(r)];
    out = tmpl.records[static_cast<size_t>(r % tmpl.ranks)];
    for (auto& rec : out) {
      rec.rank = r;
      double f = factor;
      if (slow && s.sensors[static_cast<size_t>(rec.sensor_id)].type ==
                      rt::SensorType::Computation) {
        f /= kSlowdown;
      }
      rec.avg_duration *= f;
      rec.min_duration *= f;
    }
  }
  finish_stream(s);
  return s;
}

}  // namespace pipebench
