// SoA <-> AoS equivalence properties, and the offline Detector against
// the fold it wraps.
//
// Records travel as AoS SliceRecords; RecordBatch is the column adapter
// for callers that hold columns, and it gathers back to AoS for the one
// fold. Every conversion must be bit-identical, and so must the Detector's
// result against a StreamingDetector fold of the same records.
// "Bit-identical" here is literal: the comparisons below go through
// std::bit_cast / memcmp, not operator==, so NaN payloads and signed zeros
// count too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/record_batch.hpp"
#include "runtime/streaming_detector.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

bool bit_equal(const SliceRecord& a, const SliceRecord& b) {
  return std::memcmp(&a, &b, sizeof(SliceRecord)) == 0;
}

bool bit_equal(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::vector<SliceRecord> random_records(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dur(1e-6, 1e-2);
  std::vector<SliceRecord> records(n);
  for (auto& r : records) {
    r.sensor_id = static_cast<int32_t>(rng() % 7);
    r.rank = static_cast<int32_t>(rng() % 16);
    r.metric = static_cast<float>(dur(rng));
    r.t_begin = dur(rng) * 1e3;
    r.t_end = r.t_begin + dur(rng);
    r.avg_duration = dur(rng);
    r.min_duration = r.avg_duration * 0.5;
    r.count = static_cast<uint32_t>(rng() % 64 + 1);
    r.flags = static_cast<uint32_t>(rng() % 4);
  }
  return records;
}

TEST(RecordBatch, RoundTripIsBitIdenticalOnAdversarialValues) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<SliceRecord> records = random_records(33, 1);
  // Values operator== would mis-compare: NaNs (self-unequal), signed zero
  // (-0.0 == 0.0), and a NaN with a nonstandard payload.
  records[0].avg_duration = kNan;
  records[1].avg_duration = -0.0;
  records[2].avg_duration = kDenorm;
  records[3].t_begin = -kInf;
  records[3].t_end = kInf;
  records[4].metric = std::numeric_limits<float>::quiet_NaN();
  records[5].avg_duration =
      std::bit_cast<double>(uint64_t{0x7FF8'DEAD'BEEF'0001});
  records[6].sensor_id = std::numeric_limits<int32_t>::min();
  records[6].count = std::numeric_limits<uint32_t>::max();

  const RecordBatch batch = RecordBatch::from_aos(records);
  ASSERT_EQ(batch.size(), records.size());
  const auto back = batch.to_aos();
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(bit_equal(records[i], back[i])) << "record " << i;
    EXPECT_TRUE(bit_equal(records[i], batch.get(i))) << "record " << i;
  }
}

TEST(RecordBatch, IncrementalPushMatchesBulkAppend) {
  const auto records = random_records(257, 2);
  RecordBatch pushed;
  for (const auto& r : records) pushed.push_back(r);
  const RecordBatch bulk = RecordBatch::from_aos(records);
  ASSERT_EQ(pushed.size(), bulk.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(bit_equal(pushed.get(i), bulk.get(i))) << i;
  }
}

// The property the header pins: every record any of the eight mini-apps
// actually emits survives the SoA round trip bit for bit.
TEST(RecordBatch, RoundTripIsBitIdenticalOnAllEightMiniApps) {
  workloads::RunOptions opts;
  opts.params.iterations = 3;
  opts.params.scale = 0.05;
  for (const auto& w : workloads::make_all_workloads()) {
    SCOPED_TRACE(w->name());
    Collector collector;
    auto cfg = workloads::baseline_config(8);
    cfg.ranks_per_node = 4;
    workloads::run_workload(*w, cfg, opts, &collector);
    const auto records = collector.take_records();
    ASSERT_FALSE(records.empty());
    const auto back = RecordBatch::from_aos(records).to_aos();
    ASSERT_EQ(back.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(bit_equal(records[i], back[i]))
          << w->name() << " record " << i;
    }
  }
}

void expect_same_state(const StreamingDetector::Snapshot& a,
                       const StreamingDetector::Snapshot& b) {
  EXPECT_EQ(a.observed, b.observed);
  EXPECT_EQ(a.stale_records, b.stale_records);
  EXPECT_EQ(a.degenerate_records, b.degenerate_records);
  EXPECT_EQ(a.intra_flags, b.intra_flags);
  EXPECT_EQ(a.inter_flags, b.inter_flags);
  EXPECT_EQ(a.sensor_records, b.sensor_records);
  EXPECT_EQ(a.stale, b.stale);

  ASSERT_EQ(a.standard.size(), b.standard.size());
  for (const auto& [key, value] : a.standard) {
    const auto it = b.standard.find(key);
    ASSERT_NE(it, b.standard.end());
    EXPECT_TRUE(bit_equal(value, it->second));
  }
  ASSERT_EQ(a.rank_standard.size(), b.rank_standard.size());
  for (const auto& [key, value] : a.rank_standard) {
    const auto it = b.rank_standard.find(key);
    ASSERT_NE(it, b.rank_standard.end());
    EXPECT_TRUE(bit_equal(value, it->second));
  }
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (const auto& [key, value] : a.cells) {
    const auto it = b.cells.find(key);
    ASSERT_NE(it, b.cells.end());
    EXPECT_TRUE(bit_equal(value.weight, it->second.weight));
    EXPECT_TRUE(bit_equal(value.weight_over_avg, it->second.weight_over_avg));
  }
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].count, b.stats[i].count);
    EXPECT_TRUE(bit_equal(a.stats[i].mean, b.stats[i].mean));
    EXPECT_TRUE(bit_equal(a.stats[i].m2, b.stats[i].m2));
  }
  ASSERT_EQ(a.last.size(), b.last.size());
  for (const auto& [key, value] : a.last) {
    const auto it = b.last.find(key);
    ASSERT_NE(it, b.last.end());
    EXPECT_TRUE(bit_equal(value.t_end, it->second.t_end));
    EXPECT_TRUE(bit_equal(value.avg_duration, it->second.avg_duration));
    EXPECT_TRUE(bit_equal(value.normalized, it->second.normalized));
  }
}

// Column batches reach the streaming fold through the BatchSink bridge,
// which gathers to AoS and takes the one span fold. Same records through
// the bridge and through the span entry must leave bit-identical detector
// state — running minima, Welford accumulators, matrix cell sums, flags,
// everything.
TEST(StreamingDetector, SoaFoldMatchesAosFoldBitForBit) {
  std::vector<SensorInfo> sensors;
  for (int s = 0; s < 5; ++s) {
    sensors.push_back(SensorInfo{"s" + std::to_string(s),
                                 SensorType::Computation, "t.c", s + 1});
  }
  auto records = random_records(4096, 6);
  for (auto& r : records) r.sensor_id = std::abs(r.sensor_id) % 5;
  records[100].avg_duration = 0.0;  // degenerate path
  records[200].avg_duration = std::numeric_limits<double>::quiet_NaN();

  DetectorConfig cfg;
  cfg.metric_bucket_width = 0.25;  // exercise grouped standards
  StreamingDetector via_aos(cfg, sensors, 16, 10.0);
  StreamingDetector via_soa(cfg, sensors, 16, 10.0);
  via_aos.mark_stale(3);
  via_soa.mark_stale(3);

  constexpr size_t kChunk = 193;  // odd size: the last chunk is short
  for (size_t off = 0; off < records.size(); off += kChunk) {
    const size_t len = std::min(kChunk, records.size() - off);
    const std::span<const SliceRecord> chunk(records.data() + off, len);
    via_aos.on_batch(chunk);
    via_soa.on_batch(RecordBatch::from_aos(chunk));
  }
  expect_same_state(via_aos.snapshot(), via_soa.snapshot());
}

void expect_same_result(const AnalysisResult& a, const AnalysisResult& b) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& am = a.matrices[static_cast<size_t>(t)];
    const auto& bm = b.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(am.ranks(), bm.ranks());
    ASSERT_EQ(am.buckets(), bm.buckets());
    for (int r = 0; r < am.ranks(); ++r) {
      for (int k = 0; k < am.buckets(); ++k) {
        ASSERT_EQ(am.has(r, k), bm.has(r, k)) << t << ": " << r << "," << k;
        EXPECT_TRUE(bit_equal(am.at(r, k), bm.at(r, k)))
            << t << ": " << r << "," << k;
      }
    }
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    const auto& ae = a.events[i];
    const auto& be = b.events[i];
    EXPECT_EQ(ae.type, be.type) << i;
    EXPECT_EQ(ae.rank_begin, be.rank_begin) << i;
    EXPECT_EQ(ae.rank_end, be.rank_end) << i;
    EXPECT_EQ(ae.cells, be.cells) << i;
    EXPECT_TRUE(bit_equal(ae.t_begin, be.t_begin)) << i;
    EXPECT_TRUE(bit_equal(ae.t_end, be.t_end)) << i;
    EXPECT_TRUE(bit_equal(ae.severity, be.severity)) << i;
    EXPECT_EQ(ae.likely_wait_on_slow_ranks, be.likely_wait_on_slow_ranks)
        << i;
  }
  EXPECT_EQ(a.stale_ranks, b.stale_ranks);
}

/// The flag list built the slow way: each sensor's records normalized on
/// their own by normalize_records (the paper's Fig 13 procedure), skipping
/// degenerate records and sensors with fewer than min_records real ones.
std::vector<FlaggedRecord> flag_oracle(const Detector& detector,
                                       const std::vector<SliceRecord>& records,
                                       size_t sensors) {
  const DetectorConfig& cfg = detector.config();
  std::vector<double> normalized(records.size(), 0.0);
  std::vector<uint32_t> real(sensors, 0);
  for (size_t s = 0; s < sensors; ++s) {
    std::vector<size_t> at;
    std::vector<SliceRecord> mine;
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].sensor_id != static_cast<int32_t>(s)) continue;
      at.push_back(i);
      mine.push_back(records[i]);
      if (!is_degenerate(records[i])) ++real[s];
    }
    const auto scores = detector.normalize_records(mine);
    for (size_t j = 0; j < at.size(); ++j) normalized[at[j]] = scores[j];
  }
  std::vector<FlaggedRecord> flagged;
  for (size_t i = 0; i < records.size(); ++i) {
    const SliceRecord& rec = records[i];
    if (is_degenerate(rec)) continue;
    if (real[static_cast<size_t>(rec.sensor_id)] < cfg.min_records) continue;
    if (!(normalized[i] < cfg.variance_threshold)) continue;
    const int group =
        cfg.metric_bucket_width > 0.0
            ? static_cast<int>(std::floor(static_cast<double>(rec.metric) /
                                          cfg.metric_bucket_width))
            : 0;
    flagged.push_back({rec, normalized[i], group});
  }
  return flagged;
}

// analyze_records is a fold, a finalize and one flag pass: on workload
// records its result equals a StreamingDetector fold of the same records
// bit for bit, even when the fold sees them rank by rank (each (sensor,
// rank) pair keeps its order), and its flag list equals the per-sensor
// normalize_records oracle, with dynamic rules off and on. CG is the
// mini-app; CAPACITY's miss-rate metric splits one sensor into three
// dynamic-rule groups. A bad node slows ranks 4-7, so every group flags.
TEST(Detector, AnalyzeRecordsIsTheFoldOnMiniApp) {
  DetectorConfig flat;
  DetectorConfig grouped;
  grouped.metric_bucket_width = 0.1;
  size_t flags_in_groups = 0;  // flagged records of a nonzero group
  for (const char* name : {"CG", "CAPACITY"}) {
    SCOPED_TRACE(name);
    auto workload = workloads::make_workload(name);
    workloads::RunOptions opts;
    opts.params.iterations = 4;
    opts.params.scale = 0.05;
    // Slices shorter than one CAPACITY walk: each record carries one
    // class's miss rate, not a slice-averaged blend.
    opts.runtime.slice_seconds = 1e-5;
    Collector collector;
    auto cfg = workloads::baseline_config(8);
    cfg.ranks_per_node = 4;
    workloads::inject_bad_node(cfg, 1);
    const auto run =
        workloads::run_workload(*workload, cfg, opts, &collector);
    auto records = collector.take_records();
    ASSERT_FALSE(records.empty());
    records[3].avg_duration = 0.0;  // a degenerate record in the mix
    const auto sensors = workload->sensors();

    auto by_rank = records;
    std::stable_sort(by_rank.begin(), by_rank.end(),
                     [](const SliceRecord& a, const SliceRecord& b) {
                       return a.rank < b.rank;
                     });

    size_t flags = 0;
    for (const DetectorConfig& dcfg : {flat, grouped}) {
      SCOPED_TRACE("metric_bucket_width " +
                   std::to_string(dcfg.metric_bucket_width));
      const Detector detector(dcfg);
      const auto result =
          detector.analyze_records(records, sensors, 8, run.makespan);

      StreamingDetector fold(dcfg, sensors, 8, run.makespan);
      constexpr size_t kChunk = 97;
      for (size_t off = 0; off < by_rank.size(); off += kChunk) {
        fold.on_batch(std::span<const SliceRecord>(by_rank).subspan(
            off, std::min(kChunk, by_rank.size() - off)));
      }
      expect_same_result(result, fold.finalize());

      const auto oracle = flag_oracle(detector, records, sensors.size());
      ASSERT_EQ(result.flagged.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_TRUE(bit_equal(result.flagged[i].record, oracle[i].record))
            << i;
        EXPECT_TRUE(
            bit_equal(result.flagged[i].normalized, oracle[i].normalized))
            << i;
        EXPECT_EQ(result.flagged[i].group, oracle[i].group) << i;
        if (oracle[i].group != 0) ++flags_in_groups;
      }
      flags += oracle.size();
    }
    EXPECT_GT(flags, 0u);
  }
  EXPECT_GT(flags_in_groups, 0u);
}

}  // namespace
}  // namespace vsensor::rt
