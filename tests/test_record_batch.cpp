// SoA <-> AoS equivalence properties.
//
// Records travel as AoS SliceRecords; batch analysis converts them into
// SoA RecordBatches (the scan layout) once, and the column adapters gather
// back. Every conversion must be bit-identical, and every SoA/SIMD kernel
// must match its scalar definition bit for bit — otherwise the vectorised
// path could change a detection result. "Bit-identical" here is literal: the
// comparisons below go through std::bit_cast / memcmp, not operator==, so
// NaN payloads and signed zeros count too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/record_batch.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/simd.hpp"
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

// Every SIMD kernel against its scalar definition, over sizes that cover
// the vector tail (odd lengths) and lanes a masked compare must skip.
TEST(Simd, KernelsMatchScalarBitForBit) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                         size_t{64}, size_t{1023}}) {
    std::vector<double> v(n);
    std::vector<double> d(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = dist(rng);
      d[i] = dist(rng) + 2.0;  // positive denominators
    }
    if (n > 2) {
      v[0] = std::numeric_limits<double>::quiet_NaN();
      v[1] = -0.0;
    }
    const double floor = kMinStandardTime;

    double scalar_min = std::numeric_limits<double>::infinity();
    for (const double x : v) {
      if (x >= floor && x < scalar_min) scalar_min = x;
    }
    EXPECT_TRUE(bit_equal(simd::min_above(v.data(), n, floor), scalar_min))
        << "n=" << n;

    std::vector<double> out(n);
    std::vector<double> expect(n);
    simd::normalize(v.data(), d.data(), n, floor, out.data());
    for (size_t i = 0; i < n; ++i) {
      // The kernel's scalar definition: a NaN standard clamps to the floor
      // (s > floor is false for NaN), unlike std::max which propagates it.
      expect[i] = (v[i] > floor ? v[i] : floor) / d[i];
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bit_equal(out[i], expect[i])) << "n=" << n << " i=" << i;
    }

    simd::normalize_uniform(0.5, d.data(), n, floor, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bit_equal(out[i], 0.5 / d[i])) << "n=" << n << " i=" << i;
    }

    uint64_t scalar_count = 0;
    for (const double x : v) {
      if (x < 0.25) ++scalar_count;
    }
    EXPECT_EQ(simd::count_below(v.data(), n, 0.25), scalar_count) << "n=" << n;
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

// analyze_batch is the vectorized core analyze_records wraps; the results
// must agree with a from-scratch scalar path on mini-app records too.
TEST(Detector, AnalyzeBatchAgreesWithStreamingOnMiniApp) {
  auto workload = workloads::make_workload("CG");
  workloads::RunOptions opts;
  opts.params.iterations = 4;
  opts.params.scale = 0.05;
  Collector collector;
  auto cfg = workloads::baseline_config(8);
  cfg.ranks_per_node = 4;
  const auto run =
      workloads::run_workload(*workload, cfg, opts, &collector);
  const auto records = collector.take_records();
  ASSERT_FALSE(records.empty());

  Detector detector;
  const auto sensors = workload->sensors();
  const auto batch = detector.analyze_batch(RecordBatch::from_aos(records),
                                            sensors, 8, run.makespan);
  const auto aos = detector.analyze_records(records, sensors, 8, run.makespan);
  ASSERT_EQ(batch.events.size(), aos.events.size());
  ASSERT_EQ(batch.flagged.size(), aos.flagged.size());
  for (size_t i = 0; i < batch.flagged.size(); ++i) {
    EXPECT_TRUE(bit_equal(batch.flagged[i].normalized,
                          aos.flagged[i].normalized))
        << i;
  }

  StreamingDetector streaming(DetectorConfig{}, sensors, 8, run.makespan);
  streaming.on_batch(RecordBatch::from_aos(records));
  const auto streamed = streaming.finalize();
  ASSERT_EQ(streamed.events.size(), batch.events.size());
  for (size_t i = 0; i < streamed.events.size(); ++i) {
    EXPECT_EQ(streamed.events[i].type, batch.events[i].type) << i;
    EXPECT_EQ(streamed.events[i].rank_begin, batch.events[i].rank_begin) << i;
    EXPECT_EQ(streamed.events[i].rank_end, batch.events[i].rank_end) << i;
    EXPECT_NEAR(streamed.events[i].severity, batch.events[i].severity, 1e-12)
        << i;
  }
}

}  // namespace
}  // namespace vsensor::rt
