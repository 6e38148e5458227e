// Streaming detector: incremental folding must reproduce the batch
// Detector's variance regions exactly — validated on the paper's Fig 13
// online-detection example and a Fig 14-style workload run — plus the
// online flag/statistics surface the batch path cannot provide.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/error.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

SliceRecord make_record(int sensor, int rank, double t, double avg,
                        double metric = 0.0, uint32_t count = 1) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = count;
  r.metric = static_cast<float>(metric);
  return r;
}

// The paper's Fig 13 example: wall times 3,3,7,3,5,3,7,3,3,3 with
// cache-miss metric H on records 2 and 6.
std::vector<SliceRecord> fig13_records() {
  const double wall[10] = {3, 3, 7, 3, 5, 3, 7, 3, 3, 3};
  const double miss[10] = {0.1, 0.1, 0.9, 0.1, 0.1, 0.1, 0.9, 0.1, 0.1, 0.1};
  std::vector<SliceRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(make_record(0, 0, i * 1e-3, wall[i], miss[i]));
  }
  return records;
}

void feed_in_batches(StreamingDetector& streaming,
                     std::span<const SliceRecord> records, size_t batch_len) {
  for (size_t i = 0; i < records.size(); i += batch_len) {
    streaming.observe(records.subspan(i, std::min(batch_len, records.size() - i)));
  }
}

void expect_equivalent(const AnalysisResult& batch,
                       const AnalysisResult& streaming) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& bm = batch.matrices[static_cast<size_t>(t)];
    const auto& sm = streaming.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(bm.ranks(), sm.ranks());
    ASSERT_EQ(bm.buckets(), sm.buckets());
    for (int r = 0; r < bm.ranks(); ++r) {
      for (int b = 0; b < bm.buckets(); ++b) {
        ASSERT_EQ(bm.has(r, b), sm.has(r, b)) << "cell " << r << "," << b;
        if (bm.has(r, b)) {
          EXPECT_NEAR(bm.at(r, b), sm.at(r, b), 1e-12)
              << "cell " << r << "," << b;
        }
      }
    }
  }
  ASSERT_EQ(batch.events.size(), streaming.events.size());
  for (size_t i = 0; i < batch.events.size(); ++i) {
    const auto& be = batch.events[i];
    const auto& se = streaming.events[i];
    EXPECT_EQ(be.type, se.type) << i;
    EXPECT_EQ(be.rank_begin, se.rank_begin) << i;
    EXPECT_EQ(be.rank_end, se.rank_end) << i;
    EXPECT_EQ(be.cells, se.cells) << i;
    EXPECT_DOUBLE_EQ(be.t_begin, se.t_begin) << i;
    EXPECT_DOUBLE_EQ(be.t_end, se.t_end) << i;
    EXPECT_NEAR(be.severity, se.severity, 1e-12) << i;
    EXPECT_EQ(be.likely_wait_on_slow_ranks, se.likely_wait_on_slow_ranks) << i;
  }
}

std::vector<SensorInfo> one_sensor() {
  return {{"s", SensorType::Computation, "f.c", 1}};
}

TEST(StreamingDetector, Fig13ConstantRuleFlagsRecords246) {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.metric_bucket_width = 0.0;  // cache miss expected constant
  StreamingDetector streaming(cfg, one_sensor(), 1, 10e-3);
  const auto records = fig13_records();
  feed_in_batches(streaming, records, 3);

  EXPECT_EQ(streaming.observed_records(), 10u);
  // Records 2, 4, 6 fall below the threshold as they arrive (3/7, 3/5,
  // 3/7 of the standard) — the paper's case-1 outcome, online.
  EXPECT_EQ(streaming.inter_flags(), 3u);
  EXPECT_EQ(streaming.intra_flags(), 3u);
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.1F), 3.0);

  Detector batch(cfg);
  const auto expected = batch.analyze_records(records, one_sensor(), 1, 10e-3);
  expect_equivalent(expected, streaming.finalize());
}

TEST(StreamingDetector, Fig13DynamicRuleLeavesOnlyRecord4) {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.metric_bucket_width = 0.5;  // groups: low ~0.1, high ~0.9
  StreamingDetector streaming(cfg, one_sensor(), 1, 10e-3);
  const auto records = fig13_records();
  feed_in_batches(streaming, records, 1);

  // Grouping by the dynamic rule clears the high-miss records: only
  // record 4 (slow within the low-miss group) flags.
  EXPECT_EQ(streaming.inter_flags(), 1u);
  // Per-group standards: 3 for the low-miss group, 7 for the high-miss one.
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.1F), 3.0);
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.9F), 7.0);

  Detector batch(cfg);
  const auto expected = batch.analyze_records(records, one_sensor(), 1, 10e-3);
  expect_equivalent(expected, streaming.finalize());
}

TEST(StreamingDetector, OutlierRankScenarioMatchesBatch) {
  // The Fig 21-style bad-node shape: 8 ranks, rank 5 twice as slow.
  std::vector<SliceRecord> records;
  for (int rank = 0; rank < 8; ++rank) {
    for (int slice = 0; slice < 50; ++slice) {
      const double avg = rank == 5 ? 200e-6 : 100e-6;
      records.push_back(make_record(0, rank, slice * 0.2 + 0.05, avg));
    }
  }
  DetectorConfig cfg;
  StreamingDetector streaming(cfg, one_sensor(), 8, 10.0);
  feed_in_batches(streaming, records, 64);
  const auto result = streaming.finalize();

  Detector batch(cfg);
  expect_equivalent(batch.analyze_records(records, one_sensor(), 8, 10.0),
                    result);
  ASSERT_FALSE(result.events.empty());
  EXPECT_EQ(result.events.front().rank_begin, 5);
  EXPECT_EQ(result.events.front().rank_end, 5);

  // Online state: rank 5's last slice sits near half performance.
  const auto last = streaming.last_slice(0, 5);
  ASSERT_TRUE(last.has_value());
  EXPECT_NEAR(last->normalized, 0.5, 0.05);
}

TEST(StreamingDetector, Fig14WorkloadRunMatchesBatch) {
  // The Fig 14 scenario at test scale: mini-CG under baseline OS jitter.
  const auto cg = workloads::make_workload("CG");
  auto cluster = workloads::baseline_config(/*ranks=*/16);
  workloads::RunOptions opts;
  opts.params.iterations = 8;
  opts.params.scale = 0.15;

  Collector server;
  const auto run = workloads::run_workload(*cg, cluster, opts, &server);

  DetectorConfig cfg;
  cfg.matrix_resolution = run.makespan / 40.0;
  StreamingDetector streaming(cfg, server.sensors(), cluster.ranks,
                              run.makespan);
  const auto records = server.records();
  ASSERT_FALSE(records.empty());
  feed_in_batches(streaming, records, 128);
  EXPECT_EQ(streaming.observed_records(), records.size());

  Detector batch(cfg);
  expect_equivalent(batch.analyze(server, cluster.ranks, run.makespan),
                    streaming.finalize());
}

TEST(StreamingDetector, AttachedToCollectorUnderConcurrentIngest) {
  // Live wiring: the collector forwards every batch to the streaming
  // detector while four rank threads push concurrently; the final regions
  // still match a batch analysis of the same retained records.
  DetectorConfig cfg;
  Collector collector;
  collector.set_sensors(one_sensor());
  StreamingDetector streaming(cfg, one_sensor(), 4, 10.0);
  collector.attach_sink(&streaming);

  std::vector<std::thread> threads;
  for (int rank = 0; rank < 4; ++rank) {
    threads.emplace_back([&collector, rank] {
      for (int slice = 0; slice < 100; ++slice) {
        const double t = slice * 0.1 + 0.01;
        const bool noisy = rank < 2 && t >= 3.0 && t < 5.0;
        std::vector<SliceRecord> batch{
            make_record(0, rank, t, noisy ? 250e-6 : 100e-6)};
        collector.ingest(batch);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(streaming.observed_records(), 400u);

  Detector batch(cfg);
  const auto expected = batch.analyze(collector, 4, 10.0);
  const auto result = streaming.finalize();
  expect_equivalent(expected, result);
  ASSERT_FALSE(result.events.empty());
  EXPECT_LE(result.events.front().rank_end, 1);
}

TEST(StreamingDetector, WelfordStatsMatchTwoPassComputation) {
  DetectorConfig cfg;
  StreamingDetector streaming(cfg, one_sensor(), 1, 1.0);
  // Slices 1, 2, 4: normalized at arrival = 1, 1/2, 1/4.
  const double avgs[3] = {1.0, 2.0, 4.0};
  std::vector<SliceRecord> records;
  for (int i = 0; i < 3; ++i) {
    records.push_back(make_record(0, 0, i * 0.1, avgs[i]));
  }
  streaming.observe(records);

  const double normalized[3] = {1.0, 0.5, 0.25};
  double mean = 0.0;
  for (double n : normalized) mean += n / 3.0;
  double var = 0.0;
  for (double n : normalized) var += (n - mean) * (n - mean) / 2.0;

  const auto stats = streaming.sensor_stats(0);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_NEAR(stats.mean, mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
}

TEST(StreamingDetector, ZeroDurationRecordsAreQuarantined) {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  StreamingDetector streaming(cfg, one_sensor(), 1, 10e-3);
  // The broken measurement arrives FIRST: as a running minimum it would
  // have become the standard time and zeroed every later score.
  std::vector<SliceRecord> records{make_record(0, 0, 0.0, 0.0)};
  for (int i = 1; i < 6; ++i) {
    records.push_back(make_record(0, 0, i * 1e-3, i == 3 ? 5.0 : 2.0));
  }
  feed_in_batches(streaming, records, 2);

  EXPECT_EQ(streaming.degenerate_records(), 1u);
  EXPECT_EQ(streaming.observed_records(), 6u);
  // The standard is the fastest *real* slice, never zero.
  EXPECT_DOUBLE_EQ(streaming.standard_time(0, 0.0F), 2.0);
  // The degenerate record never became the rank's last slice, so it cannot
  // pose as a perfect (normalized 1.0) observation downstream.
  const auto last = streaming.last_slice(0, 0);
  ASSERT_TRUE(last.has_value());
  EXPECT_GT(last->avg_duration, 0.0);

  // And the batch detector quarantines the same record, so the two paths
  // still agree cell for cell.
  Detector batch(cfg);
  const auto expected = batch.analyze_records(records, one_sensor(), 1, 10e-3);
  expect_equivalent(expected, streaming.finalize());
}

TEST(StreamingDetector, RejectsUnknownSensor) {
  StreamingDetector streaming({}, one_sensor(), 1, 1.0);
  std::vector<SliceRecord> batch{make_record(7, 0, 0.0, 1e-6)};
  EXPECT_THROW(streaming.observe(batch), Error);
}

TEST(StreamingDetector, RejectsUnknownRank) {
  StreamingDetector streaming({}, one_sensor(), 2, 1.0);
  for (const int rank : {-1, 2}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    // Faster than anything in range: folded, it would lower the standard
    // every in-range rank is scored against.
    std::vector<SliceRecord> batch{make_record(0, rank, 0.0, 1e-6)};
    EXPECT_THROW(streaming.observe(batch), Error);
    EXPECT_THROW(streaming.mark_stale(rank), Error);
    EXPECT_THROW(streaming.mark_live(rank), Error);
  }
  std::vector<SliceRecord> ok{make_record(0, 1, 0.0, 2e-6)};
  streaming.observe(ok);
  EXPECT_EQ(streaming.standard_time(0, 0.0F), 2e-6);
  EXPECT_EQ(streaming.observed_records(), 1u);
  EXPECT_TRUE(streaming.stale_ranks().empty());

  // A snapshot with state for a rank this detector does not have cannot be
  // restored into it, and the failed restore leaves the state untouched.
  StreamingDetector wider({}, one_sensor(), 3, 1.0);
  std::vector<SliceRecord> rank2{make_record(0, 2, 0.0, 3e-6)};
  wider.observe(rank2);
  EXPECT_THROW(streaming.restore(wider.snapshot()), Error);
  EXPECT_EQ(streaming.observed_records(), 1u);
  EXPECT_EQ(streaming.standard_time(0, 0.0F), 2e-6);
}

TEST(Detector, RejectsRecordFromUnknownRank) {
  Detector batch{DetectorConfig{}};
  for (const int rank : {-1, 2}) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    std::vector<SliceRecord> records{make_record(0, 0, 0.0, 2e-6),
                                     make_record(0, rank, 1e-3, 1e-6)};
    EXPECT_THROW(batch.analyze_records(records, one_sensor(), 2, 1.0), Error);
  }
  std::vector<SliceRecord> in_range{make_record(0, 1, 0.0, 2e-6)};
  EXPECT_NO_THROW(batch.analyze_records(in_range, one_sensor(), 2, 1.0));
}

}  // namespace
}  // namespace vsensor::rt
