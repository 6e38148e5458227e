#include <gtest/gtest.h>

#include <cmath>

#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/matrix.hpp"
#include "runtime/sensor.hpp"
#include "runtime/slicer.hpp"
#include "runtime/transport.hpp"
#include "support/error.hpp"

namespace vsensor::rt {
namespace {

// A manual virtual clock standing in for the simMPI rank clock.
struct FakeClock {
  double t = 0.0;
  double charged = 0.0;
  SensorRuntime::NowFn now() {
    return [this] { return t; };
  }
  SensorRuntime::ChargeFn charge() {
    return [this](double s) {
      charged += s;
      t += s;
    };
  }
};

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

TEST(Slicer, AggregatesWithinSlice) {
  SliceAccumulator acc(0, 0, 1e-3);
  EXPECT_FALSE(acc.add(0.0001, 10e-6, 0.0).has_value());
  EXPECT_FALSE(acc.add(0.0005, 30e-6, 0.0).has_value());
  // Crossing into the next slice emits the previous one.
  const auto rec = acc.add(0.0011, 20e-6, 0.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->count, 2u);
  EXPECT_DOUBLE_EQ(rec->avg_duration, 20e-6);
  EXPECT_DOUBLE_EQ(rec->min_duration, 10e-6);
  EXPECT_DOUBLE_EQ(rec->t_begin, 0.0);
  EXPECT_DOUBLE_EQ(rec->t_end, 1e-3);
}

TEST(Slicer, FlushEmitsPartialSlice) {
  SliceAccumulator acc(3, 7, 1e-3);
  acc.add(0.0002, 5e-6, 0.5);
  const auto rec = acc.flush();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->sensor_id, 3);
  EXPECT_EQ(rec->rank, 7);
  EXPECT_EQ(rec->count, 1u);
  EXPECT_FLOAT_EQ(rec->metric, 0.5F);
  EXPECT_FALSE(acc.flush().has_value());
}

TEST(Slicer, MetricAveraged) {
  SliceAccumulator acc(0, 0, 1.0);
  acc.add(0.1, 1e-3, 0.2);
  acc.add(0.2, 1e-3, 0.4);
  const auto rec = acc.flush();
  ASSERT_TRUE(rec.has_value());
  EXPECT_NEAR(rec->metric, 0.3, 1e-6);
}

TEST(SensorRuntime, TickTockProducesRecords) {
  Collector collector;
  FakeClock clock;
  RuntimeConfig cfg;
  cfg.slice_seconds = 1e-3;
  cfg.batch_records = 1;  // flush every record
  BatchTransport transport(&collector, 1);
  SensorRuntime rt(cfg, 0, &transport, clock.now(), clock.charge());
  const int id = rt.register_sensor({"s", SensorType::Computation, "f.c", 1});
  for (int i = 0; i < 20; ++i) {
    rt.tick(id);
    clock.t += 100e-6;  // sensor body
    rt.tock(id);
  }
  rt.flush();
  EXPECT_GT(collector.record_count(), 0u);
  EXPECT_EQ(rt.execution_count(id), 20u);
  const auto records = collector.records();
  for (const auto& r : records) {
    EXPECT_EQ(r.sensor_id, id);
    EXPECT_NEAR(r.avg_duration, 100e-6, 1e-9);
  }
}

TEST(SensorRuntime, ProbeOverheadCharged) {
  Collector collector;
  FakeClock clock;
  RuntimeConfig cfg;
  cfg.probe_cost = 100e-9;
  BatchTransport transport(&collector, 1);
  SensorRuntime rt(cfg, 0, &transport, clock.now(), clock.charge());
  const int id = rt.register_sensor({"s", SensorType::Computation, "f.c", 1});
  for (int i = 0; i < 10; ++i) {
    rt.tick(id);
    clock.t += 1e-6;
    rt.tock(id);
  }
  EXPECT_NEAR(clock.charged, 10 * 100e-9, 1e-12);
}

TEST(SensorRuntime, AutoDisableShortSensors) {
  Collector collector;
  FakeClock clock;
  RuntimeConfig cfg;
  cfg.min_avg_duration = 10e-6;
  cfg.disable_after = 8;
  BatchTransport transport(&collector, 1);
  SensorRuntime rt(cfg, 0, &transport, clock.now(), clock.charge());
  const int fast = rt.register_sensor({"fast", SensorType::Computation, "f.c", 1});
  const int slow = rt.register_sensor({"slow", SensorType::Computation, "f.c", 2});
  for (int i = 0; i < 50; ++i) {
    rt.tick(fast);
    clock.t += 1e-6;  // too short
    rt.tock(fast);
    rt.tick(slow);
    clock.t += 100e-6;
    rt.tock(slow);
  }
  EXPECT_TRUE(rt.disabled(fast));
  EXPECT_FALSE(rt.disabled(slow));
}

TEST(SensorRuntime, NestedTickRejected) {
  FakeClock clock;
  SensorRuntime rt({}, 0, nullptr, clock.now(), clock.charge());
  const int id = rt.register_sensor({"s", SensorType::Computation, "f.c", 1});
  rt.tick(id);
  EXPECT_THROW(rt.tick(id), Error);
}

TEST(SensorRuntime, TockWithoutTickRejected) {
  FakeClock clock;
  SensorRuntime rt({}, 0, nullptr, clock.now(), clock.charge());
  const int id = rt.register_sensor({"s", SensorType::Computation, "f.c", 1});
  EXPECT_THROW(rt.tock(id), Error);
}

TEST(SensorRuntime, SenseStatsTrackCoverageAndFrequency) {
  FakeClock clock;
  SensorRuntime rt({}, 0, nullptr, clock.now(), clock.charge());
  const int id = rt.register_sensor({"s", SensorType::Computation, "f.c", 1});
  for (int i = 0; i < 10; ++i) {
    rt.tick(id);
    clock.t += 50e-6;
    rt.tock(id);
    clock.t += 50e-6;  // gap
  }
  const auto& stats = rt.sense_stats();
  EXPECT_EQ(stats.sense_count, 10u);
  EXPECT_NEAR(stats.sense_time, 500e-6, 1e-7);
  EXPECT_NEAR(stats.coverage(1e-3), 0.5, 0.1);
  EXPECT_NEAR(stats.frequency(1e-3), 1e4, 1e3);
  // All 10 senses in the <100us duration bucket; 9 intervals recorded.
  EXPECT_EQ(stats.durations.count(0), 10u);
  EXPECT_EQ(stats.intervals.total(), 9u);
}

TEST(Collector, ByteAccountingMatchesWireSize) {
  Collector c;
  std::vector<SliceRecord> batch(10);
  c.ingest(batch);
  c.ingest(std::span<const SliceRecord>(batch.data(), 5));
  EXPECT_EQ(c.record_count(), 15u);
  EXPECT_EQ(c.bytes_received(), 15 * kRecordWireBytes);
  EXPECT_EQ(c.batch_count(), 2u);
}

TEST(Matrix, AccumulateAndFinalize) {
  PerformanceMatrix m(2, 4, 0.25);
  m.accumulate(0, 0, 1.0, 1.0);
  m.accumulate(0, 0, 0.5, 1.0);
  m.accumulate(1, 3, 0.8, 4.0);
  m.finalize();
  EXPECT_TRUE(m.has(0, 0));
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.75);
  EXPECT_DOUBLE_EQ(m.at(1, 3), 0.8);
  EXPECT_FALSE(m.has(1, 0));
  EXPECT_EQ(m.bucket_of(0.3), 1);
  EXPECT_EQ(m.bucket_of(99.0), 3);  // clamped
}

TEST(Matrix, FractionBelow) {
  PerformanceMatrix m(1, 4, 1.0);
  m.accumulate(0, 0, 1.0, 1.0);
  m.accumulate(0, 1, 0.4, 1.0);
  m.accumulate(0, 2, 0.6, 1.0);
  m.finalize();
  EXPECT_NEAR(m.fraction_below(0.7), 2.0 / 3.0, 1e-12);
}

// ------------------------------------------------------ Fig 13 detection

// The paper's online-detection example: wall times 3,3,7,3,5,3,7,3,3,3 with
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

TEST(DetectorFig13, ConstantExpectationFlagsRecords246) {
  DetectorConfig cfg;
  cfg.metric_bucket_width = 0.0;  // cache miss expected constant
  Detector detector(cfg);
  const auto records = fig13_records();
  const auto normalized = detector.normalize_records(records);
  // Records 2, 4, 6 are variance (3/7, 3/5, 3/7 < 0.7).
  for (int i : {2, 4, 6}) {
    EXPECT_LT(normalized[static_cast<size_t>(i)], cfg.variance_threshold) << i;
  }
  for (int i : {0, 1, 3, 5, 7, 8, 9}) {
    EXPECT_GE(normalized[static_cast<size_t>(i)], cfg.variance_threshold) << i;
  }
}

TEST(DetectorFig13, DynamicRuleKeepsOnlyRecord4) {
  DetectorConfig cfg;
  cfg.metric_bucket_width = 0.5;  // groups: low ~0.1, high ~0.9
  Detector detector(cfg);
  const auto records = fig13_records();
  const auto normalized = detector.normalize_records(records);
  // High-miss group {2, 6} both take 7: no variance within the group.
  EXPECT_GE(normalized[2], cfg.variance_threshold);
  EXPECT_GE(normalized[6], cfg.variance_threshold);
  // Record 4 is still slow within the low-miss group.
  EXPECT_LT(normalized[4], cfg.variance_threshold);
}

TEST(Detector, InterProcessOutlierRankDetected) {
  Collector collector;
  collector.set_sensors({{"s", SensorType::Computation, "f.c", 1}});
  std::vector<SliceRecord> batch;
  // 8 ranks x 50 slices; rank 5 is 2x slower throughout.
  for (int rank = 0; rank < 8; ++rank) {
    for (int slice = 0; slice < 50; ++slice) {
      const double avg = rank == 5 ? 200e-6 : 100e-6;
      batch.push_back(make_record(0, rank, slice * 0.2 + 0.05, avg));
    }
  }
  collector.ingest(batch);
  Detector detector;
  const auto result = detector.analyze(collector, 8, 10.0);
  ASSERT_FALSE(result.events.empty());
  const auto& ev = result.events.front();
  EXPECT_EQ(ev.type, SensorType::Computation);
  EXPECT_EQ(ev.rank_begin, 5);
  EXPECT_EQ(ev.rank_end, 5);
  EXPECT_NEAR(ev.severity, 0.5, 0.05);
  // Persistent narrow band -> bad-node classification.
  EXPECT_NE(ev.classify(10.0, 8).find("bad node"), std::string::npos);
}

TEST(Detector, TransientWindowDetectedInTime) {
  Collector collector;
  collector.set_sensors({{"s", SensorType::Computation, "f.c", 1}});
  std::vector<SliceRecord> batch;
  for (int rank = 0; rank < 4; ++rank) {
    for (int slice = 0; slice < 100; ++slice) {
      const double t = slice * 0.1 + 0.01;
      const bool noisy = rank < 2 && t >= 3.0 && t < 5.0;
      batch.push_back(make_record(0, rank, t, noisy ? 250e-6 : 100e-6));
    }
  }
  collector.ingest(batch);
  Detector detector;
  const auto result = detector.analyze(collector, 4, 10.0);
  ASSERT_FALSE(result.events.empty());
  const auto& ev = result.events.front();
  EXPECT_LE(ev.rank_end, 1);
  EXPECT_NEAR(ev.t_begin, 3.0, 0.3);
  EXPECT_NEAR(ev.t_end, 5.0, 0.3);
}

TEST(Detector, CleanRunHasNoEvents) {
  Collector collector;
  collector.set_sensors({{"s", SensorType::Computation, "f.c", 1}});
  std::vector<SliceRecord> batch;
  for (int rank = 0; rank < 4; ++rank) {
    for (int slice = 0; slice < 50; ++slice) {
      batch.push_back(make_record(0, rank, slice * 0.2 + 0.05, 100e-6));
    }
  }
  collector.ingest(batch);
  Detector detector;
  const auto result = detector.analyze(collector, 4, 10.0);
  EXPECT_TRUE(result.events.empty());
  EXPECT_NEAR(result.matrix(SensorType::Computation).average(), 1.0, 1e-9);
}

// ------------------------------------------------ degenerate-record audit

TEST(Detector, ZeroDurationRecordIsNeverPerfect) {
  Detector detector;
  const std::vector<SliceRecord> records{make_record(0, 0, 0.0, 0.0),
                                         make_record(0, 0, 1e-3, 2.0),
                                         make_record(0, 0, 2e-3, 3.0)};
  const auto normalized = detector.normalize_records(records);
  ASSERT_EQ(normalized.size(), 3u);
  // The broken measurement scores 0, not 1.0 — and it must not have set the
  // group standard to zero, which would zero every score in the group.
  EXPECT_DOUBLE_EQ(normalized[0], 0.0);
  EXPECT_DOUBLE_EQ(normalized[1], 1.0);
  EXPECT_NEAR(normalized[2], 2.0 / 3.0, 1e-12);
}

TEST(Detector, AllDegenerateRecordsScoreZeroWithoutThrowing) {
  Detector detector;
  const std::vector<SliceRecord> records{make_record(0, 0, 0.0, 0.0),
                                         make_record(0, 1, 1e-3, 0.0)};
  const auto normalized = detector.normalize_records(records);
  EXPECT_EQ(normalized, (std::vector<double>{0.0, 0.0}));
}

TEST(Detector, ZeroDurationRecordDoesNotPerturbAnalysis) {
  const std::vector<SensorInfo> sensors{
      {"s", SensorType::Computation, "f.c", 1}};
  std::vector<SliceRecord> clean;
  for (int rank = 0; rank < 4; ++rank) {
    for (int slice = 0; slice < 20; ++slice) {
      clean.push_back(make_record(0, rank, slice * 0.2 + 0.05, 100e-6));
    }
  }
  auto polluted = clean;
  polluted.push_back(make_record(0, 2, 1.05, 0.0));

  Detector detector;
  const auto a = detector.analyze_records(clean, sensors, 4, 10.0);
  const auto b = detector.analyze_records(polluted, sensors, 4, 10.0);
  const auto& ma = a.matrix(SensorType::Computation);
  const auto& mb = b.matrix(SensorType::Computation);
  for (int r = 0; r < ma.ranks(); ++r) {
    for (int bk = 0; bk < ma.buckets(); ++bk) {
      ASSERT_EQ(ma.has(r, bk), mb.has(r, bk)) << r << "," << bk;
      if (ma.has(r, bk)) {
        EXPECT_DOUBLE_EQ(ma.at(r, bk), mb.at(r, bk)) << r << "," << bk;
      }
    }
  }
  EXPECT_EQ(b.flagged.size(), a.flagged.size());
}

TEST(Detector, SensorInTableWithoutRecordsIsIgnored) {
  // Regression: a sensor present in the table but absent from the record
  // set must not sprout a phantom per-sensor count (or any matrix cells).
  const std::vector<SensorInfo> sensors{
      {"s0", SensorType::Computation, "f.c", 1},
      {"s1", SensorType::Network, "f.c", 9}};
  std::vector<SliceRecord> records;
  for (int slice = 0; slice < 5; ++slice) {
    records.push_back(make_record(0, 0, slice * 0.2 + 0.05, 100e-6));
  }
  Detector detector;
  const auto result = detector.analyze_records(records, sensors, 1, 1.0);
  const auto& net = result.matrix(SensorType::Network);
  for (int r = 0; r < net.ranks(); ++r) {
    for (int b = 0; b < net.buckets(); ++b) {
      EXPECT_FALSE(net.has(r, b)) << r << "," << b;
    }
  }
}

TEST(Detector, DegenerateRecordsDoNotCountTowardMinRecords) {
  // Two real records plus three broken ones: with min_records = 3 the
  // sensor stays suppressed — degenerate records must not pad the count.
  const std::vector<SensorInfo> sensors{
      {"s", SensorType::Computation, "f.c", 1}};
  std::vector<SliceRecord> records{make_record(0, 0, 0.05, 100e-6),
                                   make_record(0, 0, 0.25, 500e-6)};
  for (int i = 0; i < 3; ++i) {
    records.push_back(make_record(0, 0, 0.45 + 0.2 * i, 0.0));
  }
  Detector detector;  // min_records = 3
  const auto result = detector.analyze_records(records, sensors, 1, 2.0);
  EXPECT_TRUE(result.flagged.empty());
  const auto& m = result.matrix(SensorType::Computation);
  for (int b = 0; b < m.buckets(); ++b) EXPECT_FALSE(m.has(0, b));
}

TEST(Detector, MinRecordsSuppressesThinSensors) {
  Collector collector;
  collector.set_sensors({{"s", SensorType::Computation, "f.c", 1}});
  std::vector<SliceRecord> batch;
  batch.push_back(make_record(0, 0, 0.05, 100e-6));
  batch.push_back(make_record(0, 0, 0.25, 500e-6));
  collector.ingest(batch);
  Detector detector;  // min_records = 3
  const auto result = detector.analyze(collector, 1, 1.0);
  EXPECT_TRUE(result.events.empty());
}

}  // namespace
}  // namespace vsensor::rt
