// §5.2 per-component merged series and the all-time local standard (§5.3).
#include <gtest/gtest.h>

#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/sensor.hpp"

namespace vsensor::rt {
namespace {

SliceRecord rec(int sensor, double t, double avg, uint32_t count = 1) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = 0;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = count;
  return r;
}

TEST(ComponentSeries, MergesSensorsOfOneType) {
  Collector collector;
  collector.set_sensors({
      {"net_a", SensorType::Network, "f.c", 1},
      {"net_b", SensorType::Network, "f.c", 2},
      {"comp", SensorType::Computation, "f.c", 3},
  });
  std::vector<SliceRecord> batch;
  // Two network sensors alternate: together they sample every 5ms although
  // each one alone samples every 10ms.
  for (int i = 0; i < 100; ++i) {
    batch.push_back(rec(i % 2, i * 5e-3, 100e-6));
    batch.push_back(rec(2, i * 5e-3, 77e-6));  // computation, must not leak
  }
  collector.ingest(batch);
  Detector detector;
  const auto series =
      detector.component_series(collector, SensorType::Network, 5e-3, 0.5);
  ASSERT_EQ(series.size(), 100u);
  int with_data = 0;
  for (const auto& p : series) {
    if (p.samples > 0) {
      ++with_data;
      EXPECT_NEAR(p.perf, 1.0, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(p.perf, -1.0);
    }
  }
  // Merged coverage: nearly every 5ms bucket has a network observation.
  EXPECT_GE(with_data, 95);
}

TEST(ComponentSeries, DegradationWindowVisible) {
  Collector collector;
  collector.set_sensors({{"net", SensorType::Network, "f.c", 1}});
  std::vector<SliceRecord> batch;
  for (int i = 0; i < 100; ++i) {
    const double t = i * 1e-2;
    const bool degraded = t >= 0.3 && t < 0.7;
    batch.push_back(rec(0, t, degraded ? 300e-6 : 100e-6));
  }
  collector.ingest(batch);
  Detector detector;
  const auto series =
      detector.component_series(collector, SensorType::Network, 1e-2, 1.0);
  for (const auto& p : series) {
    if (p.samples == 0) continue;
    if (p.t >= 0.31 && p.t < 0.69) {
      EXPECT_LT(p.perf, 0.5) << p.t;
    } else if (p.t < 0.29 || p.t > 0.71) {
      EXPECT_GT(p.perf, 0.9) << p.t;
    }
  }
}

TEST(ComponentSeries, EmptyTypeGivesEmptyBuckets) {
  Collector collector;
  collector.set_sensors({{"comp", SensorType::Computation, "f.c", 1}});
  collector.ingest(std::vector<SliceRecord>{rec(0, 0.0, 1e-4)});
  Detector detector;
  const auto series =
      detector.component_series(collector, SensorType::IO, 1e-2, 0.1);
  for (const auto& p : series) EXPECT_EQ(p.samples, 0u);
}

// ------------------------------------------------------- local history

struct FakeClock {
  double t = 0.0;
  SensorRuntime::NowFn now() {
    return [this] { return t; };
  }
  SensorRuntime::ChargeFn charge() {
    return [this](double s) { t += s; };
  }
};

TEST(HistoryWindow, AllTimeStandardNeverForgets) {
  FakeClock clock;
  RuntimeConfig cfg;
  cfg.slice_seconds = 1e-3;
  SensorRuntime sensors(cfg, 0, nullptr, clock.now(), clock.charge());
  const int id = sensors.register_sensor({"s", SensorType::Computation, "f", 1});
  auto run_epoch = [&](double dur, int n) {
    for (int i = 0; i < n; ++i) {
      sensors.tick(id);
      clock.t += dur;
      sensors.tock(id);
    }
  };
  run_epoch(100e-6, 20);
  run_epoch(200e-6, 200);  // permanent migration to a slower regime
  EXPECT_NEAR(sensors.standard_time(id), 100e-6, 5e-6);
  // 200 x 200us executions fill ~40 1ms slices — every one stays flagged.
  EXPECT_GE(sensors.local_variance_flags(), 35u)
      << "the all-time standard keeps the new regime flagged";
}

}  // namespace
}  // namespace vsensor::rt
