// Self-telemetry layer: span tracer, stage attribution, metrics render.
//
// Pins the contracts the observability layer advertises: histogram bucket
// boundaries and percentile accuracy against the support/stats helpers,
// validity of the JSON exports via a real recursive-descent parser, the
// metrics file as a faithful render of the health gauges and the stage
// clock, and the two zero-interference claims — detection output
// identical with telemetry on/off, and probe overhead below the paper's
// 4% bound.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <latch>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.hpp"
#include "obs/identity.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "report/render.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/stats.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace vsensor;

// --- minimal JSON validator -------------------------------------------------
// Recursive descent over the full JSON grammar; returns false on any
// syntax error. Enough to prove the exports parse in any real consumer.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

TEST(JsonParserSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonParser(R"({"a":[1,2.5,-3e-2],"b":null,"c":"x\"y"})").valid());
  EXPECT_TRUE(JsonParser("[]").valid());
  EXPECT_FALSE(JsonParser(R"({"a":})").valid());
  EXPECT_FALSE(JsonParser(R"({"a":1)").valid());
  EXPECT_FALSE(JsonParser("{} trailing").valid());
}

// --- log-bucketed histogram -------------------------------------------------

TEST(LogHistogram, BucketBoundaries) {
  obs::LogHistogram h({.min_value = 1.0, .growth = 2.0, .buckets = 8});
  // Bucket 0 absorbs everything at or below min_value.
  EXPECT_EQ(h.bucket_of(0.0), 0u);
  EXPECT_EQ(h.bucket_of(-1.0), 0u);
  EXPECT_EQ(h.bucket_of(0.5), 0u);
  EXPECT_EQ(h.bucket_of(1.0), 0u);
  EXPECT_EQ(h.bucket_of(1.5), 0u);
  EXPECT_EQ(h.bucket_of(2.5), 1u);
  EXPECT_EQ(h.bucket_of(5.0), 2u);
  EXPECT_EQ(h.bucket_of(20.0), 4u);
  // Overflow clamps to the last bucket.
  EXPECT_EQ(h.bucket_of(1e12), 7u);

  // Bounds are geometric: bucket i covers [min * g^i, min * g^(i+1)),
  // except bucket 0 whose lower bound is pinned at 0.
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(3), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(3), 16.0);
  // Every recordable value sits inside its bucket's bounds.
  for (const double v : {0.1, 0.9, 1.1, 3.0, 7.9, 100.0, 1e12}) {
    const size_t b = h.bucket_of(v);
    if (b + 1 < h.bucket_count()) {
      EXPECT_LT(v, h.bucket_upper(b));
    }
    if (b > 0) {
      EXPECT_GE(v, h.bucket_lower(b));
    }
  }
}

TEST(LogHistogram, StatsAndReset) {
  obs::LogHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.0);  // sentinel never leaks
  EXPECT_DOUBLE_EQ(h.max_seen(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(50.0), 0.0);

  h.record(2e-3);
  h.record(4e-3);
  h.record(6e-3);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.min_seen(), 2e-3);
  EXPECT_DOUBLE_EQ(h.max_seen(), 6e-3);
  EXPECT_NEAR(h.mean(), 4e-3, 1e-12);
  // Quantiles never leave the observed range.
  EXPECT_GE(h.quantile(0.0), 2e-3);
  EXPECT_LE(h.quantile(100.0), 6e-3);

  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.0);
  h.record(1e-3);
  EXPECT_DOUBLE_EQ(h.min_seen(), 1e-3);  // reset restores the sentinels
}

TEST(LogHistogram, SingleValueQuantiles) {
  obs::LogHistogram h;
  h.record(3.7e-4);
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(p), 3.7e-4) << "p=" << p;
  }
}

TEST(LogHistogram, PercentileAccuracyAgainstSupportStats) {
  // The quantile contract: same rank convention as vsensor::percentile,
  // with in-bucket resolution — the estimate is within one growth factor
  // of the exact sample percentile.
  const double growth = 1.25;
  obs::LogHistogram h({.min_value = 1e-6, .growth = growth, .buckets = 128});
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    // Deterministic scattered sample spanning ~2 decades.
    values.push_back(1e-4 * (1.0 + static_cast<double>((i * 7919) % 9973)));
  }
  for (const double v : values) h.record(v);

  for (const double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = percentile_of(values, p);
    const double est = h.quantile(p);
    EXPECT_GE(est, exact / growth * 0.999) << "p=" << p;
    EXPECT_LE(est, exact * growth * 1.001) << "p=" << p;
  }
}

// --- span tracer ------------------------------------------------------------

TEST(SpanTracer, ChromeTraceExportIsValidJson) {
  obs::SpanTracer tracer;
  tracer.record({"alpha", "cat1", 0, 100, 50, 0.5, 0.75, -1, {}});
  tracer.record({"beta \"quoted\"\n", "cat2", 3, 10, 5, -1.0, -1.0, -1, {}});
  EXPECT_EQ(tracer.span_count(), 2u);

  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonParser(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"vt_begin\":0.5"), std::string::npos);

  // Spans come back sorted by wall begin time.
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "beta \"quoted\"\n");
  EXPECT_EQ(spans[1].name, "alpha");
}

TEST(SpanTracer, BoundedCapacityCountsDrops) {
  // Capacity below the stripe count degrades to one span per stripe; a
  // single thread always lands in its own stripe.
  obs::SpanTracer tracer(1);
  for (int i = 0; i < 5; ++i) {
    tracer.record({"s" + std::to_string(i), "cat", 0, 0, 0, -1.0, -1.0, -1, {}});
  }
  EXPECT_EQ(tracer.span_count(), 1u);
  EXPECT_EQ(tracer.dropped_spans(), 4u);
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.dropped_spans(), 0u);
}

TEST(SpanTracer, EmptyTraceIsValidJson) {
  obs::SpanTracer tracer;
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(JsonParser(out.str()).valid());
}

// --- stage attribution ------------------------------------------------------

TEST(StageClock, ExclusiveTimeAttribution) {
  obs::set_enabled(true);
  obs::StageClock::global().reset();

  const auto spin = [](std::chrono::microseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::ScopedStage outer(obs::Stage::ProbeTock);
    spin(std::chrono::microseconds(500));
    {
      obs::ScopedStage inner(obs::Stage::Slicing);
      spin(std::chrono::microseconds(1500));
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  obs::set_enabled(false);

  auto& clock = obs::StageClock::global();
  EXPECT_EQ(clock.count(obs::Stage::ProbeTock), 1u);
  EXPECT_EQ(clock.count(obs::Stage::Slicing), 1u);
  const double tock_s = static_cast<double>(clock.nanos(obs::Stage::ProbeTock)) * 1e-9;
  const double slice_s = static_cast<double>(clock.nanos(obs::Stage::Slicing)) * 1e-9;
  // The child's time is subtracted from the parent: each scope keeps at
  // least its own spin, and the exclusive times sum to the outer scope's
  // span, which lies inside the measured nest on the same steady clock.
  // Which stage is larger depends on the scheduler, so it is not asserted.
  EXPECT_GE(slice_s, 1500e-6);
  EXPECT_GE(tock_s, 500e-6);
  EXPECT_LE(tock_s + slice_s, elapsed + 1e-9);

  auto report = obs::attribution(elapsed);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_GE(report.stages[0].seconds, report.stages[1].seconds);  // largest first
  double share_sum = 0.0;
  for (const auto& s : report.stages) share_sum += s.share_of_monitoring;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_GT(report.monitoring_wall_fraction, 0.0);
  EXPECT_NE(report.to_string().find("probe.tock"), std::string::npos);

  obs::StageClock::global().reset();
}

// Rank threads overlap: two threads inside a stage at once put twice the
// elapsed wall on the clock, so shares are taken of thread time.
TEST(StageClock, ConcurrentThreadsShareThreadTime) {
  obs::set_enabled(true);
  obs::StageClock::global().reset();

  std::latch both_inside(2);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back([&] {
        obs::ScopedStage stage(obs::Stage::TransportShip);
        both_inside.arrive_and_wait();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  obs::set_enabled(false);

  const auto report = obs::attribution(elapsed, 2);
  EXPECT_EQ(report.workload_threads, 2);
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.stages[0].count, 2u);
  EXPECT_GE(report.monitoring_wall_seconds, 2 * 50e-3);
  // Each thread's stage time lies inside the elapsed wall.
  EXPECT_LE(report.monitoring_wall_fraction, 1.0);
  EXPECT_DOUBLE_EQ(report.monitoring_wall_fraction,
                   report.monitoring_wall_seconds / (2 * elapsed));
  EXPECT_DOUBLE_EQ(report.stages[0].share_of_workload,
                   report.monitoring_wall_fraction);
  EXPECT_NE(report.to_string().find("rank-thread time"), std::string::npos);

  // The one-thread default divides by wall alone: the overlap shows as
  // more than all of it.
  const auto one = obs::attribution(elapsed);
  EXPECT_EQ(one.workload_threads, 1);
  EXPECT_DOUBLE_EQ(one.monitoring_wall_fraction,
                   one.monitoring_wall_seconds / elapsed);
  EXPECT_GT(one.monitoring_wall_fraction, 1.0);

  obs::StageClock::global().reset();
}

TEST(StageClock, ConcurrentAddsSumExactlyAcrossThreadSlots) {
  // Each thread adds to its own slot; reads sum the slots. 16 threads add
  // (thread + 1) x (stage + 1) ns to every stage 1,000 times, so each
  // stage's total and count are known exactly.
  constexpr int kThreads = 16;
  constexpr uint64_t kAdds = 1000;
  auto clock = std::make_unique<obs::StageClock>();
  {
    std::latch start(kThreads);
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&clock, &start, t] {
        start.arrive_and_wait();
        for (uint64_t k = 0; k < kAdds; ++k) {
          for (size_t s = 0; s < obs::kStageCount; ++s) {
            clock->add(static_cast<obs::Stage>(s),
                       static_cast<uint64_t>(t + 1) * (s + 1));
          }
        }
      });
    }
  }
  constexpr uint64_t kThreadSum = kThreads * (kThreads + 1) / 2;
  uint64_t total = 0;
  for (size_t s = 0; s < obs::kStageCount; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    EXPECT_EQ(clock->nanos(stage), kAdds * kThreadSum * (s + 1)) << s;
    EXPECT_EQ(clock->count(stage), kAdds * kThreads) << s;
    total += clock->nanos(stage);
  }
  EXPECT_EQ(clock->total_nanos(), total);

  clock->reset();
  for (size_t s = 0; s < obs::kStageCount; ++s) {
    EXPECT_EQ(clock->nanos(static_cast<obs::Stage>(s)), 0u) << s;
    EXPECT_EQ(clock->count(static_cast<obs::Stage>(s)), 0u) << s;
  }
  EXPECT_EQ(clock->total_nanos(), 0u);
}

TEST(StageClock, DisabledScopesCostNothing) {
  obs::set_enabled(false);
  obs::StageClock::global().reset();
  {
    obs::ScopedStage s(obs::Stage::Export);
  }
  EXPECT_EQ(obs::StageClock::global().count(obs::Stage::Export), 0u);
  EXPECT_EQ(obs::StageClock::global().total_nanos(), 0u);
}

// --- zero interference ------------------------------------------------------

const std::vector<rt::SensorInfo> kSensors = {
    {"comp", rt::SensorType::Computation, "x.c", 1},
    {"net", rt::SensorType::Network, "x.c", 2},
};

/// 20 slices on each of 4 ranks over 2 s, alternating the two sensors.
std::vector<rt::SliceRecord> sample_records() {
  std::vector<rt::SliceRecord> records;
  for (int rank = 0; rank < 4; ++rank) {
    for (int slice = 0; slice < 20; ++slice) {
      rt::SliceRecord rec;
      rec.sensor_id = slice % 2;
      rec.rank = rank;
      rec.t_begin = slice * 0.1;
      rec.t_end = rec.t_begin + 0.1;
      rec.avg_duration = 1e-3 * (1.0 + 0.2 * ((rank + slice) % 3));
      rec.min_duration = rec.avg_duration;
      rec.count = 10;
      rec.metric = 1.0f;
      records.push_back(rec);
    }
  }
  return records;
}

// Telemetry must not alter detection: identical records through the batch
// detector produce byte-identical matrices with obs on and off.
TEST(ZeroInterference, DetectionMatricesIdenticalObsOnAndOff) {
  const std::vector<rt::SliceRecord> records = sample_records();

  rt::DetectorConfig cfg;
  cfg.matrix_resolution = 0.2;
  const rt::Detector detector(cfg);

  const auto render_all = [&] {
    const auto analysis = detector.analyze_records(records, kSensors, 4, 2.0);
    std::string csv;
    for (const auto& m : analysis.matrices) csv += report::render_csv(m);
    return csv;
  };

  obs::set_enabled(true);
  const std::string with_obs = render_all();
  obs::set_enabled(false);
  const std::string without_obs = render_all();
  EXPECT_EQ(with_obs, without_obs);
  obs::reset_all();
}

// --- metrics render ---------------------------------------------------------

/// The raw JSON text of `key`'s value in a flat one-line object ("" when
/// absent); string values keep their quotes.
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const size_t begin = at + tag.size();
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

// The metrics file is a render of one health snapshot plus the stage
// clock: every value in it is the value it was rendered from.
TEST(MetricsRender, GaugesAndStagesMatchTheirSources) {
  rt::Collector collector;
  collector.set_sensors(kSensors);
  rt::DetectorConfig cfg;
  cfg.matrix_resolution = 0.2;
  rt::StreamingDetector streaming(cfg, kSensors, 4, 2.0);
  collector.attach_sink(&streaming);

  obs::set_enabled(true);
  obs::reset_all();
  const std::vector<rt::SliceRecord> records = sample_records();
  for (size_t at = 0; at < records.size(); at += 8) {
    collector.ingest(std::span(records).subspan(at, 8));
  }
  obs::set_enabled(false);

  obs::HealthRecorder snapshot;
  {
    obs::HealthRecorder::Prefix scope(snapshot, "collector");
    collector.sample_health(2.0, snapshot);
  }
  {
    obs::HealthRecorder::Prefix scope(snapshot, "detector");
    streaming.sample_health(2.0, snapshot);
  }
  collector.attach_sink(nullptr);
  obs::RunIdentity id;
  id.tool = "test_obs";
  id.seed = 7;
  std::ostringstream out;
  const obs::StageClock& clock = obs::StageClock::global();
  obs::write_metrics_jsonl(out, id, snapshot, clock);

  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  for (const auto& line : lines) EXPECT_TRUE(JsonParser(line).valid()) << line;
  EXPECT_EQ(field(lines[0], "schema"), "\"vsensor-metrics/2\"") << lines[0];
  EXPECT_EQ(field(lines[0], "tool"), "\"test_obs\"") << lines[0];

  const auto unquote = [](const std::string& s) {
    return s.size() >= 2 ? s.substr(1, s.size() - 2) : s;
  };
  size_t gauges = 0;
  size_t stages = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (const std::string name = field(line, "gauge"); !name.empty()) {
      const auto it = snapshot.gauges().find(unquote(name));
      ASSERT_NE(it, snapshot.gauges().end()) << line;
      EXPECT_EQ(std::stod(field(line, "value")), it->second) << line;
      ++gauges;
      continue;
    }
    const std::string name = unquote(field(line, "stage"));
    size_t s = 0;
    while (s < obs::kStageCount &&
           name != obs::stage_name(static_cast<obs::Stage>(s))) {
      ++s;
    }
    ASSERT_LT(s, obs::kStageCount) << line;
    const auto stage = static_cast<obs::Stage>(s);
    EXPECT_EQ(std::stoull(field(line, "count")), clock.count(stage)) << line;
    EXPECT_EQ(std::stoull(field(line, "ns")), clock.nanos(stage)) << line;
    ++stages;
  }
  EXPECT_EQ(gauges, snapshot.gauges().size());
  size_t entered = 0;
  for (size_t s = 0; s < obs::kStageCount; ++s) {
    if (clock.count(static_cast<obs::Stage>(s)) > 0) ++entered;
  }
  EXPECT_EQ(stages, entered);
  // Ten batches went through the collector into the fold.
  EXPECT_EQ(snapshot.gauges().at("collector.ingested_records"), 80.0);
  EXPECT_EQ(snapshot.gauges().at("detector.observed_records"), 80.0);
  EXPECT_EQ(clock.count(obs::Stage::CollectorIngest), 10u);
  EXPECT_EQ(clock.count(obs::Stage::DetectStreaming), 10u);
  obs::reset_all();
}

// The paper's §6.2 claim as a measured, asserted quantity: the virtual
// overhead the probes charge to the simulated clocks stays under 4%.
TEST(Overhead, VirtualOverheadBelowPaperBound) {
  const auto cg = workloads::make_workload("CG");
  workloads::RunOptions opts;
  opts.params.iterations = 6;
  opts.params.scale = 0.1;

  auto cfg = workloads::baseline_config(8);
  workloads::RunOptions plain = opts;
  plain.instrumented = false;

  obs::set_enabled(true);
  obs::reset_all();
  rt::Collector collector;
  const auto run_i = workloads::run_workload(*cg, cfg, opts, &collector);
  obs::set_enabled(false);
  const auto run_p = workloads::run_workload(*cg, cfg, plain);

  ASSERT_GT(run_p.makespan, 0.0);
  const double overhead = (run_i.makespan - run_p.makespan) / run_p.makespan;
  EXPECT_GT(overhead, 0.0);  // probes do charge their cost
  EXPECT_LT(overhead, 0.04); // and stay under the paper's bound

  // Every probe tick has its tock, and the records reached the collector.
  const obs::StageClock& clock = obs::StageClock::global();
  EXPECT_GT(clock.count(obs::Stage::ProbeTick), 0u);
  EXPECT_EQ(clock.count(obs::Stage::ProbeTick),
            clock.count(obs::Stage::ProbeTock));
  EXPECT_GT(collector.ingested_records(), 0u);
  // The charged overhead summed over ranks bounds the critical-path
  // slowdown from above.
  double charged = 0.0;
  for (const auto& rs : run_i.mpi.ranks) charged += rs.overhead_time;
  EXPECT_GT(charged, 0.0);
  EXPECT_GE(charged * 1.001 + 1e-12, run_i.makespan - run_p.makespan);
  obs::reset_all();
}

}  // namespace
