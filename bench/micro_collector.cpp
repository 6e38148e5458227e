// Collector ingest throughput under concurrent ranks (google-benchmark).
//
// The analysis server must not become the bottleneck the paper's <4%
// overhead budget forbids. A plain collector appends each batch to its
// rank's lane (rank mod 64) under that lane's own lock, so concurrent
// ranks in distinct lanes never contend. Run with growing --threads and
// compare shared_lane:0 (thread t plays rank t, its own lane) with
// shared_lane:1 (thread t plays rank 64 t: every thread in lane 0, the
// contended case).
//
// A plain collector keeps every record it ingests, so the benchmark
// bounds its memory itself: each thread clears the store every
// kResetBatches batches with its timer paused, and main() keeps the freed
// chunks in the heap, so appends after a clear reuse warm memory instead
// of timing the kernel's page faults.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/streaming_detector.hpp"

namespace {

using namespace vsensor;

constexpr size_t kBatchRecords = 64;
constexpr int64_t kResetBatches = 256;

std::vector<rt::SliceRecord> make_batch(int sensor_id, int rank) {
  std::vector<rt::SliceRecord> batch(kBatchRecords);
  for (size_t i = 0; i < batch.size(); ++i) {
    auto& rec = batch[i];
    rec.sensor_id = sensor_id;
    rec.rank = rank;
    rec.t_begin = static_cast<double>(i) * 1e-3;
    rec.t_end = rec.t_begin + 1e-3;
    rec.avg_duration = 100e-6;
    rec.min_duration = 90e-6;
    rec.count = 10;
  }
  return batch;
}

std::vector<rt::SensorInfo> make_sensor_table(size_t n) {
  std::vector<rt::SensorInfo> sensors;
  for (size_t s = 0; s < n; ++s) {
    sensors.push_back({"bench" + std::to_string(s),
                       rt::SensorType::Computation, "bench.c",
                       static_cast<int>(s)});
  }
  return sensors;
}

std::unique_ptr<rt::Collector> g_collector;
std::unique_ptr<rt::StreamingDetector> g_streaming;

/// Ingest `batch` once per iteration, clearing the store every
/// kResetBatches batches with timing paused.
void ingest_loop(benchmark::State& state,
                 const std::vector<rt::SliceRecord>& batch) {
  int64_t batches = 0;
  for (auto _ : state) {
    g_collector->ingest(batch);
    if (++batches % kResetBatches == 0) {
      state.PauseTiming();
      g_collector->reset();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRecords));
}

// Concurrent lane appends: shared_lane:0 gives every thread its own lane,
// shared_lane:1 puts every thread in lane 0.
void BM_CollectorIngest(benchmark::State& state) {
  if (state.thread_index() == 0) g_collector = std::make_unique<rt::Collector>();
  const int rank = state.range(0) != 0 ? 64 * state.thread_index()
                                        : state.thread_index();
  ingest_loop(state, make_batch(state.thread_index(), rank));
  if (state.thread_index() == 0) g_collector.reset();
}
BENCHMARK(BM_CollectorIngest)
    ->ArgName("shared_lane")
    ->Arg(0)
    ->Arg(1)
    ->ThreadRange(1, 32)
    ->UseRealTime();

// Same, with the streaming detector attached: the price of folding every
// batch into running statistics as it arrives (the on-line analysis path).
void BM_CollectorIngestStreaming(benchmark::State& state) {
  const int threads = state.threads();
  if (state.thread_index() == 0) {
    g_collector = std::make_unique<rt::Collector>();
    g_collector->set_sensors(make_sensor_table(static_cast<size_t>(threads)));
    g_streaming = std::make_unique<rt::StreamingDetector>(
        rt::DetectorConfig{}, g_collector->sensors(), threads, 10.0);
    g_collector->attach_sink(g_streaming.get());
  }
  ingest_loop(state, make_batch(state.thread_index(), state.thread_index()));
  if (state.thread_index() == 0) {
    g_collector.reset();
    g_streaming.reset();
  }
}
BENCHMARK(BM_CollectorIngestStreaming)->ThreadRange(1, 8)->UseRealTime();

// Streaming finalize vs. batch re-analysis: the streaming path pays O(cells)
// once instead of O(records) per report.
void BM_StreamingFinalize(benchmark::State& state) {
  const int ranks = 32;
  rt::DetectorConfig cfg;
  rt::StreamingDetector streaming(cfg, make_sensor_table(4), ranks, 10.0);
  for (int rank = 0; rank < ranks; ++rank) {
    for (int sensor = 0; sensor < 4; ++sensor) {
      auto batch = make_batch(sensor, rank);
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].t_begin = static_cast<double>(i) * 0.15;
        batch[i].t_end = batch[i].t_begin + 1e-3;
      }
      streaming.observe(batch);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(streaming.finalize());
  }
}
BENCHMARK(BM_StreamingFinalize);

}  // namespace

int main(int argc, char** argv) {
  // The glibc thresholds pipebench fixes (see the file comment).
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
