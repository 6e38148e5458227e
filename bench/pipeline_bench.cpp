// Hot-path pipeline benchmarks -> BENCH_pipeline.json.
//
// Measures the per-record costs of the code every run executes: the
// frame CRC (against the scalar reference CRC, so the speedup is a
// first-class ratio metric), staging, transport, journal appends, the
// detector, a delta checkpoint and the sharded tier's fan-in. CI runs this
// binary and tools/bench_compare.py gates the trajectory against
// bench/baseline/.
//
// Everything here is single-threaded on purpose: CI runners (and this
// container) pin to one or two cores, where thread-scaling numbers are
// noise. The kernels below are the per-core costs that bound pipeline
// throughput at any rank count.
//
// Usage: pipeline_bench [output.json]
#include <malloc.h>

#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/slicer.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "runtime/types.hpp"
#include "support/crc32.hpp"

namespace {

using namespace vsensor;
using namespace vsensor::rt;
using bench::BenchReporter;
using bench::Direction;
using bench::time_seconds;

/// Keep a value alive past the optimizer without paying for a store.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

std::vector<SliceRecord> synth_records(size_t n, int sensors, int ranks,
                                       double run_time, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> jitter(1.0, 1.6);
  std::vector<SliceRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    SliceRecord& r = records[i];
    r.sensor_id = static_cast<int32_t>(i % static_cast<size_t>(sensors));
    r.rank = static_cast<int32_t>((i / static_cast<size_t>(sensors)) %
                                  static_cast<size_t>(ranks));
    r.t_begin = run_time * static_cast<double>(i) / static_cast<double>(n);
    r.t_end = r.t_begin + run_time / static_cast<double>(n);
    r.avg_duration = 1e-3 * jitter(rng);
    r.min_duration = r.avg_duration * 0.9;
    r.count = 16;
    r.metric = 0.0f;
  }
  return records;
}

void bench_crc(BenchReporter& out) {
  constexpr size_t kBytes = 8u << 20;
  std::vector<unsigned char> buf(kBytes);
  std::mt19937_64 rng(7);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  const double mb = static_cast<double>(kBytes) / 1e6;

  out.measure("crc32.frame", "MB/s", Direction::kHigherIsBetter, 7, [&] {
    uint32_t crc = 0;
    const double s = time_seconds([&] { crc = crc32(buf.data(), kBytes); });
    keep(crc);
    return mb / s;
  });
  out.measure("crc32.reference", "MB/s", Direction::kHigherIsBetter, 7, [&] {
    uint32_t crc = 0;
    const double s =
        time_seconds([&] { crc = crc32_reference(buf.data(), kBytes); });
    keep(crc);
    return mb / s;
  });
  out.add_ratio("crc32.speedup", "crc32.frame", "crc32.reference");
}

void bench_stage_to_collector(BenchReporter& out) {
  constexpr size_t kRecords = 1u << 19;
  const auto records = synth_records(kRecords, 4, 8, 10.0, 17);
  const double rate_base = static_cast<double>(kRecords);

  out.measure("stage.collector", "records/s", Direction::kHigherIsBetter, 5,
              [&] {
                Collector collector;
                BatchTransport transport(&collector, 1);
                BatchStage stage(&transport, /*rank=*/0, 64);
                const double s = time_seconds([&] {
                  for (const auto& rec : records) stage.push(rec);
                  stage.flush();
                });
                keep(collector.ingested_records());
                return rate_base / s;
              });
}

void bench_transport(BenchReporter& out) {
  constexpr size_t kBatches = 4096;
  constexpr size_t kPerBatch = 64;
  const auto records = synth_records(kBatches * kPerBatch, 4, 1, 10.0, 19);
  const double rate_base = static_cast<double>(kBatches * kPerBatch);

  out.measure("transport.sync", "records/s", Direction::kHigherIsBetter, 5,
              [&] {
                Collector collector;
                BatchTransport transport(&collector, 1);
                const double s = time_seconds([&] {
                  for (size_t b = 0; b < kBatches; ++b) {
                    const std::span<const SliceRecord> batch(
                        records.data() + b * kPerBatch, kPerBatch);
                    transport.ship(0, batch, batch.back().t_end);
                  }
                  transport.drain();
                });
                keep(collector.ingested_records());
                return rate_base / s;
              });
}

void bench_journal(BenchReporter& out) {
  constexpr size_t kFrames = 400;
  constexpr size_t kPerFrame = 256;
  const auto records = synth_records(kFrames * kPerFrame, 4, 8, 10.0, 23);
  std::vector<JournalFrame> frames(kFrames);
  for (size_t f = 0; f < kFrames; ++f) {
    frames[f].rank = static_cast<int32_t>(f % 8);
    frames[f].seq = f;
    frames[f].records.assign(records.begin() + f * kPerFrame,
                             records.begin() + (f + 1) * kPerFrame);
  }
  const std::string path = "bench_journal.tmp";

  out.measure("journal.append", "MB/s", Direction::kHigherIsBetter, 5, [&] {
    double appended = 0.0;
    const double s = time_seconds([&] {
      JournalWriterConfig cfg;
      cfg.buffer_bytes = 1u << 20;
      cfg.commit_every_frames = 64;
      JournalWriter writer(path, cfg);
      for (const auto& frame : frames) writer.append(frame);
      writer.commit();
      appended = static_cast<double>(writer.appended_bytes());
    });
    return appended / 1e6 / s;
  });
  std::remove(path.c_str());
}

void bench_detector(BenchReporter& out) {
  constexpr size_t kRecords = 400u << 10;
  constexpr int kRanks = 8;
  constexpr double kRunTime = 10.0;
  const auto records = synth_records(kRecords, 4, kRanks, kRunTime, 29);
  std::vector<SensorInfo> sensors;
  for (int s = 0; s < 4; ++s) {
    sensors.push_back(SensorInfo{"bench_s" + std::to_string(s),
                                 SensorType::Computation, "bench.c", s + 1});
  }

  StreamingDetector streaming(DetectorConfig{}, sensors, kRanks, kRunTime);
  streaming.on_batch(records);
  out.measure("detector.finalize", "ms", Direction::kLowerIsBetter, 5, [&] {
    size_t events = 0;
    const double s =
        time_seconds([&] { events = streaming.finalize().events.size(); });
    keep(events);
    return s * 1e3;
  });

  Detector detector;
  out.measure("detector.analyze", "ms", Direction::kLowerIsBetter, 5, [&] {
    size_t events = 0;
    const double s = time_seconds([&] {
      events = detector.analyze_records(records, sensors, kRanks, kRunTime)
                   .events.size();
    });
    keep(events);
    return s * 1e3;
  });
}

void bench_checkpoint(BenchReporter& out) {
  // The server's periodic delta checkpoint: a 1,024-rank, 12-sensor,
  // 50-bucket detector folds 64-record batches in time order, with one base
  // after the first 1/24 of the stream and a delta after each later 1/24.
  // A delta costs what the fold changed since the previous frame.
  constexpr size_t kFrames = 24;
  constexpr size_t kPerFrame = 4096;
  constexpr size_t kRecords = kFrames * kPerFrame;
  constexpr size_t kPerBatch = 64;
  constexpr int kRanks = 1024;
  constexpr int kSensors = 12;
  constexpr double kRunTime = 10.0;
  const auto records = synth_records(kRecords, kSensors, kRanks, kRunTime, 37);
  std::vector<SensorInfo> sensors;
  for (int s = 0; s < kSensors; ++s) {
    sensors.push_back(SensorInfo{"bench_s" + std::to_string(s),
                                 SensorType::Computation, "bench.c", s + 1});
  }
  DetectorConfig cfg;
  cfg.matrix_resolution = kRunTime / 50.0;
  const std::vector<SeqTracker> watermarks(kRanks);
  std::string frame;

  out.measure("checkpoint.delta", "us", Direction::kLowerIsBetter, 7, [&] {
    StreamingDetector detector(cfg, sensors, kRanks, kRunTime);
    double seconds = 0.0;
    for (size_t f = 0; f < kFrames; ++f) {
      for (size_t at = f * kPerFrame; at < (f + 1) * kPerFrame;
           at += kPerBatch) {
        detector.on_batch(
            std::span<const SliceRecord>(records.data() + at, kPerBatch));
      }
      const auto kind = f == 0 ? CheckpointFrame::Base : CheckpointFrame::Delta;
      const double s = time_seconds([&] {
        encode_live_checkpoint(frame, kind, {}, watermarks, detector);
      });
      if (f > 0) seconds += s;
    }
    keep(frame.size());
    return seconds / static_cast<double>(kFrames - 1) * 1e6;
  });
}

void bench_fanin(BenchReporter& out) {
  // Sharded analysis tier fan-in: records/s through ShardedAnalysisTier at
  // 1/2/4/8 shards, per-rank batched deliveries with journaling on. One
  // thread delivers everything in sequence, so the shard count adds fold
  // locks, journals and standards broadcasts but no parallelism: these
  // numbers measure per-shard overhead, not fan-in scaling, on any core
  // count.
  constexpr size_t kRecords = 64u << 10;
  constexpr size_t kPerBatch = 256;
  constexpr int kRanks = 64;
  constexpr double kRunTime = 10.0;
  const auto records = synth_records(kRecords, 4, kRanks, kRunTime, 31);
  std::vector<SensorInfo> sensors;
  for (int s = 0; s < 4; ++s) {
    sensors.push_back(SensorInfo{"bench_s" + std::to_string(s),
                                 SensorType::Computation, "bench.c", s + 1});
  }
  // Pre-batch into per-rank deliveries (synth_records round-robins ranks,
  // so a contiguous chunk is re-grouped by rank first).
  std::vector<std::vector<SliceRecord>> by_rank(kRanks);
  for (const auto& r : records) {
    by_rank[static_cast<size_t>(r.rank)].push_back(r);
  }

  for (const int shards : {1, 2, 4, 8}) {
    const std::string base = "bench_fanin_" + std::to_string(shards);
    uint64_t epoch = 0;
    out.measure("fanin_records_per_sec." + std::to_string(shards), "rec/s",
                Direction::kHigherIsBetter, 5, [&] {
                  ShardedTierConfig cfg;
                  cfg.shards = shards;
                  cfg.journal_path = base + ".wal." + std::to_string(epoch);
                  cfg.checkpoint_path = base + ".ckpt." + std::to_string(epoch);
                  cfg.journal.commit_every_frames = 64;
                  ++epoch;
                  ShardedAnalysisTier tier(cfg, sensors, kRanks, kRunTime);
                  const double s = time_seconds([&] {
                    for (int rank = 0; rank < kRanks; ++rank) {
                      const auto& src = by_rank[static_cast<size_t>(rank)];
                      uint64_t seq = 0;
                      for (size_t i = 0; i < src.size(); i += kPerBatch) {
                        const size_t n = std::min(kPerBatch, src.size() - i);
                        tier.on_delivery(
                            rank, seq++,
                            std::span<const SliceRecord>(src.data() + i, n),
                            src[i + n - 1].t_end);
                      }
                    }
                  });
                  keep(tier.total_routed_records());
                  for (int k = 0; k < shards; ++k) {
                    const auto& scfg = tier.server(k).config();
                    std::remove(scfg.journal_path.c_str());
                    std::remove(scfg.checkpoint_path.c_str());
                  }
                  return static_cast<double>(kRecords) / s;
                });
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  BenchReporter out("pipeline");
  // Fixed glibc thresholds (the values pipebench uses): otherwise the large
  // frees of one bench raise the dynamic mmap/trim thresholds and change
  // whether the next bench's allocations reuse warm heap or fault in fresh
  // pages, so each figure would depend on the benches run before it.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  bench_crc(out);
  bench_stage_to_collector(out);
  bench_transport(out);
  bench_journal(out);
  bench_detector(out);
  bench_checkpoint(out);
  bench_fanin(out);

  out.write(out_path);
  std::printf("wrote %s (%zu metrics, crc impl: %s)\n", out_path.c_str(),
              out.metrics().size(), crc32_impl_name());
  for (const auto& m : out.metrics()) {
    std::printf("  %-28s p50 %12.3f %s\n", m.name.c_str(), m.p50,
                m.unit.c_str());
  }
  return 0;
}
