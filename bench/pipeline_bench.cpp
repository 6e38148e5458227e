// Hot-path pipeline benchmarks -> BENCH_pipeline.json.
//
// Measures the kernels the SoA/SIMD overhaul targets, each against its
// pre-overhaul shape where a faithful one still exists in-tree (the scalar
// reference CRC, an AoS min-standard scan, a scalar normalization loop), so
// the emitted file carries the before/after deltas as first-class ratio
// metrics. CI runs this binary and tools/bench_compare.py gates the
// trajectory against bench/baseline/.
//
// Everything here is single-threaded on purpose: CI runners (and this
// container) pin to one or two cores, where thread-scaling numbers are
// noise. The kernels below are the per-core costs that bound pipeline
// throughput at any rank count.
//
// Usage: pipeline_bench [output.json]
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/record_batch.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/slicer.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "runtime/types.hpp"
#include "support/crc32.hpp"
#include "support/simd.hpp"

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

void bench_min_standard_scan(BenchReporter& out) {
  constexpr size_t kRecords = 1u << 20;
  const auto aos = synth_records(kRecords, 4, 8, 10.0, 11);
  const RecordBatch soa = RecordBatch::from_aos(aos);
  const double mrecs = static_cast<double>(kRecords) / 1e6;

  out.measure("scan.min_standard.soa", "Mrec/s", Direction::kHigherIsBetter, 7,
              [&] {
                double fastest = 0.0;
                const double s = time_seconds([&] {
                  fastest = simd::min_above(soa.avg_duration.data(),
                                            soa.avg_duration.size(),
                                            kMinStandardTime);
                });
                keep(fastest);
                return mrecs / s;
              });
  // The pre-overhaul shape: stride 56 bytes per record to touch one double.
  out.measure("scan.min_standard.aos", "Mrec/s", Direction::kHigherIsBetter, 7,
              [&] {
                double fastest = 0.0;
                const double s = time_seconds([&] {
                  double best = std::numeric_limits<double>::infinity();
                  for (const auto& rec : aos) {
                    if (rec.avg_duration >= kMinStandardTime &&
                        rec.avg_duration < best) {
                      best = rec.avg_duration;
                    }
                  }
                  fastest = best;
                });
                keep(fastest);
                return mrecs / s;
              });
  out.add_ratio("scan.min_standard.speedup", "scan.min_standard.soa",
                "scan.min_standard.aos");
}

void bench_normalize(BenchReporter& out) {
  constexpr size_t kRecords = 1u << 20;
  const auto aos = synth_records(kRecords, 4, 8, 10.0, 13);
  const RecordBatch soa = RecordBatch::from_aos(aos);
  std::vector<double> std_times(kRecords, 1e-3);
  std::vector<double> normalized(kRecords);
  const double mrecs = static_cast<double>(kRecords) / 1e6;

  out.measure("normalize.simd", "Mrec/s", Direction::kHigherIsBetter, 7, [&] {
    const double s = time_seconds([&] {
      simd::normalize(std_times.data(), soa.avg_duration.data(), kRecords,
                      kMinStandardTime, normalized.data());
    });
    keep(normalized[kRecords / 2]);
    return mrecs / s;
  });
  out.measure("normalize.aos", "Mrec/s", Direction::kHigherIsBetter, 7, [&] {
    const double s = time_seconds([&] {
      for (size_t i = 0; i < kRecords; ++i) {
        const double st = std::max(std_times[i], kMinStandardTime);
        normalized[i] = st / aos[i].avg_duration;
      }
    });
    keep(normalized[kRecords / 2]);
    return mrecs / s;
  });
  out.add_ratio("normalize.speedup", "normalize.simd", "normalize.aos");
}

void bench_stage_to_collector(BenchReporter& out) {
  constexpr size_t kRecords = 1u << 19;
  const auto records = synth_records(kRecords, 4, 8, 10.0, 17);
  const double rate_base = static_cast<double>(kRecords);

  out.measure("stage.collector", "records/s", Direction::kHigherIsBetter, 5,
              [&] {
                Collector collector;
                BatchStage stage(&collector, 64);
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
  const RecordBatch batch = RecordBatch::from_aos(records);
  streaming.on_batch(batch);
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
      events =
          detector.analyze_batch(batch, sensors, kRanks, kRunTime).events.size();
    });
    keep(events);
    return s * 1e3;
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

  bench_crc(out);
  bench_min_standard_scan(out);
  bench_normalize(out);
  bench_stage_to_collector(out);
  bench_transport(out);
  bench_journal(out);
  bench_detector(out);
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
