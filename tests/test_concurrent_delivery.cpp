// Concurrent delivery: four producer threads, each owning a partition of
// the ranks, ship every rank's batches in order through one BatchTransport.
// The contract (docs/pipeline.md §6e): while each rank ships from one
// thread, the finalized matrices and variance events, the final standards
// and the stale sets equal a sequential single-detector fold of the same
// batches bit for bit, and every rank's channel accounting is conserved.
// Online flag counts, Welford state and journal byte order may differ, so
// nothing here compares them. CI runs this suite under TSan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "simmpi/faults.hpp"
#include "support/rng.hpp"

namespace vsensor::rt {
namespace {

constexpr int kProducers = 4;
constexpr int kRanks = 16;
constexpr double kRunTime = 0.05;
/// Its own producer marks this rank stale right after its half-way batch.
constexpr int kStaleRank = 5;
/// A batch dropped on every attempt is lost.
constexpr uint32_t kMaxAttempts = 2;

/// streams[rank][b] is the b-th batch `rank` ships.
using Streams = std::vector<std::vector<std::vector<SliceRecord>>>;

std::vector<SensorInfo> two_sensors() {
  return {{"comp", SensorType::Computation, "f.c", 1},
          {"net", SensorType::Network, "f.c", 2}};
}

DetectorConfig tight_cfg() {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.metric_bucket_width = 0.5;
  cfg.min_records = 1;
  return cfg;
}

/// Per-rank batches in virtual-time order: two sensors, two dynamic-rule
/// metric groups, jittered durations, ranks 12-13 slowed for the whole run
/// (so the fold has variance events to agree on), and a few degenerate
/// records that must never set a standard.
Streams make_streams(uint64_t seed) {
  Rng rng(seed);
  Streams streams(kRanks);
  for (int rank = 0; rank < kRanks; ++rank) {
    const int batches = 8 + static_cast<int>(rng.next_below(8));
    const double slow = rank == 12 || rank == 13 ? 2.5 : 1.0;
    double t = 0.0;
    for (int b = 0; b < batches; ++b) {
      std::vector<SliceRecord> batch;
      const int n = 1 + static_cast<int>(rng.next_below(6));
      for (int i = 0; i < n; ++i) {
        t += kRunTime / (static_cast<double>(batches) * 6.0);
        SliceRecord rec;
        rec.sensor_id = static_cast<int32_t>(rng.next_below(2));
        rec.rank = rank;
        rec.t_begin = t;
        rec.t_end = t + 1e-3;
        rec.avg_duration =
            slow * 1e-4 * (1.0 + 0.1 * static_cast<double>(rng.next_below(10)));
        if (rng.next_below(29) == 0) rec.avg_duration = 0.0;
        rec.min_duration = rec.avg_duration;
        rec.count = 1 + static_cast<uint32_t>(rng.next_below(4));
        rec.metric = rng.next_below(4) == 0 ? 0.9F : 0.1F;
        batch.push_back(rec);
      }
      streams[static_cast<size_t>(rank)].push_back(std::move(batch));
    }
  }
  return streams;
}

size_t stale_after(const Streams& streams) {
  return streams[kStaleRank].size() / 2;
}

/// Drops and duplicates, no delays: a delayed batch is released by later
/// arrivals from *any* rank, which under concurrency reorders its own
/// rank's deliveries — outside the contract.
simmpi::FaultConfig fault_cfg() {
  simmpi::FaultConfig cfg;
  cfg.drop_prob = 0.25;
  cfg.duplicate_prob = 0.2;
  cfg.seed = 0xC0FFEE;
  return cfg;
}

TransportConfig transport_cfg() {
  TransportConfig cfg;
  cfg.max_attempts = kMaxAttempts;
  return cfg;
}

/// The transport's fate for batch `seq` of `rank`: delivered unless every
/// attempt drops. Fault decisions are a pure function of (rank, seq,
/// attempt), and a rank's sequence numbers follow its ship order, so the
/// fate does not depend on thread timing.
bool delivered(const TransportFaultModel& faults, int rank, uint64_t seq) {
  for (uint32_t a = 0; a < kMaxAttempts; ++a) {
    if (!faults.decide(rank, seq, a).drop) return true;
  }
  return false;
}

/// The sequential reference: one detector folds, rank by rank, exactly the
/// batches the transport delivers, with the same stale mark at the same
/// point of the stale rank's own sequence.
void fold_sequentially(StreamingDetector& ref, const Streams& streams,
                       const TransportFaultModel& faults) {
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto& batches = streams[static_cast<size_t>(rank)];
    for (size_t b = 0; b < batches.size(); ++b) {
      if (delivered(faults, rank, b)) ref.observe(batches[b]);
      if (rank == kStaleRank && b == stale_after(streams)) ref.mark_stale(rank);
    }
  }
}

/// Four producers, producer p owning ranks [p * R / P, (p + 1) * R / P)
/// and shipping them interleaved batch by batch, each rank's batches in
/// order. `mark_stale` runs on the stale rank's own producer thread.
void ship_concurrently(BatchTransport& transport, const Streams& streams,
                       const std::function<void(int)>& mark_stale) {
  std::latch start(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const int first = p * kRanks / kProducers;
      const int last = (p + 1) * kRanks / kProducers;
      start.arrive_and_wait();
      for (size_t b = 0;; ++b) {
        bool shipped = false;
        for (int rank = first; rank < last; ++rank) {
          const auto& batches = streams[static_cast<size_t>(rank)];
          if (b >= batches.size()) continue;
          transport.ship(rank, batches[b], batches[b].back().t_end);
          if (rank == kStaleRank && b == stale_after(streams)) mark_stale(rank);
          shipped = true;
        }
        if (!shipped) break;
      }
    });
  }
  for (auto& t : producers) t.join();
  transport.drain();
}

/// Per rank: one dense sequence number per ship, every shipped batch
/// delivered or lost exactly once, and the same fate as the reference.
void expect_conserved(const BatchTransport& transport, const Streams& streams,
                      const TransportFaultModel& faults) {
  uint64_t lost = 0;
  for (int rank = 0; rank < kRanks; ++rank) {
    SCOPED_TRACE("rank " + std::to_string(rank));
    const auto& batches = streams[static_cast<size_t>(rank)];
    uint64_t want_delivered = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      if (delivered(faults, rank, b)) ++want_delivered;
    }
    const RankChannelStats s = transport.rank_stats(rank);
    EXPECT_EQ(s.next_seq, batches.size());
    EXPECT_EQ(s.batches_sent, batches.size());
    EXPECT_EQ(s.batches_sent, s.batches_delivered + s.batches_lost);
    EXPECT_EQ(s.batches_delivered, want_delivered);
    lost += s.batches_lost;
  }
  EXPECT_GT(lost, 0u) << "the fault pattern must lose some batches";
  EXPECT_GT(transport.totals().duplicates_suppressed, 0u);
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void expect_same_result(const AnalysisResult& want, const AnalysisResult& got) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& mw = want.matrices[static_cast<size_t>(t)];
    const auto& mg = got.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(mw.ranks(), mg.ranks());
    ASSERT_EQ(mw.buckets(), mg.buckets());
    for (int r = 0; r < mw.ranks(); ++r) {
      for (int c = 0; c < mw.buckets(); ++c) {
        ASSERT_EQ(mw.has(r, c), mg.has(r, c))
            << "type " << t << " cell " << r << "," << c;
        if (mw.has(r, c)) {
          EXPECT_TRUE(same_bits(mw.at(r, c), mg.at(r, c)))
              << "type " << t << " cell " << r << "," << c;
        }
      }
    }
  }
  ASSERT_FALSE(want.events.empty()) << "the stream must yield events";
  ASSERT_EQ(want.events.size(), got.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    const auto& ew = want.events[i];
    const auto& eg = got.events[i];
    EXPECT_EQ(ew.type, eg.type) << i;
    EXPECT_EQ(ew.rank_begin, eg.rank_begin) << i;
    EXPECT_EQ(ew.rank_end, eg.rank_end) << i;
    EXPECT_EQ(ew.cells, eg.cells) << i;
    EXPECT_TRUE(same_bits(ew.t_begin, eg.t_begin)) << i;
    EXPECT_TRUE(same_bits(ew.t_end, eg.t_end)) << i;
    EXPECT_TRUE(same_bits(ew.severity, eg.severity)) << i;
    EXPECT_EQ(ew.likely_wait_on_slow_ranks, eg.likely_wait_on_slow_ranks) << i;
  }
  EXPECT_EQ(want.stale_ranks, got.stale_ranks);
}

/// Final standards, per-rank standards, cell sums and stale sets.
void expect_same_state(const StreamingDetector::Snapshot& want,
                       const StreamingDetector::Snapshot& got) {
  EXPECT_EQ(want.standard, got.standard);
  EXPECT_EQ(want.rank_standard, got.rank_standard);
  EXPECT_EQ(want.stale, got.stale);
  EXPECT_EQ(want.stale_records, got.stale_records);
  EXPECT_EQ(want.sensor_records, got.sensor_records);
  ASSERT_EQ(want.cells.size(), got.cells.size());
  for (const auto& [key, sums] : want.cells) {
    const auto it = got.cells.find(key);
    ASSERT_NE(it, got.cells.end());
    EXPECT_TRUE(same_bits(sums.weight, it->second.weight));
    EXPECT_TRUE(same_bits(sums.weight_over_avg, it->second.weight_over_avg));
  }
}

TEST(ConcurrentDelivery, CollectorAndDetectorMatchSequentialFold) {
  const auto streams = make_streams(/*seed=*/17);
  const simmpi::FaultInjector faults(fault_cfg());

  StreamingDetector ref(tight_cfg(), two_sensors(), kRanks, kRunTime);
  fold_sequentially(ref, streams, faults);

  Collector collector;
  collector.set_sensors(two_sensors());
  StreamingDetector detector(tight_cfg(), two_sensors(), kRanks, kRunTime);
  collector.attach_sink(&detector);
  BatchTransport transport(&collector, kRanks, transport_cfg(), &faults);
  ship_concurrently(transport, streams,
                    [&](int rank) { detector.mark_stale(rank); });

  expect_conserved(transport, streams, faults);
  EXPECT_EQ(collector.ingested_records(), transport.totals().records_delivered);
  EXPECT_EQ(detector.observed_records(), ref.observed_records());
  expect_same_state(ref.snapshot(), detector.snapshot());
  expect_same_result(ref.finalize(), detector.finalize());
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_concurrent_" + name;
}

ShardedTierConfig tier_cfg(int shards) {
  ShardedTierConfig cfg;
  cfg.shards = shards;
  cfg.journal_path = tmp_path("n" + std::to_string(shards) + ".wal");
  cfg.checkpoint_path = tmp_path("n" + std::to_string(shards) + ".ckpt");
  cfg.checkpoint_every_batches = 8;
  cfg.detector = tight_cfg();
  for (int k = 0; k < shards; ++k) {
    const std::string suffix = ".shard" + std::to_string(k);
    std::remove((cfg.journal_path + suffix).c_str());
    std::remove((cfg.checkpoint_path + suffix).c_str());
  }
  return cfg;
}

TEST(ConcurrentDelivery, ShardedTierMatchesSequentialFold) {
  const auto streams = make_streams(/*seed=*/23);
  const simmpi::FaultInjector faults(fault_cfg());

  StreamingDetector ref(tight_cfg(), two_sensors(), kRanks, kRunTime);
  fold_sequentially(ref, streams, faults);
  const auto want_state = ref.snapshot();
  const auto want = ref.finalize();

  for (const int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedAnalysisTier tier(tier_cfg(shards), two_sensors(), kRanks, kRunTime);
    BatchTransport transport(static_cast<DeliverySink*>(&tier), kRanks,
                             transport_cfg(), &faults);
    ship_concurrently(transport, streams,
                      [&](int rank) { tier.mark_stale(rank); });

    expect_conserved(transport, streams, faults);
    EXPECT_EQ(tier.total_routed_records(), transport.totals().records_delivered);
    const auto merged = tier.merged_snapshot();
    EXPECT_EQ(merged.observed, ref.observed_records());
    expect_same_state(want_state, merged);
    expect_same_result(want, tier.finalize());
  }
}

}  // namespace
}  // namespace vsensor::rt
