// The collector's per-rank lanes: ranks r and r + 64 share a lane, a lane
// keeps its records in delivery order in chunks of 1,024 records, exact
// accounting under concurrent ingest with nothing dropped, and the
// locked-view / move-out accessors.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/collector.hpp"

namespace vsensor::rt {
namespace {

SliceRecord make_record(int sensor, int rank, double t, double avg) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = 1;
  return r;
}

// Records per lane chunk: no visited span is longer.
constexpr size_t kChunkRecords = 1024;

bool same_bytes(const std::vector<SliceRecord>& a,
                const std::vector<SliceRecord>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(SliceRecord)) == 0;
}

TEST(ShardedCollector, AccountingAcrossShards) {
  Collector c;
  std::vector<SliceRecord> batch;
  for (int sensor = 0; sensor < 40; ++sensor) {
    batch.push_back(make_record(sensor, 0, 0.0, 100e-6));
  }
  c.ingest(batch);
  c.ingest(std::span<const SliceRecord>(batch.data(), 5));
  EXPECT_EQ(c.record_count(), 45u);
  EXPECT_EQ(c.ingested_records(), 45u);
  EXPECT_EQ(c.bytes_received(), 45 * kRecordWireBytes);
  EXPECT_EQ(c.batch_count(), 2u);
  EXPECT_EQ(c.dropped_records(), 0u);
}

TEST(ShardedCollector, RecordsGatherEveryShard) {
  Collector c;
  for (int sensor = 0; sensor < 16; ++sensor) {
    std::vector<SliceRecord> batch{make_record(sensor, sensor % 3, 0.0, 50e-6)};
    c.ingest(batch);
  }
  const auto all = c.records();
  ASSERT_EQ(all.size(), 16u);
  std::map<int, int> per_sensor;
  for (const auto& r : all) per_sensor[r.sensor_id] += 1;
  for (int sensor = 0; sensor < 16; ++sensor) {
    EXPECT_EQ(per_sensor[sensor], 1) << sensor;
  }
}

// N threads x M batches of 64 records each: every count must be exact and
// nothing may drop. Threads t and t + 4 play ranks t and t + 64, which
// share a lane, so pairs of threads contend on one lane lock. This is the
// raciness probe the sanitizer CI job leans on.
TEST(ShardedCollector, MultiThreadedIngestStress) {
  constexpr int kThreads = 8;
  constexpr int kBatches = 200;
  constexpr size_t kBatchLen = 64;
  Collector c;

  const auto rank_of = [](int t) { return t % 4 + 64 * (t / 4); };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t, rank = rank_of(t)] {
      // Each thread plays one rank pushing records of several sensors;
      // t_begin numbers its records in ingest order.
      for (int b = 0; b < kBatches; ++b) {
        std::vector<SliceRecord> batch;
        batch.reserve(kBatchLen);
        for (size_t i = 0; i < kBatchLen; ++i) {
          batch.push_back(make_record(static_cast<int>(i % 5) + t, rank,
                                      static_cast<double>(b * kBatchLen + i),
                                      100e-6));
        }
        c.ingest(batch);
      }
    });
  }
  for (auto& th : threads) th.join();

  const uint64_t expected = uint64_t{kThreads} * kBatches * kBatchLen;
  EXPECT_EQ(c.ingested_records(), expected);
  EXPECT_EQ(c.record_count(), expected);
  EXPECT_EQ(c.dropped_records(), 0u);
  EXPECT_EQ(c.batch_count(), uint64_t{kThreads} * kBatches);
  EXPECT_EQ(c.bytes_received(), expected * kRecordWireBytes);

  // Every record is retained exactly once, with per-rank counts intact,
  // and each (sensor, rank) pair visits in ingest order.
  std::map<int, uint64_t> per_rank;
  std::map<std::pair<int, int>, double> last;
  uint64_t seen = 0;
  c.visit_records([&](std::span<const SliceRecord> seg) {
    EXPECT_LE(seg.size(), kChunkRecords);
    seen += seg.size();
    for (const auto& r : seg) {
      per_rank[r.rank] += 1;
      auto [it, first] = last.try_emplace({r.sensor_id, r.rank}, r.t_begin);
      if (!first) {
        EXPECT_LT(it->second, r.t_begin) << r.sensor_id << "," << r.rank;
        it->second = r.t_begin;
      }
    }
  });
  EXPECT_EQ(seen, expected);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_rank[rank_of(t)], uint64_t{kBatches} * kBatchLen) << t;
  }
}

TEST(ShardedCollector, MixedRankBatchesKeepEachLaneInIngestOrder) {
  // Ranks 0, 64 and 128 share lane 0; 1 and 65 share lane 1. Batches mix
  // them, so ingest splits each batch into runs of one lane. A lane keeps
  // its records in ingest order, and lanes are visited in order.
  constexpr int kRanks[] = {0, 64, 1, 128, 65, 3};
  Collector c;
  std::vector<SliceRecord> ingested;
  uint32_t seq = 0;
  for (int b = 0; b < 40; ++b) {
    std::vector<SliceRecord> batch;
    const int len = 1 + (b * 7) % 23;
    for (int i = 0; i < len; ++i) {
      const int rank = kRanks[(b + i * (b % 3 + 1)) % 6];
      SliceRecord r = make_record((b + i) % 3, rank, 0.0, 100e-6);
      r.count = seq++;
      batch.push_back(r);
    }
    c.ingest(batch);
    ingested.insert(ingested.end(), batch.begin(), batch.end());
  }
  std::vector<SliceRecord> lane_major;
  for (int lane : {0, 1, 3}) {
    for (const auto& r : ingested) {
      if (r.rank % 64 == lane) lane_major.push_back(r);
    }
  }
  const auto records = c.records();
  EXPECT_TRUE(same_bytes(records, lane_major));
  // So every (sensor, rank) pair keeps its ingest order.
  std::map<std::pair<int, int>, uint32_t> last;
  for (const auto& r : records) {
    auto [it, first] = last.try_emplace({r.sensor_id, r.rank}, r.count);
    if (!first) {
      EXPECT_LT(it->second, r.count);
      it->second = r.count;
    }
  }
}

TEST(ShardedCollector, BatchesCrossChunkEnds) {
  // One 2,500-record batch, then odd-sized batches, all of one rank: the
  // lane fills chunk after chunk, and reading it back gives their
  // concatenation in spans no longer than one chunk.
  Collector c;
  std::vector<SliceRecord> all;
  uint32_t seq = 0;
  for (const size_t len : {2500, 1, 7, 1023, 1025, 333, 1024}) {
    std::vector<SliceRecord> batch;
    for (size_t i = 0; i < len; ++i) {
      SliceRecord r = make_record(static_cast<int>(i % 3), 5, 0.0, 100e-6);
      r.count = seq++;
      batch.push_back(r);
    }
    c.ingest(batch);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(c.record_count(), all.size());
  EXPECT_TRUE(same_bytes(c.records(), all));
  size_t spans = 0;
  size_t seen = 0;
  c.visit_records([&](std::span<const SliceRecord> seg) {
    EXPECT_LE(seg.size(), kChunkRecords);
    EXPECT_FALSE(seg.empty());
    ++spans;
    seen += seg.size();
  });
  EXPECT_EQ(seen, all.size());
  EXPECT_EQ(spans, (all.size() + kChunkRecords - 1) / kChunkRecords);
  EXPECT_TRUE(same_bytes(c.take_records(), all));
  EXPECT_EQ(c.record_count(), 0u);
  // A drained lane fills again from a fresh chunk.
  c.ingest(std::span<const SliceRecord>(all.data(), 3));
  EXPECT_TRUE(same_bytes(c.records(), {all.begin(), all.begin() + 3}));
}

TEST(ShardedCollector, TakeRecordsMovesOutAndResets) {
  Collector c;
  std::vector<SliceRecord> batch;
  for (int sensor = 0; sensor < 10; ++sensor) {
    batch.push_back(make_record(sensor, 1, 0.0, 100e-6));
  }
  c.ingest(batch);
  auto taken = c.take_records();
  EXPECT_EQ(taken.size(), 10u);
  EXPECT_EQ(c.record_count(), 0u);
  EXPECT_TRUE(c.records().empty());
  // Cumulative counters survive the move-out.
  EXPECT_EQ(c.ingested_records(), 10u);
  EXPECT_EQ(c.batch_count(), 1u);
  EXPECT_EQ(c.bytes_received(), 10 * kRecordWireBytes);
}

struct CountingSink final : BatchSink {
  uint64_t batches = 0;
  uint64_t records = 0;
  void on_batch(std::span<const SliceRecord> batch) override {
    batches += 1;
    records += batch.size();
  }
};

TEST(ShardedCollector, AttachedSinkSeesEveryBatch) {
  Collector c;
  CountingSink sink;
  c.attach_sink(&sink);
  std::vector<SliceRecord> batch(7);
  for (auto& r : batch) r.sensor_id = 0;
  c.ingest(batch);
  c.ingest(batch);
  EXPECT_EQ(sink.batches, 2u);
  EXPECT_EQ(sink.records, 14u);
  c.attach_sink(nullptr);
  c.ingest(batch);
  EXPECT_EQ(sink.batches, 2u);
}

TEST(ShardedCollector, ForwardCountsAndFoldsButStoresNothing) {
  Collector c;
  CountingSink sink;
  c.attach_sink(&sink);
  std::vector<SliceRecord> batch;
  for (int sensor = 0; sensor < 10; ++sensor) {
    batch.push_back(make_record(sensor, 1, 0.0, 100e-6));
  }
  c.forward(batch);
  c.forward(std::span<const SliceRecord>(batch.data(), 3));
  c.forward({});  // an empty batch counts nothing, like ingest's
  // The sink saw both batches; the wire accounting advanced as for ingest.
  EXPECT_EQ(sink.batches, 2u);
  EXPECT_EQ(sink.records, 13u);
  EXPECT_EQ(c.ingested_records(), 13u);
  EXPECT_EQ(c.batch_count(), 2u);
  EXPECT_EQ(c.bytes_received(), 13 * kRecordWireBytes);
  // Nothing was stored: forwarded records count as taken.
  EXPECT_EQ(c.record_count(), 0u);
  EXPECT_TRUE(c.records().empty());
  EXPECT_EQ(c.counters().taken, 13u);
  EXPECT_EQ(c.dropped_records(), 0u);
  // The same collector still stores what it ingests.
  c.ingest(batch);
  EXPECT_EQ(c.record_count(), 10u);
  EXPECT_EQ(c.records().size(), 10u);
}

TEST(ShardedCollector, NegativeRankGoesToLaneZero) {
  Collector c;
  std::vector<SliceRecord> batch{
      make_record(0, 1, 0.0, 1e-6), make_record(0, -1, 1.0, 1e-6),
      make_record(0, 64, 2.0, 1e-6), make_record(-1, 0, 3.0, 1e-6)};
  c.ingest(batch);
  EXPECT_EQ(c.record_count(), 4u);
  // Lane 0 holds ranks -1, 64 and 0 in ingest order; lane 1 follows.
  std::vector<double> order;
  for (const auto& r : c.records()) order.push_back(r.t_begin);
  EXPECT_EQ(order, (std::vector<double>{1.0, 2.0, 3.0, 0.0}));
}

}  // namespace
}  // namespace vsensor::rt
