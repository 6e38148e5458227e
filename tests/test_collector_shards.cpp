// The sharded, bounded analysis server: scatter correctness, exact
// accounting under concurrent ingest, backpressure drops, and the
// locked-view / move-out accessors.
#include <gtest/gtest.h>

#include <map>
#include <thread>
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
  Collector c(CollectorConfig{.shards = 4, .shard_capacity = 1u << 10});
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
// nothing may drop while shards are under capacity. This is the raciness
// probe the sanitizer CI job leans on.
TEST(ShardedCollector, MultiThreadedIngestStress) {
  constexpr int kThreads = 8;
  constexpr int kBatches = 200;
  constexpr size_t kBatchLen = 64;
  Collector c(CollectorConfig{.shards = 8, .shard_capacity = 1u << 16});

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      // Each thread plays one rank pushing records of several sensors, so
      // batches scatter across shards.
      for (int b = 0; b < kBatches; ++b) {
        std::vector<SliceRecord> batch;
        batch.reserve(kBatchLen);
        for (size_t i = 0; i < kBatchLen; ++i) {
          batch.push_back(make_record(static_cast<int>(i % 5) + t, t,
                                      b * 1e-3, 100e-6));
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

  // Every record is retained exactly once, with per-rank counts intact.
  std::map<int, uint64_t> per_rank;
  uint64_t seen = 0;
  c.visit_records([&](std::span<const SliceRecord> seg) {
    seen += seg.size();
    for (const auto& r : seg) per_rank[r.rank] += 1;
  });
  EXPECT_EQ(seen, expected);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_rank[t], uint64_t{kBatches} * kBatchLen) << t;
  }
}

TEST(ShardedCollector, OverflowDropsOldestAndCounts) {
  Collector c(CollectorConfig{.shards = 2, .shard_capacity = 100});
  std::vector<SliceRecord> batch;
  for (int i = 0; i < 300; ++i) {
    batch.push_back(make_record(0, 0, i * 1e-3, 100e-6));
  }
  c.ingest(batch);  // all 300 map to shard 0; only 100 fit
  EXPECT_EQ(c.ingested_records(), 300u);
  EXPECT_EQ(c.dropped_records(), 200u);
  EXPECT_EQ(c.record_count(), 100u);
  // Backpressure keeps the newest records (streaming detection wants the
  // present, not the past).
  double oldest = 1e9;
  c.visit_records([&](std::span<const SliceRecord> seg) {
    for (const auto& r : seg) oldest = std::min(oldest, r.t_begin);
  });
  EXPECT_DOUBLE_EQ(oldest, 200 * 1e-3);
  // The wire-volume accounting still reflects everything shipped.
  EXPECT_EQ(c.bytes_received(), 300 * kRecordWireBytes);
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

TEST(ShardedCollector, NegativeSensorIdGoesToShardZero) {
  Collector c(CollectorConfig{.shards = 4, .shard_capacity = 16});
  std::vector<SliceRecord> batch{make_record(-1, 0, 0.0, 1e-6)};
  c.ingest(batch);
  EXPECT_EQ(c.record_count(), 1u);
}

}  // namespace
}  // namespace vsensor::rt
