// Sharded analysis tier: rank-partitioned routing across N crash-tolerant
// AnalysisServer shards with a standards exchange and a hierarchical merge
// of per-shard StreamingDetector snapshots. Headline invariant — the
// N-shard merged result (matrices, variance events, flag counters, stale
// sets) is bit-identical to a single server fed the same deterministic
// delivery sequence, for N in {2, 4, 8}, for every evaluation mini-app,
// and under per-shard crash/recover schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_" + name;
}

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

/// One simulated delivery (same shape as the recovery tests).
struct Delivery {
  int rank;
  uint64_t seq;
  std::vector<SliceRecord> records;
  double now;
};

/// Deterministic multi-rank stream: two sensors, slow slices, dynamic-rule
/// metric groups, degenerate records, cross-rank shuffle, ~10% duplicate
/// re-deliveries. Identical to the recovery suite's generator so the two
/// files exercise the same fault surface.
std::vector<Delivery> make_stream(uint64_t seed, int ranks, double T) {
  Rng rng(seed);
  std::vector<Delivery> stream;
  for (int rank = 0; rank < ranks; ++rank) {
    const int batches = 6 + static_cast<int>(rng.next_below(7));
    double t = 0.0;
    for (int b = 0; b < batches; ++b) {
      Delivery d;
      d.rank = rank;
      d.seq = static_cast<uint64_t>(b);
      const int n = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < n; ++i) {
        t += T / (static_cast<double>(batches) * 4.0);
        const int sensor = static_cast<int>(rng.next_below(2));
        double avg = 1e-4 * (1.0 + 0.1 * static_cast<double>(rng.next_below(10)));
        if (rng.next_below(5) == 0) avg *= 2.5;
        if (rng.next_below(23) == 0) avg = 0.0;
        const double metric = rng.next_below(4) == 0 ? 0.9 : 0.1;
        d.records.push_back(make_record(sensor, rank, t, avg, metric));
      }
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
  }
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }
  const size_t dups = stream.size() / 10 + 1;
  for (size_t i = 0; i < dups; ++i) {
    Delivery d = stream[rng.next_below(stream.size())];
    d.now = T;
    stream.push_back(std::move(d));
  }
  return stream;
}

/// Single-server reference: collector + detector + crash-tolerant server.
struct ServerRig {
  Collector collector;
  StreamingDetector detector;
  AnalysisServer server;

  ServerRig(const std::string& tag, std::vector<SensorInfo> sensors, int ranks,
            double T, const DetectorConfig& dcfg)
      : detector(dcfg, sensors, ranks, T),
        server(make_server_cfg(tag), &collector, &detector) {
    collector.set_sensors(sensors);
    collector.attach_sink(&detector);
  }

  static ServerConfig make_server_cfg(const std::string& tag) {
    ServerConfig cfg;
    cfg.journal_path = tmp_path(tag + ".wal");
    cfg.checkpoint_path = tmp_path(tag + ".ckpt");
    cfg.checkpoint_every_batches = 4;
    std::remove(cfg.checkpoint_path.c_str());
    return cfg;
  }
};

ShardedTierConfig make_tier_cfg(const std::string& tag, int shards,
                                const DetectorConfig& dcfg) {
  ShardedTierConfig cfg;
  cfg.shards = shards;
  cfg.journal_path = tmp_path(tag + ".wal");
  cfg.checkpoint_path = tmp_path(tag + ".ckpt");
  cfg.checkpoint_every_batches = 4;
  cfg.detector = dcfg;
  // No stale on-disk state from a previous test run.
  for (int k = 0; k < shards; ++k) {
    const std::string suffix = ".shard" + std::to_string(k);
    std::remove((cfg.checkpoint_path + suffix).c_str());
  }
  return cfg;
}

/// Exact double compares, no tolerance anywhere.
void expect_bit_identical(const AnalysisResult& a, const AnalysisResult& b) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& ma = a.matrices[static_cast<size_t>(t)];
    const auto& mb = b.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(ma.ranks(), mb.ranks());
    ASSERT_EQ(ma.buckets(), mb.buckets());
    for (int r = 0; r < ma.ranks(); ++r) {
      for (int c = 0; c < ma.buckets(); ++c) {
        ASSERT_EQ(ma.has(r, c), mb.has(r, c)) << "cell " << r << "," << c;
        if (ma.has(r, c)) {
          ASSERT_EQ(ma.at(r, c), mb.at(r, c)) << "cell " << r << "," << c;
        }
      }
    }
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].type, b.events[i].type) << i;
    EXPECT_EQ(a.events[i].rank_begin, b.events[i].rank_begin) << i;
    EXPECT_EQ(a.events[i].rank_end, b.events[i].rank_end) << i;
    EXPECT_EQ(a.events[i].cells, b.events[i].cells) << i;
    EXPECT_EQ(a.events[i].t_begin, b.events[i].t_begin) << i;
    EXPECT_EQ(a.events[i].t_end, b.events[i].t_end) << i;
    EXPECT_EQ(a.events[i].severity, b.events[i].severity) << i;
  }
  EXPECT_EQ(a.stale_ranks, b.stale_ranks);
}

/// The acceptance surface: matrices, events, flag counters, stale sets.
void expect_tier_matches_reference(const ShardedAnalysisTier& tier,
                                   const ServerRig& ref) {
  expect_bit_identical(ref.detector.finalize(), tier.finalize());
  const auto merged = tier.merged_snapshot();
  EXPECT_EQ(merged.intra_flags, ref.detector.intra_flags());
  EXPECT_EQ(merged.inter_flags, ref.detector.inter_flags());
  EXPECT_EQ(merged.observed, ref.detector.observed_records());
  EXPECT_EQ(merged.stale_records, ref.detector.stale_records());
  EXPECT_EQ(merged.degenerate_records, ref.detector.degenerate_records());
  const auto ref_snap = ref.detector.snapshot();
  EXPECT_EQ(merged.stale, ref_snap.stale);
  EXPECT_EQ(merged.standard, ref_snap.standard);
  EXPECT_EQ(merged.rank_standard, ref_snap.rank_standard);
  EXPECT_EQ(merged.sensor_records, ref_snap.sensor_records);
}

// ---------------------------------------------------------- merge unit

TEST(ShardedTier, MergeFromCombinesDisjointRankPartitions) {
  const int ranks = 4;
  const double T = 0.05;
  const auto sensors = two_sensors();
  const auto dcfg = tight_cfg();

  // One detector sees everything; two others split the same records by
  // rank parity. The merge of the split pair must reproduce the whole.
  StreamingDetector whole(dcfg, sensors, ranks, T);
  StreamingDetector even(dcfg, sensors, ranks, T);
  StreamingDetector odd(dcfg, sensors, ranks, T);

  const auto stream = make_stream(/*seed=*/41, ranks, T);
  for (const auto& d : stream) {
    whole.observe(d.records);
    (d.rank % 2 == 0 ? even : odd).observe(d.records);
  }
  whole.mark_stale(3);
  odd.mark_stale(3);

  StreamingDetector pair(dcfg, sensors, ranks, T);
  pair.merge_from(even);
  pair.merge_from(odd);
  const auto merged = pair.snapshot();
  const auto ref = whole.snapshot();

  EXPECT_EQ(merged.standard, ref.standard);
  EXPECT_EQ(merged.rank_standard, ref.rank_standard);
  EXPECT_EQ(merged.stale, ref.stale);
  EXPECT_EQ(merged.observed, ref.observed);
  EXPECT_EQ(merged.degenerate_records, ref.degenerate_records);
  EXPECT_EQ(merged.sensor_records, ref.sensor_records);
  ASSERT_EQ(merged.cells.size(), ref.cells.size());
  for (const auto& [key, sums] : ref.cells) {
    const auto it = merged.cells.find(key);
    ASSERT_NE(it, merged.cells.end());
    // Disjoint rank partition: each cell lives in exactly one input, so
    // the sums survive bit for bit.
    EXPECT_EQ(it->second.weight, sums.weight);
    EXPECT_EQ(it->second.weight_over_avg, sums.weight_over_avg);
  }
  EXPECT_EQ(merged.last.size(), ref.last.size());
  // Welford state pools via Chan's formula over the two inputs. (It is NOT
  // compared against `whole`: normalization uses the standard known at each
  // record's arrival, and the split detectors — which exchange no standards
  // in this unit test — saw different boards than the whole one. The tier
  // closes that gap with its standards exchange; see the tier tests.)
  const auto se = even.snapshot();
  const auto so = odd.snapshot();
  ASSERT_EQ(merged.stats.size(), se.stats.size());
  for (size_t s = 0; s < merged.stats.size(); ++s) {
    const auto& x = se.stats[s];
    const auto& y = so.stats[s];
    const auto n = static_cast<double>(x.count + y.count);
    EXPECT_EQ(merged.stats[s].count, x.count + y.count);
    if (x.count + y.count == 0) continue;
    const double pooled_mean = (x.mean * static_cast<double>(x.count) +
                                y.mean * static_cast<double>(y.count)) / n;
    EXPECT_NEAR(merged.stats[s].mean, pooled_mean, 1e-12);
    const double dx = x.mean - pooled_mean;
    const double dy = y.mean - pooled_mean;
    const double pooled_m2 = x.m2 + y.m2 +
                             dx * dx * static_cast<double>(x.count) +
                             dy * dy * static_cast<double>(y.count);
    EXPECT_NEAR(merged.stats[s].m2, pooled_m2, 1e-9);
  }

  // The merged detector yields the whole detector's analysis.
  expect_bit_identical(whole.finalize(), pair.finalize());

  // Two detectors that both hold a row of one rank, or of another shape,
  // do not merge, and the refused merge leaves the target as it was.
  StreamingDetector target(dcfg, sensors, ranks, T);
  target.merge_from(even);
  const auto before = target.snapshot();
  EXPECT_THROW(target.merge_from(whole), Error);
  EXPECT_THROW(target.merge_from(even), Error);
  EXPECT_THROW(target.merge_from(target), Error);
  StreamingDetector wider(dcfg, sensors, ranks + 1, T);
  StreamingDetector longer(dcfg, sensors, ranks, 2 * T);
  StreamingDetector narrower(dcfg, {sensors.front()}, ranks, T);
  EXPECT_THROW(target.merge_from(wider), Error);
  EXPECT_THROW(target.merge_from(longer), Error);
  EXPECT_THROW(target.merge_from(narrower), Error);
  const auto after = target.snapshot();
  EXPECT_EQ(after.standard, before.standard);
  EXPECT_EQ(after.rank_standard, before.rank_standard);
  EXPECT_EQ(after.cells.size(), before.cells.size());
  EXPECT_EQ(after.observed, before.observed);
}

// ------------------------------------------- sharded vs single server

TEST(ShardedTier, MergedResultBitIdenticalToSingleServer) {
  const int ranks = 8;
  const double T = 0.05;
  const auto dcfg = tight_cfg();

  for (const int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const auto stream = make_stream(/*seed=*/7 + shards, ranks, T);

    ServerRig ref("tier_ref" + std::to_string(shards), two_sensors(), ranks, T,
                  dcfg);
    ShardedAnalysisTier tier(
        make_tier_cfg("tier_n" + std::to_string(shards), shards, dcfg),
        two_sensors(), ranks, T);

    for (const auto& d : stream) {
      ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
      tier.on_delivery(d.rank, d.seq, d.records, d.now);
    }
    // A mid-stream stale verdict routes to the owning shard only.
    ref.server.mark_stale(ranks - 1);
    tier.mark_stale(ranks - 1);

    expect_tier_matches_reference(tier, ref);
    // The dedup watermark is per rank, so duplicates in the stream were
    // swallowed by the same shard that owns the rank.
    uint64_t tier_dups = 0;
    for (int k = 0; k < shards; ++k) {
      tier_dups += tier.server(k).duplicate_deliveries();
    }
    EXPECT_EQ(tier_dups, ref.server.duplicate_deliveries());
    EXPECT_GT(tier.broadcast_updates(), 0u);
  }
}

TEST(ShardedTier, PerShardCrashRecoveryStaysBitIdentical) {
  const int ranks = 8;
  const int shards = 4;
  const double T = 0.05;
  const auto dcfg = tight_cfg();
  const auto stream = make_stream(/*seed=*/99, ranks, T);

  ServerRig ref("crash_ref", two_sensors(), ranks, T, dcfg);
  ShardedAnalysisTier tier(make_tier_cfg("crash_tier", shards, dcfg),
                           two_sensors(), ranks, T);
  // Staggered per-shard crash schedules: shard 0 crashes twice, shard 2
  // once, the rest run clean — recovery is independent per shard.
  tier.set_crash_plan(0, {T * 0.25, T * 0.75}, /*seed=*/0xBAD5EED);
  tier.set_crash_plan(2, {T * 0.5}, /*seed=*/0x5EED);

  for (const auto& d : stream) {
    ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
    tier.on_delivery(d.rank, d.seq, d.records, d.now);
  }

  EXPECT_EQ(ref.server.crashes(), 0u);
  EXPECT_GE(tier.server(0).crashes(), 1u);
  EXPECT_GE(tier.server(2).crashes(), 1u);
  EXPECT_EQ(tier.server(1).crashes(), 0u);
  expect_tier_matches_reference(tier, ref);
}

TEST(ShardedTier, AllShardsCrashingStaysBitIdentical) {
  const int ranks = 8;
  const int shards = 2;
  const double T = 0.05;
  const auto dcfg = tight_cfg();
  const auto stream = make_stream(/*seed=*/123, ranks, T);

  ServerRig ref("allcrash_ref", two_sensors(), ranks, T, dcfg);
  ShardedAnalysisTier tier(make_tier_cfg("allcrash_tier", shards, dcfg),
                           two_sensors(), ranks, T);
  tier.set_crash_plan({T * 0.3, T * 0.6}, /*seed=*/0xC0FFEE);

  for (const auto& d : stream) {
    ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
    tier.on_delivery(d.rank, d.seq, d.records, d.now);
  }
  for (int k = 0; k < shards; ++k) {
    EXPECT_GE(tier.server(k).crashes(), 1u) << "shard " << k;
  }
  expect_tier_matches_reference(tier, ref);
}

// ------------------------------------------------- routing & plumbing

TEST(ShardedTier, RoutesByRankModuloAndSuffixesShardPaths) {
  const int ranks = 8;
  const int shards = 4;
  const double T = 0.05;
  ShardedAnalysisTier tier(make_tier_cfg("routing", shards, tight_cfg()),
                           two_sensors(), ranks, T);

  for (int rank = 0; rank < ranks; ++rank) {
    EXPECT_EQ(tier.shard_of(rank), rank % shards);
    const std::vector<SliceRecord> batch{
        make_record(0, rank, 1e-3 * rank, 2e-4)};
    tier.on_delivery(rank, 0, batch, 1e-3 * rank + 1e-3);
  }

  uint64_t total = 0;
  for (int k = 0; k < shards; ++k) {
    // 8 ranks across 4 shards: each shard owns exactly 2.
    EXPECT_EQ(tier.routed_batches(k), 2u) << "shard " << k;
    EXPECT_EQ(tier.routed_records(k), 2u) << "shard " << k;
    total += tier.routed_records(k);
    const auto& cfg = tier.server(k).config();
    const std::string suffix = ".shard" + std::to_string(k);
    ASSERT_GE(cfg.journal_path.size(), suffix.size());
    EXPECT_EQ(cfg.journal_path.substr(cfg.journal_path.size() - suffix.size()),
              suffix);
    EXPECT_EQ(
        cfg.checkpoint_path.substr(cfg.checkpoint_path.size() - suffix.size()),
        suffix);
  }
  EXPECT_EQ(total, tier.total_routed_records());
}

// --------------------------------------- mini-app replays, N in {2,4,8}

/// Turn one mini-app's collected records into a deterministic delivery
/// stream: group by rank, preserve per-rank time order, batch, and
/// interleave round-robin. Replaying one stream into every configuration
/// removes thread-arrival nondeterminism from the comparison.
std::vector<Delivery> stream_from_records(std::vector<SliceRecord> records,
                                          int ranks) {
  std::stable_sort(records.begin(), records.end(),
                   [](const SliceRecord& a, const SliceRecord& b) {
                     return a.t_begin < b.t_begin;
                   });
  std::vector<std::vector<SliceRecord>> by_rank(static_cast<size_t>(ranks));
  for (const auto& r : records) {
    by_rank[static_cast<size_t>(r.rank)].push_back(r);
  }
  constexpr size_t kBatch = 4;
  std::vector<Delivery> stream;
  std::vector<size_t> cursor(static_cast<size_t>(ranks), 0);
  std::vector<uint64_t> seq(static_cast<size_t>(ranks), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (int rank = 0; rank < ranks; ++rank) {
      auto& pos = cursor[static_cast<size_t>(rank)];
      const auto& src = by_rank[static_cast<size_t>(rank)];
      if (pos >= src.size()) continue;
      progressed = true;
      Delivery d;
      d.rank = rank;
      d.seq = seq[static_cast<size_t>(rank)]++;
      const size_t n = std::min(kBatch, src.size() - pos);
      d.records.assign(src.begin() + static_cast<long>(pos),
                       src.begin() + static_cast<long>(pos + n));
      pos += n;
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
  }
  return stream;
}

TEST(ShardedTier, EveryMiniAppBitIdenticalAcrossShardCounts) {
  const int ranks = 8;
  workloads::RunOptions opts;
  opts.params.iterations = 4;
  opts.params.scale = 0.05;
  opts.runtime.batch_records = 8;

  for (const auto& app : workloads::make_all_workloads()) {
    SCOPED_TRACE(app->name());
    auto cfg = workloads::baseline_config(ranks);
    cfg.ranks_per_node = 4;
    Collector collected;
    const auto run = workloads::run_workload(*app, cfg, opts, &collected);
    ASSERT_GT(run.makespan, 0.0);
    ASSERT_GT(collected.record_count(), 0u);

    DetectorConfig dcfg;
    dcfg.matrix_resolution = run.makespan / 20.0;
    dcfg.min_records = 1;
    const auto stream = stream_from_records(collected.records(), ranks);

    ServerRig ref("app_" + app->name(), app->sensors(), ranks, run.makespan,
                  dcfg);
    for (const auto& d : stream) {
      ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
    }

    // Crash point anchored to rank 0's actual deliveries (every shard
    // count puts rank 0 in shard 0): the median one's arrival time, so
    // the crash is guaranteed to trigger mid-stream on every mini-app.
    std::vector<double> rank0_nows;
    for (const auto& d : stream) {
      if (d.rank == 0) rank0_nows.push_back(d.now);
    }
    ASSERT_FALSE(rank0_nows.empty());
    const double crash_at = rank0_nows[rank0_nows.size() / 2];

    for (const int shards : {2, 4, 8}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      ShardedAnalysisTier tier(
          make_tier_cfg("app_" + app->name() + std::to_string(shards), shards,
                        dcfg),
          app->sensors(), ranks, run.makespan);
      // Shard 0 crashes mid-run in every configuration: the acceptance
      // criterion includes per-shard crash schedules on every mini-app.
      tier.set_crash_plan(0, {crash_at}, /*seed=*/0xABCD);
      for (const auto& d : stream) {
        tier.on_delivery(d.rank, d.seq, d.records, d.now);
      }
      EXPECT_GE(tier.server(0).crashes(), 1u);
      expect_tier_matches_reference(tier, ref);
    }
  }
}

// ----------------------------------------------- workload integration

TEST(ShardedTier, WorkloadRunRoutesThroughTier) {
  const auto cg = workloads::make_workload("CG");
  const int ranks = 8;
  const int shards = 4;
  auto cfg = workloads::baseline_config(ranks);
  cfg.ranks_per_node = 4;

  workloads::RunOptions opts;
  opts.params.iterations = 6;
  opts.params.scale = 0.08;
  opts.runtime.batch_records = 8;

  // Probe run for the makespan (the tier's analysis horizon).
  Collector probe;
  const auto probe_run = workloads::run_workload(*cg, cfg, opts, &probe);
  ASSERT_GT(probe_run.makespan, 0.0);

  DetectorConfig dcfg;
  dcfg.matrix_resolution = probe_run.makespan / 20.0;
  dcfg.min_records = 1;
  ShardedAnalysisTier tier(make_tier_cfg("wl_tier", shards, dcfg),
                           cg->sensors(), ranks, probe_run.makespan);
  const auto run = workloads::run_workload(*cg, cfg, opts, &tier);
  ASSERT_GT(run.makespan, 0.0);

  // Every delivered record was routed to exactly one shard.
  EXPECT_EQ(tier.total_routed_records(), run.transport_totals.records_delivered);
  EXPECT_GT(tier.total_routed_records(), 0u);
  uint64_t folded = 0;
  for (int k = 0; k < shards; ++k) {
    folded += tier.server(k).delivered_batches();
    EXPECT_GT(tier.routed_batches(k), 0u) << "shard " << k;
  }
  EXPECT_EQ(folded, run.transport_totals.batches_delivered);
  // The merged analysis is well-formed and saw every folded record.
  EXPECT_EQ(tier.merged_snapshot().observed,
            run.transport_totals.records_delivered);
  const auto result = tier.finalize();
  EXPECT_EQ(result.ranks, ranks);
  EXPECT_TRUE(run.stale_ranks.empty());
}

}  // namespace
}  // namespace vsensor::rt
