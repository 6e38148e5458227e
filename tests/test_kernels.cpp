// Kernel workload family under hostile scenarios — the bug-shaking
// harness. Every kernel (DGEMM, STREAM, SHA256, CAPACITY) is swept through
// every hostile scenario (multi-tenant interference, diurnal load swings,
// elastic ranks) and each combination must hold four invariants at once:
//  * streaming detection == batch detection at finalize;
//  * the N-shard analysis tier is bit-identical to a single server fed the
//    same delivery stream, for N in {1, 2, 4};
//  * the record stream is byte-identical across same-seed replays;
//  * attaching the observability plane changes no detection output.
// Plus the scenario-injector validation regressions (rank ranges must be
// checked against config.ranks) and the CAPACITY kernel's dynamic-rule
// grouping contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "ir/ir.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/streaming_detector.hpp"
#include "workloads/kernels.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_" + name;
}

workloads::RunOptions quick_options() {
  workloads::RunOptions opts;
  opts.params.iterations = 5;
  opts.params.scale = 0.05;
  opts.runtime.batch_records = 8;  // many small batches: more wire traffic
  return opts;
}

/// One simulated delivery (same shape as the sharded-tier suite).
struct Delivery {
  int rank;
  uint64_t seq;
  std::vector<SliceRecord> records;
  double now;
};

/// Turn collected records into a deterministic delivery stream: group by
/// rank, preserve per-rank time order, batch, interleave round-robin.
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

/// Canonical record order. The collector stores records shard-major in
/// wall-clock arrival order, which thread scheduling is free to permute
/// between runs; only the per-(rank, sensor) subsequences are
/// deterministic (FIFO delivery, virtual-time slicing). A stable sort by
/// (rank, sensor) preserves exactly those subsequences, so two runs are
/// byte-identical iff their canonical forms are.
std::vector<SliceRecord> canonical(std::vector<SliceRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const SliceRecord& a, const SliceRecord& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.sensor_id < b.sensor_id;
                   });
  return records;
}

/// Byte-for-byte record equality: every field, exact float compares.
void expect_records_identical(const std::vector<SliceRecord>& a,
                              const std::vector<SliceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sensor_id, b[i].sensor_id) << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << i;
    EXPECT_EQ(a[i].t_begin, b[i].t_begin) << i;
    EXPECT_EQ(a[i].t_end, b[i].t_end) << i;
    EXPECT_EQ(a[i].avg_duration, b[i].avg_duration) << i;
    EXPECT_EQ(a[i].min_duration, b[i].min_duration) << i;
    EXPECT_EQ(a[i].count, b[i].count) << i;
    EXPECT_EQ(a[i].metric, b[i].metric) << i;
  }
}

/// Streaming-vs-batch contract, at the strictness the streaming suite
/// established: cells and severities to 1e-12 (the two paths accumulate
/// per-cell sums in per-cell-identical order, but the batch path iterates
/// collector shard-major order, so cross-cell fp scheduling may differ),
/// everything discrete exactly equal.
void expect_streaming_matches_batch(const AnalysisResult& batch,
                                    const AnalysisResult& streaming) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& bm = batch.matrices[static_cast<size_t>(t)];
    const auto& sm = streaming.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(bm.ranks(), sm.ranks());
    ASSERT_EQ(bm.buckets(), sm.buckets());
    for (int r = 0; r < bm.ranks(); ++r) {
      for (int b = 0; b < bm.buckets(); ++b) {
        ASSERT_EQ(bm.has(r, b), sm.has(r, b)) << "cell " << r << "," << b;
        if (bm.has(r, b)) {
          EXPECT_NEAR(bm.at(r, b), sm.at(r, b), 1e-12)
              << "cell " << r << "," << b;
        }
      }
    }
  }
  ASSERT_EQ(batch.events.size(), streaming.events.size());
  for (size_t i = 0; i < batch.events.size(); ++i) {
    EXPECT_EQ(batch.events[i].type, streaming.events[i].type) << i;
    EXPECT_EQ(batch.events[i].rank_begin, streaming.events[i].rank_begin) << i;
    EXPECT_EQ(batch.events[i].rank_end, streaming.events[i].rank_end) << i;
    EXPECT_EQ(batch.events[i].cells, streaming.events[i].cells) << i;
    EXPECT_NEAR(batch.events[i].severity, streaming.events[i].severity, 1e-12)
        << i;
  }
  EXPECT_EQ(batch.stale_ranks, streaming.stale_ranks);
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
  for (int k = 0; k < shards; ++k) {
    const std::string suffix = ".shard" + std::to_string(k);
    std::remove((cfg.checkpoint_path + suffix).c_str());
  }
  return cfg;
}

const std::vector<std::string> kScenarios = {"tenant", "diurnal", "elastic"};

/// Apply one named hostile scenario. Pure in (config, horizon): the same
/// call always yields the same injected windows / elastic plan.
void apply_scenario(const std::string& name, simmpi::Config& cfg, int ranks,
                    double horizon) {
  if (name == "tenant") {
    workloads::inject_tenant_interference(cfg, 0, ranks / 2 - 1,
                                          0.15 * horizon, 0.5 * horizon,
                                          /*seed=*/17);
  } else if (name == "diurnal") {
    workloads::inject_diurnal_load(cfg, /*period=*/0.6 * horizon,
                                   /*amplitude=*/0.4, /*run_horizon=*/
                                   2.5 * horizon);
  } else if (name == "elastic") {
    workloads::inject_elastic_ranks(cfg, /*seed=*/23, /*count=*/2,
                                    /*leave_at=*/0.3 * horizon,
                                    /*absence=*/0.25 * horizon,
                                    /*stagger=*/0.05 * horizon);
  } else {
    FAIL() << "unknown scenario " << name;
  }
}

// ---------------------------------------------------------------- family

TEST(Kernels, AllFourExistAndResolveByName) {
  const auto kernels = workloads::make_kernel_workloads();
  ASSERT_EQ(kernels.size(), 4u);
  std::vector<std::string> names;
  for (const auto& k : kernels) names.push_back(k->name());
  const std::vector<std::string> expected{"DGEMM", "STREAM", "SHA256",
                                          "CAPACITY"};
  EXPECT_EQ(names, expected);
  // make_workload searches both families; the Table-1 list is untouched.
  for (const auto& name : expected) {
    EXPECT_EQ(workloads::make_workload(name)->name(), name);
  }
  EXPECT_EQ(workloads::make_all_workloads().size(), 8u);
}

TEST(Kernels, EveryKernelMinicModelParsesAndAnalyzes) {
  // Same static-pipeline contract as the eight applications: every kernel
  // model must survive parse → sema → lower → analyze and yield snippets.
  for (const auto& name : {"DGEMM", "STREAM", "SHA256", "CAPACITY"}) {
    SCOPED_TRACE(name);
    const auto w = workloads::make_workload(name);
    minic::Program program;
    ASSERT_NO_THROW(program = minic::parse(w->minic_source()));
    ASSERT_NO_THROW(minic::run_sema(program));
    const auto ir = ir::lower(program);
    const auto result = analysis::analyze(ir);
    EXPECT_GT(result.snippet_count(), 0) << name;
    EXPECT_FALSE(w->sensors().empty());
    EXPECT_GT(w->paper_kloc(), 0.0);
  }
}

// ----------------------------------------------- injector validation bug

TEST(Scenarios, InjectNoiserRejectsRankRangeOutsideJob) {
  auto cfg = workloads::baseline_config(8);
  cfg.ranks_per_node = 4;
  // Regression: these used to silently add noise windows for nodes no rank
  // lives on (or crash later), because the range was never validated.
  EXPECT_THROW(workloads::inject_noiser(cfg, 0, 8, 0.0, 1.0), Error);
  EXPECT_THROW(workloads::inject_noiser(cfg, -1, 3, 0.0, 1.0), Error);
  EXPECT_THROW(workloads::inject_noiser(cfg, 4, 100, 0.0, 1.0), Error);
  EXPECT_NO_THROW(workloads::inject_noiser(cfg, 0, 7, 0.0, 1.0));
}

TEST(Scenarios, BackgroundNoiseRejectsUnconfiguredJob) {
  simmpi::Config cfg;
  cfg.ranks = 0;  // no job size to derive nodes from
  EXPECT_THROW(workloads::apply_background_noise(cfg, 1, 0, 1.0), Error);
  cfg.ranks = 8;
  cfg.ranks_per_node = 0;
  EXPECT_THROW(workloads::apply_background_noise(cfg, 1, 0, 1.0), Error);
}

TEST(Scenarios, HostileInjectorsValidateTheirArguments) {
  auto cfg = workloads::baseline_config(8);
  cfg.ranks_per_node = 4;
  EXPECT_THROW(workloads::inject_tenant_interference(cfg, 0, 8, 0.0, 1.0, 1),
               Error);
  EXPECT_THROW(workloads::inject_tenant_interference(cfg, -2, 3, 0.0, 1.0, 1),
               Error);
  EXPECT_THROW(workloads::inject_diurnal_load(cfg, 0.0, 0.4, 1.0), Error);
  EXPECT_THROW(workloads::inject_diurnal_load(cfg, 1.0, 1.5, 1.0), Error);
  EXPECT_THROW(workloads::inject_elastic_ranks(cfg, 1, 9, 0.1, 0.1), Error);
  EXPECT_THROW(workloads::inject_elastic_ranks(cfg, 1, 0, 0.1, 0.1), Error);
}

TEST(Scenarios, ElasticPlanDrawsDistinctRanksDeterministically) {
  auto a = workloads::baseline_config(8);
  auto b = workloads::baseline_config(8);
  workloads::inject_elastic_ranks(a, /*seed=*/5, /*count=*/4, 0.1, 0.2);
  workloads::inject_elastic_ranks(b, /*seed=*/5, /*count=*/4, 0.1, 0.2);
  ASSERT_EQ(a.elastic.size(), 4u);
  std::vector<int> ranks;
  for (size_t i = 0; i < a.elastic.size(); ++i) {
    EXPECT_EQ(a.elastic[i].rank, b.elastic[i].rank) << i;
    EXPECT_EQ(a.elastic[i].leave_at, b.elastic[i].leave_at) << i;
    EXPECT_EQ(a.elastic[i].rejoin_at, b.elastic[i].rejoin_at) << i;
    EXPECT_GE(a.elastic[i].rank, 0);
    EXPECT_LT(a.elastic[i].rank, 8);
    ranks.push_back(a.elastic[i].rank);
  }
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(std::unique(ranks.begin(), ranks.end()), ranks.end());
}

// -------------------------------------------- the hostile sweep itself

TEST(Kernels, HostileSweepHoldsAllDetectionInvariants) {
  const int ranks = 8;

  for (const auto& kernel : workloads::make_kernel_workloads()) {
    // Probe run on a clean config: calibrates the scenario windows and the
    // analysis horizon for this kernel.
    auto probe_cfg = workloads::baseline_config(ranks);
    probe_cfg.ranks_per_node = 4;
    Collector probe;
    const auto probe_run =
        workloads::run_workload(*kernel, probe_cfg, quick_options(), &probe);
    const double T = probe_run.makespan;
    ASSERT_GT(T, 0.0) << kernel->name();
    ASSERT_GT(probe.record_count(), 0u) << kernel->name();

    for (const auto& scenario : kScenarios) {
      SCOPED_TRACE(kernel->name() + "/" + scenario);

      DetectorConfig dcfg;
      dcfg.matrix_resolution = T / 20.0;
      dcfg.min_records = 1;
      dcfg.metric_bucket_width = 0.1;  // CAPACITY's classes group apart

      auto make_cfg = [&] {
        auto cfg = workloads::baseline_config(ranks);
        cfg.ranks_per_node = 4;
        apply_scenario(scenario, cfg, ranks, T);
        return cfg;
      };

      // Run A: streaming detection attached as the collector sink.
      Collector collected;
      collected.set_sensors(kernel->sensors());
      StreamingDetector streaming(dcfg, kernel->sensors(), ranks, T);
      collected.attach_sink(&streaming);
      const auto run =
          workloads::run_workload(*kernel, make_cfg(), quick_options(),
                                  &collected);
      ASSERT_GT(run.makespan, 0.0);
      ASSERT_GT(collected.record_count(), 0u);
      if (scenario == "elastic") {
        // The plan executed: departed ranks accrued idle time and nobody
        // was left reported stale after rejoining.
        double idle = 0.0;
        for (const auto& st : run.mpi.ranks) idle += st.idle_time;
        EXPECT_GT(idle, 0.0);
        EXPECT_TRUE(run.stale_ranks.empty());
      }

      // Invariant 1 — same-seed replay is byte-identical.
      Collector replay;
      replay.set_sensors(kernel->sensors());
      const auto rerun =
          workloads::run_workload(*kernel, make_cfg(), quick_options(),
                                  &replay);
      EXPECT_EQ(rerun.makespan, run.makespan);
      expect_records_identical(canonical(collected.records()),
                               canonical(replay.records()));

      // Invariant 2 — obs plane on/off changes nothing: a run with the
      // health sampler and event log attached produces the identical
      // record stream and detection output.
      Collector observed;
      observed.set_sensors(kernel->sensors());
      StreamingDetector obs_streaming(dcfg, kernel->sensors(), ranks, T);
      observed.attach_sink(&obs_streaming);
      obs::HealthSampler health;
      obs::EventLog events;
      obs_streaming.set_event_hooks(obs::EventHooks{&events, nullptr, -1});
      health.add_source("collector", &observed);
      health.add_source("detector", &obs_streaming);
      auto obs_opts = quick_options();
      obs_opts.health = &health;
      const auto obs_run =
          workloads::run_workload(*kernel, make_cfg(), obs_opts, &observed);
      EXPECT_EQ(obs_run.makespan, run.makespan);
      expect_records_identical(canonical(collected.records()),
                               canonical(observed.records()));
      expect_bit_identical(streaming.finalize(), obs_streaming.finalize());
      // The plane really was attached: every flag and stale verdict became
      // one event, and the sampler took snapshots.
      EXPECT_EQ(events.total_emitted(),
                obs_streaming.intra_flags() + obs_streaming.inter_flags() +
                    obs_streaming.stale_ranks().size());
      EXPECT_GT(health.snapshot_count(), 0u);

      // Invariant 3 — streaming == batch at finalize, over exactly the
      // ranks the streaming side still trusts.
      const Detector detector(dcfg);
      const auto kept =
          drop_stale_ranks(collected.records(), run.stale_ranks);
      auto batch =
          detector.analyze_records(kept, kernel->sensors(), ranks, T);
      batch.stale_ranks = run.stale_ranks;
      expect_streaming_matches_batch(batch, streaming.finalize());

      // Invariant 4 — N-shard tier bit-identical to a single server fed
      // the same deterministic delivery stream, N in {1, 2, 4}.
      const auto stream = stream_from_records(collected.records(), ranks);
      ServerRig ref("k_" + kernel->name() + scenario, kernel->sensors(),
                    ranks, T, dcfg);
      for (const auto& d : stream) {
        ref.server.on_delivery(d.rank, d.seq, d.records, d.now);
      }
      expect_bit_identical(streaming.finalize(), ref.detector.finalize());
      for (const int shards : {1, 2, 4}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        ShardedAnalysisTier tier(
            make_tier_cfg("k_" + kernel->name() + scenario +
                              std::to_string(shards),
                          shards, dcfg),
            kernel->sensors(), ranks, T);
        for (const auto& d : stream) {
          tier.on_delivery(d.rank, d.seq, d.records, d.now);
        }
        expect_bit_identical(ref.detector.finalize(), tier.finalize());
      }
    }
  }
}

// ----------------------------------------- CAPACITY dynamic-rule grouping

TEST(Kernels, CapacityClassesGroupApartUnderDynamicRules) {
  const int ranks = 4;
  const auto capacity = workloads::make_workload("CAPACITY");
  auto cfg = workloads::baseline_config(ranks);
  cfg.ranks_per_node = 4;
  cfg.nodes = {};  // no OS jitter: isolate the working-set effect

  Collector collected;
  collected.set_sensors(capacity->sensors());
  auto opts = quick_options();
  // Slices shorter than one walk: each record carries a single class's
  // pure miss rate instead of a slice-averaged blend.
  opts.runtime.slice_seconds = 1e-5;
  const auto run =
      workloads::run_workload(*capacity, cfg, opts, &collected);
  ASSERT_GT(collected.record_count(), 0u);

  // With dynamic rules on, each miss-rate class gets its own standard
  // time: a healthy machine shows no intra-process variance.
  DetectorConfig grouped;
  grouped.matrix_resolution = run.makespan / 20.0;
  grouped.min_records = 1;
  grouped.metric_bucket_width = 0.1;
  const auto with_rules =
      Detector(grouped).analyze_records(collected.records(),
                                        capacity->sensors(), ranks,
                                        run.makespan);
  EXPECT_TRUE(with_rules.flagged.empty());

  // With grouping off, the DRAM class (4x the L1 class's duration) reads
  // as severe variance on the very same healthy run — the false positive
  // the paper's dynamic rules exist to kill (§5.3, Fig 13).
  DetectorConfig flat = grouped;
  flat.metric_bucket_width = 0.0;
  const auto without_rules =
      Detector(flat).analyze_records(collected.records(),
                                     capacity->sensors(), ranks,
                                     run.makespan);
  EXPECT_GT(without_rules.flagged.size(), collected.record_count() / 4);
}

}  // namespace
}  // namespace vsensor::rt
