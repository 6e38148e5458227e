// Fault-injection smoke run: drives a full workload through the resilient
// batch transport with drops, duplicates, delays, and a rank killed
// mid-run, then prints the per-rank channel counters and checks the
// transport's accounting invariants. CI runs this binary to prove the
// degraded path completes without crash or deadlock and that duplicate
// suppression holds end to end.
#include <cstdio>
#include <memory>

#include "report/report.hpp"
#include "runtime/detector.hpp"
#include "runtime/streaming_detector.hpp"
#include "simmpi/faults.hpp"
#include "support/error.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace vsensor;

constexpr int kRanks = 16;
constexpr int kKilledRank = 5;

workloads::RunOptions options() {
  workloads::RunOptions opts;
  opts.params.iterations = 10;
  opts.params.scale = 0.12;
  opts.runtime.batch_records = 8;  // many small batches: heavy wire traffic
  return opts;
}

}  // namespace

int main() {
  const auto cg = workloads::make_workload("CG");

  // Clean probe run: the fault model never touches the simulated job's
  // clocks, so this fixes the makespan (and the analysis horizon).
  auto probe_cfg = workloads::baseline_config(kRanks);
  probe_cfg.ranks_per_node = 4;
  rt::Collector probe;
  const auto clean = workloads::run_workload(*cg, probe_cfg, options(), &probe);
  const double makespan = clean.makespan;

  simmpi::FaultConfig fcfg;
  fcfg.drop_prob = 0.05;
  fcfg.duplicate_prob = 0.05;
  fcfg.delay_prob = 0.10;
  fcfg.max_delay_batches = 2;
  fcfg.kill_rank = kKilledRank;
  fcfg.kill_time = makespan / 2.0;

  auto cfg = workloads::baseline_config(kRanks);
  cfg.ranks_per_node = 4;
  cfg.transport_faults = std::make_shared<simmpi::FaultInjector>(fcfg);

  rt::DetectorConfig dcfg;
  dcfg.matrix_resolution = makespan / 25.0;
  rt::Collector collector;
  collector.set_sensors(cg->sensors());
  rt::StreamingDetector streaming(dcfg, cg->sensors(), kRanks, makespan);
  collector.attach_sink(&streaming);

  auto opts = options();
  opts.transport.stale_after = makespan / 4.0;
  const auto run = workloads::run_workload(*cg, cfg, opts, &collector);

  std::printf(
      "fault-injection smoke: CG x%d ranks, drop=%.0f%% dup=%.0f%% "
      "delay=%.0f%% (<=%d batches), rank %d killed at t=%.3fs\n\n",
      kRanks, fcfg.drop_prob * 100, fcfg.duplicate_prob * 100,
      fcfg.delay_prob * 100, fcfg.max_delay_batches, kKilledRank,
      fcfg.kill_time);

  std::printf("%s", report::transport_report(run.transport,
                                             run.transport_totals,
                                             run.stale_ranks)
                        .c_str());
  const auto& t = run.transport_totals;

  // --- invariants the smoke run proves ---------------------------------
  // The degraded run finishes with the clean makespan: the monitoring
  // faults never leak into the simulated job.
  VS_CHECK_MSG(run.makespan == makespan, "fault injection changed the job");
  // Every shipped batch is accounted for: delivered or declared lost.
  VS_CHECK_MSG(t.batches_sent == t.batches_delivered + t.batches_lost,
               "batch accounting leak");
  // Duplicate suppression held: the collector stored exactly the unique
  // deliveries, no double-counted record anywhere.
  VS_CHECK_MSG(collector.record_count() == t.records_delivered,
               "duplicate slipped past the dedup");
  VS_CHECK_MSG(t.duplicates_suppressed > 0, "fault pattern produced no dups");
  VS_CHECK_MSG(t.retries > 0, "fault pattern produced no retries");
  // The killed rank lost batches and is reported stale.
  VS_CHECK_MSG(run.transport[kKilledRank].batches_lost > 0,
               "killed rank lost nothing");
  bool killed_is_stale = false;
  for (int r : run.stale_ranks) killed_is_stale |= (r == kKilledRank);
  VS_CHECK_MSG(killed_is_stale, "killed rank not reported stale");
  // The streaming analysis over delivered records equals the batch
  // analysis of the collector's retained records, bit for bit.
  const rt::Detector detector(dcfg);
  const auto batch = detector.analyze_records(collector.records(),
                                              cg->sensors(), kRanks, makespan);
  const auto online = streaming.finalize();
  for (int type = 0; type < rt::kSensorTypeCount; ++type) {
    const auto& bm = batch.matrices[static_cast<size_t>(type)];
    const auto& sm = online.matrices[static_cast<size_t>(type)];
    for (int r = 0; r < bm.ranks(); ++r) {
      for (int b = 0; b < bm.buckets(); ++b) {
        VS_CHECK_MSG(bm.has(r, b) == sm.has(r, b),
                     "streaming/batch cell occupancy mismatch");
        if (bm.has(r, b)) {
          VS_CHECK_MSG(bm.at(r, b) == sm.at(r, b),
                       "streaming/batch cell value mismatch");
        }
      }
    }
  }

  std::printf("\nall invariants hold: dedup exact, accounting closed, "
              "streaming == batch on delivered records\n");
  return 0;
}
