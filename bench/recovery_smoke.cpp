// Crash-recovery smoke run: drives a full workload through the
// crash-tolerant analysis server twice — once uninterrupted, once with
// server crashes injected mid-run on top of transport drops, duplicates,
// and delays — and checks that the recovered run's analysis equals the
// uninterrupted one's. Also reports what durability costs: journal bytes
// written, checkpoint cadence, and per-recovery replay latency, and fails
// unless some recovery went through checkpoint deltas. CI runs this binary
// and archives the journal and checkpoint it leaves behind.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "obs/events.hpp"
#include "obs/identity.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/server.hpp"
#include "runtime/streaming_detector.hpp"
#include "simmpi/faults.hpp"
#include "support/error.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace vsensor;

constexpr int kRanks = 16;

workloads::RunOptions options() {
  workloads::RunOptions opts;
  opts.params.iterations = 10;
  opts.params.scale = 0.12;
  opts.runtime.batch_records = 8;  // many small batches: busy journal
  return opts;
}

obs::RunIdentity identity() {
  obs::RunIdentity id;
  id.tool = "recovery_smoke";
  id.seed = 0xFA17;
  id.config = "CG x" + std::to_string(kRanks) + " crashes=3";
  id.record_layout_bytes = rt::kRecordWireBytes;
  return id;
}

struct RunOutput {
  rt::AnalysisResult analysis;
  uint64_t ingested = 0;
  uint64_t batches = 0;
  uint64_t crashes = 0;
  uint64_t recoveries = 0;
  uint64_t journal_bytes = 0;
  std::vector<rt::RecoveryReport> reports;
  std::string flight_path;
};

RunOutput run_once(const workloads::Workload& workload, double makespan,
                   const std::string& tag, std::vector<double> crash_times,
                   obs::EventLog* events = nullptr) {
  simmpi::FaultConfig fcfg;
  fcfg.drop_prob = 0.05;
  fcfg.duplicate_prob = 0.05;
  fcfg.delay_prob = 0.10;
  fcfg.max_delay_batches = 2;
  fcfg.seed = 0xFA17;
  fcfg.server_crash_times = std::move(crash_times);

  auto cfg = workloads::baseline_config(kRanks);
  cfg.ranks_per_node = 4;
  cfg.transport_faults = std::make_shared<simmpi::FaultInjector>(fcfg);

  rt::DetectorConfig dcfg;
  dcfg.matrix_resolution = makespan / 25.0;
  rt::Collector collector;
  rt::StreamingDetector streaming(dcfg, workload.sensors(), kRanks, makespan);
  collector.attach_sink(&streaming);

  rt::ServerConfig scfg;
  scfg.journal_path = "recovery_smoke_" + tag + ".journal";
  scfg.checkpoint_path = "recovery_smoke_" + tag + ".ckpt";
  scfg.checkpoint_every_batches = 64;
  std::remove(scfg.checkpoint_path.c_str());
  rt::AnalysisServer server(scfg, &collector, &streaming);
  std::remove(server.flight_path().c_str());
  if (events != nullptr) {
    server.set_run_identity(identity());
    server.set_event_hooks(obs::EventHooks{events, nullptr, -1});
  }

  workloads::run_workload(workload, cfg, options(), &server);
  server.checkpoint();  // final durable state for the artifact upload

  RunOutput out{streaming.finalize(),
                collector.counters().ingested,
                collector.counters().batches,
                server.crashes(),
                static_cast<uint64_t>(server.recoveries().size()),
                server.journal()->committed_bytes(),
                server.recoveries(),
                server.flight_path()};
  return out;
}

}  // namespace

int main() {
  const auto cg = workloads::make_workload("CG");

  // Clean probe run fixes the makespan (and the analysis horizon).
  auto probe_cfg = workloads::baseline_config(kRanks);
  probe_cfg.ranks_per_node = 4;
  rt::Collector probe;
  const auto clean = workloads::run_workload(*cg, probe_cfg, options(), &probe);
  const double makespan = clean.makespan;

  const auto smooth = run_once(*cg, makespan, "uninterrupted", {});
  obs::EventLog events;
  const auto crashed = run_once(
      *cg, makespan, "crashed",
      {makespan * 0.25, makespan * 0.55, makespan * 0.85}, &events);

  std::printf(
      "crash-recovery smoke: CG x%d ranks, transport faults on, server "
      "crashes at 25%%/55%%/85%% of t=%.3fs\n\n",
      kRanks, makespan);
  std::printf("uninterrupted: %llu records in %llu batches, %llu journal "
              "bytes, %llu crashes\n",
              static_cast<unsigned long long>(smooth.ingested),
              static_cast<unsigned long long>(smooth.batches),
              static_cast<unsigned long long>(smooth.journal_bytes),
              static_cast<unsigned long long>(smooth.crashes));
  std::printf("crashed:       %llu records in %llu batches, %llu journal "
              "bytes, %llu crashes, %llu recoveries\n\n",
              static_cast<unsigned long long>(crashed.ingested),
              static_cast<unsigned long long>(crashed.batches),
              static_cast<unsigned long long>(crashed.journal_bytes),
              static_cast<unsigned long long>(crashed.crashes),
              static_cast<unsigned long long>(crashed.recoveries));
  for (size_t i = 0; i < crashed.reports.size(); ++i) {
    const auto& r = crashed.reports[i];
    std::printf(
        "recovery %zu: checkpoint %s (base + %llu deltas), %llu frames "
        "replayed, %llu skipped (watermark dedup), %llu records, %llu torn "
        "bytes dropped, %.3f ms\n",
        i + 1, r.checkpoint_loaded ? "loaded" : "absent",
        static_cast<unsigned long long>(r.checkpoint_deltas),
        static_cast<unsigned long long>(r.frames_replayed),
        static_cast<unsigned long long>(r.frames_skipped),
        static_cast<unsigned long long>(r.records_replayed),
        static_cast<unsigned long long>(r.torn_bytes),
        r.recovery_seconds * 1e3);
  }

  // --- invariants the smoke run proves ---------------------------------
  VS_CHECK_MSG(crashed.crashes == 3, "crash plan did not fire 3 times");
  VS_CHECK_MSG(crashed.recoveries == crashed.crashes,
               "every crash must be followed by a recovery");
  VS_CHECK_MSG(smooth.crashes == 0, "uninterrupted run crashed");
  // The unique delivered set is a pure function of the fault seed, so the
  // crashed run must have ingested exactly the same records.
  VS_CHECK_MSG(smooth.ingested == crashed.ingested,
               "recovery lost or double-counted records");
  VS_CHECK_MSG(smooth.batches == crashed.batches,
               "recovery lost or double-counted batches");
  uint64_t deltas_applied = 0;
  for (const auto& r : crashed.reports) {
    VS_CHECK_MSG(r.torn_bytes > 0, "crash left no torn frame to salvage");
    deltas_applied += r.checkpoint_deltas;
  }
  // Periodic checkpoints after a post-recovery base are deltas, so a later
  // crash recovers through a delta chain; the equality checks below then
  // prove that chain bit-exact on a faulted run.
  VS_CHECK_MSG(deltas_applied > 0,
               "no recovery applied a checkpoint delta");
  // The health plane saw every crash: structured events with virtual-time
  // context, and a flight dump left by the (simulated) dying server.
  VS_CHECK_MSG(events.count(obs::EventKind::Crash) == 3,
               "event log missed a crash");
  VS_CHECK_MSG(events.count(obs::EventKind::Recovery) == 3,
               "event log missed a recovery");
  VS_CHECK_MSG(events.count(obs::EventKind::JournalSalvage) == 3,
               "event log missed a torn-journal salvage");
  // A failed event export is a loud failure, not a shrug: warn on stderr
  // and exit nonzero so CI never uploads a silently-truncated artifact.
  int export_failures = 0;
  {
    const auto id = identity();
    if (!events.export_file("recovery_smoke.events.jsonl", &id)) {
      std::fprintf(stderr,
                   "warning: export failed (disk full? permissions?): "
                   "recovery_smoke.events.jsonl\n");
      ++export_failures;
    }
  }
  {
    std::ifstream flight(crashed.flight_path);
    VS_CHECK_MSG(static_cast<bool>(flight),
                 "crashed server left no flight dump");
  }
  std::printf("\nwrote recovery_smoke.events.jsonl (%zu events); flight "
              "dump at %s\n",
              events.size(), crashed.flight_path.c_str());

  // Recovered analysis equals the uninterrupted analysis, cell for cell
  // (ULP tolerance: threaded arrival interleaving differs between runs).
  const auto& a = smooth.analysis;
  const auto& b = crashed.analysis;
  VS_CHECK_MSG(a.events.size() == b.events.size(),
               "recovery changed the detected events");
  VS_CHECK_MSG(a.stale_ranks == b.stale_ranks,
               "recovery changed the stale-rank set");
  for (int type = 0; type < rt::kSensorTypeCount; ++type) {
    const auto& ma = a.matrices[static_cast<size_t>(type)];
    const auto& mb = b.matrices[static_cast<size_t>(type)];
    for (int r = 0; r < ma.ranks(); ++r) {
      for (int c = 0; c < ma.buckets(); ++c) {
        VS_CHECK_MSG(ma.has(r, c) == mb.has(r, c),
                     "recovery changed matrix occupancy");
        if (ma.has(r, c)) {
          const double diff = ma.at(r, c) - mb.at(r, c);
          VS_CHECK_MSG(diff < 1e-9 && diff > -1e-9,
                       "recovery changed a matrix cell");
        }
      }
    }
  }

  std::printf("\nall invariants hold: recovered run == uninterrupted run, "
              "no record lost or double-counted across %llu crashes\n",
              static_cast<unsigned long long>(crashed.crashes));
  if (export_failures != 0) {
    std::fprintf(stderr, "%d export(s) failed — artifacts are incomplete\n",
                 export_failures);
    return 1;
  }
  return 0;
}
