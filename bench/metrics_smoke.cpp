// Self-telemetry smoke run: drives a full workload through the collection
// pipeline with observability enabled, then prints the per-stage overhead
// attribution and exports the JSONL metrics (the run's health gauges plus
// the stage clock), Chrome trace, health snapshot, and event log artifacts
// CI uploads.
// Checks the three claims the observability layer makes:
//  * the paper's §6.2 overhead bound — the instrumented run's virtual
//    makespan exceeds the plain run's by less than 4%, with the health
//    sampler live on the delivery path;
//  * zero interference — detection matrices are byte-identical with
//    telemetry (and the health plane) on and off;
//  * the exports are well-formed and non-empty.
// Closes with the BENCH_obs.json micro-suite (stage-scope cost enabled vs
// disabled, health snapshot cost) for the bench-trajectory gate.
#include <cstdio>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>

#include "bench_json.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/identity.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "report/render.hpp"
#include "report/report.hpp"
#include "runtime/detector.hpp"
#include "runtime/session_io.hpp"
#include "runtime/streaming_detector.hpp"
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
  opts.runtime.batch_records = 16;
  return opts;
}

obs::RunIdentity identity() {
  obs::RunIdentity id;
  id.tool = "metrics_smoke";
  id.seed = options().params.seed;
  id.config = "CG x" + std::to_string(kRanks);
  id.record_layout_bytes = rt::kRecordWireBytes;
  return id;
}

struct PipelineOutcome {
  workloads::WorkloadRun run;
  std::string matrices_csv;  ///< all three finalized matrices, concatenated
  /// The run's collector, every record it kept (no sink attached).
  std::unique_ptr<rt::Collector> collector;
  /// The collector's and the detector's gauges at the end of the run.
  obs::HealthRecorder gauges;
};

// One full collection-and-detection pass: CG through the batch transport
// into a sharded collector with the streaming detector attached. Identical
// inputs yield identical CSV whatever the telemetry state — that is the
// zero-interference claim this binary pins. `health`/`events` (optional)
// put the live health plane on the delivery path for the run.
PipelineOutcome run_pipeline(const workloads::Workload& w,
                             obs::HealthSampler* health = nullptr,
                             obs::EventLog* events = nullptr) {
  auto cfg = workloads::baseline_config(kRanks);
  cfg.ranks_per_node = 4;

  PipelineOutcome out;
  out.collector = std::make_unique<rt::Collector>();
  rt::Collector& collector = *out.collector;
  collector.set_sensors(w.sensors());

  // The horizon only shapes matrix bucketing; any fixed value keeps the
  // comparison exact. Use a generous bound so no record is clipped.
  const double horizon = 64.0;
  rt::DetectorConfig dcfg;
  dcfg.matrix_resolution = horizon / 50.0;
  rt::StreamingDetector streaming(dcfg, w.sensors(), kRanks, horizon);
  collector.attach_sink(&streaming);
  // run_workload registers only the transport it builds, so the analysis
  // stack's flag events and gauges register here.
  if (events != nullptr) {
    streaming.set_event_hooks(obs::EventHooks{events, nullptr, -1});
  }
  if (health != nullptr) {
    health->add_source("collector", &collector);
    health->add_source("detector", &streaming);
  }

  auto opts = options();
  opts.health = health;
  out.run = workloads::run_workload(w, cfg, opts, &collector);
  {
    obs::HealthRecorder::Prefix scope(out.gauges, "collector");
    collector.sample_health(out.run.makespan, out.gauges);
  }
  {
    obs::HealthRecorder::Prefix scope(out.gauges, "detector");
    streaming.sample_health(out.run.makespan, out.gauges);
  }
  collector.attach_sink(nullptr);  // `streaming` dies with this scope
  if (health != nullptr) {
    health->remove_source("collector");
    health->remove_source("detector");
  }
  const auto analysis = streaming.finalize();
  for (int t = 0; t < rt::kSensorTypeCount; ++t) {
    out.matrices_csv +=
        report::render_csv(analysis.matrices[static_cast<size_t>(t)]);
  }
  return out;
}

// BENCH_obs.json: the observability layer's own costs, tracked across PRs
// by tools/bench_compare.py against bench/baseline/BENCH_obs.json.
void run_obs_bench(const std::string& path) {
  bench::BenchReporter rep("obs");
  constexpr size_t kReps = 7;
  constexpr int kIters = 1 << 16;

  // The one hook the runtime keeps: a stage scope.
  const auto hook_loop = [] {
    return bench::time_seconds([] {
      for (int i = 0; i < kIters; ++i) {
        VS_OBS_SCOPED_STAGE(obs::Stage::CollectorIngest);
      }
    }) / kIters * 1e9;
  };
  obs::set_enabled(true);
  rep.measure("hook_cost_enabled", "ns/op", bench::Direction::kLowerIsBetter,
              kReps, hook_loop);
  obs::set_enabled(false);
  rep.measure("hook_cost_disabled", "ns/op", bench::Direction::kLowerIsBetter,
              kReps, hook_loop);

  // Health snapshot cost over a realistically wired sampler (collector +
  // detector sources, ~15 gauges per snapshot).
  const auto cg = workloads::make_workload("CG");
  rt::Collector collector;
  collector.set_sensors(cg->sensors());
  rt::StreamingDetector streaming(rt::DetectorConfig{}, cg->sensors(), kRanks,
                                  64.0);
  obs::HealthSampler sampler;
  sampler.add_source("collector", &collector);
  sampler.add_source("detector", &streaming);
  constexpr int kSnaps = 512;
  rep.measure("health_snapshot", "us/snapshot",
              bench::Direction::kLowerIsBetter, kReps, [&] {
                sampler.clear();
                return bench::time_seconds([&] {
                  for (int i = 0; i < kSnaps; ++i) {
                    sampler.sample_now(static_cast<double>(i));
                  }
                }) / kSnaps * 1e6;
              });

  rep.write(path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path =
      argc > 1 ? argv[1] : "metrics_smoke.metrics.jsonl";
  const std::string trace_path =
      argc > 2 ? argv[2] : "metrics_smoke.trace.json";
  const std::string health_path =
      argc > 3 ? argv[3] : "metrics_smoke.health.jsonl";
  const std::string events_path =
      argc > 4 ? argv[4] : "metrics_smoke.events.jsonl";
  const std::string bench_path = argc > 5 ? argv[5] : "BENCH_obs.json";

  const auto cg = workloads::make_workload("CG");
  const auto id = identity();

  std::printf("metrics smoke: CG x%d ranks\n\n", kRanks);

  // --- plain run: the virtual baseline for the §6.2 overhead claim ------
  workloads::RunOptions plain = options();
  plain.instrumented = false;
  auto plain_cfg = workloads::baseline_config(kRanks);
  plain_cfg.ranks_per_node = 4;
  const auto run_plain = workloads::run_workload(*cg, plain_cfg, plain);

  // --- instrumented run with telemetry + live health plane enabled ------
  obs::set_enabled(true);
  obs::reset_all();
  obs::HealthSampler health;
  obs::EventLog events;
  const auto wall_begin = std::chrono::steady_clock::now();
  const auto with_obs = run_pipeline(*cg, &health, &events);
  const double workload_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();

  auto report = obs::attribution(workload_wall, kRanks);
  report.virtual_makespan = run_plain.makespan;
  report.virtual_overhead_seconds = with_obs.run.makespan - run_plain.makespan;
  report.virtual_overhead_fraction =
      report.virtual_overhead_seconds / run_plain.makespan;
  std::printf("%s\n", report.to_string().c_str());

  std::printf("%s\n", report::transport_report(with_obs.run.transport,
                                               with_obs.run.transport_totals,
                                               with_obs.run.stale_ranks)
                          .c_str());

  // --- exports (CI uploads these), all stamped with the run identity ----
  // A failed export is a loud failure, not a shrug: warn on stderr and
  // exit nonzero so CI never uploads a silently-truncated artifact.
  int export_failures = 0;
  const auto must_export = [&](bool ok, const std::string& path) {
    if (!ok) {
      std::fprintf(stderr, "warning: export failed (disk full? permissions?): %s\n",
                   path.c_str());
      ++export_failures;
    }
  };
  {
    std::ofstream out(metrics_path);
    if (out) {
      obs::write_metrics_jsonl(out, id, with_obs.gauges,
                               obs::StageClock::global());
    }
    out.flush();
    must_export(static_cast<bool>(out), metrics_path);
  }
  {
    std::ofstream out(trace_path);
    if (out) obs::SpanTracer::global().write_chrome_trace(out, &id);
    out.flush();
    must_export(static_cast<bool>(out), trace_path);
  }
  must_export(health.export_file(health_path, &id), health_path);
  must_export(events.export_file(events_path, &id), events_path);
  std::printf("exports: %s (%zu gauges), %s (%zu spans), %s (%zu "
              "snapshots), %s (%zu events)\n",
              metrics_path.c_str(), with_obs.gauges.gauges().size(),
              trace_path.c_str(), obs::SpanTracer::global().span_count(),
              health_path.c_str(), health.snapshot_count(),
              events_path.c_str(), events.size());
  VS_CHECK_MSG(health.snapshot_count() > 0,
               "health sampler took no snapshots on the delivery path");
  {
    // The metrics file renders the run's own counters.
    const std::string want =
        "{\"gauge\":\"collector.ingested_records\",\"value\":" +
        std::to_string(with_obs.collector->ingested_records()) + "}";
    std::ifstream in(metrics_path);
    bool found = false;
    for (std::string line; !found && std::getline(in, line);) {
      found = line == want;
    }
    VS_CHECK_MSG(found,
                 "metrics file lacks the collector's ingested_records");
  }

  // The run's session (every record, transport counters, stale ranks)
  // round-trips as the offline report tool consumes it.
  const std::string session_path = "metrics_smoke.session.vsr";
  {
    const auto& run = with_obs.run;
    rt::save_session_file(session_path, *with_obs.collector, kRanks,
                          run.makespan, run.transport, run.stale_ranks);
    const auto session = rt::load_session_file(session_path);
    VS_CHECK_MSG(session.clean(), "session did not load clean");
    VS_CHECK_MSG(session.records.size() == with_obs.collector->record_count() &&
                     !session.records.empty(),
                 "session record count mismatch");
    VS_CHECK_MSG(session.has_transport() &&
                     session.transport_totals.batches_delivered ==
                         run.transport_totals.batches_delivered &&
                     session.transport_totals.records_delivered ==
                         run.transport_totals.records_delivered &&
                     session.transport_totals.wire_bytes ==
                         run.transport_totals.wire_bytes,
                 "session transport totals mismatch");
    VS_CHECK_MSG(session.stale_ranks == run.stale_ranks,
                 "session stale ranks mismatch");
    std::printf("session: %s (%zu records, clean)\n", session_path.c_str(),
                session.records.size());
  }

  // --- telemetry-off rerun: detection must be byte-identical ------------
  obs::set_enabled(false);
  obs::reset_all();
  const auto without_obs = run_pipeline(*cg);

  VS_CHECK_MSG(with_obs.run.makespan == without_obs.run.makespan,
               "telemetry changed the simulated makespan");
  VS_CHECK_MSG(with_obs.matrices_csv == without_obs.matrices_csv,
               "telemetry changed the detection matrices");

  // --- the paper's overhead bound, self-measured with sampling live -----
  VS_CHECK_MSG(report.virtual_overhead_seconds > 0.0,
               "instrumentation charged no probe cost");
  VS_CHECK_MSG(report.virtual_overhead_fraction < 0.04,
               "probe overhead exceeds the paper's 4% bound");

  run_obs_bench(bench_path);

  std::printf("\nall checks hold: overhead %.3f%% < 4%% with the health "
              "sampler live, matrices identical with the health plane "
              "on/off\n",
              report.virtual_overhead_fraction * 100.0);
  if (export_failures != 0) {
    std::fprintf(stderr, "%d export(s) failed — artifacts are incomplete\n",
                 export_failures);
    return 1;
  }
  return 0;
}
