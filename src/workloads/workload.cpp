#include "workloads/workload.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "workloads/apps.hpp"
#include "workloads/kernels.hpp"

namespace vsensor::workloads {

std::vector<std::unique_ptr<Workload>> make_all_workloads() {
  std::vector<std::unique_ptr<Workload>> all;
  all.push_back(make_bt());
  all.push_back(make_cg());
  all.push_back(make_ft());
  all.push_back(make_lu());
  all.push_back(make_sp());
  all.push_back(make_amg());
  all.push_back(make_lulesh());
  all.push_back(make_raxml());
  return all;
}

RankContext::RankContext(simmpi::Comm& comm, rt::SensorRuntime* sensors,
                         std::vector<PmuSamples>* pmu, double pmu_jitter,
                         uint64_t pmu_seed)
    : comm_(comm),
      sensors_(sensors),
      pmu_(pmu),
      pmu_jitter_(pmu_jitter),
      pmu_rng_(hash_combine(pmu_seed, static_cast<uint64_t>(comm.rank()))) {
  if (sensors_ != nullptr) {
    tick_units_.assign(sensors_->sensors().size(), 0);
  }
}

void RankContext::set_elastic(ElasticHooks hooks) {
  elastic_ = std::move(hooks);
  std::sort(elastic_.windows.begin(), elastic_.windows.end(),
            [](const simmpi::ElasticWindow& a, const simmpi::ElasticWindow& b) {
              return a.leave_at < b.leave_at;
            });
  next_window_ = 0;
}

void RankContext::maybe_elastic_transition() {
  while (next_window_ < elastic_.windows.size() &&
         comm_.now() >= elastic_.windows[next_window_].leave_at) {
    const simmpi::ElasticWindow w = elastic_.windows[next_window_++];
    if (elastic_.on_leave) elastic_.on_leave(comm_.now());
    comm_.idle_until(w.rejoin_at);
    if (elastic_.on_rejoin) elastic_.on_rejoin(comm_.now());
  }
}

void RankContext::sense_begin(int sensor_id) {
  // Elastic transitions happen here — at the boundary before a slice
  // starts — so an uninstrumented probe run (sensors_ == nullptr) still
  // observes the same leave/idle/rejoin virtual-time structure.
  maybe_elastic_transition();
  if (sensors_ == nullptr) return;
  tick_units_[static_cast<size_t>(sensor_id)] = comm_.stats().pmu_instructions;
  sensors_->tick(sensor_id);
}

void RankContext::sense_end(int sensor_id, double metric) {
  if (sensors_ == nullptr) return;
  sensors_->tock(sensor_id, metric);
  if (pmu_ != nullptr) {
    double units = static_cast<double>(comm_.stats().pmu_instructions -
                                       tick_units_[static_cast<size_t>(sensor_id)]);
    if (pmu_jitter_ > 0.0) {
      const double u =
          static_cast<double>(splitmix64(pmu_rng_) >> 11) * 0x1.0p-53;
      units *= 1.0 + pmu_jitter_ * u;
    }
    (*pmu_)[static_cast<size_t>(sensor_id)].add(units);
  }
}

double WorkloadRun::workload_max_error() const {
  double pm = 1.0;
  for (const auto& per_rank : pmu) {
    for (const auto& s : per_rank) pm = std::max(pm, s.ps());
  }
  return pm - 1.0;
}

WorkloadRun run_workload(const Workload& workload, simmpi::Config sim_config,
                         const RunOptions& options, rt::DeliverySink* sink) {
  VS_OBS_ONLY(
      obs::ScopedSpan vs_obs_span("run:" + workload.name(), "workload");
      const auto vs_obs_wall_begin = std::chrono::steady_clock::now();)
  const auto sensor_table = workload.sensors();

  WorkloadRun run;
  run.pmu.assign(static_cast<size_t>(sim_config.ranks), {});
  std::vector<rt::SenseStats> sense(static_cast<size_t>(sim_config.ranks));
  // Every collected run ships through the resilient transport (sequence
  // numbers, dedup, retry); without a fault model it is a transparent
  // pass-through. Keep the fault model alive past the engine teardown —
  // the transport consults it for stats and staleness after the run.
  const auto faults = sim_config.transport_faults;
  std::unique_ptr<rt::BatchTransport> transport;
  if (sink != nullptr) {
    sink->set_sensors(sensor_table);
    transport = std::make_unique<rt::BatchTransport>(
        sink, sim_config.ranks, options.transport, faults.get());
    if (faults != nullptr) {
      sink->set_crash_plan(faults->server_crash_schedule(),
                           faults->schedule_seed());
    }
    // Health plane wiring (non-owning) until the run ends. The run
    // registers what it builds, the transport; the caller registers the
    // analysis stack it owns.
    if (options.health != nullptr) {
      options.health->add_source("transport", transport.get());
      // The transport pokes the sampler from its delivery path — the only
      // place that sees virtual time advance with no pipeline lock held.
      transport->set_health_sampler(options.health);
    }
  }
  std::vector<std::unique_ptr<rt::SensorRuntime>> runtimes(
      static_cast<size_t>(sim_config.ranks));

  // The engine drives the final batched push: each rank's staged records
  // drain to the sink on that rank's own thread as it completes,
  // not serialized after the join.
  sim_config.on_rank_complete = [&](simmpi::Comm& comm) {
    const auto r = static_cast<size_t>(comm.rank());
    if (runtimes[r]) {
      runtimes[r]->flush();
      sense[r] = runtimes[r]->sense_stats();
    }
  };

  // Elastic plan: captured before the config moves into the engine, so the
  // per-rank hooks built inside the rank bodies can consult it.
  const std::vector<simmpi::ElasticWindow> elastic_plan = sim_config.elastic;

  run.mpi = simmpi::run(std::move(sim_config), [&](simmpi::Comm& comm) {
    const auto r = static_cast<size_t>(comm.rank());
    run.pmu[r].assign(sensor_table.size(), PmuSamples{});

    if (options.instrumented) {
      if (transport != nullptr) {
        runtimes[r] = std::make_unique<rt::SensorRuntime>(
            options.runtime, comm.rank(), *transport,
            [&comm] { return comm.now(); },
            [&comm](double s) { comm.charge_overhead(s); });
      } else {
        runtimes[r] = std::make_unique<rt::SensorRuntime>(
            options.runtime, comm.rank(), nullptr,
            [&comm] { return comm.now(); },
            [&comm](double s) { comm.charge_overhead(s); });
      }
      for (const auto& info : sensor_table) runtimes[r]->register_sensor(info);
    }
    RankContext ctx(comm, runtimes[r].get(), &run.pmu[r], options.pmu_jitter,
                    options.pmu_seed);
    RankContext::ElasticHooks hooks;
    for (const auto& w : elastic_plan) {
      if (w.rank == comm.rank()) hooks.windows.push_back(w);
    }
    if (!hooks.windows.empty()) {
      // Leave: flush staged slices so nothing half-shipped outlives the
      // absence. Rejoin: start a fresh transport incarnation. No revival
      // needs routing: rejoin_rank reports only a rank a sweep marked
      // stale, and this run sweeps after the ranks join.
      hooks.on_leave = [&runtimes, r](double) {
        if (runtimes[r]) runtimes[r]->flush();
      };
      hooks.on_rejoin = [&transport, r](double now) {
        if (transport != nullptr) {
          transport->rejoin_rank(static_cast<int>(r), now);
        }
      };
      ctx.set_elastic(std::move(hooks));
    }
    workload.run_rank(ctx, options.params);
  });

  for (const auto& s : sense) run.sense.merge(s);
  run.makespan = run.mpi.makespan();
  // Destroy runtimes before draining: their staging buffers flush on
  // teardown, so no staged record is silently lost even if a rank body
  // bypassed flush().
  runtimes.clear();
  if (transport != nullptr) {
    transport->drain();
    // Always sweep the end-of-run stale verdicts into the sink: a server
    // or tier journals them, a collector forwards them to its attached
    // detector.
    transport->sweep_stale(run.makespan, [&](int r) {
      sink->mark_stale(r, run.makespan);
    });
    run.transport.reserve(static_cast<size_t>(transport->ranks()));
    for (int r = 0; r < transport->ranks(); ++r) {
      run.transport.push_back(transport->rank_stats(r));
    }
    run.transport_totals = transport->totals();
    // Report the swept set — what the detectors were actually told — not a
    // raw staleness recomputation that can disagree with the journaled
    // exclusions (e.g. a rank that recovered after being swept).
    run.stale_ranks = transport->reported_stale_ranks();
    // Close the health plane: one unconditional makespan snapshot, then
    // unregister the transport (the sampler outlives it).
    if (options.health != nullptr) {
      options.health->sample_now(run.makespan);
      transport->set_health_sampler(nullptr);
      options.health->remove_source("transport");
    }
  }
  VS_OBS_ONLY(if (obs::enabled()) {
    vs_obs_span.set_virtual(0.0, run.makespan);
    double probe_virtual = 0.0;
    for (const auto& rs : run.mpi.ranks) probe_virtual += rs.overhead_time;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      vs_obs_wall_begin)
            .count();
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("workload.runs").add();
    reg.gauge("workload.wall_seconds").add(wall);
    reg.gauge("workload.virtual_makespan").set_max(run.makespan);
    reg.gauge("probe.virtual_overhead_seconds").add(probe_virtual);
  })
  return run;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  for (auto& w : make_all_workloads()) {
    if (w->name() == name) return std::move(w);
  }
  for (auto& w : make_kernel_workloads()) {
    if (w->name() == name) return std::move(w);
  }
  throw Error("unknown workload: " + name);
}

}  // namespace vsensor::workloads
