// §6.2 overhead scaling: instrumentation overhead vs process count, plus
// the short-sensor auto-disable ablation.
//
// Paper: overhead below 4% for every program with up to 16,384 processes.
#include <cstdio>

#include "runtime/transport.hpp"
#include "support/table.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

int main() {
  using namespace vsensor;

  std::printf("Overhead scaling — instrumented vs original run time "
              "(paper: <4%% up to 16,384 procs)\n\n");

  TextTable table({"program", "ranks", "original(s)", "instrumented(s)",
                   "overhead"});
  for (const char* name : {"CG", "FT", "SP"}) {
    const auto w = workloads::make_workload(name);
    for (const int ranks : {8, 32, 128}) {
      auto cfg = workloads::baseline_config(ranks);
      workloads::RunOptions instrumented;
      instrumented.params.iterations = 8;
      instrumented.params.scale = 0.1;
      workloads::RunOptions plain = instrumented;
      plain.instrumented = false;
      const auto run_i = workloads::run_workload(*w, cfg, instrumented);
      const auto run_p = workloads::run_workload(*w, cfg, plain);
      const double overhead = (run_i.makespan - run_p.makespan) / run_p.makespan;
      table.add_row({name, std::to_string(ranks), fmt_double(run_p.makespan, 4),
                     fmt_double(run_i.makespan, 4), fmt_percent(overhead)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- auto-disable ablation: a deliberately over-instrumented job with
  // many tiny sensors; §5.3's runtime switch-off bounds the overhead.
  std::printf("ablation — short-sensor auto-disable (4096 x 2us senses/step):\n");
  TextTable ablation({"auto_disable", "probe-overhead(s)", "records"});
  for (const bool enabled : {false, true}) {
    simmpi::Config cfg;
    cfg.ranks = 4;
    rt::Collector server;
    rt::RuntimeConfig rcfg;
    rcfg.probe_cost = 120e-9;
    rcfg.min_avg_duration = enabled ? 10e-6 : 0.0;
    rcfg.disable_after = 128;
    double overhead_total = 0.0;
    server.set_sensors({{"tiny", rt::SensorType::Computation, "x.c", 1}});
    rt::BatchTransport transport(&server, cfg.ranks);
    const auto result = simmpi::run(cfg, [&](simmpi::Comm& comm) {
      rt::SensorRuntime sensors(
          rcfg, comm.rank(), &transport, [&comm] { return comm.now(); },
          [&comm](double s) { comm.charge_overhead(s); });
      const int tiny = sensors.register_sensor(
          {"tiny", rt::SensorType::Computation, "x.c", 1});
      for (int step = 0; step < 4096; ++step) {
        sensors.tick(tiny);
        comm.compute(2e-6);
        sensors.tock(tiny);
      }
      sensors.flush();
    });
    for (const auto& r : result.ranks) overhead_total += r.overhead_time;
    ablation.add_row({enabled ? "on" : "off", fmt_double(overhead_total, 6),
                      std::to_string(server.record_count())});
  }
  std::printf("%s", ablation.to_string().c_str());
  std::printf("\nexpected: auto-disable cuts probe overhead and record volume "
              "once the sensor is recognized as too short.\n");
  return 0;
}
