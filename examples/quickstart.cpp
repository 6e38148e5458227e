// Quickstart: instrument a simulated MPI job with v-sensors by hand, run it
// with a planted bad node, and read the variance report.
//
// This is the library-level API: you bring a rank function, bracket your
// fixed-workload snippets with Sense probes, and the analysis server tells
// you where performance diverged from the best observed.
#include <cstdio>
#include <memory>

#include "report/report.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/sensor.hpp"
#include "runtime/transport.hpp"
#include "simmpi/comm.hpp"
#include "workloads/scenarios.hpp"

int main() {
  using namespace vsensor;

  // 1. A 32-rank virtual cluster (8 ranks per node) where node 1 has a slow
  //    memory subsystem, like the bad node in the paper's CG case study.
  simmpi::Config cluster = workloads::baseline_config(/*ranks=*/32);
  cluster.ranks_per_node = 8;
  workloads::inject_bad_node(cluster, /*node=*/1, /*memory_speed=*/0.55);

  // 2. The analysis server collecting slice records from every rank, and
  //    the transport that carries each rank's batches to it.
  rt::Collector server;
  server.set_sensors({
      {"stencil", rt::SensorType::Computation, "quickstart.cpp", __LINE__},
      {"halo_reduce", rt::SensorType::Network, "quickstart.cpp", __LINE__},
  });
  rt::BatchTransport transport(&server, cluster.ranks);

  // 3. The application: a bulk-synchronous stencil with two sensors.
  auto result = simmpi::run(cluster, [&transport](simmpi::Comm& comm) {
    rt::SensorRuntime sensors(
        {}, comm.rank(), &transport, [&comm] { return comm.now(); },
        [&comm](double s) { comm.charge_overhead(s); });
    const int stencil = sensors.register_sensor(
        {"stencil", rt::SensorType::Computation, "quickstart.cpp", 0});
    const int reduce = sensors.register_sensor(
        {"halo_reduce", rt::SensorType::Network, "quickstart.cpp", 0});

    for (int step = 0; step < 300; ++step) {
      {
        rt::ScopedSense s(sensors, stencil);
        comm.compute(2e-3);  // fixed workload per step
      }
      {
        rt::ScopedSense s(sensors, reduce);
        comm.allreduce(64);
      }
    }
    sensors.flush();
  });

  // 4. Analyze and report.
  rt::Detector detector;
  const auto analysis = detector.analyze(server, cluster.ranks, result.makespan());
  std::printf("%s\n", report::variance_report(analysis).c_str());
  std::printf("records shipped to the analysis server: %llu (%.1f KB)\n",
              static_cast<unsigned long long>(server.record_count()),
              static_cast<double>(server.bytes_received()) / 1024.0);
  return analysis.events.empty() ? 1 : 0;  // we expect to find the bad node
}
