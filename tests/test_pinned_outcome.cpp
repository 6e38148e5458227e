// Pinned virtual outcomes. simMPI derives every virtual time from its
// models, never from the host, so how the engine matches operations and
// hands off between rank threads must not move a single bit of any
// RankStats field. A change to the engine must reproduce these constants;
// only a change to the models may record them again.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/collector.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/engine.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor {
namespace {

/// Every RankStats field as raw bits: doubles by their IEEE-754 pattern.
struct StatBits {
  uint64_t finish_time, comp_time, mpi_time, overhead_time, idle_time;
  uint64_t messages, bytes_sent, pmu_instructions;
  bool operator==(const StatBits&) const = default;
};

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

StatBits stat_bits(const simmpi::RankStats& s) {
  return {bits(s.finish_time), bits(s.comp_time),   bits(s.mpi_time),
          bits(s.overhead_time), bits(s.idle_time), s.messages,
          s.bytes_sent,          s.pmu_instructions};
}

/// Compare a run with its pinned table; on a mismatch, print the run's
/// own table in the form used below, with the ranks that differ.
void expect_pinned(const simmpi::RunResult& run, double makespan,
                   const std::vector<StatBits>& pinned, uint64_t pinned_makespan) {
  std::vector<StatBits> got;
  for (const auto& r : run.ranks) got.push_back(stat_bits(r));
  if (got == pinned && bits(makespan) == pinned_makespan) return;
  std::string table = "actual table:\n";
  char line[256];
  for (size_t r = 0; r < got.size(); ++r) {
    const StatBits& g = got[r];
    std::snprintf(line, sizeof line,
                  "    {0x%016" PRIx64 ", 0x%016" PRIx64 ", 0x%016" PRIx64
                  ", 0x%016" PRIx64 ", 0x%016" PRIx64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 "},%s\n",
                  g.finish_time, g.comp_time, g.mpi_time, g.overhead_time,
                  g.idle_time, g.messages, g.bytes_sent, g.pmu_instructions,
                  r < pinned.size() && g == pinned[r] ? "" : "  // differs");
    table += line;
  }
  std::snprintf(line, sizeof line, "makespan 0x%016" PRIx64 "\n", bits(makespan));
  table += line;
  ADD_FAILURE() << table;
}

// --- CG in pipebench's live_cg configuration (seed 1) ----------------------

simmpi::Config live_cg_config() {
  auto cfg = workloads::baseline_config(4, 1);
  cfg.ranks_per_node = 1;
  workloads::inject_bad_node(cfg, 3, 0.55);
  return cfg;
}

workloads::RunOptions live_cg_options(bool instrumented) {
  workloads::RunOptions opts;
  opts.params.iterations = 150;
  opts.params.scale = 0.01;
  opts.params.seed = 1;
  opts.runtime.batch_records = 64;
  opts.instrumented = instrumented;
  return opts;
}

// Each table has one row per rank, in StatBits order.
const std::vector<StatBits> kLiveCgInstrumented = {
    {0x400dd269a93b3fc5, 0x3fffa79ad3b7a9ef, 0x3ffbf18a3084135e, 0x3f675c9c75847b38, 0x0000000000000000, 15150, 491581200, 1898400000},
    {0x400dd269b07c96b9, 0x3fffa22b74f4925d, 0x3ffbf6fbb42df88d, 0x3f67586fad450f36, 0x0000000000000000, 15150, 491581200, 1898400000},
    {0x400dd269a9ca27d8, 0x3fffaa65740561e3, 0x3ffbeebea946959e, 0x3f675e6c90b05eaa, 0x0000000000000000, 15150, 491581200, 1898400000},
    {0x400dd26a8e3a6909, 0x400cc29a18ff8963, 0x3fc0533e6b7514f2, 0x3f75391d071cae41, 0x0000000000000000, 15150, 491581200, 1898400000},
};
constexpr uint64_t kLiveCgInstrumentedMakespan = 0x400dd26a8e3a6909;

TEST(PinnedOutcome, LiveCgInstrumented) {
  const auto cg = workloads::make_workload("CG");
  rt::Collector collector;
  const auto run = workloads::run_workload(*cg, live_cg_config(),
                                           live_cg_options(true), &collector);
  expect_pinned(run.mpi, run.makespan, kLiveCgInstrumented, kLiveCgInstrumentedMakespan);
}

const std::vector<StatBits> kLiveCgPlain = {
    {0x400dc7e6ea13d0df, 0x3fffa764c591dd50, 0x3ffbe8690e95c46e, 0x0000000000000000, 0x0000000000000000, 15150, 491581200, 1898400000},
    {0x400dc7e6efd7c0d0, 0x3fffa21f760846a7, 0x3ffbedae69a73af9, 0x0000000000000000, 0x0000000000000000, 15150, 491581200, 1898400000},
    {0x400dc7e6efcccb3f, 0x3fffaa506eff0df4, 0x3ffbe57d709a888a, 0x0000000000000000, 0x0000000000000000, 15150, 491581200, 1898400000},
    {0x400dc7e7db059da0, 0x400cc2b3f44e4c4e, 0x3fc0533e6b751526, 0x0000000000000000, 0x0000000000000000, 15150, 491581200, 1898400000},
};
constexpr uint64_t kLiveCgPlainMakespan = 0x400dc7e7db059da0;

TEST(PinnedOutcome, LiveCgPlain) {
  const auto cg = workloads::make_workload("CG");
  const auto run =
      workloads::run_workload(*cg, live_cg_config(), live_cg_options(false));
  expect_pinned(run.mpi, run.makespan, kLiveCgPlain, kLiveCgPlainMakespan);
}

// --- 24 ranks: blocking and non-blocking p2p, rooted and unrooted ----------

const std::vector<StatBits> kRing24 = {
    {0x3faab1584f035e7c, 0x3f936197bbaf5ac5, 0x3fa1008c712bb119, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f93685c06a42f86, 0x3fa0fd2a4bb146b9, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f935e95595cd7ba, 0x3fa1020da254f29f, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f93668569d6cbd0, 0x3fa0fe159a17f894, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f936faae2abd8e1, 0x3fa0f982ddad720c, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f936e3985faaeba, 0x3fa0fa3b8c06071f, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f9376d1d7ebbc6a, 0x3fa0f5ef630d8047, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f936d3cbd71af5e, 0x3fa0fab9f04a86cd, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3fa02867ddf5d299, 0x3f9511e0e21b17c7, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3fa02a83addb8a72, 0x3f950da9424fa815, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3fa02ad4d43014d2, 0x3f950d06f5a69354, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3fa0286f31f6599c, 0x3f9511d23a1a09c1, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f9367c6413a324e, 0x3fa0fd752e664555, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f9364a110cdb746, 0x3fa0ff07c69c82d9, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f93618baa94d1b0, 0x3fa1009279b8f5a4, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f936aa53d18f690, 0x3fa0fc05b076e334, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f9366c02d51c886, 0x3fa0fdf8385a7a39, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f9367ea15fe4b6e, 0x3fa0fd63440438c5, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f936c391880a149, 0x3fa0fb3bc2c30dd7, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f9361ad35da1838, 0x3fa10081b4165260, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f9362b15efc47da, 0x3fa0ffff9f853a90, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f936a746e82ec24, 0x3fa0fc1e17c1e86a, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f936105013bcc84, 0x3fa100d5ce65783a, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
    {0x3faab1584f035e7c, 0x3f935fe445d08b9f, 0x3fa101662c1b18ac, 0x0000000000000000, 0x0000000000000000, 306, 212736, 0},
};
constexpr uint64_t kRing24Makespan = 0x3faab1584f035e7c;

TEST(PinnedOutcome, NonblockingRing24Ranks) {
  simmpi::Config cfg;
  cfg.ranks = 24;
  cfg.ranks_per_node = 4;
  cfg.nodes.set_os_noise(0.1, 1e-4, 7);
  cfg.nodes.set_node_speed(2, 0.6);
  cfg.congestion.add_window(0.002, 0.004, 3.0);
  const auto run = simmpi::run(cfg, [](simmpi::Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int i = 0; i < 60; ++i) {
      comm.compute(1e-4 * (1 + (comm.rank() * 7 + i) % 5));
      comm.sendrecv(next, 1, 512, prev, 1, 512);
      std::array<simmpi::Comm::Request, 4> reqs = {
          comm.irecv(prev, 2, 256), comm.irecv(next, 3, 256),
          comm.isend(next, 2, 256), comm.isend(prev, 3, 256)};
      comm.waitall(reqs);
      comm.allreduce(64);
      comm.bcast(i % comm.size(), 1024 * (1 + i % 3));
      if (i % 10 == 0) comm.reduce((i / 10) % comm.size(), 4096);
    }
  });
  expect_pinned(run, run.makespan(), kRing24, kRing24Makespan);
}

}  // namespace
}  // namespace vsensor
