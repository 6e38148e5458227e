#include <gtest/gtest.h>

#include <atomic>

#include "simmpi/comm.hpp"
#include "simmpi/engine.hpp"
#include "support/error.hpp"

namespace vsensor::simmpi {
namespace {

Config small(int ranks) {
  Config cfg;
  cfg.ranks = ranks;
  cfg.ranks_per_node = 4;
  cfg.deadlock_timeout = 10.0;
  return cfg;
}

TEST(Models, CongestionWindowsMultiply) {
  CongestionModel m;
  m.set_base(2.0);
  m.add_window(1.0, 2.0, 3.0);
  m.add_window(1.5, 3.0, 4.0);
  EXPECT_DOUBLE_EQ(m.factor_at(0.5), 2.0);
  EXPECT_DOUBLE_EQ(m.factor_at(1.2), 6.0);
  EXPECT_DOUBLE_EQ(m.factor_at(1.7), 24.0);
  EXPECT_DOUBLE_EQ(m.factor_at(2.5), 8.0);
  EXPECT_DOUBLE_EQ(m.factor_at(3.0), 2.0);
}

TEST(Models, NodeSpeedAndWindows) {
  NodeModel m;
  m.set_node_speed(1, 0.5);
  m.add_noise_window(0, 2.0, 3.0, 0.25);
  EXPECT_DOUBLE_EQ(m.speed_at(0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.speed_at(0, 2.5), 0.25);
  EXPECT_DOUBLE_EQ(m.speed_at(1, 2.5), 0.5);
}

TEST(Models, AdvanceThroughWindow) {
  NodeModel m;
  m.add_noise_window(0, 1.0, 2.0, 0.5);
  // 1.5s of work starting at 0: 1s at full speed, then 0.5s of work at half
  // speed takes 1s -> finishes at 2.0.
  EXPECT_DOUBLE_EQ(m.advance(0, 0.0, 1.5), 2.0);
  // Entirely before the window.
  EXPECT_DOUBLE_EQ(m.advance(0, 0.0, 0.5), 0.5);
  // Zero work is free.
  EXPECT_DOUBLE_EQ(m.advance(0, 5.0, 0.0), 5.0);
}

TEST(Models, OsNoiseIsDeterministicAndBounded) {
  NodeModel m;
  m.set_os_noise(0.1, 1e-3, 42);
  const double s1 = m.speed_at(3, 0.0125);
  const double s2 = m.speed_at(3, 0.0125);
  EXPECT_DOUBLE_EQ(s1, s2);
  for (int i = 0; i < 100; ++i) {
    const double s = m.speed_at(i % 4, i * 1e-3);
    EXPECT_LE(s, 1.0);
    EXPECT_GE(s, 0.9);
  }
}

TEST(Engine, ComputeAdvancesVirtualTime) {
  auto result = run(small(1), [](Comm& comm) {
    comm.compute(0.25);
    EXPECT_DOUBLE_EQ(comm.now(), 0.25);
  });
  EXPECT_DOUBLE_EQ(result.makespan(), 0.25);
  EXPECT_DOUBLE_EQ(result.ranks[0].comp_time, 0.25);
}

TEST(Engine, SendRecvRendezvousTiming) {
  Config cfg = small(2);
  cfg.net.latency = 1e-3;
  cfg.net.bandwidth = 1e6;  // 1 MB/s
  auto result = run(cfg, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.compute(0.5);
      comm.send(1, 7, 1000);  // 1000 B / 1 MB/s = 1 ms
    } else {
      comm.recv(0, 7, 1000);
      // Receiver waits for the sender: 0.5 + latency + transfer.
      EXPECT_NEAR(comm.now(), 0.502, 1e-9);
    }
  });
  EXPECT_NEAR(result.makespan(), 0.502, 1e-9);
  EXPECT_EQ(result.ranks[0].messages, 1u);
  EXPECT_EQ(result.ranks[0].bytes_sent, 1000u);
  // Receiver accounted the waiting as MPI time.
  EXPECT_NEAR(result.ranks[1].mpi_time, 0.502, 1e-9);
}

TEST(Engine, MessagesMatchInFifoOrder) {
  auto result = run(small(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, 100);
      comm.send(1, 5, 200);
    } else {
      comm.recv(0, 5, 100);
      comm.recv(0, 5, 200);
    }
  });
  EXPECT_GT(result.makespan(), 0.0);
}

TEST(Engine, MismatchedSizesThrow) {
  EXPECT_THROW(run(small(2),
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       comm.send(1, 1, 100);
                     } else {
                       comm.recv(0, 1, 999);
                     }
                   }),
               Error);
}

// The barrier orders the receive ahead of the send, so the size check has
// to happen when the send matches the posted receive.
TEST(Engine, MismatchedSizesThrowWhenRecvPostsFirst) {
  EXPECT_THROW(run(small(2),
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       comm.barrier();
                       comm.send(1, 1, 100);
                     } else {
                       auto req = comm.irecv(0, 1, 999);
                       comm.barrier();
                       comm.wait(req);
                     }
                   }),
               Error);
}

TEST(Engine, BarrierSynchronizesClocks) {
  auto result = run(small(4), [](Comm& comm) {
    comm.compute(0.1 * (comm.rank() + 1));
    comm.barrier();
    // Everyone leaves at (slowest arrival) + barrier cost.
    EXPECT_GE(comm.now(), 0.4);
  });
  const double t0 = result.ranks[0].finish_time;
  for (const auto& r : result.ranks) EXPECT_DOUBLE_EQ(r.finish_time, t0);
}

TEST(Engine, CollectiveKindMismatchThrows) {
  EXPECT_THROW(run(small(2),
                   [](Comm& comm) {
                     if (comm.rank() == 0) {
                       comm.barrier();
                     } else {
                       comm.allreduce(8);
                     }
                   }),
               Error);  // VS_CHECK reports the kind mismatch
}

TEST(Engine, SendrecvExchangeIsDeadlockFree) {
  auto result = run(small(8), [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int i = 0; i < 5; ++i) {
      comm.sendrecv(next, 1, 4096, prev, 1, 4096);
    }
  });
  EXPECT_GT(result.makespan(), 0.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto job = [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int i = 0; i < 10; ++i) {
      comm.compute(0.001 * (1 + (comm.rank() + i) % 3));
      comm.sendrecv(next, 2, 1024, prev, 2, 1024);
      comm.allreduce(8);
    }
  };
  Config cfg = small(16);
  cfg.nodes.set_os_noise(0.1, 1e-3, 99);
  const auto a = run(cfg, job);
  const auto b = run(cfg, job);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.ranks[r].finish_time, b.ranks[r].finish_time);
    EXPECT_DOUBLE_EQ(a.ranks[r].comp_time, b.ranks[r].comp_time);
  }
}

TEST(Engine, BadNodeSlowsItsRanksOnly) {
  Config cfg = small(8);  // 4 ranks per node -> 2 nodes
  cfg.nodes.set_node_speed(1, 0.5);
  auto result = run(cfg, [](Comm& comm) { comm.compute(1.0); });
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(result.ranks[static_cast<size_t>(r)].finish_time, 1.0);
  }
  for (int r = 4; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(result.ranks[static_cast<size_t>(r)].finish_time, 2.0);
  }
}

TEST(Engine, CongestionSlowsMessages) {
  Config cfg = small(2);
  cfg.net.latency = 1e-3;
  cfg.net.bandwidth = 1e9;
  cfg.congestion.add_window(0.0, 10.0, 5.0);
  auto result = run(cfg, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, 0);
    } else {
      comm.recv(0, 1, 0);
    }
  });
  EXPECT_NEAR(result.makespan(), 5e-3, 1e-9);
}

TEST(Engine, RankExceptionPropagates) {
  EXPECT_THROW(run(small(4),
                   [](Comm& comm) {
                     if (comm.rank() == 2) throw Error("rank 2 exploded");
                     comm.barrier();
                   }),
               Error);
}

TEST(Engine, TraceSinkSeesAllEvents) {
  struct CountingSink : TraceSink {
    std::atomic<int> events{0};
    std::atomic<uint64_t> bytes{0};
    void on_event(const TraceEvent& ev) override {
      events.fetch_add(1);
      bytes.fetch_add(ev.bytes);
    }
  };
  auto sink = std::make_shared<CountingSink>();
  Config cfg = small(4);
  cfg.trace = sink;
  run(cfg, [](Comm& comm) {
    comm.allreduce(64);
    if (comm.rank() == 0) comm.send(1, 1, 128);
    if (comm.rank() == 1) comm.recv(0, 1, 128);
  });
  // 4 collectives + 1 send + 1 recv.
  EXPECT_EQ(sink->events.load(), 6);
}

TEST(Engine, OverheadChargeAccountedSeparately) {
  auto result = run(small(1), [](Comm& comm) {
    comm.compute(0.1);
    comm.charge_overhead(0.01);
  });
  EXPECT_NEAR(result.ranks[0].comp_time, 0.1, 1e-12);
  EXPECT_NEAR(result.ranks[0].overhead_time, 0.01, 1e-12);
  EXPECT_NEAR(result.makespan(), 0.11, 1e-12);
}

TEST(Engine, PmuCountsUnits) {
  auto result = run(small(1), [](Comm& comm) {
    comm.compute_units(12345, 1e9);
    comm.compute_units(55, 1e9);
  });
  EXPECT_EQ(result.ranks[0].pmu_instructions, 12400u);
}

TEST(Collectives, CostModelShapes) {
  NetworkParams net;
  net.latency = 1e-6;
  net.bandwidth = 1e9;
  // Alltoall scales linearly with P; barrier logarithmically.
  const double a64 = collective_cost(CollKind::Alltoall, net, 64, 1024);
  const double a128 = collective_cost(CollKind::Alltoall, net, 128, 1024);
  EXPECT_GT(a128 / a64, 1.8);
  const double b64 = collective_cost(CollKind::Barrier, net, 64, 0);
  const double b128 = collective_cost(CollKind::Barrier, net, 128, 0);
  EXPECT_NEAR(b128 / b64, 7.0 / 6.0, 1e-9);
  // Single rank: free.
  EXPECT_EQ(collective_cost(CollKind::Allreduce, net, 1, 1024), 0.0);
}

}  // namespace
}  // namespace vsensor::simmpi
