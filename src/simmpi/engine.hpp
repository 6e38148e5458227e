// simMPI engine: deterministic virtual-time simulation of an MPI job.
//
// Each rank runs on its own thread with a private virtual clock. Computation
// advances the clock through the NodeModel; communication synchronizes clocks
// through rendezvous (p2p) and sequence-matched collectives, with costs from
// NetworkParams x CongestionModel. All timing derives from the models, never
// from the host, so results are bit-reproducible regardless of host load or
// thread scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "simmpi/models.hpp"
#include "simmpi/trace.hpp"

namespace vsensor::rt {
class TransportFaultModel;
}  // namespace vsensor::rt

namespace vsensor::simmpi {

class Comm;

/// Elastic jobs: one planned absence of `rank` — it stops doing work at
/// the first sense boundary at/after `leave_at` and idles (virtual time
/// advances, no compute, no MPI) until `rejoin_at`, then resumes under the
/// same rank id. The simulation stays deterministic: other ranks block at
/// their next rendezvous/collective with the absentee and resume when it
/// rejoins, exactly as a real elastic job would stall. Windows of one rank
/// must not overlap; the workload layer applies them in leave_at order.
struct ElasticWindow {
  int rank = -1;
  double leave_at = 0.0;
  double rejoin_at = 0.0;
};

/// Job configuration: topology, performance models, and hooks.
struct Config {
  int ranks = 1;
  int ranks_per_node = 24;  ///< Tianhe-2 nodes have 24 cores
  NetworkParams net;
  NodeModel nodes;
  CongestionModel congestion;
  std::shared_ptr<TraceSink> trace;  ///< optional; receives all MPI events
  bool trace_compute = false;        ///< also emit Compute events (verbose)
  double deadlock_timeout = 60.0;    ///< real seconds one parked wait may last
                                     ///< before the job is declared deadlocked
  /// Optional: invoked on each rank's own thread right after the rank
  /// function returns, while other ranks may still be running. The
  /// workload layer uses this to drain the rank's staged sensor batches to
  /// the analysis server as ranks complete (§5.4 batched push) instead of
  /// serializing all flushes after the join.
  std::function<void(Comm&)> on_rank_complete;
  /// Optional fault model for the *monitoring transport* (not MPI): when
  /// set, the workload layer routes every rank's batch shipping through a
  /// resilient BatchTransport governed by this model (drops, duplicates,
  /// delays, rank-kill — see simmpi/faults.hpp). The simulated job's MPI
  /// semantics are unaffected; only the measurement path degrades.
  std::shared_ptr<const rt::TransportFaultModel> transport_faults;
  /// Planned rank absences (elastic jobs). Consumed by the workload layer
  /// at sense boundaries; the engine itself only carries the plan.
  std::vector<ElasticWindow> elastic;
};

/// Per-rank outcome of a simulated run.
struct RankStats {
  double finish_time = 0.0;  ///< virtual time at rank function return
  double comp_time = 0.0;    ///< virtual seconds spent in compute()
  double mpi_time = 0.0;     ///< virtual seconds spent inside MPI operations
  double overhead_time = 0.0;  ///< virtual seconds charged as probe overhead
  double idle_time = 0.0;      ///< virtual seconds idled away (elastic leave)
  uint64_t messages = 0;       ///< p2p sends + collective calls
  uint64_t bytes_sent = 0;
  uint64_t pmu_instructions = 0;  ///< simulated instruction counter
};

struct RunResult {
  std::vector<RankStats> ranks;
  /// Virtual makespan: max finish time over ranks.
  double makespan() const;
  double total_comp_time() const;
  double total_mpi_time() const;
};

/// The body of one MPI rank.
using RankFn = std::function<void(Comm&)>;

enum class CollKind {
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Alltoall,
  Allgather,
  Gather,
  Scatter,
};

const char* coll_name(CollKind kind);

/// Cost (virtual seconds) of one collective over P ranks moving `bytes`
/// per rank-pair (Alltoall) or per rank (others), before congestion scaling.
double collective_cost(CollKind kind, const NetworkParams& net, int ranks,
                       uint64_t bytes);

/// Cost of one point-to-point message before congestion scaling.
double p2p_cost(const NetworkParams& net, uint64_t bytes);

class Engine {
 public:
  explicit Engine(Config cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run `fn` on every rank; blocks until all ranks return. Rethrows the
  /// first exception raised by any rank.
  RunResult run(const RankFn& fn);

  const Config& config() const { return cfg_; }

 private:
  friend class Comm;

  struct P2PEntry {
    double sender_time = 0.0;
    double receiver_time = 0.0;
    uint64_t bytes = 0;
    bool has_sender = false;
    bool has_receiver = false;
    double done_time = 0.0;
    /// Stored 1 (release) once done_time is final; read with acquire.
    std::atomic<uint64_t> ready{0};
  };
  using P2PEntryPtr = std::shared_ptr<P2PEntry>;

  /// The FIFOs of every channel (src, this rank, tag) that delivers to one
  /// rank, keyed by (src, tag). Only the rank itself and its senders lock it.
  struct alignas(64) Inbox {
    std::mutex mu;
    std::map<std::pair<int, int>, std::deque<P2PEntryPtr>> channels;
  };

  /// Where a rank thread sleeps once polling gives up. Only a thread that
  /// completes an entry this rank posted, or aborts the job, notifies it.
  struct alignas(64) Parking {
    std::mutex mu;
    std::condition_variable cv;
  };

  /// One rank's arrival at its current collective, written by that rank
  /// alone before it counts itself in (one cache line per rank).
  struct alignas(64) Arrival {
    CollKind kind = CollKind::Barrier;
    int root = 0;
    uint64_t bytes = 0;
    double time = 0.0;
  };

  P2PEntryPtr post_send(int src, int dst, int tag, uint64_t bytes, double now);
  P2PEntryPtr post_recv(int src, int dst, int tag, uint64_t bytes, double now);
  void try_complete(const P2PEntryPtr& entry, std::deque<P2PEntryPtr>& queue);
  double await_p2p(int rank, const P2PEntryPtr& entry);

  double collective(int rank, uint64_t seq, CollKind kind, int root,
                    uint64_t bytes, double now);

  /// Block `rank` until `ready` reads at least `target` or the job aborts:
  /// poll, then park.
  void await_ready(int rank, const std::atomic<uint64_t>& ready, uint64_t target,
                   const char* timeout_message);
  void wake(int rank);
  void abort_all() noexcept;
  void check_not_aborted() const;

  Config cfg_;
  std::unique_ptr<Inbox[]> inboxes_;    ///< one per rank
  std::unique_ptr<Parking[]> parking_;  ///< one per rank
  std::unique_ptr<Arrival[]> arrivals_;  ///< one per rank, reused by every collective
  double coll_done_time_ = 0.0;  ///< of the last completed collective
  /// Collective arrivals so far: collective `seq` is complete once this
  /// reaches (seq + 1) x ranks.
  alignas(64) std::atomic<uint64_t> coll_arrived_{0};
  /// Collectives completed so far; stored (release) after coll_done_time_.
  alignas(64) std::atomic<uint64_t> coll_done_{0};
  alignas(64) std::atomic<bool> aborted_{false};
};

/// Convenience wrapper: build an engine and run one job.
RunResult run(Config cfg, const RankFn& fn);

}  // namespace vsensor::simmpi
