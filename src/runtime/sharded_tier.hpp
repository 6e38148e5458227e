// Sharded analysis tier: N crash-tolerant AnalysisServer instances behind
// a rank-partitioned DeliverySink router (ROADMAP: 16K-rank fan-in).
//
// The paper dedicates one analysis process; at 16,384 ranks a single
// fold/journal lock is the bottleneck, so the tier partitions ranks across
// N independent shards (rank % N), each owning its own Collector,
// StreamingDetector, and AnalysisServer with per-shard journal/checkpoint
// files (paths suffixed ".shard<k>"). Deliveries route to the owning shard
// and never contend with other shards' locks.
//
// Global detection semantics are preserved by two mechanisms:
//
//  * Standards exchange — inter-process flags score each record against
//    the cross-rank *running minimum* standard, which no single shard can
//    see alone. After every routed delivery the router drains the shard's
//    lowered (sensor, group) minima and broadcasts them to every peer,
//    which journals each update as a Standard frame before min-folding it.
//    Under deterministic sequential delivery every shard's standard board
//    therefore equals the global running minimum at each fold, making
//    per-shard inter flags — and their crash/replay — bit-identical to a
//    single server processing the same delivery sequence. (Concurrent
//    deliveries relax this to the same eventual board; flags are then
//    timing-dependent exactly as a single server's arrival order is.)
//
//  * Hierarchical merge — the final result is a binary tree reduction of
//    per-shard StreamingDetector snapshots (min for standards, disjoint
//    union for rank-keyed cells/last-slices/stale sets, sums for counters,
//    Chan's formula for Welford state; see
//    StreamingDetector::merge_snapshots). Because ranks partition the
//    record stream, every merged field except Welford statistics is exact,
//    and finalize() over the merged snapshot reproduces the single-server
//    matrices and variance events bit for bit.
//
// Crash tolerance composes per shard: each shard's journal interleaves its
// batches, stale marks, and received Standard frames in fold order, so a
// shard that crashes recovers its exact pre-crash state (checkpoint +
// replay) independently of its peers, and re-broadcasting replayed minima
// is harmless because min-folds are idempotent.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/health.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/server.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"

namespace vsensor::rt {

struct ShardedTierConfig {
  /// Number of analysis shards (rank % shards routes a delivery).
  int shards = 1;
  /// Base paths; shard k writes "<path>.shard<k>".
  std::string journal_path = "analysis.journal";
  std::string checkpoint_path = "analysis.ckpt";
  /// Per-shard checkpoint cadence (see ServerConfig).
  uint64_t checkpoint_every_batches = 0;
  JournalWriterConfig journal;
  DetectorConfig detector;
  CollectorConfig collector;
  /// Flight recorder base path; shard k dumps "<base>.shard<k>" on crash
  /// or torn-journal salvage ("" derives "<journal_path>.flight").
  std::string flight_path;
  size_t flight_capacity = 256;
  /// Storage chaos seam shared by every shard's durable writes (see
  /// ServerConfig::vfs). Null = real filesystem; non-owning.
  io::Vfs* vfs = nullptr;
  /// Per-shard degraded-mode policy (see ServerConfig).
  uint64_t io_retry_attempts = 3;
  double io_retry_backoff = 1e-4;
  uint64_t rearm_every_appends = 4;
};

class ShardedAnalysisTier final : public DeliverySink,
                                  public obs::HealthSource {
 public:
  /// The sensor table, rank count, and analysis horizon are those of the
  /// run, identical on every shard (each shard's detector sees the full
  /// rank space; only the record stream is partitioned).
  ShardedAnalysisTier(ShardedTierConfig cfg, std::vector<SensorInfo> sensors,
                      int ranks, double run_time);
  ~ShardedAnalysisTier() override;

  ShardedAnalysisTier(const ShardedAnalysisTier&) = delete;
  ShardedAnalysisTier& operator=(const ShardedAnalysisTier&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int shard_of(int rank) const { return rank % shard_count(); }

  /// Route one transport delivery to its rank's shard, then broadcast any
  /// standards the fold lowered to every peer shard. Thread-safe across
  /// ranks; only the owning shard's locks are taken for the fold.
  void on_delivery(int rank, uint64_t seq, std::span<const SliceRecord> batch,
                   double now) override;

  /// Route a transport stale verdict to the rank's owning shard (journaled
  /// there, like any delivery). `now` (when known) stamps the emitted
  /// StaleRank event's virtual time.
  void mark_stale(int rank, double now = -1.0) override;

  /// Route an elastic revival (rank rejoined after a stale verdict) to its
  /// owning shard, journaled there like the stale mark it lifts.
  void mark_live(int rank, double now = -1.0);

  /// Deterministic crash plan for one shard (virtual-time points + torn-
  /// tail seed), or for every shard at once — each shard crashes at its
  /// own first delivery at/after each point.
  void set_crash_plan(int shard, std::vector<double> times, uint64_t seed);
  void set_crash_plan(std::vector<double> times, uint64_t seed) override;

  /// Binary tree reduction of the per-shard detector snapshots.
  StreamingDetector::Snapshot merged_snapshot() const;

  /// Matrices + variance events of the merged global state — bit-identical
  /// to a single server folding the same delivery sequence.
  AnalysisResult finalize() const;

  /// Per-shard fan-in accounting (the pipeline_bench fanin metrics).
  uint64_t routed_batches(int shard) const;
  uint64_t routed_records(int shard) const;
  uint64_t total_routed_records() const;
  /// Standard updates broadcast to peers (total across shards).
  uint64_t broadcast_updates() const;

  /// Durability aggregates across shards (see AnalysisServer accessors).
  int degraded_shards() const;
  uint64_t degraded_entries() const;
  uint64_t rearms() const;
  uint64_t lossy_recoveries() const;
  uint64_t dropped_journal_bytes() const;
  uint64_t io_errors() const;

  AnalysisServer& server(int shard) { return *shards_[checked(shard)]->server; }
  const AnalysisServer& server(int shard) const {
    return *shards_[checked(shard)]->server;
  }
  StreamingDetector& detector(int shard) {
    return *shards_[checked(shard)]->detector;
  }
  const StreamingDetector& detector(int shard) const {
    return *shards_[checked(shard)]->detector;
  }
  Collector& collector(int shard) { return *shards_[checked(shard)]->collector; }

  const ShardedTierConfig& config() const { return cfg_; }
  int ranks() const { return ranks_; }
  double run_time() const { return run_time_; }

  /// Health plane (opt-in). One shared event log fans in every shard's
  /// events, each stamped with its shard index; every shard's server also
  /// engages its own flight recorder (dumped to "<flight base>.shard<k>"
  /// on that shard's crash/salvage). Wire before deliveries start.
  void set_event_log(obs::EventLog* log);
  /// Provenance stamped into every shard's flight dumps.
  void set_run_identity(const obs::RunIdentity& id);
  /// Where shard k's flight dump lands.
  std::string flight_path(int shard) const;

  /// Health plane: per-shard gauges under "shard<k>." (routing counters
  /// plus each server's journal/checkpoint/collector/detector gauges) and
  /// tier-level totals (shards, routed records, broadcast updates).
  void sample_health(double now, obs::HealthRecorder& rec) const override;

 private:
  struct Shard {
    std::unique_ptr<Collector> collector;
    std::unique_ptr<StreamingDetector> detector;
    std::unique_ptr<AnalysisServer> server;
    /// Tier-level event hooks for this shard (StandardUpdate broadcasts);
    /// disengaged until set_event_log.
    obs::EventHooks hooks;
    std::atomic<uint64_t> routed_batches{0};
    std::atomic<uint64_t> routed_records{0};
  };

  size_t checked(int shard) const;
  /// Drain `from`'s lowered standards and broadcast them to every peer.
  void exchange_from(size_t from, double now);

  ShardedTierConfig cfg_;
  std::vector<SensorInfo> sensors_;
  int ranks_;
  double run_time_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> broadcast_updates_{0};
};

}  // namespace vsensor::rt
