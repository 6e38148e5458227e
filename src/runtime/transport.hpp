// Resilient batch transport between per-rank staging buffers and the
// analysis server (paper §5.4, hardened).
//
// The paper ships per-sensor slice batches from every rank to a dedicated
// analysis process; at cluster scale that path sees dropped messages,
// duplicated and reordered deliveries, and ranks that die mid-run. The
// monitoring layer must degrade gracefully under exactly the conditions it
// is measuring, so the transport provides:
//  * per-rank monotonically increasing batch sequence numbers, stamped on
//    the send side and deduplicated on the receive side — a duplicated
//    delivery is suppressed before it can double-count records;
//  * a bounded retry-with-backoff ship path: a lost delivery attempt is
//    retried up to `max_attempts` times with exponential (virtual-time)
//    backoff before the batch is declared lost and accounted as such;
//  * per-rank delivery / drop / retry / duplicate counters, so every
//    failure is observable instead of silently skewing the analysis;
//  * stale-rank tracking: a rank whose deliveries stop arriving (or whose
//    transport the fault model killed) is reported stale, letting the
//    detectors exclude it instead of mistaking absence for speed.
//
// Faults are injected through the TransportFaultModel interface; the
// deterministic simulator-side implementation lives in simmpi/faults.hpp so
// this layer stays independent of the simulation harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "obs/health.hpp"
#include "runtime/collector.hpp"
#include "runtime/record_batch.hpp"
#include "runtime/types.hpp"

namespace vsensor::rt {

/// Elastic-rank generations ride in the high bits of the wire sequence
/// number: a rank that leaves and rejoins under the same id starts a new
/// incarnation whose sequence space sorts strictly above everything the
/// previous incarnation could have shipped. Receive-side watermarks then
/// distinguish "fresh delivery from the new incarnation" (seq above the
/// generation floor — never a duplicate of old history) from "straggler of
/// a superseded incarnation" (below the floor — suppressed), with no wire
/// or checkpoint format change. 16 generation bits leave 48 bits of local
/// sequence per incarnation — both unreachable in any real run.
inline constexpr int kSeqGenShift = 48;
inline constexpr uint64_t kSeqLocalMask = (uint64_t{1} << kSeqGenShift) - 1;

inline constexpr uint64_t seq_make(uint64_t generation, uint64_t local) {
  return (generation << kSeqGenShift) | (local & kSeqLocalMask);
}
inline constexpr uint64_t seq_generation(uint64_t seq) {
  return seq >> kSeqGenShift;
}
inline constexpr uint64_t seq_local(uint64_t seq) { return seq & kSeqLocalMask; }

/// Receive-side per-rank dedup state: a contiguous watermark plus the
/// out-of-order sequence numbers ahead of it, so memory stays bounded by
/// the reorder window instead of growing with the run. Shared between the
/// transport's live dedup and the analysis server's journal-replay dedup
/// (a checkpoint persists these watermarks; replaying a journal suffix
/// that overlaps the checkpoint is then idempotent).
struct SeqTracker {
  uint64_t contiguous = 0;   ///< every seq < contiguous was delivered
  std::set<uint64_t> ahead;  ///< delivered seqs >= contiguous
  bool insert(uint64_t seq); ///< returns false on duplicate
};

/// Decides the fate of one delivery attempt. Implementations must be
/// thread-safe and deterministic in (rank, seq, attempt) — the transport
/// calls concurrently from all rank threads and tests replay decisions.
class TransportFaultModel {
 public:
  struct Decision {
    bool drop = false;      ///< this delivery attempt is lost in flight
    bool duplicate = false; ///< the delivery arrives twice
    int delay_batches = 0;  ///< deliveries that overtake this one (reorder)
  };

  virtual ~TransportFaultModel() = default;

  /// Fate of delivery attempt `attempt` (0-based) of batch `seq` from `rank`.
  virtual Decision decide(int rank, uint64_t seq, uint32_t attempt) const = 0;

  /// True once `rank`'s transport is dead at virtual time `now`; every
  /// subsequent ship from that rank fails without retry.
  virtual bool killed(int rank, double now) const = 0;

  /// Virtual-time points at which the analysis *server* crashes and
  /// recovers (empty = never). The workload harness hands this to the run's
  /// DeliverySink::set_crash_plan, which only the crash-tolerant server and
  /// tier act on; the transport itself ignores it.
  virtual std::vector<double> server_crash_schedule() const { return {}; }

  /// Seed deriving the deterministic details of each server crash (torn
  /// journal tail bytes). Paired with server_crash_schedule().
  virtual uint64_t schedule_seed() const { return 0; }
};

struct TransportConfig {
  /// Delivery attempts per batch (1 = no retry).
  uint32_t max_attempts = 4;
  /// Virtual seconds of backoff after the first failed attempt; doubles on
  /// each further failure. Accounted per rank, not charged to the clock —
  /// shipping is off the ranks' critical path.
  double retry_backoff = 1e-4;
  /// A rank with no delivery for this many virtual seconds is stale.
  double stale_after = 1.0;
};

/// Per-rank transport counters. All monotonically increasing. After
/// drain(), every shipped batch is accounted exactly once:
/// batches_sent == batches_delivered + batches_lost.
struct RankChannelStats {
  uint64_t batches_sent = 0;       ///< ship() calls for this rank
  uint64_t batches_delivered = 0;  ///< unique batches stored by the server
  uint64_t batches_lost = 0;       ///< retries exhausted or rank killed
  uint64_t records_delivered = 0;
  uint64_t records_lost = 0;
  uint64_t retries = 0;                 ///< failed attempts that were retried
  uint64_t duplicates_suppressed = 0;   ///< duplicate deliveries deduplicated
  uint64_t delayed_batches = 0;         ///< deliveries that were reordered
  uint64_t wire_bytes = 0;  ///< bytes that reached the server, duplicates included
  double backoff_seconds = 0.0;         ///< total virtual backoff spent
  double last_delivery_time = -1.0;     ///< virtual time of newest delivery
  uint64_t next_seq = 0;                ///< next sequence number to stamp
};

class BatchTransport : public obs::HealthSource {
 public:
  /// `sink` receives every unique delivery with its transport metadata
  /// (rank, seq, arrival time) intact: a Collector ingests it, the
  /// crash-tolerant analysis server journals it before folding. `faults`
  /// (optional, not owned) injects failures. With no fault model the
  /// transport is a transparent sequenced pass-through: same batches, same
  /// order, same collector counters as calling Collector::ingest directly.
  BatchTransport(DeliverySink* sink, int ranks, TransportConfig cfg = {},
                 const TransportFaultModel* faults = nullptr);

  /// Drains: anything still held in the delay queue is delivered, so
  /// in-flight batches are never silently lost.
  ~BatchTransport();

  /// Ship one batch from `rank` at virtual time `now`: stamps the next
  /// sequence number, walks the retry loop inline, and returns true if the
  /// batch was delivered (possibly deferred behind later deliveries when
  /// the fault model delays it). Thread-safe across ranks, but each rank's
  /// ship() calls must come from one thread (the rank thread): the
  /// delivery itself runs outside the transport lock, so two threads
  /// shipping for one rank could deliver its batches out of order, and
  /// the fold's per-rank state (matrix cell sums, last slice, intra
  /// flags) is reproducible only when each rank's batches arrive in the
  /// order they were shipped (docs/pipeline.md §6e).
  bool ship(int rank, std::span<const SliceRecord> batch, double now);

  /// Same, from struct-of-arrays columns: gathers to the AoS wire form
  /// once, then ships the span.
  bool ship(int rank, const RecordBatch& batch, double now);

  /// Deliver every batch still held in the delay queue (end of run; the
  /// wire is always drained before analysis). Idempotent and re-entrancy
  /// safe: a second call — including the destructor's — delivers only
  /// what arrived since the first, and a drain triggered from within a
  /// drain (e.g. a sink that ships) is a no-op instead of a deadlock.
  void drain();

  /// Ranks considered stale at `now`: transport killed by the fault model,
  /// or silent for longer than `stale_after` since the channel's last
  /// delivery (or, for a channel that never delivered, since it was
  /// created — job start for construction-time channels, add_rank() time
  /// for late joiners).
  std::vector<int> stale_ranks(double now) const;

  /// Invoke `on_stale` once per newly stale rank at `now` (idempotent per
  /// rank) and return how many ranks were newly reported. The streaming
  /// detector's mark_stale hooks in here.
  size_t sweep_stale(double now, const std::function<void(int)>& on_stale);

  /// Ranks sweep_stale() has reported so far. This — not a raw
  /// stale_ranks(now) recomputation — is the set the detectors were told
  /// about, so session reporting must read it to stay in agreement with
  /// the journaled exclusions.
  std::vector<int> reported_stale_ranks() const;

  /// Grow the channel table by one rank at virtual time `now` (elastic
  /// jobs: a rank joining mid-run). The new channel ages toward staleness
  /// from `now`, not from job start. Returns the new rank id. Not safe
  /// against concurrent ship() — call from the coordinator between
  /// communication phases.
  int add_rank(double now);

  /// Elastic jobs: rank `rank` left and is rejoining under the same id at
  /// virtual time `now`. Starts a fresh delivery incarnation — the send
  /// counter restarts, the channel ages toward staleness from `now`, and
  /// the sticky reported-stale verdict is cleared (the caller routes the
  /// matching mark_live revival into the detection layer). Returns whether
  /// the rank had been reported stale (i.e. whether a revival is needed).
  /// Safe against concurrent ship() from *other* ranks; the rejoining rank
  /// itself must not be shipping concurrently.
  bool rejoin_rank(int rank, double now);

  RankChannelStats rank_stats(int rank) const;
  /// Field-wise sum over all ranks (last_delivery_time = max, next_seq = sum).
  RankChannelStats totals() const;

  int ranks() const { return static_cast<int>(channels_.size()); }
  const TransportConfig& config() const { return cfg_; }

  /// Health plane (opt-in, non-owning): the sampler is poked with the
  /// virtual arrival time of every unique delivery (the transport's
  /// natural clock ticks). Wire it before ranks start shipping and clear
  /// it only after they quiesce — the delivery path reads it
  /// unsynchronized.
  void set_health_sampler(obs::HealthSampler* sampler) { sampler_ = sampler; }

  /// Aggregate channel health: delivery/loss totals, per-rank channel lag
  /// (now − last delivery) extremes, watermark skew (spread of contiguous
  /// sequence watermarks across ranks), and delay-queue depth.
  void sample_health(double now, obs::HealthRecorder& rec) const override;

 private:
  struct DelayedBatch {
    int rank = -1;
    uint64_t seq = 0;
    double now = 0.0;
    int remaining = 0;  ///< deliveries left before this one releases
    std::vector<SliceRecord> records;
  };

  struct Channel {
    RankChannelStats stats;
    SeqTracker seen;
    /// Delivery incarnation of this rank (bumped by rejoin_rank). Stamped
    /// into the high bits of every shipped seq — see seq_make.
    uint64_t generation = 0;
    bool reported_stale = false;
    /// Virtual time this channel came into existence. Construction-time
    /// channels are born with the job (t=0); channels added mid-run via
    /// add_rank() age from their creation time, so a late-joining rank is
    /// not instantly stale just because it has not delivered yet.
    double first_seen = 0.0;
  };

  /// One delivery arriving at the server: accept it, then release held
  /// batches whose countdown expires, each one an arrival itself.
  /// Caller holds mu_.
  void arrive(int rank, uint64_t seq, std::span<const SliceRecord> batch,
              double now, std::vector<DelayedBatch>& ready);
  /// The receive side of one physical arrival, shared by arrive() and
  /// drain(): wire bytes, dedup, counters, and a first copy onto `ready`.
  /// Caller holds mu_.
  void accept(DelayedBatch ev, std::vector<DelayedBatch>& ready);
  bool stale_locked(const Channel& ch, int rank, double now) const;

  /// Hand one deduplicated batch to the sink. Caller must NOT hold mu_.
  void deliver(int rank, uint64_t seq, std::span<const SliceRecord> batch,
               double now);

  DeliverySink* sink_;
  TransportConfig cfg_;
  const TransportFaultModel* faults_;

  mutable std::mutex mu_;
  std::vector<Channel> channels_;
  std::vector<DelayedBatch> delayed_;
  std::atomic<bool> draining_{false};

  /// Health plane (non-owning; null = unwired, one branch per site).
  obs::HealthSampler* sampler_ = nullptr;
};

}  // namespace vsensor::rt
