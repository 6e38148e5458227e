// Crash-tolerant analysis server (paper §5.4, hardened).
//
// The paper dedicates one process to inter-process analysis; at cluster
// scale that process is itself a failure domain. This server wraps a
// Collector + StreamingDetector pair with a durability discipline:
//
//  * write-ahead journal — every acknowledged delivery is appended to the
//    journal (runtime/journal.hpp) *before* it folds into streaming state,
//    under the same lock, so the journal's frame order IS the fold order.
//    The journal is the server's one copy of its records: the collector
//    only counts each batch and forwards it to the detector
//    (Collector::forward), so the server's memory is the fold state, not
//    the length of the run;
//  * periodic checkpoints — every `checkpoint_every_batches` deliveries,
//    the detector state + collector counters + per-rank delivery
//    watermarks are encoded straight from the live state into one reused
//    buffer (runtime/checkpoint.hpp). The checkpoint file holds a full base,
//    published atomically (tmp + rename), then delta frames appended in
//    place: a periodic checkpoint writes only what the fold changed since
//    the previous one. Once the deltas add up to the base's own size, the
//    next periodic checkpoint writes a new base, so the file stays under
//    about twice the base. The explicit, post-recovery and re-arm
//    checkpoints are always bases, and so is the first checkpoint after
//    any failed checkpoint write or crash;
//  * recovery — decode the newest valid checkpoint straight into the
//    detector, its base plus the deltas that apply (or start from zero
//    state if the base is missing, corrupt or of another shape),
//    salvage the valid prefix of the journal, and replay the suffix
//    through the same forward-and-fold path. Frames already covered by the
//    checkpoint are skipped by the watermark dedup, so replay is
//    idempotent — no batch is ever double-counted. After replay
//    the server checkpoints the recovered state and truncates the journal
//    (truncation is lazy: deferred to recovery, so between recoveries the
//    journal is a pure append-only redo log and checkpoints bound replay
//    *work*, not file size).
//
// Recovery equivalence: a run that crashes and recovers at any delivery
// boundary produces bit-identical matrices, variance events, and flag
// counters to an uninterrupted run. The journal replays the exact fold
// order; every checkpointed double round-trips byte-exact.
//
// Crash injection is deterministic: a crash plan (virtual-time points +
// seed) makes the server "die" at the first delivery at or after each
// point — the in-memory state (collector counters, detector state, journal
// user-space buffer) is destroyed, a seed-derived torn frame prefix is
// appended to the journal file to model a write cut mid-frame, and the
// server restarts through recover() before processing the triggering
// delivery. The transport (send side, wire, receive dedup) survives, as a
// network stack would.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/collector.hpp"
#include "runtime/journal.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"

namespace vsensor::rt {

struct ServerConfig {
  std::string journal_path = "analysis.journal";
  std::string checkpoint_path = "analysis.ckpt";
  /// Checkpoint after every N ingested batches (0 = only the checkpoints
  /// recovery itself takes).
  uint64_t checkpoint_every_batches = 0;
  JournalWriterConfig journal;
  /// Crash flight recorder dump path; "" derives "<journal_path>.flight".
  /// Written on crash and on torn-journal salvage, but only once event
  /// hooks are wired (set_event_hooks) — an unwired server never creates
  /// flight files.
  std::string flight_path;
  /// Events + health snapshots the flight ring retains (last N).
  size_t flight_capacity = 256;
  /// Storage chaos seam: every durable write this server makes (journal,
  /// checkpoint publish, flight dump) routes through this vfs. Null = the
  /// real filesystem. Non-owning; must outlive the server.
  io::Vfs* vfs = nullptr;
  /// Degraded-mode policy: a failed journal drain is retried this many
  /// times before the shard drops to degraded (non-durable) mode. Each
  /// retry is charged a doubling *virtual* backoff starting at
  /// io_retry_backoff — accounted in the io_backoff_seconds health gauge,
  /// never slept, so detection timing stays untouched.
  uint64_t io_retry_attempts = 3;
  double io_retry_backoff = 1e-4;
  /// While degraded, probe for re-arm (fresh checkpoint + truncated
  /// journal) every N dropped appends (0 = never re-arm automatically).
  uint64_t rearm_every_appends = 4;
};

/// What one recovery pass did, for reporting and tests.
struct RecoveryReport {
  bool checkpoint_loaded = false;
  /// Why the checkpoint was rejected, or which delta tail it dropped ("").
  std::string checkpoint_warning;
  uint64_t checkpoint_deltas = 0;  ///< delta frames applied to the base
  std::string journal_warning;     ///< salvage description ("" = clean)
  uint64_t frames_replayed = 0;    ///< frames folded into recovered state
  uint64_t frames_skipped = 0;     ///< frames dropped by watermark dedup
  uint64_t records_replayed = 0;
  uint64_t torn_bytes = 0;         ///< journal tail bytes salvaged away
  double recovery_seconds = 0.0;   ///< wall time of the recover() call
};

class AnalysisServer final : public DeliverySink, public obs::HealthSource {
 public:
  /// `collector` and `detector` are owned by the caller and survive the
  /// simulated crash as objects — crash() resets their state in place, so
  /// external wiring (the collector's attached sink, references held by
  /// the workload) stays valid across crash/recover cycles. The detector
  /// must be attached as the collector's sink by the caller. The server
  /// only forwards through the collector, which therefore stores no
  /// record: its record_count() reads 0 while its counters account every
  /// delivery. Construction touches no file: the journal is opened
  /// (truncated) at the server's first write, or by recover() once it has
  /// replayed it, so a server built over a predecessor's journal and
  /// checkpoint can recover them.
  AnalysisServer(ServerConfig cfg, Collector* collector,
                 StreamingDetector* detector);
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Deterministic crash plan: at the first delivery whose virtual time is
  /// >= times[i], the server crashes and recovers before processing it.
  /// `seed` derives the torn journal tail appended at each crash. Call
  /// before deliveries start.
  void set_crash_plan(std::vector<double> times, uint64_t seed) override;

  /// The sensor table goes to the wrapped collector.
  void set_sensors(std::vector<SensorInfo> sensors) override {
    collector_->set_sensors(std::move(sensors));
  }

  /// Transport delivery path: maybe crash/recover per the plan, then
  /// journal-append and fold under one lock (journal order = fold order).
  /// A delivery from a rank outside [0, ranks), or carrying a record the
  /// detector would reject, throws before anything is journaled.
  void on_delivery(int rank, uint64_t seq,
                   std::span<const SliceRecord> batch, double now) override;

  /// Journal a stale-rank mark and forward it to the detector, so the
  /// exclusion survives a crash that happens before the next checkpoint.
  /// `now` (when known) stamps the sweep's virtual time onto the emitted
  /// StaleRank event. A rank outside [0, ranks) throws before anything is
  /// journaled, here and in mark_live.
  void mark_stale(int rank, double now = -1.0) override;

  /// Journal an elastic revival (rank rejoined after a stale verdict) and
  /// forward it to the detector, so a crash-recovered server replays the
  /// exact stale→live transition order the live run folded.
  void mark_live(int rank, double now = -1.0);

  /// Journal a peer shard's (sensor, group) standard minimum and min-fold
  /// it into the detector's board, under the same lock as deliveries —
  /// journal order stays fold order, so shard recovery replays the exact
  /// interleaving of batches and peer updates that produced the flags.
  void apply_standard(int sensor_id, int group, double value);

  /// Publish the complete server state as a new base checkpoint (tmp +
  /// rename), so the file holds no delta.
  void checkpoint();

  /// Restore from the newest valid checkpoint + journal suffix replay.
  /// Normally invoked internally by the crash path; exposed for tests and
  /// for restarting a server over existing on-disk state: a fresh server
  /// built over a predecessor's files and recovered first ends with the
  /// predecessor's state, bit for bit. Journal frames that cannot fold
  /// (unknown rank or sensor) are skipped and counted.
  RecoveryReport recover();

  /// Simulate the process dying right now: discard the journal's
  /// user-space buffer, append a torn frame prefix derived from the crash
  /// seed, and destroy all in-memory analysis state. recover() brings the
  /// server back.
  void crash();

  uint64_t crashes() const;
  uint64_t delivered_batches() const;
  /// Live deliveries ignored because their seq was already covered by a
  /// watermark (transport dedup failed upstream); expected to stay 0.
  uint64_t duplicate_deliveries() const;

  /// Degraded (non-durable) mode: journal writes exhausted their retries,
  /// so frames are dropped-and-counted while ingest and detection continue
  /// unchanged. A fresh checkpoint that lands re-arms durability. The flag
  /// deliberately survives a crash: recovering while degraded means the
  /// dropped frames are unrecoverable — that recovery is counted lossy and
  /// flagged on its Recovery event, never silent. So is a recovery whose
  /// journal writer's final drain could not land acknowledged frames.
  bool degraded() const;
  uint64_t degraded_entries() const;
  uint64_t rearms() const;
  uint64_t lossy_recoveries() const;
  /// Bytes of acknowledged appends that will never be durable: the buffer
  /// dropped at degraded entry plus every frame dropped while degraded.
  uint64_t dropped_journal_bytes() const;
  /// Failed durable-write operations (journal + checkpoint + flight),
  /// accumulated across journal writer generations.
  uint64_t io_errors() const;
  uint64_t io_retries() const;
  /// Acknowledged journal bytes a writer dropped (the buffer at degraded
  /// entry, or what its final drain could not land), over every writer.
  uint64_t lost_journal_bytes() const;
  uint64_t checkpoint_failures() const;
  uint64_t orphan_tmps_removed() const;
  uint64_t flight_dump_failures() const;
  const std::vector<RecoveryReport>& recoveries() const { return reports_; }
  const ServerConfig& config() const { return cfg_; }
  const JournalWriter* journal() const { return journal_.get(); }

  /// Health plane (opt-in). Wiring event hooks engages the server's own
  /// flight recorder: the detector's flag/stale events and the server's
  /// crash/recovery/salvage/checkpoint events tee into a bounded ring that
  /// is dumped to flight_path() on crash or torn-journal salvage. The
  /// hooks' shard index attributes everything this server emits.
  void set_event_hooks(obs::EventHooks hooks);
  /// Provenance stamped into flight dumps (optional).
  void set_run_identity(obs::RunIdentity id) { identity_ = std::move(id); }
  /// Where flight dumps land (cfg.flight_path or "<journal>.flight").
  std::string flight_path() const;
  const obs::FlightRecorder& flight() const { return flight_; }
  obs::FlightRecorder& flight() { return flight_; }

  /// Health plane: durability gauges (journal bytes/frames/commits summed
  /// over every writer the server has had, bytes per append p50/p99,
  /// checkpoint count, bytes and age in virtual seconds, crash/recovery
  /// counts and the frames recoveries replayed and skipped) plus the
  /// collector's and detector's own gauges under "collector." /
  /// "detector." sub-prefixes.
  void sample_health(double now, obs::HealthRecorder& rec) const override;

 private:
  void crash_locked();
  RecoveryReport recover_locked();
  void checkpoint_locked(bool allow_delta);
  /// Encode the live state into ckpt_buf_ and write it: a delta appended to
  /// the file when `allow_delta` and the rebase rule permit, else a base
  /// published atomically. Only periodic checkpoints allow a delta.
  CheckpointSaveResult save_checkpoint_locked(bool allow_delta);
  /// Open (truncate) the journal if this server has not written yet.
  void open_journal_locked();
  void append_frame_locked(JournalFrameKind kind, int32_t rank, uint64_t seq,
                           std::span<const SliceRecord> records);
  void dump_flight_locked();
  /// Give the writer its final drain, fold its counters into
  /// retired_journal_ (they die with the writer otherwise), then destroy
  /// it. Returns the acknowledged bytes the final drain could not land.
  uint64_t retire_journal_locked();
  void enter_degraded_locked(std::string why);
  void maybe_rearm_locked();
  /// Counters of every journal writer this server has had.
  JournalCounters journal_counters_locked() const;
  uint64_t io_errors_locked() const;

  ServerConfig cfg_;
  Collector* collector_;
  StreamingDetector* detector_;

  mutable std::mutex mu_;
  std::unique_ptr<JournalWriter> journal_;
  /// True until the first write or recover(): the constructor leaves a
  /// predecessor's journal intact so recover() can replay it.
  bool journal_unopened_ = true;
  /// Checkpoint bytes, reused so each checkpoint writes into a buffer that
  /// already has the capacity of the last one.
  std::string ckpt_buf_;
  /// Size of the base this server published into the checkpoint file; 0
  /// when none is known good (none written yet, or a write failed or a
  /// crash came since), which makes the next checkpoint a base.
  uint64_t base_bytes_ = 0;
  /// Delta bytes appended after that base.
  uint64_t delta_bytes_ = 0;
  std::vector<SeqTracker> watermarks_;  ///< per-rank replay dedup state
  std::vector<double> crash_times_;     ///< ascending virtual-time points
  size_t next_crash_ = 0;
  uint64_t crash_seed_ = 0;
  uint64_t crashes_ = 0;
  uint64_t delivered_batches_ = 0;
  uint64_t duplicate_deliveries_ = 0;
  uint64_t batches_since_checkpoint_ = 0;
  std::vector<RecoveryReport> reports_;

  // Degraded-mode state machine (durable → retrying → degraded → re-armed;
  // see docs/recovery.md). degraded_appends_ counts drops since entering
  // degraded mode, pacing the re-arm probes.
  bool degraded_ = false;
  uint64_t degraded_entries_ = 0;
  uint64_t degraded_appends_ = 0;
  uint64_t dropped_journal_bytes_ = 0;
  uint64_t io_retries_ = 0;
  double io_backoff_seconds_ = 0.0;
  uint64_t rearms_ = 0;
  uint64_t lossy_recoveries_ = 0;
  uint64_t checkpoint_failures_ = 0;
  uint64_t orphan_tmps_removed_ = 0;
  uint64_t flight_dump_failures_ = 0;
  /// Counters inherited from retired journal writers (crash/recover cycles
  /// destroy the writer object together with its tallies).
  JournalCounters retired_journal_;

  // Health plane. last_now_ is the virtual time of the newest delivery —
  // the clock crash/checkpoint events are stamped with (a crash fires at a
  // delivery boundary, so the triggering delivery's time is the crash
  // time). checkpoint_t_ is the virtual time of the last checkpoint (< 0 =
  // never), so checkpoint age stays a pure virtual-time quantity.
  obs::EventHooks hooks_;
  bool flight_wired_ = false;
  obs::FlightRecorder flight_;
  std::optional<obs::RunIdentity> identity_;
  double last_now_ = -1.0;
  double checkpoint_t_ = -1.0;
  uint64_t checkpoints_saved_ = 0;
  uint64_t checkpoint_bytes_ = 0;  ///< bases and deltas written
  /// Bytes appended to the journal per append call — a deterministic
  /// stand-in for append latency (wall time would break snapshot
  /// bit-reproducibility).
  obs::LogHistogram append_bytes_hist_{
      obs::LogHistogram::Config{1.0, 2.0, 48}};
};

}  // namespace vsensor::rt
