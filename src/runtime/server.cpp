#include "runtime/server.hpp"

#include <algorithm>
#include <chrono>

#include "io/vfs.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace vsensor::rt {

AnalysisServer::AnalysisServer(ServerConfig cfg, Collector* collector,
                               StreamingDetector* detector)
    : cfg_(std::move(cfg)),
      collector_(collector),
      detector_(detector),
      flight_(cfg_.flight_capacity) {
  VS_CHECK_MSG(collector_ != nullptr && detector_ != nullptr,
               "server needs a collector and a detector");
  VS_CHECK_MSG(!cfg_.journal_path.empty() && !cfg_.checkpoint_path.empty(),
               "server needs journal and checkpoint paths");
  watermarks_.resize(static_cast<size_t>(detector_->ranks()));
}

AnalysisServer::~AnalysisServer() = default;

void AnalysisServer::set_crash_plan(std::vector<double> times, uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  std::sort(times.begin(), times.end());
  crash_times_ = std::move(times);
  next_crash_ = 0;
  crash_seed_ = seed;
}

void AnalysisServer::on_delivery(int rank, uint64_t seq,
                                 std::span<const SliceRecord> batch,
                                 double now) {
  VS_CHECK_MSG(rank >= 0 && rank < detector_->ranks(),
               "delivery from unknown rank");
  // Checked before journaling, so the journal never holds a frame whose
  // replay would throw.
  VS_CHECK_MSG(
      records_fit(batch, detector_->sensor_count(), detector_->ranks()),
      "delivery carries a record of an unknown sensor or rank");
  std::lock_guard<std::mutex> lock(mu_);
  last_now_ = now;
  // The crash fires at a delivery boundary, before the triggering delivery
  // is processed — the recovered server then handles it normally.
  while (next_crash_ < crash_times_.size() &&
         now >= crash_times_[next_crash_]) {
    ++next_crash_;
    crash_locked();
    reports_.push_back(recover_locked());
  }

  // Write-ahead discipline: the frame is on the journal (and, with the
  // default group-commit interval, on the file) before any state folds.
  // The journal is where the records stay: the collector only counts them
  // and hands them to the detector.
  append_frame_locked(JournalFrameKind::Batch, rank, seq, batch);
  if (!watermarks_[static_cast<size_t>(rank)].insert(seq)) {
    // The transport already deduplicates; a duplicate here means an
    // upstream bug. Count it and refuse the double fold.
    ++duplicate_deliveries_;
    maybe_rearm_locked();
    return;
  }
  collector_->forward(batch);
  ++delivered_batches_;
  ++batches_since_checkpoint_;
  // While degraded the re-arm probe owns checkpoint cadence. It runs only
  // here — after the fold and watermark update — so its checkpoint always
  // covers the delivery that paced it.
  maybe_rearm_locked();
  if (!degraded_ && cfg_.checkpoint_every_batches > 0 &&
      batches_since_checkpoint_ >= cfg_.checkpoint_every_batches) {
    checkpoint_locked(/*allow_delta=*/true);
  }
}

void AnalysisServer::mark_stale(int rank, double now) {
  VS_CHECK_MSG(rank >= 0 && rank < detector_->ranks(),
               "stale mark for unknown rank");
  std::lock_guard<std::mutex> lock(mu_);
  append_frame_locked(JournalFrameKind::StaleRank, rank, 0, {});
  // Sweeps that know the virtual time stamp it onto the StaleRank event;
  // the rest inherit the newest delivery's clock.
  detector_->mark_stale(rank, now >= 0.0 ? now : last_now_);
  maybe_rearm_locked();
}

void AnalysisServer::mark_live(int rank, double now) {
  VS_CHECK_MSG(rank >= 0 && rank < detector_->ranks(),
               "live mark for unknown rank");
  std::lock_guard<std::mutex> lock(mu_);
  append_frame_locked(JournalFrameKind::RankRejoin, rank, 0, {});
  detector_->mark_live(rank, now >= 0.0 ? now : last_now_);
  maybe_rearm_locked();
}

void AnalysisServer::apply_standard(int sensor_id, int group, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const JournalFrame frame = make_standard_frame(sensor_id, group, value);
  append_frame_locked(frame.kind, frame.rank, frame.seq, frame.records);
  detector_->apply_standard_update(sensor_id, group, value);
  maybe_rearm_locked();
}

void AnalysisServer::open_journal_locked() {
  if (!journal_unopened_) return;
  journal_unopened_ = false;
  journal_ =
      std::make_unique<JournalWriter>(cfg_.journal_path, cfg_.journal, cfg_.vfs);
}

void AnalysisServer::append_frame_locked(JournalFrameKind kind, int32_t rank,
                                         uint64_t seq,
                                         std::span<const SliceRecord> records) {
  open_journal_locked();
  if (degraded_ || journal_ == nullptr) {
    // Non-durable mode: the frame still folds (the caller continues), but
    // its bytes are dropped-and-counted instead of journaled. The re-arm
    // probe runs at the END of the operation, not here — a checkpoint
    // snapshotted now would predate this frame's fold, and truncating the
    // journal against it would silently lose the frame.
    dropped_journal_bytes_ += journal_frame_bytes(records.size());
    ++degraded_appends_;
    return;
  }
  const uint64_t before = journal_->appended_bytes();
  bool ok = journal_->append(kind, rank, seq, records);
  // Bytes per append, not wall time: the p50/p99 gauges must be
  // bit-identical across reruns of the same seed.
  append_bytes_hist_.record(
      static_cast<double>(journal_->appended_bytes() - before));
  if (ok) return;
  // The frame is buffered but did not drain. Retry the drain a bounded
  // number of times, charging a doubling virtual backoff (accounted, not
  // slept), then give up and run non-durable.
  double backoff = cfg_.io_retry_backoff;
  for (uint64_t attempt = 0; attempt < cfg_.io_retry_attempts && !ok;
       ++attempt) {
    ++io_retries_;
    io_backoff_seconds_ += backoff;
    backoff *= 2.0;
    ok = journal_->commit();
  }
  if (!ok) {
    enter_degraded_locked("journal drain failed after " +
                          std::to_string(cfg_.io_retry_attempts) +
                          " retries: " + journal_->last_error());
  }
}

uint64_t AnalysisServer::retire_journal_locked() {
  if (journal_ == nullptr) return 0;
  const uint64_t lost = journal_->close();
  retired_journal_.add(journal_->counters());
  journal_.reset();
  return lost;
}

void AnalysisServer::enter_degraded_locked(std::string why) {
  if (degraded_) return;
  degraded_ = true;
  ++degraded_entries_;
  degraded_appends_ = 0;
  size_t dropped = 0;
  if (journal_ != nullptr) dropped = journal_->drop_buffer_as_lost();
  dropped_journal_bytes_ += dropped;
  if (hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::DurabilityDegraded;
    ev.t = last_now_;
    ev.value = static_cast<double>(dropped);
    ev.count = degraded_entries_;
    ev.detail = std::move(why);
    hooks_.emit(std::move(ev));
  }
}

void AnalysisServer::maybe_rearm_locked() {
  if (!degraded_ || cfg_.rearm_every_appends == 0) return;
  if (degraded_appends_ < cfg_.rearm_every_appends) return;
  degraded_appends_ = 0;
  // Durability only re-arms once a fresh checkpoint (covering everything
  // folded so far, dropped frames included) actually lands — only then may
  // the journal be truncated without widening the loss window.
  const auto saved = save_checkpoint_locked(/*allow_delta=*/false);
  if (!saved.ok) {
    ++checkpoint_failures_;
    if (hooks_) {
      obs::Event ev;
      ev.kind = obs::EventKind::CheckpointFailed;
      ev.t = last_now_;
      ev.detail = saved.error;
      hooks_.emit(std::move(ev));
    }
    return;
  }
  batches_since_checkpoint_ = 0;
  checkpoint_t_ = last_now_;
  ++checkpoints_saved_;
  if (journal_ == nullptr) {
    journal_ = std::make_unique<JournalWriter>(cfg_.journal_path, cfg_.journal,
                                               cfg_.vfs);
  } else if (!journal_->reopen_truncated()) {
    return;  // still degraded; the next probe retries
  }
  if (!journal_->healthy()) return;
  degraded_ = false;
  ++rearms_;
  if (hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::DurabilityRearmed;
    ev.t = last_now_;
    ev.count = rearms_;
    ev.detail = cfg_.checkpoint_path;
    hooks_.emit(std::move(ev));
  }
}

CheckpointSaveResult AnalysisServer::save_checkpoint_locked(bool allow_delta) {
  // Deltas follow the base until they add up to its size; then a new base
  // drops them, which keeps the file, and recovery's read, near twice the
  // base.
  const bool delta =
      allow_delta && base_bytes_ > 0 && delta_bytes_ < base_bytes_;
  encode_live_checkpoint(
      ckpt_buf_, delta ? CheckpointFrame::Delta : CheckpointFrame::Base,
      collector_->counters(), watermarks_, *detector_);
  const auto saved =
      delta ? try_append_checkpoint(cfg_.checkpoint_path, ckpt_buf_, cfg_.vfs)
            : try_publish_checkpoint(cfg_.checkpoint_path, ckpt_buf_, cfg_.vfs);
  if (!saved.ok) {
    // The file may now end in a torn delta, and it lacks what this encode
    // cleared the marks of: only a new base makes the chain whole again.
    base_bytes_ = 0;
  } else if (delta) {
    delta_bytes_ += ckpt_buf_.size();
  } else {
    base_bytes_ = ckpt_buf_.size();
    delta_bytes_ = 0;
  }
  if (saved.ok) checkpoint_bytes_ += ckpt_buf_.size();
  return saved;
}

void AnalysisServer::checkpoint_locked(bool allow_delta) {
  obs::ScopedSpan span("server:checkpoint", "durability");
  span.set_shard(hooks_.shard);
  span.set_path(cfg_.checkpoint_path);
  // A checkpoint supersedes whatever journal a predecessor left, so it
  // opens the journal like any other first write. Drain journaled frames
  // to the file first (hygiene; the checkpoint covers all *folded* state
  // either way, and replay is idempotent, so a failed drain does not block
  // the publish).
  open_journal_locked();
  if (journal_ != nullptr) journal_->commit();
  const auto saved = save_checkpoint_locked(allow_delta);
  // Success or failure, the interval restarts: a failed publish keeps the
  // previous checkpoint and retries at the next boundary, not every batch.
  batches_since_checkpoint_ = 0;
  if (!saved.ok) {
    ++checkpoint_failures_;
    if (hooks_) {
      obs::Event ev;
      ev.kind = obs::EventKind::CheckpointFailed;
      ev.t = last_now_;
      ev.detail = saved.error;
      hooks_.emit(std::move(ev));
    }
    return;
  }
  checkpoint_t_ = last_now_;
  ++checkpoints_saved_;
  if (hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::CheckpointSaved;
    ev.t = last_now_;
    ev.count = delivered_batches_;
    ev.detail = cfg_.checkpoint_path;
    hooks_.emit(std::move(ev));
  }
}

void AnalysisServer::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_locked(/*allow_delta=*/false);
}

void AnalysisServer::crash_locked() {
  obs::ScopedSpan span("server:crash", "durability");
  span.set_shard(hooks_.shard);
  span.set_path(cfg_.journal_path);
  ++crashes_;
  if (hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::Crash;
    ev.t = last_now_;
    ev.count = crashes_;
    ev.detail = cfg_.journal_path;
    hooks_.emit(std::move(ev));
  }
  // The torn tail below is a journal write, so a server that never wrote
  // opens (truncates) its journal first, like any first write. The
  // user-space journal buffer dies with the process; only committed bytes
  // survive in the page cache / file.
  open_journal_locked();
  if (journal_ != nullptr) {
    journal_->discard_buffer();
    retire_journal_locked();  // closes the stream
  }

  // Model the write the crash cut short: append a prefix of a real
  // encoded frame, derived purely from (seed, crash ordinal) so the same
  // seed always tears the same bytes. Salvage must drop exactly this.
  uint64_t h = hash_combine(crash_seed_, crashes_);
  JournalFrame torn;
  torn.rank = static_cast<int32_t>(mix64(h) % 64);
  torn.seq = mix64(h + 1);
  torn.records.resize(1 + mix64(h + 2) % 3);
  for (auto& rec : torn.records) {
    rec.sensor_id = static_cast<int32_t>(mix64(h + 3) % 16);
    rec.rank = torn.rank;
    rec.t_begin = 0.0;
    rec.t_end = 1.0;
    rec.avg_duration = 1e-3;
    rec.min_duration = 1e-3;
    rec.count = 1;
  }
  const std::string encoded = encode_journal_frame(torn);
  const size_t cut = 1 + static_cast<size_t>(mix64(h + 4) % (encoded.size() - 1));
  {
    std::string err;
    auto out = io::resolve(cfg_.vfs).open_append(cfg_.journal_path, &err);
    if (out != nullptr) out->append(encoded.data(), cut);
  }

  // In-memory analysis state is gone.
  collector_->reset();
  detector_->reset();
  for (auto& wm : watermarks_) wm = SeqTracker{};
  batches_since_checkpoint_ = 0;
  base_bytes_ = 0;

  // Post-mortem: the flight ring (last N events + health snapshots)
  // survives the simulated process death because the recorder models the
  // mapped core a real flight recorder would land in.
  dump_flight_locked();
}

void AnalysisServer::crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crash_locked();
}

RecoveryReport AnalysisServer::recover_locked() {
  obs::ScopedSpan span("server:recover", "durability");
  span.set_shard(hooks_.shard);
  span.set_path(cfg_.journal_path);
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryReport report;

  // Standalone recover() over a live server: put buffered frames on the
  // file and release it before reading it back; the writer's final drain
  // retries once. (The crash path already destroyed the writer; a fresh
  // server never opened one, so the journal its predecessor left is read
  // intact.)
  journal_unopened_ = false;
  if (journal_ != nullptr) journal_->commit();
  const uint64_t undrained = retire_journal_locked();

  // Frames the final drain could not land, like frames dropped in degraded
  // mode, are unrecoverable — no durable artifact ever saw them. Flag it
  // loudly; the recovered state is the best the artifacts can reconstruct.
  const bool lossy = degraded_ || undrained > 0;
  if (lossy) ++lossy_recoveries_;
  degraded_ = false;
  degraded_appends_ = 0;

  // Sweep the publish window: a crash between tmp-write and rename leaves
  // an orphaned `<checkpoint>.tmp` next to the (intact) previous
  // checkpoint. It is garbage — remove it before anything else.
  if (io::resolve(cfg_.vfs).remove_file(cfg_.checkpoint_path + ".tmp").ok) {
    ++orphan_tmps_removed_;
  }

  // The checkpoint decodes straight into the detector: the base replaces
  // its state and each delta that applies goes over it. A base that fails
  // (damaged, malformed, or of another shape) leaves the state alone.
  CheckpointLoad ckpt = load_checkpoint(cfg_.checkpoint_path, detector_);
  report.checkpoint_warning = std::move(ckpt.warning);
  if (ckpt.ok) {
    collector_->restore_counters(ckpt.ckpt.collector);
    watermarks_ = std::move(ckpt.ckpt.watermarks);
    report.checkpoint_loaded = true;
    report.checkpoint_deltas = ckpt.deltas;
  } else {
    // No usable checkpoint: recover from the journal alone, from zero.
    collector_->reset();
    detector_->reset();
    for (auto& wm : watermarks_) wm = SeqTracker{};
  }

  // Replay inside the walk: each frame folds as it is read, decoded into
  // one reused frame, so the journal is never held whole.
  const JournalWalk jl = load_journal(
      cfg_.journal_path, [&](const JournalFrame& frame) {
        switch (frame.kind) {
          case JournalFrameKind::Batch: {
            if (frame.rank < 0 ||
                static_cast<size_t>(frame.rank) >= watermarks_.size() ||
                !records_fit(frame.records, detector_->sensor_count(),
                             detector_->ranks())) {
              ++report.frames_skipped;
              break;
            }
            // Watermark dedup: a frame the checkpoint already covers folds
            // nowhere — replay is idempotent.
            if (!watermarks_[static_cast<size_t>(frame.rank)].insert(
                    frame.seq)) {
              ++report.frames_skipped;
              break;
            }
            collector_->forward(frame.records);
            ++delivered_batches_;
            ++report.frames_replayed;
            report.records_replayed += frame.records.size();
            break;
          }
          case JournalFrameKind::StaleRank:
          case JournalFrameKind::RankRejoin:
            if (frame.rank < 0 || frame.rank >= detector_->ranks()) {
              ++report.frames_skipped;
            } else {
              if (frame.kind == JournalFrameKind::StaleRank) {
                detector_->mark_stale(frame.rank);
              } else {
                detector_->mark_live(frame.rank);
              }
              ++report.frames_replayed;
            }
            break;
          case JournalFrameKind::Standard: {
            const auto view = decode_standard_frame(frame);
            if (!view) {
              ++report.frames_skipped;
              break;
            }
            // Min-folds are idempotent, so re-applying updates the
            // checkpoint already covers is harmless; order vs batch frames
            // is preserved because the journal records the fold order.
            detector_->apply_standard_update(view->sensor_id, view->group,
                                             view->value);
            ++report.frames_replayed;
            break;
          }
        }
      });
  report.journal_warning = jl.warning;
  report.torn_bytes = jl.torn_bytes;

  // Checkpoint the recovered state first, then truncate the journal (lazy
  // truncation happens here): only once the checkpoint durably covers the
  // replayed frames is the redo log allowed to go. If the publish fails,
  // the on-disk journal must be preserved as the redo source — a fresh
  // writer would truncate it — so the server comes back degraded
  // (journal-less) and the re-arm probe retries the whole sequence.
  const auto saved = save_checkpoint_locked(/*allow_delta=*/false);
  if (saved.ok) {
    batches_since_checkpoint_ = 0;
    checkpoint_t_ = last_now_;
    ++checkpoints_saved_;
    journal_ = std::make_unique<JournalWriter>(cfg_.journal_path, cfg_.journal,
                                               cfg_.vfs);
  } else {
    ++checkpoint_failures_;
    if (hooks_) {
      obs::Event ev;
      ev.kind = obs::EventKind::CheckpointFailed;
      ev.t = last_now_;
      ev.detail = saved.error;
      hooks_.emit(std::move(ev));
    }
    enter_degraded_locked("post-recovery checkpoint failed: " + saved.error);
  }

  report.recovery_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (hooks_) {
    if (report.torn_bytes > 0) {
      obs::Event ev;
      ev.kind = obs::EventKind::JournalSalvage;
      ev.t = last_now_;
      ev.value = static_cast<double>(report.torn_bytes);
      ev.detail = report.journal_warning;
      hooks_.emit(std::move(ev));
    }
    obs::Event ev;
    ev.kind = obs::EventKind::Recovery;
    ev.t = last_now_;
    ev.count = report.frames_replayed;
    ev.detail = report.checkpoint_loaded ? "checkpoint+journal" : "journal_only";
    if (lossy) ev.detail += "+lossy";
    hooks_.emit(std::move(ev));
  }
  // A torn tail warrants a post-mortem even when recover() was a cold
  // start over on-disk state (no crash() call this process): dump the
  // ring with the salvage + recovery events.
  if (report.torn_bytes > 0) dump_flight_locked();
  return report;
}

RecoveryReport AnalysisServer::recover() {
  std::lock_guard<std::mutex> lock(mu_);
  RecoveryReport report = recover_locked();
  reports_.push_back(report);
  return report;
}

uint64_t AnalysisServer::crashes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashes_;
}

uint64_t AnalysisServer::delivered_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_batches_;
}

uint64_t AnalysisServer::duplicate_deliveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicate_deliveries_;
}

JournalCounters AnalysisServer::journal_counters_locked() const {
  JournalCounters sum = retired_journal_;
  if (journal_ != nullptr) sum.add(journal_->counters());
  return sum;
}

uint64_t AnalysisServer::io_errors_locked() const {
  return journal_counters_locked().io_errors + checkpoint_failures_ +
         flight_dump_failures_;
}

bool AnalysisServer::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

uint64_t AnalysisServer::degraded_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_entries_;
}

uint64_t AnalysisServer::rearms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rearms_;
}

uint64_t AnalysisServer::lossy_recoveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lossy_recoveries_;
}

uint64_t AnalysisServer::dropped_journal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_journal_bytes_;
}

uint64_t AnalysisServer::io_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return io_errors_locked();
}

uint64_t AnalysisServer::io_retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return io_retries_;
}

uint64_t AnalysisServer::lost_journal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_counters_locked().lost_bytes;
}

uint64_t AnalysisServer::checkpoint_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_failures_;
}

uint64_t AnalysisServer::orphan_tmps_removed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return orphan_tmps_removed_;
}

uint64_t AnalysisServer::flight_dump_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flight_dump_failures_;
}

void AnalysisServer::set_event_hooks(obs::EventHooks hooks) {
  std::lock_guard<std::mutex> lock(mu_);
  // The server substitutes its own flight ring so crash dumps always carry
  // the detector's latest flags alongside the durability events.
  hooks_ = obs::EventHooks{hooks.log, &flight_, hooks.shard};
  flight_wired_ = true;
  detector_->set_event_hooks(hooks_);
}

std::string AnalysisServer::flight_path() const {
  return cfg_.flight_path.empty() ? cfg_.journal_path + ".flight"
                                  : cfg_.flight_path;
}

void AnalysisServer::dump_flight_locked() {
  if (!flight_wired_) return;
  if (!flight_.dump(flight_path(), identity_ ? &*identity_ : nullptr,
                    cfg_.vfs)) {
    ++flight_dump_failures_;
  }
}

void AnalysisServer::sample_health(double now,
                                   obs::HealthRecorder& rec) const {
  std::lock_guard<std::mutex> lock(mu_);
  rec.gauge("delivered_batches", delivered_batches_);
  rec.gauge("duplicate_deliveries", duplicate_deliveries_);
  rec.gauge("crashes", crashes_);
  rec.gauge("recoveries", reports_.size());
  uint64_t replayed = 0, skipped = 0;
  for (const auto& r : reports_) {
    replayed += r.frames_replayed;
    skipped += r.frames_skipped;
  }
  rec.gauge("frames_replayed", replayed);
  rec.gauge("frames_skipped", skipped);
  rec.gauge("checkpoints_saved", checkpoints_saved_);
  rec.gauge("checkpoint_bytes", checkpoint_bytes_);
  rec.gauge("batches_since_checkpoint", batches_since_checkpoint_);
  // Virtual seconds since the last checkpoint — the replay debt a crash
  // right now would incur. -1 = never checkpointed.
  rec.gauge("checkpoint_age", checkpoint_t_ >= 0.0 && now >= checkpoint_t_
                                  ? now - checkpoint_t_
                                  : -1.0);
  // Every journal writer this server has had, retired ones included.
  const JournalCounters journal = journal_counters_locked();
  rec.gauge("journal.appended_frames", journal.appended_frames);
  rec.gauge("journal.appended_bytes", journal.appended_bytes);
  rec.gauge("journal.commits", journal.commits);
  rec.gauge("journal.committed_bytes", journal.committed_bytes);
  rec.gauge("journal.append_bytes_p50", append_bytes_hist_.quantile(50));
  rec.gauge("journal.append_bytes_p99", append_bytes_hist_.quantile(99));
  // Durability state machine: an operator watching the health stream sees
  // the shard drop to non-durable mode and come back, with the loss bill.
  rec.gauge("degraded", degraded_ ? 1 : 0);
  rec.gauge("degraded_entries", degraded_entries_);
  rec.gauge("rearms", rearms_);
  rec.gauge("io_errors", io_errors_locked());
  rec.gauge("io_retries", io_retries_);
  rec.gauge("io_backoff_seconds", io_backoff_seconds_);
  rec.gauge("dropped_journal_bytes", dropped_journal_bytes_);
  rec.gauge("journal.lost_bytes", journal.lost_bytes);
  rec.gauge("lossy_recoveries", lossy_recoveries_);
  rec.gauge("checkpoint_failures", checkpoint_failures_);
  {
    obs::HealthRecorder::Prefix scope(rec, "collector");
    collector_->sample_health(now, rec);
  }
  {
    obs::HealthRecorder::Prefix scope(rec, "detector");
    detector_->sample_health(now, rec);
  }
}

}  // namespace vsensor::rt
