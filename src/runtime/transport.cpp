#include "runtime/transport.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

#if VSENSOR_OBS
namespace {
struct TransportInstruments {
  obs::Counter& batches;
  obs::Counter& retries;
  obs::Counter& lost;
  obs::Counter& duplicates;
  obs::Counter& delayed;
  obs::Counter& stale;
  obs::Gauge& backoff_seconds;

  static TransportInstruments& get() {
    auto& reg = obs::MetricsRegistry::global();
    static TransportInstruments inst{reg.counter("transport.batches_shipped"),
                                     reg.counter("transport.retries"),
                                     reg.counter("transport.batches_lost"),
                                     reg.counter("transport.duplicates_suppressed"),
                                     reg.counter("transport.delayed_batches"),
                                     reg.counter("transport.stale_ranks_reported"),
                                     reg.gauge("transport.backoff_seconds")};
    return inst;
  }
};
}  // namespace
#endif

bool SeqTracker::insert(uint64_t seq) {
  // Generation floor: the first delivery of a new incarnation advances the
  // watermark past everything a superseded incarnation could have shipped,
  // so a rejoined rank's fresh seq 0 (wire value: generation<<48) is never
  // mistaken for a duplicate of pre-leave history, and an old incarnation's
  // straggler landing after the rejoin reads as the duplicate it is.
  // Generation 0 has floor 0, so pre-elastic behavior is unchanged.
  const uint64_t floor = seq_generation(seq) << kSeqGenShift;
  if (floor > contiguous) {
    ahead.erase(ahead.begin(), ahead.lower_bound(floor));
    contiguous = floor;
  }
  if (seq < contiguous) return false;
  if (!ahead.insert(seq).second) return false;
  while (!ahead.empty() && *ahead.begin() == contiguous) {
    ahead.erase(ahead.begin());
    ++contiguous;
  }
  return true;
}

BatchTransport::BatchTransport(DeliverySink* sink, int ranks,
                               TransportConfig cfg,
                               const TransportFaultModel* faults)
    : sink_(sink), cfg_(cfg), faults_(faults) {
  VS_CHECK_MSG(sink_ != nullptr, "transport needs a delivery sink");
  VS_CHECK_MSG(ranks > 0, "transport needs at least one rank channel");
  VS_CHECK_MSG(cfg_.max_attempts > 0, "need at least one delivery attempt");
  VS_CHECK_MSG(cfg_.retry_backoff >= 0.0, "retry backoff must be non-negative");
  VS_CHECK_MSG(cfg_.stale_after > 0.0, "stale threshold must be positive");
  channels_.resize(static_cast<size_t>(ranks));
}

BatchTransport::~BatchTransport() { drain(); }

void BatchTransport::deliver(int rank, uint64_t seq,
                             std::span<const SliceRecord> batch, double now) {
  // The health sampler rides the delivery clock: every unique arrival is a
  // chance for virtual time to cross the next sampling boundary. Called
  // here — never under mu_ — because sampling re-enters sample_health().
  if (sampler_ != nullptr) sampler_->maybe_sample(now);
  sink_->on_delivery(rank, seq, batch, now);
}

void BatchTransport::accept(DelayedBatch ev, std::vector<DelayedBatch>& ready) {
  Channel& ch = channels_[static_cast<size_t>(ev.rank)];
  ch.stats.wire_bytes += ev.records.size() * kRecordWireBytes;
  if (!ch.seen.insert(ev.seq)) {
    ch.stats.duplicates_suppressed += 1;
    VS_OBS_ONLY(
        if (obs::enabled()) TransportInstruments::get().duplicates.add();)
    return;
  }
  ch.stats.batches_delivered += 1;
  ch.stats.records_delivered += ev.records.size();
  ch.stats.last_delivery_time = std::max(ch.stats.last_delivery_time, ev.now);
  ready.push_back(std::move(ev));
}

void BatchTransport::arrive(int rank, uint64_t seq,
                            std::span<const SliceRecord> batch, double now,
                            std::vector<DelayedBatch>& ready) {
  // One physical delivery reaching the server. Each arrival releases held
  // (delayed) batches whose countdown expires, and a released batch is an
  // arrival itself, so process a queue of arrival events.
  std::vector<DelayedBatch> queue;
  queue.push_back(
      DelayedBatch{rank, seq, now, 0, {batch.begin(), batch.end()}});
  while (!queue.empty()) {
    DelayedBatch ev = std::move(queue.back());
    queue.pop_back();
    accept(std::move(ev), ready);
    for (auto it = delayed_.begin(); it != delayed_.end();) {
      if (--(it->remaining) <= 0) {
        queue.push_back(std::move(*it));
        it = delayed_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

bool BatchTransport::ship(int rank, std::span<const SliceRecord> batch,
                          double now) {
  VS_CHECK_MSG(rank >= 0 && static_cast<size_t>(rank) < channels_.size(),
               "ship from unknown rank");
  if (batch.empty()) return true;
  VS_OBS_SCOPED_STAGE(obs::Stage::TransportShip);
  VS_OBS_ONLY(obs::ScopedSpan vs_obs_span("ship", "transport", rank);
              if (obs::enabled()) {
                vs_obs_span.set_virtual(batch.front().t_begin, now);
                TransportInstruments::get().batches.add();
              })

  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Channel& ch = channels_[static_cast<size_t>(rank)];
    seq = seq_make(ch.generation, ch.stats.next_seq++);
    ch.stats.batches_sent += 1;
  }

  double t = now;
  for (uint32_t attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    if (faults_ != nullptr && faults_->killed(rank, t)) break;
    const TransportFaultModel::Decision d =
        faults_ != nullptr ? faults_->decide(rank, seq, attempt)
                           : TransportFaultModel::Decision{};
    if (d.drop) {
      if (attempt + 1 >= cfg_.max_attempts) break;  // out of attempts: lost
      const double backoff =
          cfg_.retry_backoff * static_cast<double>(uint64_t{1} << attempt);
      std::lock_guard<std::mutex> lock(mu_);
      Channel& ch = channels_[static_cast<size_t>(rank)];
      ch.stats.retries += 1;
      ch.stats.backoff_seconds += backoff;
      VS_OBS_ONLY(if (obs::enabled()) {
        auto& inst = TransportInstruments::get();
        inst.retries.add();
        inst.backoff_seconds.add(backoff);
      })
      t += backoff;
      continue;
    }

    std::vector<DelayedBatch> ready;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Channel& ch = channels_[static_cast<size_t>(rank)];
      if (d.delay_batches > 0) {
        ch.stats.delayed_batches += 1;
        VS_OBS_ONLY(
            if (obs::enabled()) TransportInstruments::get().delayed.add();)
        delayed_.push_back(DelayedBatch{rank, seq, t, d.delay_batches,
                                        {batch.begin(), batch.end()}});
      } else {
        arrive(rank, seq, batch, t, ready);
      }
      // A duplicated delivery arrives as its own event; receive-side
      // sequence tracking suppresses whichever copy lands second.
      if (d.duplicate) arrive(rank, seq, batch, t, ready);
    }
    // Store outside the transport lock: the collector has its own sharded
    // locking and the attached sink its own mutex.
    for (const auto& rb : ready) deliver(rb.rank, rb.seq, rb.records, rb.now);
    return true;
  }

  std::lock_guard<std::mutex> lock(mu_);
  Channel& ch = channels_[static_cast<size_t>(rank)];
  ch.stats.batches_lost += 1;
  ch.stats.records_lost += batch.size();
  VS_OBS_ONLY(if (obs::enabled()) TransportInstruments::get().lost.add();)
  return false;
}

bool BatchTransport::ship(int rank, const RecordBatch& batch, double now) {
  const std::vector<SliceRecord> aos = batch.to_aos();
  return ship(rank, aos, now);
}

void BatchTransport::drain() {
  // Re-entrancy / double-invocation guard: drain() is called explicitly at
  // end of run and again from the destructor, and a delivery sink could in
  // principle trigger a nested drain. Only one invocation at a time swaps
  // the delay queue; overlapping calls return immediately (the in-flight
  // drain delivers everything they would have).
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  struct Release {
    std::atomic<bool>& flag;
    ~Release() { flag.store(false); }
  } release{draining_};
  std::vector<DelayedBatch> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<DelayedBatch> held;
    held.swap(delayed_);
    for (auto& ev : held) accept(std::move(ev), ready);
  }
  for (const auto& rb : ready) deliver(rb.rank, rb.seq, rb.records, rb.now);
}

bool BatchTransport::stale_locked(const Channel& ch, int rank,
                                  double now) const {
  if (faults_ != nullptr && faults_->killed(rank, now)) return true;
  const double last = ch.stats.last_delivery_time;
  // A channel that never delivered ages from its creation time, not from
  // t=0 — a late-joining rank gets a full stale_after grace period.
  if (last < 0.0) return now - ch.first_seen > cfg_.stale_after;
  return now - last > cfg_.stale_after;
}

std::vector<int> BatchTransport::stale_ranks(double now) const {
  std::vector<int> stale;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t r = 0; r < channels_.size(); ++r) {
    if (stale_locked(channels_[r], static_cast<int>(r), now)) {
      stale.push_back(static_cast<int>(r));
    }
  }
  return stale;
}

size_t BatchTransport::sweep_stale(double now,
                                   const std::function<void(int)>& on_stale) {
  std::vector<int> fresh;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t r = 0; r < channels_.size(); ++r) {
      Channel& ch = channels_[r];
      if (ch.reported_stale) continue;
      if (stale_locked(ch, static_cast<int>(r), now)) {
        ch.reported_stale = true;
        fresh.push_back(static_cast<int>(r));
      }
    }
  }
  // Callback outside the lock: it typically takes a detector's mutex.
  if (on_stale) {
    for (int r : fresh) on_stale(r);
  }
  VS_OBS_ONLY(if (obs::enabled() && !fresh.empty()) {
    TransportInstruments::get().stale.add(fresh.size());
  })
  return fresh.size();
}

std::vector<int> BatchTransport::reported_stale_ranks() const {
  std::vector<int> reported;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t r = 0; r < channels_.size(); ++r) {
    if (channels_[r].reported_stale) reported.push_back(static_cast<int>(r));
  }
  return reported;
}

int BatchTransport::add_rank(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  Channel ch;
  ch.first_seen = now;
  channels_.push_back(std::move(ch));
  return static_cast<int>(channels_.size()) - 1;
}

bool BatchTransport::rejoin_rank(int rank, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  VS_CHECK_MSG(rank >= 0 && static_cast<size_t>(rank) < channels_.size(),
               "rejoin of unknown rank");
  Channel& ch = channels_[static_cast<size_t>(rank)];
  const bool was_reported = ch.reported_stale;
  // Fresh incarnation: the send counter restarts under a bumped generation
  // (see seq_make) and staleness ages from the rejoin time, exactly like a
  // newly added channel.
  ch.generation += 1;
  ch.stats.next_seq = 0;
  ch.stats.last_delivery_time = -1.0;
  ch.first_seen = now;
  ch.reported_stale = false;
  return was_reported;
}

RankChannelStats BatchTransport::rank_stats(int rank) const {
  VS_CHECK_MSG(rank >= 0 && static_cast<size_t>(rank) < channels_.size(),
               "stats for unknown rank");
  std::lock_guard<std::mutex> lock(mu_);
  return channels_[static_cast<size_t>(rank)].stats;
}

RankChannelStats BatchTransport::totals() const {
  RankChannelStats sum;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Channel& ch : channels_) {
    const RankChannelStats& s = ch.stats;
    sum.batches_sent += s.batches_sent;
    sum.batches_delivered += s.batches_delivered;
    sum.batches_lost += s.batches_lost;
    sum.records_delivered += s.records_delivered;
    sum.records_lost += s.records_lost;
    sum.retries += s.retries;
    sum.duplicates_suppressed += s.duplicates_suppressed;
    sum.delayed_batches += s.delayed_batches;
    sum.wire_bytes += s.wire_bytes;
    sum.backoff_seconds += s.backoff_seconds;
    sum.last_delivery_time = std::max(sum.last_delivery_time, s.last_delivery_time);
    sum.next_seq += s.next_seq;
  }
  return sum;
}

void BatchTransport::sample_health(double now,
                                   obs::HealthRecorder& rec) const {
  uint64_t sent = 0, delivered = 0, lost = 0, records = 0, retries = 0;
  uint64_t dup = 0, wire = 0;
  uint64_t never_delivered = 0, stale_reported = 0;
  double lag_max = 0.0, lag_sum = 0.0;
  int lag_max_rank = -1;
  size_t lagging = 0;
  uint64_t wm_min = 0, wm_max = 0;
  bool wm_init = false;
  size_t delayed_depth = 0;
  size_t nranks = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nranks = channels_.size();
    for (size_t r = 0; r < channels_.size(); ++r) {
      const Channel& ch = channels_[r];
      sent += ch.stats.batches_sent;
      delivered += ch.stats.batches_delivered;
      lost += ch.stats.batches_lost;
      records += ch.stats.records_delivered;
      retries += ch.stats.retries;
      dup += ch.stats.duplicates_suppressed;
      wire += ch.stats.wire_bytes;
      if (ch.reported_stale) ++stale_reported;
      const double last = ch.stats.last_delivery_time;
      // A channel that never delivered ages from its first_seen (job start
      // for construction-time channels, the join/rejoin time for elastic
      // ones) — mirroring stale_locked. Aging a mid-run joiner from t=0
      // would report a lag it never accumulated.
      if (last < 0.0) ++never_delivered;
      const double since = last < 0.0 ? ch.first_seen : last;
      const double lag = now > since ? now - since : 0.0;
      lag_sum += lag;
      ++lagging;
      if (lag > lag_max) {
        lag_max = lag;
        lag_max_rank = static_cast<int>(r);
      }
      if (last >= 0.0) {
        // Watermark spread covers only channels that entered the sequence
        // space: a joiner that has not delivered yet has no watermark to
        // skew, and the generation bits are masked off so a rejoined
        // rank's watermark compares within its current incarnation.
        const uint64_t wm = seq_local(ch.seen.contiguous);
        if (!wm_init) {
          wm_min = wm_max = wm;
          wm_init = true;
        } else {
          wm_min = std::min(wm_min, wm);
          wm_max = std::max(wm_max, wm);
        }
      }
    }
    delayed_depth = delayed_.size();
  }
  rec.gauge("ranks", static_cast<uint64_t>(nranks));
  rec.gauge("batches_sent", sent);
  rec.gauge("batches_delivered", delivered);
  rec.gauge("batches_lost", lost);
  rec.gauge("records_delivered", records);
  rec.gauge("retries", retries);
  rec.gauge("duplicates_suppressed", dup);
  rec.gauge("wire_bytes", wire);
  rec.gauge("stale_reported", stale_reported);
  rec.gauge("ranks_never_delivered", never_delivered);
  rec.gauge("delay_queue_depth", static_cast<uint64_t>(delayed_depth));
  rec.gauge("lag_max", lag_max);
  rec.gauge("lag_max_rank", lag_max_rank);
  rec.gauge("lag_mean", lagging != 0 ? lag_sum / static_cast<double>(lagging)
                                     : 0.0);
  rec.gauge("watermark_min", wm_min);
  rec.gauge("watermark_skew", wm_max - wm_min);
}

}  // namespace vsensor::rt
