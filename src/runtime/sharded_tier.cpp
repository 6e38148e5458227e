#include "runtime/sharded_tier.hpp"

#include "support/error.hpp"

namespace vsensor::rt {

ShardedAnalysisTier::ShardedAnalysisTier(ShardedTierConfig cfg,
                                         std::vector<SensorInfo> sensors,
                                         int ranks, double run_time)
    : cfg_(std::move(cfg)),
      sensors_(std::move(sensors)),
      ranks_(ranks),
      run_time_(run_time) {
  VS_CHECK_MSG(cfg_.shards > 0, "tier needs at least one shard");
  VS_CHECK_MSG(!cfg_.journal_path.empty() && !cfg_.checkpoint_path.empty(),
               "tier needs journal and checkpoint base paths");
  shards_.reserve(static_cast<size_t>(cfg_.shards));
  for (int k = 0; k < cfg_.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->collector = std::make_unique<Collector>();
    shard->collector->set_sensors(sensors_);
    shard->detector = std::make_unique<StreamingDetector>(
        cfg_.detector, sensors_, ranks_, run_time_);
    shard->collector->attach_sink(shard->detector.get());
    // Publication is only needed when there is a peer to tell.
    if (cfg_.shards > 1) shard->detector->enable_standard_publication();
    ServerConfig sc = cfg_;
    const std::string suffix = ".shard" + std::to_string(k);
    sc.journal_path += suffix;
    sc.checkpoint_path += suffix;
    // Flight dumps suffix the *base* flight path, so a tier run leaves
    // "<base>.flight.shard<k>" next to the shard's journal files.
    if (sc.flight_path.empty()) sc.flight_path = cfg_.journal_path + ".flight";
    sc.flight_path += suffix;
    shard->server = std::make_unique<AnalysisServer>(
        std::move(sc), shard->collector.get(), shard->detector.get());
    shards_.push_back(std::move(shard));
  }
}

ShardedAnalysisTier::~ShardedAnalysisTier() = default;

size_t ShardedAnalysisTier::checked(int shard) const {
  VS_CHECK_MSG(shard >= 0 && static_cast<size_t>(shard) < shards_.size(),
               "unknown analysis shard");
  return static_cast<size_t>(shard);
}

void ShardedAnalysisTier::on_delivery(int rank, uint64_t seq,
                                      std::span<const SliceRecord> batch,
                                      double now) {
  VS_CHECK_MSG(rank >= 0, "delivery from negative rank");
  const size_t s = static_cast<size_t>(shard_of(rank));
  Shard& shard = *shards_[s];
  shard.server->on_delivery(rank, seq, batch, now);
  shard.routed_batches.fetch_add(1, std::memory_order_relaxed);
  shard.routed_records.fetch_add(batch.size(), std::memory_order_relaxed);
  // Broadcast after the fold returns (no shard lock held here): the
  // exchange takes each peer's server lock one at a time, so delivery and
  // exchange locks never nest across shards.
  if (shards_.size() > 1) exchange_from(s, now);
}

void ShardedAnalysisTier::exchange_from(size_t from, double now) {
  const auto lowered = shards_[from]->detector->take_lowered_standards();
  if (lowered.empty()) return;
  const Shard& src = *shards_[from];
  for (const auto& u : lowered) {
    if (src.hooks) {
      obs::Event ev;
      ev.kind = obs::EventKind::StandardUpdate;
      ev.t = now;
      ev.sensor = u.sensor_id;
      ev.has_group = true;
      ev.group = u.group;
      ev.value = u.value;
      src.hooks.emit(std::move(ev));
    }
  }
  for (size_t p = 0; p < shards_.size(); ++p) {
    if (p == from) continue;
    for (const auto& u : lowered) {
      shards_[p]->server->apply_standard(u.sensor_id, u.group, u.value);
    }
  }
  broadcast_updates_.fetch_add(lowered.size() * (shards_.size() - 1),
                               std::memory_order_relaxed);
}

void ShardedAnalysisTier::mark_stale(int rank, double now) {
  VS_CHECK_MSG(rank >= 0, "stale mark for negative rank");
  shards_[static_cast<size_t>(shard_of(rank))]->server->mark_stale(rank, now);
}

void ShardedAnalysisTier::mark_live(int rank, double now) {
  VS_CHECK_MSG(rank >= 0, "live mark for negative rank");
  shards_[static_cast<size_t>(shard_of(rank))]->server->mark_live(rank, now);
}

void ShardedAnalysisTier::set_crash_plan(int shard, std::vector<double> times,
                                         uint64_t seed) {
  shards_[checked(shard)]->server->set_crash_plan(std::move(times), seed);
}

void ShardedAnalysisTier::set_crash_plan(std::vector<double> times,
                                         uint64_t seed) {
  for (size_t k = 0; k < shards_.size(); ++k) {
    shards_[k]->server->set_crash_plan(times, seed + k);
  }
}

std::unique_ptr<StreamingDetector> ShardedAnalysisTier::merged() const {
  auto out = std::make_unique<StreamingDetector>(cfg_.detector, sensors_,
                                                 ranks_, run_time_);
  for (const auto& shard : shards_) out->merge_from(*shard->detector);
  return out;
}

StreamingDetector::Snapshot ShardedAnalysisTier::merged_snapshot() const {
  return merged()->snapshot();
}

AnalysisResult ShardedAnalysisTier::finalize() const {
  return merged()->finalize();
}

uint64_t ShardedAnalysisTier::routed_batches(int shard) const {
  return shards_[checked(shard)]->routed_batches.load(std::memory_order_relaxed);
}

uint64_t ShardedAnalysisTier::routed_records(int shard) const {
  return shards_[checked(shard)]->routed_records.load(std::memory_order_relaxed);
}

uint64_t ShardedAnalysisTier::total_routed_records() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->routed_records.load(std::memory_order_relaxed);
  }
  return sum;
}

uint64_t ShardedAnalysisTier::broadcast_updates() const {
  return broadcast_updates_.load(std::memory_order_relaxed);
}

int ShardedAnalysisTier::degraded_shards() const {
  int n = 0;
  for (const auto& shard : shards_) n += shard->server->degraded() ? 1 : 0;
  return n;
}

uint64_t ShardedAnalysisTier::degraded_entries() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->server->degraded_entries();
  return sum;
}

uint64_t ShardedAnalysisTier::rearms() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->server->rearms();
  return sum;
}

uint64_t ShardedAnalysisTier::lossy_recoveries() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->server->lossy_recoveries();
  return sum;
}

uint64_t ShardedAnalysisTier::dropped_journal_bytes() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->server->dropped_journal_bytes();
  }
  return sum;
}

uint64_t ShardedAnalysisTier::io_errors() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->server->io_errors();
  return sum;
}

void ShardedAnalysisTier::set_event_log(obs::EventLog* log) {
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    // The server substitutes its own flight ring; the tier's broadcast
    // events tee into that same ring so shard dumps carry them too.
    shard.server->set_event_hooks(
        obs::EventHooks{log, nullptr, static_cast<int>(k)});
    shard.hooks =
        obs::EventHooks{log, &shard.server->flight(), static_cast<int>(k)};
  }
}

void ShardedAnalysisTier::set_run_identity(const obs::RunIdentity& id) {
  for (auto& shard : shards_) shard->server->set_run_identity(id);
}

std::string ShardedAnalysisTier::flight_path(int shard) const {
  return shards_[checked(shard)]->server->flight_path();
}

void ShardedAnalysisTier::sample_health(double now,
                                        obs::HealthRecorder& rec) const {
  rec.gauge("shards", static_cast<uint64_t>(shards_.size()));
  rec.gauge("routed_records", total_routed_records());
  rec.gauge("broadcast_updates", broadcast_updates());
  rec.gauge("degraded_shards", degraded_shards());
  rec.gauge("io_errors", io_errors());
  rec.gauge("dropped_journal_bytes", dropped_journal_bytes());
  for (size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = *shards_[k];
    obs::HealthRecorder::Prefix scope(rec, "shard" + std::to_string(k));
    rec.gauge("routed_batches",
              shard.routed_batches.load(std::memory_order_relaxed));
    rec.gauge("routed_records",
              shard.routed_records.load(std::memory_order_relaxed));
    shard.server->sample_health(now, rec);
  }
}

}  // namespace vsensor::rt
