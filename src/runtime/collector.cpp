#include "runtime/collector.hpp"

#include <numeric>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

Collector::Collector(CollectorConfig cfg) : cfg_(cfg) {
  VS_CHECK_MSG(cfg_.shards > 0, "collector needs at least one shard");
  VS_CHECK_MSG(cfg_.shard_capacity > 0, "shard capacity must be positive");
  shards_.reserve(cfg_.shards);
  for (size_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(cfg_.shard_capacity));
  }
}

void Collector::set_sensors(std::vector<SensorInfo> sensors) {
  // Registration happens once, before rank threads start pushing.
  sensors_ = std::move(sensors);
}

size_t Collector::shard_of(int32_t sensor_id) const {
  const auto id = static_cast<uint32_t>(sensor_id < 0 ? 0 : sensor_id);
  return static_cast<size_t>(id) % shards_.size();
}

void Collector::count_batch(size_t records) {
  bytes_.fetch_add(records * kRecordWireBytes, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  ingested_.fetch_add(records, std::memory_order_relaxed);
}

void Collector::forward(std::span<const SliceRecord> batch) {
  if (batch.empty()) return;
  VS_OBS_SCOPED_STAGE(obs::Stage::CollectorIngest);
  count_batch(batch.size());
  taken_.fetch_add(batch.size(), std::memory_order_release);
  if (sink_ != nullptr) sink_->on_batch(batch);
}

void Collector::ingest(std::span<const SliceRecord> batch) {
  if (batch.empty()) return;
  VS_OBS_SCOPED_STAGE(obs::Stage::CollectorIngest);
  count_batch(batch.size());

  const size_t n_shards = shards_.size();
  // Uniform batches (every record of one sensor — a rank staging one hot
  // snippet) take a single lock with no scatter bookkeeping.
  const size_t first = shard_of(batch[0].sensor_id);
  bool uniform = true;
  if (n_shards > 1) {
    for (const auto& rec : batch) {
      if (shard_of(rec.sensor_id) != first) {
        uniform = false;
        break;
      }
    }
  }
  if (uniform) {
    Shard& shard = *shards_[first];
    uint64_t dropped = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& rec : batch) {
        if (shard.store.full()) ++dropped;
        shard.store.push(rec);
      }
    }
    if (dropped > 0) dropped_.fetch_add(dropped, std::memory_order_release);
  } else {
    // Scatter record indices by shard (counting sort), then take each
    // shard's mutex exactly once for its contiguous run.
    std::vector<uint32_t> offset(n_shards + 1, 0);
    for (const auto& rec : batch) ++offset[shard_of(rec.sensor_id) + 1];
    std::partial_sum(offset.begin(), offset.end(), offset.begin());
    std::vector<uint32_t> order(batch.size());
    std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
    for (uint32_t i = 0; i < batch.size(); ++i) {
      order[cursor[shard_of(batch[i].sensor_id)]++] = i;
    }
    for (size_t s = 0; s < n_shards; ++s) {
      if (offset[s] == offset[s + 1]) continue;
      Shard& shard = *shards_[s];
      uint64_t dropped = 0;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (uint32_t i = offset[s]; i < offset[s + 1]; ++i) {
          if (shard.store.full()) ++dropped;
          shard.store.push(batch[order[i]]);
        }
      }
      if (dropped > 0) dropped_.fetch_add(dropped, std::memory_order_release);
    }
  }

  if (sink_ != nullptr) sink_->on_batch(batch);
}

void Collector::visit_records(
    const std::function<void(std::span<const SliceRecord>)>& fn) const {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto [a, b] = shard->store.segments();
    if (!a.empty()) fn(a);
    if (!b.empty()) fn(b);
  }
}

std::vector<SliceRecord> Collector::records() const {
  std::vector<SliceRecord> all;
  all.reserve(record_count());
  visit_records([&all](std::span<const SliceRecord> seg) {
    all.insert(all.end(), seg.begin(), seg.end());
  });
  return all;
}

std::vector<SliceRecord> Collector::take_records() {
  std::vector<SliceRecord> all;
  all.reserve(record_count());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const auto [a, b] = shard->store.segments();
    all.insert(all.end(), a.begin(), a.end());
    all.insert(all.end(), b.begin(), b.end());
    shard->store.clear();
  }
  taken_.fetch_add(all.size(), std::memory_order_release);
  return all;
}

Collector::Counters Collector::counters() const {
  return Counters{ingested_.load(std::memory_order_relaxed),
                  dropped_.load(std::memory_order_relaxed),
                  taken_.load(std::memory_order_relaxed),
                  bytes_.load(std::memory_order_relaxed),
                  batches_.load(std::memory_order_relaxed)};
}

void Collector::restore_counters(const Counters& c) {
  ingested_.store(c.ingested, std::memory_order_relaxed);
  dropped_.store(c.dropped, std::memory_order_relaxed);
  taken_.store(c.taken, std::memory_order_relaxed);
  bytes_.store(c.bytes, std::memory_order_relaxed);
  batches_.store(c.batches, std::memory_order_relaxed);
}

void Collector::reset() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->store.clear();
  }
  restore_counters(Counters{});
}

uint64_t Collector::record_count() const {
  // Every record counted as dropped or taken was counted as ingested
  // first, and the release/acquire pairs make that ingest visible here:
  // read in this order, the difference never wraps, even while a forward
  // moves ingested and taken together.
  const uint64_t taken = taken_.load(std::memory_order_acquire);
  const uint64_t dropped = dropped_.load(std::memory_order_acquire);
  return ingested_.load(std::memory_order_relaxed) - dropped - taken;
}

void Collector::sample_health(double /*now*/,
                              obs::HealthRecorder& rec) const {
  rec.gauge("ingested_records", ingested_records());
  rec.gauge("dropped_records", dropped_records());
  rec.gauge("retained_records", record_count());
  rec.gauge("bytes_received", bytes_received());
  rec.gauge("batches", batch_count());
}

}  // namespace vsensor::rt
