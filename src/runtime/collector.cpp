#include "runtime/collector.hpp"

#include <algorithm>
#include <memory>
#include <type_traits>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

static_assert(std::is_trivially_copyable_v<SliceRecord> &&
                  std::is_trivially_destructible_v<SliceRecord>,
              "lane chunks copy records into raw storage and never destroy them");

void Collector::ChunkFree::operator()(SliceRecord* chunk) const {
  std::allocator<SliceRecord>().deallocate(chunk, kChunkRecords);
}

void Collector::Lane::append(std::span<const SliceRecord> run) {
  while (!run.empty()) {
    if (chunks.empty() || tail == kChunkRecords) {
      Chunk chunk(std::allocator<SliceRecord>().allocate(kChunkRecords));
      chunks.push_back(std::move(chunk));
      tail = 0;
    }
    const size_t n = std::min(run.size(), kChunkRecords - tail);
    std::uninitialized_copy_n(run.data(), n, chunks.back().get() + tail);
    tail += n;
    run = run.subspan(n);
  }
}

template <typename Fn>
void Collector::Lane::each_chunk(const Fn& fn) const {
  for (size_t c = 0; c < chunks.size(); ++c) {
    fn(std::span<const SliceRecord>(
        chunks[c].get(), c + 1 == chunks.size() ? tail : kChunkRecords));
  }
}

void Collector::set_sensors(std::vector<SensorInfo> sensors) {
  // Registration happens once, before rank threads start pushing.
  sensors_ = std::move(sensors);
}

size_t Collector::lane_of(int32_t rank) {
  return rank < 0 ? 0 : static_cast<size_t>(rank) % kLanes;
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
  size_t begin = 0;
  while (begin < batch.size()) {
    const size_t lane = lane_of(batch[begin].rank);
    size_t end = begin + 1;
    while (end < batch.size() && lane_of(batch[end].rank) == lane) ++end;
    Lane& dst = lanes_[lane];
    std::lock_guard<std::mutex> lock(dst.mu);
    dst.append(batch.subspan(begin, end - begin));
    begin = end;
  }
  if (sink_ != nullptr) sink_->on_batch(batch);
}

void Collector::visit_records(
    const std::function<void(std::span<const SliceRecord>)>& fn) const {
  for (const Lane& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.each_chunk(fn);
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
  for (Lane& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.each_chunk([&all](std::span<const SliceRecord> chunk) {
      all.insert(all.end(), chunk.begin(), chunk.end());
    });
    lane.chunks.clear();
    lane.tail = 0;
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
  for (Lane& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.chunks.clear();
    lane.tail = 0;
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
