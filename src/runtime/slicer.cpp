#include "runtime/slicer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "runtime/transport.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

#if VSENSOR_OBS
namespace {
struct StageInstruments {
  obs::Counter& batches;
  obs::Counter& records;
  obs::LogHistogram& batch_records;

  static StageInstruments& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StageInstruments inst{
        reg.counter("stage.batches_shipped"),
        reg.counter("stage.records_staged"),
        // Batch sizes are small integers; a tight base keeps the buckets
        // meaningful (1, 2, 4, ... records).
        reg.histogram("stage.batch_records",
                      {.min_value = 1.0, .growth = 2.0, .buckets = 24})};
    return inst;
  }
};
}  // namespace
#endif

SliceAccumulator::SliceAccumulator(int sensor_id, int rank, double slice_seconds)
    : sensor_id_(sensor_id), rank_(rank), slice_seconds_(slice_seconds) {
  VS_CHECK_MSG(slice_seconds > 0.0, "slice length must be positive");
}

SliceRecord SliceAccumulator::make_record() const {
  SliceRecord rec;
  rec.sensor_id = sensor_id_;
  rec.rank = rank_;
  rec.t_begin = static_cast<double>(slice_index_) * slice_seconds_;
  rec.t_end = rec.t_begin + slice_seconds_;
  rec.avg_duration = sum_ / static_cast<double>(count_);
  rec.min_duration = min_;
  rec.count = count_;
  rec.metric = static_cast<float>(metric_sum_ / static_cast<double>(count_));
  return rec;
}

std::optional<SliceRecord> SliceAccumulator::add(double end_time, double duration,
                                                 double metric) {
  VS_CHECK_MSG(duration >= 0.0, "negative sensor duration");
  const auto idx = static_cast<int64_t>(std::floor(end_time / slice_seconds_));
  std::optional<SliceRecord> completed;
  if (idx != slice_index_ && count_ > 0) {
    completed = make_record();
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    metric_sum_ = 0.0;
    count_ = 0;
  }
  slice_index_ = idx;
  sum_ += duration;
  min_ = std::min(min_, duration);
  metric_sum_ += metric;
  ++count_;
  return completed;
}

std::optional<SliceRecord> SliceAccumulator::flush() {
  if (count_ == 0) return std::nullopt;
  auto rec = make_record();
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  metric_sum_ = 0.0;
  count_ = 0;
  return rec;
}

namespace {
// Cumulative over the process: records rescued by a BatchStage destructor
// because flush() was never called. Monotonic; tests compare deltas.
std::atomic<uint64_t> g_unflushed_records{0};
}  // namespace

BatchStage::BatchStage(Collector* collector, size_t capacity, size_t reserve)
    : collector_(collector), capacity_(capacity), reserve_(reserve) {
  VS_CHECK_MSG(capacity > 0, "batch capacity must be positive");
  VS_CHECK_MSG(reserve > 0, "stage reserve cap must be positive");
  buf_.reserve(std::min<size_t>(capacity, reserve_));
}

BatchStage::BatchStage(BatchTransport& transport, int rank, size_t capacity,
                       size_t reserve)
    : collector_(nullptr), transport_(&transport), rank_(rank),
      capacity_(capacity), reserve_(reserve) {
  VS_CHECK_MSG(capacity > 0, "batch capacity must be positive");
  VS_CHECK_MSG(reserve > 0, "stage reserve cap must be positive");
  VS_CHECK_MSG(rank >= 0, "transport mode needs the owning rank");
  buf_.reserve(std::min<size_t>(capacity, reserve_));
}

BatchStage::~BatchStage() {
  if (buf_.empty()) return;
  g_unflushed_records.fetch_add(buf_.size(), std::memory_order_relaxed);
  try {
    flush();
  } catch (...) {
    // Destructors must not throw. The records were already counted as
    // unflushed above, and flush() detached them from the buffer before
    // shipping, so nothing can double-ship on a later teardown path.
  }
}

uint64_t BatchStage::unflushed_records() {
  return g_unflushed_records.load(std::memory_order_relaxed);
}

void BatchStage::push(const SliceRecord& rec) {
  VS_OBS_ONLY(if (obs::enabled()) StageInstruments::get().records.add();)
  buf_.push_back(rec);
  if (buf_.size() >= capacity_) flush();
}

void BatchStage::ship(std::span<const SliceRecord> batch) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Staging);
  VS_OBS_ONLY(if (obs::enabled()) {
    auto& inst = StageInstruments::get();
    inst.batches.add();
    inst.batch_records.record(static_cast<double>(batch.size()));
  })
  if (transport_ != nullptr) {
    // The batch ships when its newest record completes (clamped at 0);
    // slices of different sensors need not complete in staging order.
    double now = 0.0;
    for (const auto& rec : batch) now = std::max(now, rec.t_end);
    if (!transport_->ship(rank_, batch, now)) lost_records_ += batch.size();
    ++shipped_batches_;
  } else if (collector_ != nullptr) {
    collector_->ingest(batch);
    ++shipped_batches_;
  }
}

void BatchStage::flush() {
  if (buf_.empty()) return;
  // Detach the staged records before shipping: if ship() throws mid-way,
  // a second flush() (or the destructor's) must not ship them again —
  // flushing is idempotent per record, never at-least-once.
  std::vector<SliceRecord> batch;
  std::swap(batch, buf_);
  buf_.reserve(std::min<size_t>(capacity_, reserve_));
  ship(batch);
}

}  // namespace vsensor::rt
