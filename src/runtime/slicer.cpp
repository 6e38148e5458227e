#include "runtime/slicer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/obs.hpp"
#include "runtime/transport.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

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

// Upper bound on a stage's pre-allocated capacity: a stage with a huge
// batch_records bound still starts small and grows on demand.
constexpr size_t kStageReserveRecords = 4096;
}  // namespace

BatchStage::BatchStage(BatchTransport* transport, int rank, size_t capacity)
    : transport_(transport), rank_(rank), capacity_(capacity) {
  VS_CHECK_MSG(capacity > 0, "batch capacity must be positive");
  VS_CHECK_MSG(rank >= 0, "a stage ships as its owning rank's channel");
  buf_.reserve(std::min(capacity, kStageReserveRecords));
}

BatchStage::~BatchStage() {
  if (buf_.empty()) return;
  g_unflushed_records.fetch_add(buf_.size(), std::memory_order_relaxed);
  try {
    flush();
  } catch (...) {
    // Destructors must not throw. The records were already counted as
    // unflushed above, and flush() cleared them from the buffer as the
    // throw unwound, so nothing can double-ship on a later teardown path.
  }
}

uint64_t BatchStage::unflushed_records() {
  return g_unflushed_records.load(std::memory_order_relaxed);
}

void BatchStage::push(const SliceRecord& rec) {
  buf_.push_back(rec);
  if (buf_.size() >= capacity_) flush();
}

void BatchStage::flush() {
  if (buf_.empty()) return;
  VS_OBS_SCOPED_STAGE(obs::Stage::Staging);
  // Ship the buffer in place, then clear it, also when ship() throws: a
  // second flush() (or the destructor's) must not ship the same records
  // again — flushing is idempotent per record, never at-least-once. The
  // transport copies only a batch it holds, so nothing points into the
  // buffer once ship() returns, and the buffer keeps its capacity.
  struct Clear {
    std::vector<SliceRecord>& buf;
    ~Clear() { buf.clear(); }
  } clear{buf_};
  if (transport_ == nullptr) return;
  // The batch ships when its newest record completes (clamped at 0);
  // slices of different sensors need not complete in staging order.
  double now = 0.0;
  for (const auto& rec : buf_) now = std::max(now, rec.t_end);
  if (!transport_->ship(rank_, buf_, now)) lost_records_ += buf_.size();
  ++shipped_batches_;
}

}  // namespace vsensor::rt
