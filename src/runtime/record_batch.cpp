#include "runtime/record_batch.hpp"

namespace vsensor::rt {

void RecordBatch::reserve(size_t n) {
  sensor_id.reserve(n);
  rank.reserve(n);
  metric.reserve(n);
  reserved.reserve(n);
  t_begin.reserve(n);
  t_end.reserve(n);
  avg_duration.reserve(n);
  min_duration.reserve(n);
  count.reserve(n);
  flags.reserve(n);
}

void RecordBatch::clear() {
  sensor_id.clear();
  rank.clear();
  metric.clear();
  reserved.clear();
  t_begin.clear();
  t_end.clear();
  avg_duration.clear();
  min_duration.clear();
  count.clear();
  flags.clear();
}

void RecordBatch::push_back(const SliceRecord& rec) {
  sensor_id.push_back(rec.sensor_id);
  rank.push_back(rec.rank);
  metric.push_back(rec.metric);
  reserved.push_back(rec.reserved);
  t_begin.push_back(rec.t_begin);
  t_end.push_back(rec.t_end);
  avg_duration.push_back(rec.avg_duration);
  min_duration.push_back(rec.min_duration);
  count.push_back(rec.count);
  flags.push_back(rec.flags);
}

void RecordBatch::append(std::span<const SliceRecord> records) {
  reserve(size() + records.size());
  for (const auto& rec : records) push_back(rec);
}

SliceRecord RecordBatch::get(size_t i) const {
  SliceRecord rec;
  rec.sensor_id = sensor_id[i];
  rec.rank = rank[i];
  rec.metric = metric[i];
  rec.reserved = reserved[i];
  rec.t_begin = t_begin[i];
  rec.t_end = t_end[i];
  rec.avg_duration = avg_duration[i];
  rec.min_duration = min_duration[i];
  rec.count = count[i];
  rec.flags = flags[i];
  return rec;
}

std::vector<SliceRecord> RecordBatch::to_aos() const {
  std::vector<SliceRecord> out(size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = get(i);
  return out;
}

RecordBatch RecordBatch::from_aos(std::span<const SliceRecord> records) {
  RecordBatch batch;
  batch.append(records);
  return batch;
}

}  // namespace vsensor::rt
