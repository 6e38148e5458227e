// Struct-of-arrays record batches: a column adapter, nothing more.
//
// Records travel as plain SliceRecords from the rank's staging buffer
// through the transport, collector, journal and session files to the
// streaming fold, and the offline Detector folds them in that form too.
// RecordBatch stays only for callers that hold columns: pipebench's tier
// pass ships them through BatchTransport::ship(int, const RecordBatch&,
// double), and BatchSink::on_batch(const RecordBatch&) gathers them back
// to AoS for the one span fold. Conversion round trips are bit-identical
// — pinned by tests/test_record_batch.cpp across all eight mini-apps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/types.hpp"

namespace vsensor::rt {

class RecordBatch {
 public:
  RecordBatch() = default;

  size_t size() const { return sensor_id.size(); }
  bool empty() const { return sensor_id.empty(); }

  void reserve(size_t n);
  void clear();

  /// Scatter one AoS record into the column arrays.
  void push_back(const SliceRecord& rec);

  /// Append a contiguous AoS span (one column-wise pass per field).
  void append(std::span<const SliceRecord> records);

  /// Gather record i back into AoS form. Bit-identical round trip.
  SliceRecord get(size_t i) const;

  /// Gather the whole batch into AoS form (wire/storage layout).
  std::vector<SliceRecord> to_aos() const;

  static RecordBatch from_aos(std::span<const SliceRecord> records);

  // Column arrays, index-aligned: element i of every column is record i.
  std::vector<int32_t> sensor_id;
  std::vector<int32_t> rank;
  std::vector<float> metric;
  std::vector<float> reserved;
  std::vector<double> t_begin;
  std::vector<double> t_end;
  std::vector<double> avg_duration;
  std::vector<double> min_duration;
  std::vector<uint32_t> count;
  std::vector<uint32_t> flags;
};

}  // namespace vsensor::rt
