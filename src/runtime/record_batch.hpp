// Struct-of-arrays record batches — the column layout of the offline
// scoring core.
//
// Records travel as plain SliceRecords from the rank's staging buffer
// through the transport, collector, journal and session files to the
// streaming fold. Columns pay off only in batch analysis, whose kernels
// touch one or two fields per record across the whole run: the
// min-standard scan reads avg_duration, normalization reads avg_duration
// and metric. In array-of-structs form each such scan strides 56 bytes per
// touched double; in struct-of-arrays form it streams contiguous memory
// and vectorizes (support/simd.hpp). So Detector::analyze_records converts
// into a RecordBatch once and scores it with analyze_batch.
// BatchTransport::ship and BatchSink::on_batch keep RecordBatch overloads
// that gather back to AoS for callers holding columns. Conversion round
// trips are bit-identical — pinned by tests/test_record_batch.cpp across
// all eight mini-apps.
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
