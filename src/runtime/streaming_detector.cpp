#include "runtime/streaming_detector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/binio.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {

// Fixed bytes of a slot, row, cell, statistics and last-slice entry of a
// checkpoint section (the layout in runtime/checkpoint.hpp); the encoder
// sizes its output by them and the decoder checks counts against them.
constexpr size_t kSlotBytes = 24, kRowBytes = 16, kCellBytes = 20,
                 kStatsBytes = 24, kLastBytes = 32;

// Words of a bitmap of `ranks` bits, and the bit of rank `r` in one.
size_t bitmap_words(int ranks) {
  return (static_cast<size_t>(ranks) + 63) / 64;
}
void set_bit(std::vector<uint64_t>& bits, size_t r) {
  bits[r / 64] |= uint64_t{1} << (r % 64);
}

// Calls f(i) for each set bit i of `bits`, ascending.
template <typename F>
void for_each_bit(std::span<const uint64_t> bits, F&& f) {
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      f(w * 64 + static_cast<size_t>(std::countr_zero(word)));
    }
  }
}

// One online variance flag as a structured event: virtual time, rank,
// sensor, group, and the score vs. the standard it lost against.
void emit_flag(const obs::EventHooks& hooks, double t, int rank, int sensor,
               int group, double norm, double standard, const char* which) {
  obs::Event ev;
  ev.kind = obs::EventKind::VarianceFlag;
  ev.t = t;
  ev.rank = rank;
  ev.sensor = sensor;
  ev.has_group = true;
  ev.group = group;
  ev.value = norm;
  ev.standard = standard;
  ev.detail = which;
  hooks.emit(std::move(ev));
}

}  // namespace

StreamingDetector::State::State(size_t sensors, int ranks)
    : hint(sensors, {0, kNoSlot}),
      stats(sensors),
      sensor_records(sensors, 0),
      last(sensors * static_cast<size_t>(ranks)),
      stale(static_cast<size_t>(ranks), 0) {}

std::vector<uint32_t>::const_iterator StreamingDetector::State::lower_bound(
    int sensor, int group) const {
  return std::lower_bound(
      order.begin(), order.end(), std::pair(sensor, group),
      [this](uint32_t i, const std::pair<int, int>& key) {
        return std::pair(slots[i].sensor, slots[i].group) < key;
      });
}

StreamingDetector::CheckpointCounts StreamingDetector::State::sizes() const {
  CheckpointCounts n;
  n.cells = cells;
  n.observed = observed;
  n.intra_flags = intra_flags;
  n.inter_flags = inter_flags;
  for (const Slot& slot : slots) {
    n.standards += slot.has_standard ? 1 : 0;
    for (const Row& row : slot.rows) n.rows += row.cells ? 1 : 0;
  }
  for (const auto& slice : last) n.last += slice ? 1 : 0;
  for (const uint8_t flag : stale) n.stale_ranks += flag;
  return n;
}

StreamingDetector::StreamingDetector(DetectorConfig cfg,
                                     std::vector<SensorInfo> sensors,
                                     int ranks, double run_time)
    : cfg_(cfg),
      sensors_(std::move(sensors)),
      ranks_(ranks),
      run_time_(run_time),
      buckets_(std::max(
          1, static_cast<int>(std::ceil(run_time / cfg.matrix_resolution)))) {
  VS_CHECK_MSG(cfg_.matrix_resolution > 0.0, "matrix resolution must be positive");
  VS_CHECK_MSG(ranks_ > 0, "need at least one rank");
  VS_CHECK_MSG(run_time_ > 0.0, "run time must be positive");
  st_ = State(sensors_.size(), ranks_);
}

int StreamingDetector::group_of(float metric) const {
  if (cfg_.metric_bucket_width <= 0.0) return 0;
  return static_cast<int>(
      std::floor(static_cast<double>(metric) / cfg_.metric_bucket_width));
}

int StreamingDetector::bucket_of(double time) const {
  // Mirrors PerformanceMatrix::bucket_of so streaming and batch analysis
  // land every record in the same cell.
  const int b = static_cast<int>(std::floor(time / cfg_.matrix_resolution));
  return std::clamp(b, 0, buckets_ - 1);
}

uint32_t StreamingDetector::slot_of(State& st, int sensor, int group,
                                    int ranks) {
  const auto at = st.lower_bound(sensor, group);
  if (at != st.order.end() && st.slots[*at].sensor == sensor &&
      st.slots[*at].group == group) {
    return *at;
  }
  Slot slot;
  slot.sensor = sensor;
  slot.group = group;
  slot.rows.resize(static_cast<size_t>(ranks));
  slot.dirty.assign(bitmap_words(ranks), 0);
  const auto index = static_cast<uint32_t>(st.slots.size());
  st.slots.push_back(std::move(slot));
  st.order.insert(at, index);
  return index;
}

const StreamingDetector::Slot* StreamingDetector::find_slot(int sensor,
                                                            int group) const {
  const auto at = st_.lower_bound(sensor, group);
  if (at == st_.order.end()) return nullptr;
  const Slot& slot = st_.slots[*at];
  return slot.sensor == sensor && slot.group == group ? &slot : nullptr;
}

StreamingDetector::CellSums* StreamingDetector::add_row(Row& row,
                                                       int buckets) {
  row.cells.reset(new CellSums[static_cast<size_t>(buckets)]);
  std::fill_n(row.cells.get(), buckets, CellSums{0.0, kEmptyCell});
  row.mark = static_cast<uint32_t>(buckets);
  row.high = 0;
  return row.cells.get();
}

void StreamingDetector::on_batch(std::span<const SliceRecord> batch) {
  VS_OBS_SCOPED_STAGE(obs::Stage::DetectStreaming);
  std::lock_guard<std::mutex> lock(mu_);
  State& st = st_;
  const auto clean = static_cast<uint32_t>(buckets_);
  for (const auto& rec : batch) {
    VS_CHECK_MSG(rec.sensor_id >= 0 &&
                     static_cast<size_t>(rec.sensor_id) < sensors_.size(),
                 "record references unknown sensor");
    VS_CHECK_MSG(rec.rank >= 0 && rec.rank < ranks_,
                 "record from unknown rank");
    st.observed += 1;
    const auto rank = static_cast<size_t>(rec.rank);
    // Graceful degradation: a straggler from a rank already declared stale
    // must not reopen that rank's history.
    if (st.stale[rank] != 0) {
      ++st.stale_records;
      continue;
    }
    // A zero/near-zero duration is a broken measurement, not the fastest
    // slice — it must not ratchet the running minima down to 0 and zero
    // every later score.
    if (is_degenerate(rec)) {
      ++st.degenerate_records;
      continue;
    }
    const auto sensor = static_cast<size_t>(rec.sensor_id);
    const int g = group_of(rec.metric);
    const double avg = rec.avg_duration;
    st.sensor_records[sensor] += 1;
    auto& hint = st.hint[sensor];
    if (hint.second == kNoSlot || hint.first != g) {
      hint = {g, slot_of(st, rec.sensor_id, g, ranks_)};
    }
    Slot& slot = st.slots[hint.second];

    // Running minima. A record that lowers a standard normalizes against
    // itself (to 1.0), as it does against the final minimum, which
    // includes every record.
    if (!slot.has_standard || avg < slot.standard) {
      slot.has_standard = true;
      slot.standard = avg;
      if (publish_standards_ && !slot.queued) {
        slot.queued = true;
        lowered_.push_back(hint.second);
      }
    }
    Row& row = slot.rows[rank];
    CellSums* cells = row.cells.get();
    if (cells == nullptr) {
      cells = add_row(row, buckets_);
      row.standard = avg;
    } else {
      row.standard = std::min(row.standard, avg);
    }

    const double inter_norm = slot.standard / avg;
    const double intra_norm = row.standard / avg;
    if (inter_norm < cfg_.variance_threshold) {
      ++st.inter_flags;
      if (hooks_) {
        emit_flag(hooks_, rec.t_end, rec.rank, rec.sensor_id, g, inter_norm,
                  slot.standard, "inter");
      }
    }
    if (intra_norm < cfg_.variance_threshold) {
      ++st.intra_flags;
      if (hooks_) {
        emit_flag(hooks_, rec.t_end, rec.rank, rec.sensor_id, g, intra_norm,
                  row.standard, "intra");
      }
    }

    // Welford update over normalized performance.
    RunningStats& stats = st.stats[sensor];
    stats.count += 1;
    const double delta = inter_norm - stats.mean;
    stats.mean += delta / static_cast<double>(stats.count);
    stats.m2 += delta * (inter_norm - stats.mean);

    // The last slice changes with the row, so the row's bit also tells the
    // next delta checkpoint to write it.
    st.last[sensor * static_cast<size_t>(ranks_) + rank] =
        LastSlice{rec.t_end, avg, inter_norm};

    // Widen the row's window for the next delta checkpoint, storing only
    // what changes; the record that opens the window sets the row's bit.
    const auto bucket =
        static_cast<uint32_t>(bucket_of(0.5 * (rec.t_begin + rec.t_end)));
    if (bucket < row.mark) {
      if (row.mark == clean) set_bit(slot.dirty, rank);
      row.mark = bucket;
    }
    if (bucket > row.high) row.high = bucket;
    CellSums& cell = cells[bucket];
    if (cell.weight == kEmptyCell) {
      cell = CellSums{};
      ++st.cells;
    }
    const auto weight = static_cast<double>(rec.count);
    cell.weight_over_avg += weight / avg;
    cell.weight += weight;
  }
}

size_t StreamingDetector::flag_records(std::span<const SliceRecord> records,
                                       SlotHint& hint,
                                       std::vector<FlaggedRecord>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (hint.size() != sensors_.size()) hint.assign(sensors_.size(), {0, kNoSlot});
  size_t flagged = 0;
  for (const auto& rec : records) {
    VS_CHECK_MSG(rec.sensor_id >= 0 &&
                     static_cast<size_t>(rec.sensor_id) < sensors_.size(),
                 "record references unknown sensor");
    const auto sensor = static_cast<size_t>(rec.sensor_id);
    if (is_degenerate(rec) || st_.sensor_records[sensor] < cfg_.min_records) {
      continue;
    }
    const int g = group_of(rec.metric);
    auto& last = hint[sensor];
    if (last.second == kNoSlot || last.first != g) {
      const Slot* slot = find_slot(rec.sensor_id, g);
      if (slot == nullptr) continue;
      last = {g, static_cast<uint32_t>(slot - st_.slots.data())};
    }
    const Slot& slot = st_.slots[last.second];
    if (!slot.has_standard) continue;
    const double normalized =
        std::max(slot.standard, kMinStandardTime) / rec.avg_duration;
    if (normalized < cfg_.variance_threshold) {
      ++flagged;
      if (out != nullptr) out->push_back({rec, normalized, g});
    }
  }
  return flagged;
}

void StreamingDetector::mark_stale(int rank, double now) {
  VS_CHECK_MSG(rank >= 0 && rank < ranks_, "stale mark for unknown rank");
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint8_t& flag = st_.stale[static_cast<size_t>(rank)];
    fresh = flag == 0;
    flag = 1;
  }
  // Event only on the first verdict for a rank: mark_stale is idempotent
  // and replayed journals re-apply it, but "this rank went stale" is one
  // transition, not one per re-application.
  if (fresh && hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::StaleRank;
    ev.t = now;
    ev.rank = rank;
    hooks_.emit(std::move(ev));
  }
}

void StreamingDetector::mark_live(int rank, double now) {
  VS_CHECK_MSG(rank >= 0 && rank < ranks_, "live mark for unknown rank");
  bool revived = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint8_t& flag = st_.stale[static_cast<size_t>(rank)];
    revived = flag != 0;
    flag = 0;
  }
  // Like mark_stale: one event per actual transition, so idempotent
  // journal replays don't multiply revival events.
  if (revived && hooks_) {
    obs::Event ev;
    ev.kind = obs::EventKind::RankRejoin;
    ev.t = now;
    ev.rank = rank;
    hooks_.emit(std::move(ev));
  }
}

std::vector<int> StreamingDetector::stale_ranks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (int r = 0; r < ranks_; ++r) {
    if (st_.stale[static_cast<size_t>(r)] != 0) out.push_back(r);
  }
  return out;
}

void StreamingDetector::enable_standard_publication(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  publish_standards_ = on;
  if (on) return;
  for (const uint32_t i : lowered_) st_.slots[i].queued = false;
  lowered_.clear();
}

std::vector<StandardUpdate> StreamingDetector::take_lowered_standards() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StandardUpdate> out;
  out.reserve(lowered_.size());
  // Publish each key's *current* board value, not the value at the moment
  // of lowering: later records of the same key may have lowered it again
  // before this drain, and the lowest value is the one peers need.
  for (const uint32_t i : lowered_) {
    Slot& slot = st_.slots[i];
    slot.queued = false;
    out.push_back(StandardUpdate{slot.sensor, slot.group, slot.standard});
  }
  lowered_.clear();
  // Key order, so every peer journals the same broadcast in the same order.
  std::sort(out.begin(), out.end(),
            [](const StandardUpdate& a, const StandardUpdate& b) {
              return std::pair(a.sensor_id, a.group) <
                     std::pair(b.sensor_id, b.group);
            });
  return out;
}

void StreamingDetector::apply_standard_update(int sensor_id, int group,
                                              double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = st_.slots[slot_of(st_, sensor_id, group, ranks_)];
  if (!slot.has_standard || value < slot.standard) {
    slot.has_standard = true;
    slot.standard = value;
  }
}

StreamingDetector::RunningStats StreamingDetector::sensor_stats(
    int sensor_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  VS_CHECK(sensor_id >= 0 && static_cast<size_t>(sensor_id) < st_.stats.size());
  return st_.stats[static_cast<size_t>(sensor_id)];
}

std::optional<StreamingDetector::LastSlice> StreamingDetector::last_slice(
    int sensor_id, int rank) const {
  if (sensor_id < 0 || static_cast<size_t>(sensor_id) >= sensors_.size() ||
      rank < 0 || rank >= ranks_) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return st_.last[static_cast<size_t>(sensor_id) *
                      static_cast<size_t>(ranks_) +
                  static_cast<size_t>(rank)];
}

double StreamingDetector::standard_time(int sensor_id, float metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Slot* slot = find_slot(sensor_id, group_of(metric));
  return slot != nullptr && slot->has_standard ? slot->standard : 0.0;
}

uint64_t StreamingDetector::observed_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return st_.observed;
}

uint64_t StreamingDetector::stale_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return st_.stale_records;
}

uint64_t StreamingDetector::degenerate_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return st_.degenerate_records;
}

uint64_t StreamingDetector::intra_flags() const {
  std::lock_guard<std::mutex> lock(mu_);
  return st_.intra_flags;
}

void StreamingDetector::sample_health(double /*now*/,
                                      obs::HealthRecorder& rec) const {
  std::lock_guard<std::mutex> lock(mu_);
  const CheckpointCounts n = st_.sizes();
  rec.gauge("observed_records", st_.observed);
  rec.gauge("stale_records", st_.stale_records);
  rec.gauge("degenerate_records", st_.degenerate_records);
  rec.gauge("intra_flags", st_.intra_flags);
  rec.gauge("inter_flags", st_.inter_flags);
  rec.gauge("standards", n.standards);
  rec.gauge("rank_standards", n.rows);
  rec.gauge("matrix_cells", st_.cells);
  rec.gauge("stale_ranks", n.stale_ranks);
}

uint64_t StreamingDetector::inter_flags() const {
  std::lock_guard<std::mutex> lock(mu_);
  return st_.inter_flags;
}

StreamingDetector::Snapshot StreamingDetector::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  // Slots in key order, ranks and buckets ascending: every map is filled
  // in its own order, so each insert is an O(1) append at the end.
  for (const uint32_t i : st_.order) {
    const Slot& slot = st_.slots[i];
    if (slot.has_standard) {
      snap.standard.emplace_hint(snap.standard.end(),
                                 std::pair(slot.sensor, slot.group),
                                 slot.standard);
    }
    for (int r = 0; r < ranks_; ++r) {
      const Row& row = slot.rows[static_cast<size_t>(r)];
      if (row.cells == nullptr) continue;
      snap.rank_standard.emplace_hint(snap.rank_standard.end(),
                                      std::tuple(slot.sensor, slot.group, r),
                                      row.standard);
      for (int b = 0; b < buckets_; ++b) {
        if (row.cells[b].weight == kEmptyCell) continue;
        snap.cells.emplace_hint(snap.cells.end(),
                                CellKey{slot.sensor, slot.group, r, b},
                                row.cells[b]);
      }
    }
  }
  snap.stats = st_.stats;
  snap.sensor_records = st_.sensor_records;
  for (size_t s = 0; s < sensors_.size(); ++s) {
    for (int r = 0; r < ranks_; ++r) {
      const auto& slice =
          st_.last[s * static_cast<size_t>(ranks_) + static_cast<size_t>(r)];
      if (slice) {
        snap.last.emplace_hint(snap.last.end(),
                               std::pair(static_cast<int>(s), r), *slice);
      }
    }
  }
  for (int r = 0; r < ranks_; ++r) {
    if (st_.stale[static_cast<size_t>(r)] != 0) {
      snap.stale.insert(snap.stale.end(), r);
    }
  }
  snap.observed = st_.observed;
  snap.stale_records = st_.stale_records;
  snap.degenerate_records = st_.degenerate_records;
  snap.intra_flags = st_.intra_flags;
  snap.inter_flags = st_.inter_flags;
  return snap;
}

void StreamingDetector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  st_ = State(sensors_.size(), ranks_);
  lowered_.clear();
}

void StreamingDetector::encode_checkpoint_state(std::string& out,
                                                CheckpointFrame frame) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool delta = frame == CheckpointFrame::Delta;
  const auto clean = static_cast<uint32_t>(buckets_);
  const auto ranks = static_cast<size_t>(ranks_);
  const uint64_t sensors = sensors_.size();
  const size_t words = bitmap_words(ranks_);
  // A delta writes only the rows whose bit is set, each over its window,
  // and the last slices of their (sensor, rank) pairs: per sensor, the OR
  // of its slots' bitmaps (`moved`). It counts them from the bits alone.
  std::vector<uint64_t> moved;
  const auto moved_of = [&](size_t sensor) {
    return std::span<const uint64_t>(moved).subspan(sensor * words, words);
  };
  CheckpointCounts n;
  if (delta) {
    moved.assign(sensors * words, 0);
    for (const Slot& slot : st_.slots) {
      if (!slot.has_standard) continue;
      ++n.standards;
      for_each_bit(slot.dirty, [&](size_t r) {
        const Row& row = slot.rows[r];
        ++n.rows;
        for (uint32_t b = row.mark; b <= row.high; ++b) {
          n.cells += row.cells[b].weight != kEmptyCell ? 1 : 0;
        }
      });
      // Only a slot of a known sensor has bits set.
      for (size_t w = 0; w < words; ++w) {
        if (slot.dirty[w] != 0) {
          moved[static_cast<size_t>(slot.sensor) * words + w] |= slot.dirty[w];
        }
      }
    }
    for (size_t s = 0; s < sensors; ++s) {
      for_each_bit(moved_of(s), [&](size_t r) {
        n.last += st_.last[s * ranks + r] ? 1 : 0;
      });
    }
    for (const uint8_t flag : st_.stale) n.stale_ranks += flag;
  } else {
    n = st_.sizes();
  }
  // Section layout (runtime/checkpoint.hpp): slots with their rows and
  // cells in ascending key order, then the u64-counted fixed-width
  // containers.
  const uint64_t bytes = 8 + n.standards * kSlotBytes + n.rows * kRowBytes +
                         n.cells * kCellBytes + 8 + sensors * kStatsBytes +
                         8 + sensors * 8 + 8 + n.last * kLastBytes + 8 +
                         n.stale_ranks * 4 + 5 * 8;
  const size_t at = out.size();
  out.resize(at + bytes);
  ByteCursor w{out.data() + at};

  w.put(n.standards);
  for (const uint32_t i : st_.order) {
    Slot& slot = st_.slots[i];
    if (!slot.has_standard) continue;
    w.put(static_cast<int32_t>(slot.sensor));
    w.put(static_cast<int32_t>(slot.group));
    w.put(slot.standard);
    // Row and cell counts are known only after the walk; patched in place.
    char* const rows_at = w.p;
    w.put(uint64_t{0});
    uint64_t rows = 0;
    // Writes row `r` with its non-empty cells in [first, last], then
    // closes its window: the next delta starts from here.
    const auto put_row = [&](size_t r, uint32_t first, uint32_t last) {
      Row& row = slot.rows[r];
      ++rows;
      w.put(static_cast<int32_t>(r));
      w.put(row.standard);
      char* const cells_at = w.p;
      w.put(uint32_t{0});
      uint32_t written = 0;
      for (uint32_t b = first; b <= last; ++b) {
        const CellSums& cell = row.cells[b];
        if (cell.weight == kEmptyCell) continue;
        ++written;
        w.put(b);
        w.put(cell.weight_over_avg);
        w.put(cell.weight);
      }
      std::memcpy(cells_at, &written, sizeof written);
      row.mark = clean;
      row.high = 0;
    };
    if (delta) {
      for_each_bit(slot.dirty, [&](size_t r) {
        put_row(r, slot.rows[r].mark, slot.rows[r].high);
      });
    } else {
      for (size_t r = 0; r < ranks; ++r) {
        if (slot.rows[r].cells != nullptr) put_row(r, 0, clean - 1);
      }
    }
    std::fill(slot.dirty.begin(), slot.dirty.end(), 0);
    std::memcpy(rows_at, &rows, sizeof rows);
  }
  w.put(sensors);
  for (const auto& stats : st_.stats) {
    w.put(stats.count);
    w.put(stats.mean);
    w.put(stats.m2);
  }
  w.put(sensors);
  for (const uint64_t count : st_.sensor_records) w.put(count);
  w.put(n.last);
  const auto put_last = [&](size_t s, size_t r) {
    const auto& slice = st_.last[s * ranks + r];
    if (!slice) return;
    w.put(static_cast<int32_t>(s));
    w.put(static_cast<int32_t>(r));
    w.put(slice->t_end);
    w.put(slice->avg_duration);
    w.put(slice->normalized);
  };
  for (size_t s = 0; s < sensors; ++s) {
    if (delta) {
      for_each_bit(moved_of(s), [&](size_t r) { put_last(s, r); });
    } else {
      for (size_t r = 0; r < ranks; ++r) put_last(s, r);
    }
  }
  w.put(n.stale_ranks);
  for (int r = 0; r < ranks_; ++r) {
    if (st_.stale[static_cast<size_t>(r)] != 0) w.put(static_cast<int32_t>(r));
  }
  w.put(st_.observed);
  w.put(st_.stale_records);
  w.put(st_.degenerate_records);
  w.put(st_.intra_flags);
  w.put(st_.inter_flags);
  VS_CHECK_MSG(w.p == out.data() + out.size(),
               "checkpoint state size does not match its layout");
}

bool StreamingDetector::decode_section(std::string_view section,
                                       const CheckpointShape& shape,
                                       State* into, CheckpointCounts* counts) {
  ByteReader in{section.data(), section.size()};
  const auto ranks = static_cast<size_t>(shape.ranks);
  const auto known_sensor = [&](int32_t sensor) {
    return sensor >= 0 && static_cast<size_t>(sensor) < shape.sensors;
  };
  const auto known_rank = [&](int32_t rank) {
    return rank >= 0 && rank < shape.ranks;
  };
  CheckpointCounts n;

  // Slots, each with its rows, each with its cells: keys strictly
  // ascending at every level.
  if (!in.read(&n.standards) || !in.holds(n.standards, kSlotBytes)) {
    return false;
  }
  std::pair<int32_t, int32_t> prev_slot;
  for (uint64_t i = 0; i < n.standards; ++i) {
    int32_t sensor = 0, group = 0;
    double standard = 0.0;
    uint64_t rows = 0;
    if (!in.read(&sensor) || !in.read(&group) || !in.read(&standard) ||
        !in.read(&rows) || !in.holds(rows, kRowBytes) ||
        (i > 0 && !(prev_slot < std::pair(sensor, group))) ||
        (rows > 0 && !known_sensor(sensor))) {
      return false;
    }
    prev_slot = {sensor, group};
    Slot* slot = nullptr;
    if (into != nullptr) {
      slot = &into->slots[slot_of(*into, sensor, group, shape.ranks)];
      slot->has_standard = true;
      slot->standard = standard;
    }
    n.rows += rows;
    int32_t prev_rank = -1;
    for (uint64_t j = 0; j < rows; ++j) {
      int32_t rank = 0;
      double rank_standard = 0.0;
      uint32_t cells = 0;
      if (!in.read(&rank) || !in.read(&rank_standard) || !in.read(&cells) ||
          !in.holds(cells, kCellBytes) || rank <= prev_rank ||
          !known_rank(rank)) {
        return false;
      }
      prev_rank = rank;
      CellSums* row_cells = nullptr;
      if (into != nullptr) {
        Row& row = slot->rows[static_cast<size_t>(rank)];
        row_cells = row.cells ? row.cells.get()
                              : add_row(row, static_cast<int>(shape.buckets));
        row.standard = rank_standard;
      }
      n.cells += cells;
      int64_t prev_bucket = -1;
      for (uint32_t k = 0; k < cells; ++k) {
        uint32_t bucket = 0;
        CellSums cell;
        if (!in.read(&bucket) || !in.read(&cell.weight_over_avg) ||
            !in.read(&cell.weight) || bucket <= prev_bucket ||
            bucket >= shape.buckets || cell.weight < 0.0) {
          return false;
        }
        prev_bucket = bucket;
        if (into != nullptr) {
          if (row_cells[bucket].weight == kEmptyCell) ++into->cells;
          row_cells[bucket] = cell;
        }
      }
    }
  }

  // Per-sensor statistics and record counts, one each per sensor.
  uint64_t count = 0;
  if (!in.read(&count) || count != shape.sensors ||
      !in.holds(count, kStatsBytes)) {
    return false;
  }
  for (uint64_t s = 0; s < count; ++s) {
    RunningStats stats;
    if (!in.read(&stats.count) || !in.read(&stats.mean) ||
        !in.read(&stats.m2)) {
      return false;
    }
    if (into != nullptr) into->stats[s] = stats;
  }
  if (!in.read(&count) || count != shape.sensors || !in.holds(count, 8)) {
    return false;
  }
  for (uint64_t s = 0; s < count; ++s) {
    uint64_t records = 0;
    if (!in.read(&records)) return false;
    if (into != nullptr) into->sensor_records[s] = records;
  }

  // Last slices, by (sensor, rank) ascending.
  if (!in.read(&n.last) || !in.holds(n.last, kLastBytes)) return false;
  std::pair<int32_t, int32_t> prev_last;
  for (uint64_t i = 0; i < n.last; ++i) {
    int32_t sensor = 0, rank = 0;
    LastSlice slice;
    if (!in.read(&sensor) || !in.read(&rank) || !in.read(&slice.t_end) ||
        !in.read(&slice.avg_duration) || !in.read(&slice.normalized) ||
        (i > 0 && !(prev_last < std::pair(sensor, rank))) ||
        !known_sensor(sensor) || !known_rank(rank)) {
      return false;
    }
    prev_last = {sensor, rank};
    if (into != nullptr) {
      into->last[static_cast<size_t>(sensor) * ranks +
                 static_cast<size_t>(rank)] = slice;
    }
  }

  // The stale set, whole in every frame, so it replaces the state's.
  if (!in.read(&n.stale_ranks) || !in.holds(n.stale_ranks, 4)) {
    return false;
  }
  if (into != nullptr) std::fill(into->stale.begin(), into->stale.end(), 0);
  int32_t prev_stale = -1;
  for (uint64_t i = 0; i < n.stale_ranks; ++i) {
    int32_t rank = 0;
    if (!in.read(&rank) || rank <= prev_stale || !known_rank(rank)) {
      return false;
    }
    prev_stale = rank;
    if (into != nullptr) into->stale[static_cast<size_t>(rank)] = 1;
  }

  uint64_t stale_records = 0, degenerate_records = 0;
  if (!in.read(&n.observed) || !in.read(&stale_records) ||
      !in.read(&degenerate_records) || !in.read(&n.intra_flags) ||
      !in.read(&n.inter_flags) || !in.done()) {
    return false;
  }
  if (into != nullptr) {
    into->observed = n.observed;
    into->stale_records = stale_records;
    into->degenerate_records = degenerate_records;
    into->intra_flags = n.intra_flags;
    into->inter_flags = n.inter_flags;
  }
  if (counts != nullptr) *counts = n;
  return true;
}

bool StreamingDetector::check_checkpoint_state(std::string_view section,
                                               const CheckpointShape& shape,
                                               CheckpointCounts* counts) {
  return decode_section(section, shape, nullptr, counts);
}

bool StreamingDetector::decode_checkpoint_state(std::string_view section,
                                                CheckpointFrame frame,
                                                CheckpointCounts* counts) {
  const CheckpointShape shape{sensors_.size(), ranks_,
                              static_cast<uint32_t>(buckets_)};
  if (!decode_section(section, shape, nullptr, counts)) return false;
  if (frame == CheckpointFrame::Base) {
    // Built aside and swapped in, like any replaced state.
    State st(sensors_.size(), ranks_);
    decode_section(section, shape, &st, nullptr);
    std::lock_guard<std::mutex> lock(mu_);
    st_ = std::move(st);
    lowered_.clear();
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    decode_section(section, shape, &st_, nullptr);
  }
  return true;
}

void StreamingDetector::merge_from(const StreamingDetector& other) {
  VS_CHECK_MSG(&other != this, "a detector cannot merge itself");
  VS_CHECK_MSG(other.sensors_.size() == sensors_.size() &&
                   other.ranks_ == ranks_ && other.buckets_ == buckets_,
               "cannot merge detectors of different shapes");
  std::scoped_lock lock(mu_, other.mu_);
  const State& from = other.st_;
  const auto ranks = static_cast<size_t>(ranks_);
  // Checked before anything changes, so a merge that throws leaves this
  // detector as it was.
  for (const Slot& slot : from.slots) {
    const Slot* mine = find_slot(slot.sensor, slot.group);
    if (mine == nullptr) continue;
    for (size_t r = 0; r < ranks; ++r) {
      VS_CHECK_MSG(slot.rows[r].cells == nullptr ||
                       mine->rows[r].cells == nullptr,
                   "both merged detectors hold a row of one rank");
    }
  }

  for (const Slot& slot : from.slots) {
    Slot& to = st_.slots[slot_of(st_, slot.sensor, slot.group, ranks_)];
    if (slot.has_standard && (!to.has_standard || slot.standard < to.standard)) {
      to.has_standard = true;
      to.standard = slot.standard;
    }
    for (size_t r = 0; r < ranks; ++r) {
      const Row& row = slot.rows[r];
      if (row.cells == nullptr) continue;
      Row& dst = to.rows[r];
      std::copy_n(row.cells.get(), buckets_, add_row(dst, buckets_));
      dst.standard = row.standard;
      // New to this detector: the next delta checkpoint writes it whole.
      dst.mark = 0;
      dst.high = static_cast<uint32_t>(buckets_ - 1);
      set_bit(to.dirty, r);
    }
  }
  st_.cells += from.cells;

  // Welford state merges by Chan's parallel formula.
  for (size_t s = 0; s < st_.stats.size(); ++s) {
    RunningStats& x = st_.stats[s];
    const RunningStats& y = from.stats[s];
    if (y.count == 0) continue;
    if (x.count == 0) {
      x = y;
      continue;
    }
    const double na = static_cast<double>(x.count);
    const double nb = static_cast<double>(y.count);
    const double delta = y.mean - x.mean;
    x.mean = x.mean + delta * nb / (na + nb);
    x.m2 = x.m2 + y.m2 + delta * delta * na * nb / (na + nb);
    x.count += y.count;
  }
  for (size_t s = 0; s < st_.sensor_records.size(); ++s) {
    st_.sensor_records[s] += from.sensor_records[s];
  }
  for (size_t i = 0; i < st_.last.size(); ++i) {
    const auto& slice = from.last[i];
    if (slice && (!st_.last[i] || slice->t_end > st_.last[i]->t_end)) {
      st_.last[i] = slice;
    }
  }
  for (size_t r = 0; r < ranks; ++r) st_.stale[r] |= from.stale[r];
  st_.observed += from.observed;
  st_.stale_records += from.stale_records;
  st_.degenerate_records += from.degenerate_records;
  st_.intra_flags += from.intra_flags;
  st_.inter_flags += from.inter_flags;
}

AnalysisResult StreamingDetector::finalize() const {
  VS_OBS_SCOPED_STAGE(obs::Stage::DetectStreaming);
  obs::ScopedSpan span("finalize", "detect");
  span.set_virtual(0.0, run_time_);
  std::lock_guard<std::mutex> lock(mu_);
  AnalysisResult result{
      .matrices = {PerformanceMatrix(ranks_, buckets_, cfg_.matrix_resolution),
                   PerformanceMatrix(ranks_, buckets_, cfg_.matrix_resolution),
                   PerformanceMatrix(ranks_, buckets_, cfg_.matrix_resolution)},
      .events = {},
      .flagged = {},
      .run_time = run_time_,
      .ranks = ranks_,
      .stale_ranks = {},
  };
  for (int r = 0; r < ranks_; ++r) {
    if (st_.stale[static_cast<size_t>(r)] != 0) result.stale_ranks.push_back(r);
  }

  // Apply the final standards to the standard-free cell sums. A cell's
  // records of one (sensor, group) contributed sum(count/avg); multiplying
  // by the group's final standard yields their sum(normalized * count)
  // without replaying a record. Cells are visited in
  // (sensor, group, rank, bucket) order, so every matrix cell sums its
  // contributions in the same order as Snapshot's cell map.
  for (const uint32_t i : st_.order) {
    const Slot& slot = st_.slots[i];
    // A slot of an unknown sensor only ever carries a peer's standard.
    const auto sensor = static_cast<size_t>(slot.sensor);
    if (sensor >= sensors_.size() ||
        st_.sensor_records[sensor] < cfg_.min_records) {
      continue;
    }
    const double std_time = std::max(slot.standard, kMinStandardTime);
    auto& matrix = result.matrices[static_cast<size_t>(sensors_[sensor].type)];
    for (int r = 0; r < ranks_; ++r) {
      const CellSums* cells = slot.rows[static_cast<size_t>(r)].cells.get();
      if (cells == nullptr) continue;
      for (int b = 0; b < buckets_; ++b) {
        // Also skips empty cells, whose weight is kEmptyCell.
        const double weight = cells[b].weight;
        if (weight <= 0.0) continue;
        const double value_sum = std_time * cells[b].weight_over_avg;
        matrix.accumulate(r, b, value_sum / weight, weight);
      }
    }
  }

  finalize_analysis(result, cfg_);
  return result;
}

}  // namespace vsensor::rt
