#include "runtime/streaming_detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "support/binio.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {

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

#if VSENSOR_OBS
namespace {
struct StreamingInstruments {
  obs::Counter& batches;
  obs::Counter& records;
  obs::Counter& inter_flags;
  obs::Counter& intra_flags;

  static StreamingInstruments& get() {
    auto& reg = obs::MetricsRegistry::global();
    static StreamingInstruments inst{
        reg.counter("streaming.batches_folded"),
        reg.counter("streaming.records_folded"),
        reg.counter("streaming.inter_rank_flags"),
        reg.counter("streaming.intra_rank_flags")};
    return inst;
  }
};
}  // namespace
#endif

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

StreamingDetector::State::Sizes StreamingDetector::State::sizes() const {
  Sizes n;
  for (const Slot& slot : slots) {
    n.standards += slot.has_standard ? 1 : 0;
    for (const Row& row : slot.rows) n.rank_standards += row.cells ? 1 : 0;
  }
  for (const auto& slice : last) n.last += slice ? 1 : 0;
  for (const uint8_t flag : stale) n.stale += flag;
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

uint32_t StreamingDetector::slot_of(State& st, int sensor, int group) const {
  const auto at = st.lower_bound(sensor, group);
  if (at != st.order.end() && st.slots[*at].sensor == sensor &&
      st.slots[*at].group == group) {
    return *at;
  }
  Slot slot;
  slot.sensor = sensor;
  slot.group = group;
  slot.rows.resize(static_cast<size_t>(ranks_));
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

StreamingDetector::CellSums* StreamingDetector::add_row(Row& row) const {
  row.cells.reset(new CellSums[static_cast<size_t>(buckets_)]);
  std::fill_n(row.cells.get(), buckets_, CellSums{0.0, kEmptyCell});
  row.mark = static_cast<uint32_t>(buckets_);
  return row.cells.get();
}

void StreamingDetector::on_batch(std::span<const SliceRecord> batch) {
  VS_OBS_SCOPED_STAGE(obs::Stage::DetectStreaming);
  VS_OBS_ONLY(if (obs::enabled()) {
    auto& inst = StreamingInstruments::get();
    inst.batches.add();
    inst.records.add(batch.size());
  })
  std::lock_guard<std::mutex> lock(mu_);
  State& st = st_;
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
    // Mirror of the batch path's degeneracy rule: a zero/near-zero
    // duration is a broken measurement, not the fastest slice — it must
    // not ratchet the running minima down to 0 and zero every later score.
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
      hint = {g, slot_of(st, rec.sensor_id, g)};
    }
    Slot& slot = st.slots[hint.second];

    // Running minima. A record that lowers a standard normalizes against
    // itself (to 1.0), exactly as in the batch path where the global
    // minimum includes every record.
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
      cells = add_row(row);
      row.standard = avg;
    } else {
      row.standard = std::min(row.standard, avg);
    }

    const double inter_norm = slot.standard / avg;
    const double intra_norm = row.standard / avg;
    if (inter_norm < cfg_.variance_threshold) {
      ++st.inter_flags;
      VS_OBS_ONLY(
          if (obs::enabled()) StreamingInstruments::get().inter_flags.add();)
      if (hooks_) {
        emit_flag(hooks_, rec.t_end, rec.rank, rec.sensor_id, g, inter_norm,
                  slot.standard, "inter");
      }
    }
    if (intra_norm < cfg_.variance_threshold) {
      ++st.intra_flags;
      VS_OBS_ONLY(
          if (obs::enabled()) StreamingInstruments::get().intra_flags.add();)
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

    // The last slice changes with the row, so the row's mark also tells the
    // next delta checkpoint to write it.
    st.last[sensor * static_cast<size_t>(ranks_) + rank] =
        LastSlice{rec.t_end, avg, inter_norm};

    const auto bucket =
        static_cast<uint32_t>(bucket_of(0.5 * (rec.t_begin + rec.t_end)));
    row.mark = std::min(row.mark, bucket);
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
  Slot& slot = st_.slots[slot_of(st_, sensor_id, group)];
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
  const State::Sizes n = st_.sizes();
  rec.gauge("observed_records", st_.observed);
  rec.gauge("stale_records", st_.stale_records);
  rec.gauge("degenerate_records", st_.degenerate_records);
  rec.gauge("intra_flags", st_.intra_flags);
  rec.gauge("inter_flags", st_.inter_flags);
  rec.gauge("standards", n.standards);
  rec.gauge("rank_standards", n.rank_standards);
  rec.gauge("matrix_cells", st_.cells);
  rec.gauge("stale_ranks", n.stale);
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

void StreamingDetector::restore(const Snapshot& snap) {
  VS_CHECK_MSG(snap.stats.size() == sensors_.size() &&
                   snap.sensor_records.size() == sensors_.size(),
               "snapshot sensor table does not match this detector");
  const auto known_sensor = [this](int sensor) {
    return sensor >= 0 && static_cast<size_t>(sensor) < sensors_.size();
  };
  const auto rank_index = [this](int rank) {
    VS_CHECK_MSG(rank >= 0 && rank < ranks_, "snapshot names an unknown rank");
    return static_cast<size_t>(rank);
  };
  // Build aside and swap in, so a snapshot that does not fit leaves the
  // running state untouched.
  State st(sensors_.size(), ranks_);
  for (const auto& [key, value] : snap.standard) {
    Slot& slot = st.slots[slot_of(st, key.first, key.second)];
    slot.has_standard = true;
    slot.standard = value;
  }
  for (const auto& [key, value] : snap.rank_standard) {
    const auto& [sensor, group, rank] = key;
    Slot& slot = st.slots[slot_of(st, sensor, group)];
    VS_CHECK_MSG(known_sensor(sensor) && slot.has_standard,
                 "snapshot rank standard without a known sensor's standard");
    Row& row = slot.rows[rank_index(rank)];
    add_row(row);
    row.standard = value;
  }
  for (const auto& [key, cell] : snap.cells) {
    const auto& [sensor, group, rank, bucket] = key;
    Slot& slot = st.slots[slot_of(st, sensor, group)];
    CellSums* cells = slot.rows[rank_index(rank)].cells.get();
    VS_CHECK_MSG(cells != nullptr && bucket >= 0 && bucket < buckets_ &&
                     !(cell.weight < 0.0),
                 "snapshot cell does not fit this detector");
    cells[bucket] = cell;
    ++st.cells;
  }
  st.stats = snap.stats;
  st.sensor_records = snap.sensor_records;
  for (const auto& [key, slice] : snap.last) {
    VS_CHECK_MSG(known_sensor(key.first), "snapshot names an unknown sensor");
    st.last[static_cast<size_t>(key.first) * static_cast<size_t>(ranks_) +
            rank_index(key.second)] = slice;
  }
  for (const int rank : snap.stale) st.stale[rank_index(rank)] = 1;
  st.observed = snap.observed;
  st.stale_records = snap.stale_records;
  st.degenerate_records = snap.degenerate_records;
  st.intra_flags = snap.intra_flags;
  st.inter_flags = snap.inter_flags;

  std::lock_guard<std::mutex> lock(mu_);
  st_ = std::move(st);
  lowered_.clear();
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
  State::Sizes n = st_.sizes();
  uint64_t cells = st_.cells;
  // A delta writes only the marked rows, each from its mark up, and the
  // last slices of their (sensor, rank) pairs (`moved`); count those first.
  std::vector<uint8_t> moved;
  if (delta) {
    n.rank_standards = n.last = cells = 0;
    moved.assign(st_.last.size(), 0);
    for (const Slot& slot : st_.slots) {
      if (!slot.has_standard) continue;
      for (size_t r = 0; r < ranks; ++r) {
        const Row& row = slot.rows[r];
        if (row.cells == nullptr || row.mark >= clean) continue;
        ++n.rank_standards;
        for (uint32_t b = row.mark; b < clean; ++b) {
          cells += row.cells[b].weight != kEmptyCell ? 1 : 0;
        }
        moved[static_cast<size_t>(slot.sensor) * ranks + r] = 1;
      }
    }
    for (size_t i = 0; i < moved.size(); ++i) {
      n.last += moved[i] != 0 && st_.last[i] ? 1 : 0;
    }
  }
  // Section layout (runtime/checkpoint.hpp): slots with their rows and
  // cells in Snapshot's key order, then the u64-counted fixed-width
  // containers.
  const uint64_t bytes = 8 + n.standards * 24 + n.rank_standards * 16 +
                         cells * 20 + 8 + sensors * 24 + 8 + sensors * 8 +
                         8 + n.last * 32 + 8 + n.stale * 4 + 5 * 8;
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
    for (size_t r = 0; r < ranks; ++r) {
      Row& row = slot.rows[r];
      // Every encode clears the marks: the next delta starts from here.
      const uint32_t first = delta ? row.mark : 0;
      row.mark = clean;
      if (row.cells == nullptr || first >= clean) continue;
      ++rows;
      w.put(static_cast<int32_t>(r));
      w.put(row.standard);
      char* const cells_at = w.p;
      w.put(uint32_t{0});
      uint32_t written = 0;
      for (uint32_t b = first; b < clean; ++b) {
        const CellSums& cell = row.cells[b];
        if (cell.weight == kEmptyCell) continue;
        ++written;
        w.put(b);
        w.put(cell.weight_over_avg);
        w.put(cell.weight);
      }
      std::memcpy(cells_at, &written, sizeof written);
    }
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
  for (size_t i = 0; i < st_.last.size(); ++i) {
    const auto& slice = st_.last[i];
    if (!slice || (delta && moved[i] == 0)) continue;
    w.put(static_cast<int32_t>(i / ranks));
    w.put(static_cast<int32_t>(i % ranks));
    w.put(slice->t_end);
    w.put(slice->avg_duration);
    w.put(slice->normalized);
  }
  w.put(n.stale);
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

StreamingDetector::Snapshot StreamingDetector::merge_snapshots(
    const Snapshot& a, const Snapshot& b) {
  VS_CHECK_MSG(a.stats.size() == b.stats.size() &&
                   a.sensor_records.size() == b.sensor_records.size(),
               "cannot merge snapshots over different sensor tables");
  Snapshot out = a;

  // Standards are running minima, so the merged board is the pointwise min
  // over the union of keys — order-independent.
  for (const auto& [key, value] : b.standard) {
    auto [it, inserted] = out.standard.try_emplace(key, value);
    if (!inserted) it->second = std::min(it->second, value);
  }
  for (const auto& [key, value] : b.rank_standard) {
    auto [it, inserted] = out.rank_standard.try_emplace(key, value);
    if (!inserted) it->second = std::min(it->second, value);
  }

  // Cells are additive contributions; under a rank partition the key sets
  // are disjoint and this reduces to a union.
  for (const auto& [key, cell] : b.cells) {
    CellSums& dst = out.cells[key];
    dst.weight_over_avg += cell.weight_over_avg;
    dst.weight += cell.weight;
  }

  // Welford state merges by Chan's parallel formula. Exact algebraically;
  // the one field of the merged snapshot whose floating-point bits can
  // differ from the sequential fold (not part of finalize()'s output).
  for (size_t s = 0; s < out.stats.size(); ++s) {
    const RunningStats& x = a.stats[s];
    const RunningStats& y = b.stats[s];
    if (x.count == 0) {
      out.stats[s] = y;
    } else if (y.count != 0) {
      RunningStats m;
      m.count = x.count + y.count;
      const double na = static_cast<double>(x.count);
      const double nb = static_cast<double>(y.count);
      const double delta = y.mean - x.mean;
      m.mean = x.mean + delta * nb / (na + nb);
      m.m2 = x.m2 + y.m2 + delta * delta * na * nb / (na + nb);
      out.stats[s] = m;
    }
  }
  for (size_t s = 0; s < out.sensor_records.size(); ++s) {
    out.sensor_records[s] += b.sensor_records[s];
  }

  // Last-slice state is keyed by (sensor, rank) — disjoint under a rank
  // partition. If both sides carry a key anyway, the newer slice wins.
  for (const auto& [key, slice] : b.last) {
    auto [it, inserted] = out.last.try_emplace(key, slice);
    if (!inserted && slice.t_end > it->second.t_end) it->second = slice;
  }

  out.stale.insert(b.stale.begin(), b.stale.end());
  out.observed += b.observed;
  out.stale_records += b.stale_records;
  out.degenerate_records += b.degenerate_records;
  out.intra_flags += b.intra_flags;
  out.inter_flags += b.inter_flags;
  return out;
}

AnalysisResult StreamingDetector::finalize() const {
  VS_OBS_SCOPED_STAGE(obs::Stage::DetectStreaming);
  VS_OBS_ONLY(obs::ScopedSpan vs_obs_span("finalize", "detect");
              if (obs::enabled()) {
                vs_obs_span.set_virtual(0.0, run_time_);
              })
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
  // by the group's final standard yields exactly the batch Detector's
  // sum(normalized * count) for those records. Cells are visited in
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
