#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/binio.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {

constexpr const char* kHeader = "vsensor-checkpoint 3\n";
constexpr std::string_view kMagic = "vsensor-checkpoint ";

// Fixed bytes of one slot, row and cell entry (the layout in
// checkpoint.hpp); the reader checks every declared count against them.
constexpr size_t kSlotBytes = 4 + 4 + 8 + 8;
constexpr size_t kRowBytes = 4 + 8 + 4;
constexpr size_t kCellBytes = 4 + 8 + 8;

#if VSENSOR_OBS
struct CheckpointInstruments {
  obs::Counter& saves;
  obs::Counter& bytes;

  static CheckpointInstruments& get() {
    auto& reg = obs::MetricsRegistry::global();
    static CheckpointInstruments inst{reg.counter("checkpoint.saves"),
                                      reg.counter("checkpoint.bytes_written")};
    return inst;
  }
};
#endif

template <typename T>
void put(std::string& out, T v) {
  put_raw(out, v);
}

// Containers serialize as u64 count + entries; every map key/value is a
// fixed-width primitive, so sizes are exact and the reader can validate
// counts against the remaining byte budget before allocating.

void put_counters(std::string& out, const Collector::Counters& c) {
  put(out, c.ingested);
  put(out, c.dropped);
  put(out, c.taken);
  put(out, c.bytes);
  put(out, c.batches);
}

bool read_counters(ByteReader& in, Collector::Counters* c) {
  return in.read(&c->ingested) && in.read(&c->dropped) && in.read(&c->taken) &&
         in.read(&c->bytes) && in.read(&c->batches);
}

/// Leading payload section: shape, collector counters, watermarks.
void put_server_state(std::string& out, uint32_t sensor_count, int32_t ranks,
                      double run_time, uint32_t buckets,
                      const Collector::Counters& counters,
                      const std::vector<SeqTracker>& watermarks) {
  put(out, sensor_count);
  put(out, ranks);
  put(out, run_time);
  put(out, buckets);
  put_counters(out, counters);
  put(out, static_cast<uint64_t>(watermarks.size()));
  for (const auto& wm : watermarks) {
    put(out, wm.contiguous);
    put(out, static_cast<uint64_t>(wm.ahead.size()));
    for (uint64_t seq : wm.ahead) put(out, seq);
  }
}

/// Detector section from a Snapshot — the reference form of what
/// StreamingDetector::encode_checkpoint_state writes from live state. The
/// three maps share their key prefixes and order, so one pass walks them
/// together: a slot's rows are the run of rank standards under its key,
/// and a row's cells the run of cells under the row's key.
void put_snapshot(std::string& out, const StreamingDetector::Snapshot& d) {
  auto row = d.rank_standard.begin();
  auto cell = d.cells.begin();
  put(out, static_cast<uint64_t>(d.standard.size()));
  for (const auto& [slot, standard] : d.standard) {
    const auto rows_end =
        std::find_if(row, d.rank_standard.end(), [&](const auto& entry) {
          const auto& [s, g, r] = entry.first;
          return std::pair(s, g) != slot;
        });
    put(out, static_cast<int32_t>(slot.first));
    put(out, static_cast<int32_t>(slot.second));
    put(out, standard);
    put(out, static_cast<uint64_t>(std::distance(row, rows_end)));
    for (; row != rows_end; ++row) {
      const auto& [key, rank_standard] = *row;
      const auto cells_end =
          std::find_if(cell, d.cells.end(), [&](const auto& entry) {
            const auto& [s, g, r, b] = entry.first;
            return std::tuple(s, g, r) != key;
          });
      put(out, static_cast<int32_t>(std::get<2>(key)));
      put(out, rank_standard);
      put(out, static_cast<uint32_t>(std::distance(cell, cells_end)));
      for (; cell != cells_end; ++cell) {
        put(out, static_cast<uint32_t>(std::get<3>(cell->first)));
        put(out, cell->second.weight_over_avg);
        put(out, cell->second.weight);
      }
    }
  }
  put(out, static_cast<uint64_t>(d.stats.size()));
  for (const auto& st : d.stats) {
    put(out, st.count);
    put(out, st.mean);
    put(out, st.m2);
  }
  put(out, static_cast<uint64_t>(d.sensor_records.size()));
  for (uint64_t n : d.sensor_records) put(out, n);
  put(out, static_cast<uint64_t>(d.last.size()));
  for (const auto& [key, slice] : d.last) {
    put(out, static_cast<int32_t>(key.first));
    put(out, static_cast<int32_t>(key.second));
    put(out, slice.t_end);
    put(out, slice.avg_duration);
    put(out, slice.normalized);
  }
  put(out, static_cast<uint64_t>(d.stale.size()));
  for (int rank : d.stale) put(out, static_cast<int32_t>(rank));
  put(out, d.observed);
  put(out, d.stale_records);
  put(out, d.degenerate_records);
  put(out, d.intra_flags);
  put(out, d.inter_flags);
}

/// Append all of `bytes` to `out`, then flush: the first failure, if any.
io::IoResult append_all(io::File& out, std::string_view bytes) {
  const auto w = out.append(bytes.data(), bytes.size());
  return w.ok ? out.flush() : w;
}

/// Count one checkpoint frame written, of `bytes`.
void count_saved([[maybe_unused]] size_t bytes) {
  VS_OBS_ONLY(if (obs::enabled()) {
    auto& inst = CheckpointInstruments::get();
    inst.saves.add();
    inst.bytes.add(bytes);
  })
}

/// Frame the payload `body` appends to `out`: the file header for a base,
/// then length and CRC placeholders that are patched in place once the
/// payload is complete, so the payload is never copied. `out` is
/// overwritten but keeps its capacity.
template <typename Body>
void frame_checkpoint(std::string& out, CheckpointFrame frame, Body&& body) {
  out.assign(frame == CheckpointFrame::Base ? kHeader : "");
  const size_t len_at = out.size();
  put(out, uint64_t{0});
  put(out, uint32_t{0});
  const size_t payload_at = out.size();
  body();
  const uint64_t len = out.size() - payload_at;
  const uint32_t crc = crc32(out.data() + payload_at, len);
  std::memcpy(out.data() + len_at, &len, sizeof len);
  std::memcpy(out.data() + len_at + sizeof len, &crc, sizeof crc);
}

/// Validate a declared container count against the bytes actually left,
/// so a corrupt count can never drive a huge allocation.
bool plausible(const ByteReader& in, uint64_t count, size_t entry_bytes) {
  return count <= (in.len - in.pos) / entry_bytes;
}

/// Insert `key` into the ordered container `into` and report whether it
/// sorted strictly after every key already there. Encoders write keys
/// ascending, so anything else (a repeat, a step back) is corruption.
template <typename Ordered, typename Key, typename... Value>
bool append_ascending(Ordered& into, const Key& key, Value&&... value) {
  const size_t before = into.size();
  const auto at =
      into.emplace_hint(into.end(), key, std::forward<Value>(value)...);
  return into.size() > before && std::next(at) == into.end();
}

bool parse_payload(const char* data, size_t len, ServerCheckpoint* ckpt) {
  ByteReader in{data, len};
  if (!in.read(&ckpt->sensor_count) || !in.read(&ckpt->ranks) ||
      !in.read(&ckpt->run_time) || !in.read(&ckpt->buckets) ||
      ckpt->buckets == 0 || !read_counters(in, &ckpt->collector)) {
    return false;
  }

  uint64_t n = 0;
  if (!in.read(&n) || !plausible(in, n, 16)) return false;
  ckpt->watermarks.resize(n);
  for (auto& wm : ckpt->watermarks) {
    uint64_t ahead = 0;
    if (!in.read(&wm.contiguous) || !in.read(&ahead) ||
        !plausible(in, ahead, 8)) {
      return false;
    }
    for (uint64_t i = 0; i < ahead; ++i) {
      uint64_t seq = 0;
      if (!in.read(&seq)) return false;
      wm.ahead.insert(seq);
    }
  }

  auto& d = ckpt->detector;
  if (!in.read(&n) || !plausible(in, n, kSlotBytes)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    int32_t sensor = 0, group = 0;
    double standard = 0.0;
    uint64_t rows = 0;
    if (!in.read(&sensor) || !in.read(&group) || !in.read(&standard) ||
        !in.read(&rows) || !plausible(in, rows, kRowBytes) ||
        !append_ascending(d.standard, std::pair(sensor, group), standard)) {
      return false;
    }
    for (uint64_t j = 0; j < rows; ++j) {
      int32_t rank = 0;
      double rank_standard = 0.0;
      uint32_t cells = 0;
      if (!in.read(&rank) || !in.read(&rank_standard) || !in.read(&cells) ||
          !plausible(in, cells, kCellBytes) ||
          !append_ascending(d.rank_standard, std::tuple(sensor, group, rank),
                            rank_standard)) {
        return false;
      }
      for (uint32_t k = 0; k < cells; ++k) {
        uint32_t bucket = 0;
        StreamingDetector::CellSums cell;
        if (!in.read(&bucket) || !in.read(&cell.weight_over_avg) ||
            !in.read(&cell.weight) || bucket >= ckpt->buckets ||
            !append_ascending(
                d.cells,
                StreamingDetector::CellKey{sensor, group, rank,
                                           static_cast<int>(bucket)},
                cell)) {
          return false;
        }
      }
    }
  }
  if (!in.read(&n) || !plausible(in, n, 24)) return false;
  d.stats.resize(n);
  for (auto& st : d.stats) {
    if (!in.read(&st.count) || !in.read(&st.mean) || !in.read(&st.m2)) {
      return false;
    }
  }
  if (!in.read(&n) || !plausible(in, n, 8)) return false;
  d.sensor_records.resize(n);
  for (auto& cnt : d.sensor_records) {
    if (!in.read(&cnt)) return false;
  }
  if (!in.read(&n) || !plausible(in, n, 32)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    int32_t sensor = 0, rank = 0;
    StreamingDetector::LastSlice slice;
    if (!in.read(&sensor) || !in.read(&rank) || !in.read(&slice.t_end) ||
        !in.read(&slice.avg_duration) || !in.read(&slice.normalized) ||
        !append_ascending(d.last, std::pair(sensor, rank), slice)) {
      return false;
    }
  }
  if (!in.read(&n) || !plausible(in, n, 4)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    int32_t rank = 0;
    if (!in.read(&rank) || !append_ascending(d.stale, rank)) return false;
  }
  if (!in.read(&d.observed) || !in.read(&d.stale_records) ||
      !in.read(&d.degenerate_records) || !in.read(&d.intra_flags) ||
      !in.read(&d.inter_flags)) {
    return false;
  }
  // Trailing bytes after a structurally complete payload are corruption.
  return in.done();
}

/// Read the frame at `in`'s position into `payload`. Returns why the frame
/// is unusable, or null when it is whole and its CRC matches; only then
/// does `in` move past it.
const char* read_frame(ByteReader& in, std::string_view* payload) {
  ByteReader at = in;
  uint64_t len = 0;
  uint32_t crc = 0;
  if (!at.read(&len) || !at.read(&crc)) return "torn frame header";
  if (!at.has(len)) return "torn frame payload";
  *payload = std::string_view(at.p + at.pos, len);
  if (crc32(payload->data(), len) != crc) return "CRC mismatch";
  at.pos += len;
  in = at;
  return nullptr;
}

/// Whether a delta fits the base it follows: same shape, and whole
/// sections of the same lengths.
bool same_shape(const ServerCheckpoint& a, const ServerCheckpoint& b) {
  return a.sensor_count == b.sensor_count && a.ranks == b.ranks &&
         a.run_time == b.run_time && a.buckets == b.buckets &&
         a.watermarks.size() == b.watermarks.size() &&
         a.detector.stats.size() == b.detector.stats.size() &&
         a.detector.sensor_records.size() ==
             b.detector.sensor_records.size();
}

/// Assign every entry of `from` over `into`. Both are in key order, so
/// each insert is hinted with the entry after the previous one: a run of
/// keys adjacent in `into` costs O(1) each, and only a jump searches.
template <typename Map>
void assign_over(Map& into, const Map& from) {
  auto hint = into.begin();
  for (const auto& [key, value] : from) {
    hint = std::next(into.insert_or_assign(hint, key, value));
  }
}

/// Apply a delta frame to the state so far. Its standards, rank
/// standards, cells and last slices are assigned over the state's; every
/// other section of a delta is whole and replaces the state's.
void apply_delta(ServerCheckpoint& into, ServerCheckpoint&& delta) {
  auto& to = into.detector;
  auto& from = delta.detector;
  assign_over(to.standard, from.standard);
  assign_over(to.rank_standard, from.rank_standard);
  assign_over(to.cells, from.cells);
  assign_over(to.last, from.last);
  from.standard = std::move(to.standard);
  from.rank_standard = std::move(to.rank_standard);
  from.cells = std::move(to.cells);
  from.last = std::move(to.last);
  into = std::move(delta);
}

}  // namespace

std::string encode_checkpoint(const ServerCheckpoint& ckpt) {
  std::string out;
  frame_checkpoint(out, CheckpointFrame::Base, [&] {
    put_server_state(out, ckpt.sensor_count, ckpt.ranks, ckpt.run_time,
                     ckpt.buckets, ckpt.collector, ckpt.watermarks);
    put_snapshot(out, ckpt.detector);
  });
  return out;
}

void encode_live_checkpoint(std::string& out, CheckpointFrame frame,
                            const Collector::Counters& collector,
                            const std::vector<SeqTracker>& watermarks,
                            StreamingDetector& detector) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  frame_checkpoint(out, frame, [&] {
    put_server_state(out, static_cast<uint32_t>(detector.sensor_count()),
                     detector.ranks(), detector.run_time(),
                     static_cast<uint32_t>(detector.buckets()), collector,
                     watermarks);
    detector.encode_checkpoint_state(out, frame);
  });
}

CheckpointSaveResult try_publish_checkpoint(const std::string& path,
                                            std::string_view bytes,
                                            io::Vfs* vfs) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  auto& fs = io::resolve(vfs);
  const std::string tmp = path + ".tmp";
  CheckpointSaveResult result;
  {
    std::string err;
    auto out = fs.open_truncate(tmp, &err);
    if (out == nullptr) {
      result.error = err.empty() ? "cannot open checkpoint for writing: " + tmp
                                 : err;
      return result;
    }
    const auto w = append_all(*out, bytes);
    if (!w.ok) {
      result.error = w.error;
      out.reset();
      // A half-written tmp is garbage; sweep it now so failure leaves no
      // residue. If even the sweep fails, tell the caller it is there.
      result.tmp_left = !fs.remove_file(tmp).ok;
      return result;
    }
  }
  // Atomic publish: the file at `path` is always absent or complete.
  const auto r = fs.rename_file(tmp, path);
  if (!r.ok) {
    // The complete tmp stays behind on purpose — this is the
    // crash-in-the-publish-window shape recovery must sweep.
    result.error = r.error.empty()
                       ? "cannot rename checkpoint into place: " + path
                       : r.error;
    result.tmp_left = true;
    return result;
  }
  count_saved(bytes.size());
  result.ok = true;
  return result;
}

CheckpointSaveResult try_append_checkpoint(const std::string& path,
                                           std::string_view frame,
                                           io::Vfs* vfs) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  CheckpointSaveResult result;
  std::string err;
  auto out = io::resolve(vfs).open_append(path, &err);
  if (out == nullptr) {
    result.error =
        err.empty() ? "cannot open checkpoint for appending: " + path : err;
    return result;
  }
  const auto w = append_all(*out, frame);
  if (!w.ok) {
    result.error = w.error;
    return result;
  }
  count_saved(frame.size());
  result.ok = true;
  return result;
}

void save_checkpoint(const std::string& path, const ServerCheckpoint& ckpt) {
  const auto r = try_publish_checkpoint(path, encode_checkpoint(ckpt));
  if (!r.ok) throw Error(r.error);
}

CheckpointLoad parse_checkpoint(const std::string& bytes) {
  CheckpointLoad load;
  load.total_bytes = bytes.size();
  const size_t header_len = std::strlen(kHeader);
  if (bytes.compare(0, header_len, kHeader) != 0) {
    // Another version of the format names itself on its first line.
    const auto head = std::string_view(bytes).substr(0, kMagic.size() + 8);
    const size_t eol = head.find('\n');
    load.warning =
        head.starts_with(kMagic) && eol != std::string_view::npos
            ? "checkpoint version " +
                  std::string(head.substr(kMagic.size(), eol - kMagic.size())) +
                  " is not readable (this build reads version 3)"
            : "checkpoint header invalid";
    return load;
  }
  ByteReader in{bytes.data() + header_len, bytes.size() - header_len};
  std::string_view payload;
  const char* why = read_frame(in, &payload);
  if (why == nullptr &&
      !parse_payload(payload.data(), payload.size(), &load.ckpt)) {
    why = "payload malformed";
  }
  if (why != nullptr) {
    load.ckpt = ServerCheckpoint{};
    load.warning = std::string("checkpoint base: ") + why;
    return load;
  }
  load.ok = true;

  // The delta chain: the first frame that does not apply ends it, and the
  // bytes from there on are a torn tail.
  while (!in.done()) {
    const size_t at = header_len + in.pos;
    ServerCheckpoint delta;
    why = read_frame(in, &payload);
    if (why == nullptr &&
        !parse_payload(payload.data(), payload.size(), &delta)) {
      why = "payload malformed";
    }
    if (why == nullptr && !same_shape(delta, load.ckpt)) {
      why = "shape differs from the base";
    }
    if (why == nullptr) {
      apply_delta(load.ckpt, std::move(delta));
      ++load.deltas;
      continue;
    }
    load.torn_bytes = bytes.size() - at;
    load.warning = "checkpoint delta at byte " + std::to_string(at) + ": " +
                   why + "; " + std::to_string(load.torn_bytes) +
                   " tail bytes dropped after " + std::to_string(load.deltas) +
                   " deltas";
    break;
  }
  return load;
}

CheckpointLoad load_checkpoint(const std::string& path) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  std::string bytes;
  if (!io::read_file(path, &bytes)) {
    CheckpointLoad load;
    load.warning = "checkpoint missing or unreadable: " + path;
    return load;
  }
  return parse_checkpoint(bytes);
}

}  // namespace vsensor::rt
