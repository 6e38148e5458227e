#include "runtime/session_io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <type_traits>

#include "obs/obs.hpp"
#include "runtime/journal.hpp"
#include "support/binio.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {
constexpr std::string_view kMagic = "vsensor-session ";
constexpr int kVersion = 4;
constexpr auto kBatchKind = static_cast<uint8_t>(JournalFrameKind::Batch);
constexpr uint8_t kMetaKind = 4;  // the journal never writes kinds 4 and 5
constexpr uint8_t kTrailerKind = 5;
constexpr size_t kFrameRecords = 4096;

// A field added to RankChannelStats changes the trailer: bump kVersion.
static_assert(std::is_trivially_copyable_v<RankChannelStats> &&
                  sizeof(RankChannelStats) == 96,
              "RankChannelStats is part of the session trailer layout");

/// `u32 n | n raw items`: strings, transport counters and stale ranks.
template <typename T>
void put_array(std::string& out, std::span<const T> items) {
  put_raw(out, static_cast<uint32_t>(items.size()));
  out.append(reinterpret_cast<const char*>(items.data()), items.size_bytes());
}

/// Append what put_array wrote to a std::string or std::vector.
template <typename Array>
bool read_array(ByteReader& in, Array* out) {
  const size_t item = sizeof(typename Array::value_type);
  const size_t at = out->size();
  uint32_t n = 0;
  if (!in.read(&n) || !in.has(n * item)) return false;
  out->resize(at + n);
  if (n > 0) std::memcpy(out->data() + at, in.p + in.pos, n * item);
  in.pos += n * item;
  return true;
}

/// The one session encoder: header line and meta frame, batch frames of
/// kFrameRecords filled across the spans `visit` hands over (so the bytes
/// depend only on the records and their order), then the trailer frame.
/// `drain` runs after each frame and may move `out`'s bytes elsewhere.
template <typename Visit, typename Drain>
void write_session(std::string& out, int ranks, double run_time,
                   uint64_t records, const std::vector<SensorInfo>& sensors,
                   Visit&& visit, std::span<const RankChannelStats> transport,
                   std::span<const int> stale_ranks, Drain&& drain) {
  out += std::string(kMagic) + std::to_string(kVersion) + '\n';
  size_t at = open_frame(out);
  put_raw(out, kMetaKind);
  put_raw(out, int32_t{ranks});
  put_raw(out, run_time);
  put_raw(out, records);
  put_raw(out, static_cast<uint32_t>(sensors.size()));
  for (const auto& s : sensors) {
    put_raw(out, static_cast<uint8_t>(s.type));
    put_raw(out, int32_t{s.line});
    put_array<char>(out, s.file);
    put_array<char>(out, s.name);
  }
  close_frame(out, at);
  drain();

  uint64_t seq = 0;
  std::vector<SliceRecord> frame;  // filled across span boundaries
  const auto emit = [&] {
    append_journal_frame(out, JournalFrameKind::Batch, -1, seq++, frame);
    frame.clear();
    drain();
  };
  visit([&](std::span<const SliceRecord> span) {
    while (!span.empty()) {
      const size_t take = std::min(span.size(), kFrameRecords - frame.size());
      frame.insert(frame.end(), span.begin(), span.begin() + take);
      span = span.subspan(take);
      if (frame.size() == kFrameRecords) emit();
    }
  });
  if (!frame.empty()) emit();

  at = open_frame(out);
  put_raw(out, kTrailerKind);
  put_array(out, transport);
  put_array(out, stale_ranks);
  close_frame(out, at);
  drain();
}

/// Parse the meta frame into `out`, or leave `out` untouched and say why
/// not. `left` is the byte count after the frame.
const char* read_meta(std::string_view payload, uint64_t left, Session* out,
                      uint64_t* records) {
  ByteReader in{payload.data(), payload.size(), 1};  // past the kind byte
  Session s;
  uint32_t sensors = 0;
  if (!in.read(&s.ranks) || !in.read(&s.run_time) ||
      !in.read(records) || !in.read(&sensors)) {
    return "meta frame too short";
  }
  if (s.ranks <= 0) return "meta frame declares no ranks";
  for (uint32_t i = 0; i < sensors; ++i) {
    SensorInfo info;
    uint8_t type = 0;
    if (!in.read(&type) || !in.read(&info.line) || !read_array(in, &info.file) ||
        !read_array(in, &info.name)) {
      return "sensor entry overruns the meta frame";
    }
    if (type >= kSensorTypeCount) return "sensor type out of range";
    info.type = static_cast<SensorType>(type);
    s.sensors.push_back(std::move(info));
  }
  if (!in.done()) return "trailing bytes in the meta frame";
  // Reserve once, capped by the bytes left, so a crafted count cannot
  // drive a huge allocation.
  s.records.reserve(std::min<uint64_t>(*records, left / kRecordWireBytes));
  *out = std::move(s);
  return nullptr;
}

/// Append one batch frame's records to `s`, whole or not at all. The
/// payload is the journal's Batch payload: a header, then the records as
/// put_array writes them.
const char* read_batch(std::string_view payload, uint64_t index, Session* s) {
  ByteReader in{payload.data(), payload.size(), 1};
  int32_t rank = 0;
  uint64_t seq = 0;
  if (!in.read(&rank) || !in.read(&seq) || rank != -1) {
    return "malformed batch frame";
  }
  if (seq != index) return "batch frame out of sequence";
  const size_t at = s->records.size();
  const char* why =
      !read_array(in, &s->records) || !in.done() ? "malformed batch frame"
      : !records_fit(std::span(s->records).subspan(at), s->sensors.size(),
                     s->ranks)
          ? "record names an unknown sensor or rank"
          : nullptr;
  if (why != nullptr) s->records.resize(at);
  return why;
}

/// Parse the trailer frame into `s`, whole or not at all.
const char* read_trailer(std::string_view payload, Session* s) {
  ByteReader in{payload.data(), payload.size(), 1};
  std::vector<RankChannelStats> transport;
  std::vector<int> stale;
  if (!read_array(in, &transport) || !read_array(in, &stale) || !in.done()) {
    return "malformed trailer frame";
  }
  if (transport.size() > static_cast<size_t>(s->ranks)) {
    return "more transport entries than ranks";
  }
  for (int r : stale) {
    if (r < 0 || r >= s->ranks) return "stale rank outside [0, ranks)";
  }
  s->transport = std::move(transport);
  s->stale_ranks = std::move(stale);
  return nullptr;
}
}  // namespace

void save_session_file(const std::string& path, const Collector& collector,
                       int ranks, double run_time,
                       std::span<const RankChannelStats> transport,
                       std::span<const int> stale_ranks, io::Vfs* vfs) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Export);
  std::string err;
  auto file = io::resolve(vfs).open_truncate(path, &err);
  if (file == nullptr) {
    throw Error(err.empty() ? "cannot open session file for writing: " + path
                            : err);
  }
  const auto check = [&path](const io::IoResult& r) {
    if (!r.ok) throw Error("cannot write session file " + path + ": " + r.error);
  };
  // Stream the records straight out of the collector's lanes (locked
  // view), one frame at a time, instead of copying the history first.
  std::string out;
  write_session(
      out, ranks, run_time, collector.record_count(), collector.sensors(),
      [&](const auto& fn) { collector.visit_records(fn); }, transport,
      stale_ranks, [&] {
        check(file->append(out));
        out.clear();
      });
  check(file->flush());
}

std::string encode_session(const Session& session) {
  std::string out;
  write_session(
      out, session.ranks, session.run_time, session.records.size(),
      session.sensors,
      [&](const auto& fn) { fn(std::span<const SliceRecord>(session.records)); },
      session.transport, session.stale_ranks, [] {});
  return out;
}

namespace {

/// The session loader over either form of the bytes.
Session read_session(io::ReadWindow& bytes) {
  // The header line, from at most the file's first 64 bytes.
  const std::string_view head = bytes.view(0, 64);
  const size_t eol = head.find('\n');
  int version = 0;
  if (eol == std::string_view::npos || !head.starts_with(kMagic) ||
      std::from_chars(head.data() + kMagic.size(), head.data() + eol,
                      version) !=
          std::from_chars_result{head.data() + eol, std::errc()}) {
    throw Error("not a vsensor session file");
  }
  if (version != kVersion) {
    throw Error("session version " + std::to_string(version) +
                " is not readable (this build reads version " +
                std::to_string(kVersion) + ")");
  }

  Session session;
  uint64_t declared = 0;  // records, per the meta frame
  uint64_t batches = 0;
  enum class Part { Meta, Body, Done } part = Part::Meta;
  std::string warning;
  const uint64_t valid = walk_frames(
      bytes, eol + 1,
      [&](std::string_view payload) -> const char* {
        const auto kind =
            static_cast<uint8_t>(payload.empty() ? 0xFF : payload[0]);
        if (part == Part::Meta) {
          part = Part::Body;
          // The meta frame is the first; the bytes after it bound the
          // records.
          const uint64_t left =
              bytes.size() - (eol + 1 + kFrameHeaderBytes + payload.size());
          return kind == kMetaKind
                     ? read_meta(payload, left, &session, &declared)
                     : "first frame is not the meta frame";
        }
        if (part == Part::Done) return "frame after the trailer";
        if (kind == kTrailerKind) part = Part::Done;
        return kind == kTrailerKind ? read_trailer(payload, &session)
               : kind == kBatchKind ? read_batch(payload, batches++, &session)
               : kind == kMetaKind  ? "second meta frame"
                                    : "unknown frame kind";
      },
      &warning);

  session.torn_bytes = bytes.size() - valid;
  if (warning.empty() && part != Part::Done) {
    warning = "session ends at byte " + std::to_string(valid) +
              " without its trailer frame";
  } else if (warning.empty() && session.records.size() != declared) {
    warning = "session holds " + std::to_string(session.records.size()) +
              " records but its meta frame declares " + std::to_string(declared);
  }
  if (!warning.empty()) session.warnings.push_back(warning);
  // Totals are derived, never stored: recompute so they can't drift from
  // the per-rank entries.
  for (const auto& s : session.transport) session.transport_totals.add(s);
  return session;
}

}  // namespace

Session parse_session(std::string_view bytes) {
  io::ReadWindow window(bytes);
  return read_session(window);
}

Session load_session_file(const std::string& path) {
  io::ReadWindow bytes;
  if (!bytes.open_file(path)) throw Error("cannot open session file: " + path);
  return read_session(bytes);
}

}  // namespace vsensor::rt
