#include "runtime/session_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {
constexpr const char* kMagic = "vsensor-session";
constexpr int kVersion = 3;
// Version 1 lacked the transport/stale lines; version 2 lacked the
// per-line CRC suffix. Both still load (with strict error behavior —
// salvage needs the CRCs to tell damage from data).
constexpr int kOldestSupported = 1;

// ` #xxxxxxxx`: CRC32 of the line content, appended to every line after
// the magic line in v3 files.
constexpr size_t kCrcSuffixLen = 10;

/// Write one line with its integrity suffix.
void emit(std::ostream& out, const std::string& line) {
  char suffix[kCrcSuffixLen + 1];
  std::snprintf(suffix, sizeof(suffix), " #%08x", crc32(line));
  out << line << suffix << '\n';
}

/// Strip and verify the v3 integrity suffix in place. Returns false when
/// the suffix is missing, malformed, or the CRC does not match.
bool strip_crc(std::string& line) {
  if (line.size() < kCrcSuffixLen) return false;
  const size_t cut = line.size() - kCrcSuffixLen;
  if (line[cut] != ' ' || line[cut + 1] != '#') return false;
  uint32_t want = 0;
  for (size_t i = cut + 2; i < line.size(); ++i) {
    const char c = line[i];
    uint32_t digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint32_t>(c - 'a') + 10;
    else return false;
    want = (want << 4) | digit;
  }
  line.resize(cut);
  return crc32(line) == want;
}

template <typename Fn>
std::string render(Fn&& fn) {
  std::ostringstream ss;
  ss.precision(17);
  fn(ss);
  return ss.str();
}

void write_header(std::ostream& out, int ranks, double run_time,
                  const std::vector<SensorInfo>& sensors) {
  out << kMagic << ' ' << kVersion << '\n';
  emit(out, render([&](std::ostream& ss) {
         ss << "ranks " << ranks << " run_time " << run_time;
       }));
  for (size_t i = 0; i < sensors.size(); ++i) {
    const auto& s = sensors[i];
    emit(out, render([&](std::ostream& ss) {
           ss << "sensor " << i << ' ' << static_cast<int>(s.type) << ' '
              << s.line << ' ' << s.file << ' ' << s.name;
         }));
  }
}

void write_record(std::ostream& out, const SliceRecord& r) {
  emit(out, render([&](std::ostream& ss) {
         ss << "record " << r.sensor_id << ' ' << r.rank << ' ' << r.t_begin
            << ' ' << r.t_end << ' ' << r.avg_duration << ' '
            << r.min_duration << ' ' << r.count << ' ' << r.metric << ' '
            << r.flags;
       }));
}

void write_transport(std::ostream& out,
                     std::span<const RankChannelStats> transport,
                     std::span<const int> stale_ranks) {
  for (size_t r = 0; r < transport.size(); ++r) {
    const auto& s = transport[r];
    emit(out, render([&](std::ostream& ss) {
           ss << "transport " << r << ' ' << s.batches_sent << ' '
              << s.batches_delivered << ' ' << s.batches_lost << ' '
              << s.records_delivered << ' ' << s.records_lost << ' '
              << s.retries << ' ' << s.duplicates_suppressed << ' '
              << s.delayed_batches << ' ' << s.wire_bytes << ' '
              << s.backoff_seconds << ' ' << s.last_delivery_time << ' '
              << s.next_seq;
         }));
  }
  for (int r : stale_ranks) {
    emit(out, render([&](std::ostream& ss) { ss << "stale " << r; }));
  }
}

void accumulate_totals(RankChannelStats& sum, const RankChannelStats& s) {
  sum.batches_sent += s.batches_sent;
  sum.batches_delivered += s.batches_delivered;
  sum.batches_lost += s.batches_lost;
  sum.records_delivered += s.records_delivered;
  sum.records_lost += s.records_lost;
  sum.retries += s.retries;
  sum.duplicates_suppressed += s.duplicates_suppressed;
  sum.delayed_batches += s.delayed_batches;
  sum.wire_bytes += s.wire_bytes;
  sum.backoff_seconds += s.backoff_seconds;
  sum.last_delivery_time = std::max(sum.last_delivery_time, s.last_delivery_time);
  sum.next_seq += s.next_seq;
}

/// Parse the metadata line ("ranks <N> run_time <t>"). Returns false
/// (with *err set) instead of throwing, so the v3 path can salvage.
bool parse_meta(const std::string& line, Session* session, std::string* err) {
  std::istringstream meta(line);
  std::string k1;
  std::string k2;
  meta >> k1 >> session->ranks >> k2 >> session->run_time;
  if (k1 != "ranks" || k2 != "run_time" || session->ranks <= 0) {
    *err = "malformed session metadata line";
    return false;
  }
  return true;
}

/// Parse one body line into the session. Returns false with *err set on
/// any structural problem; never throws.
bool parse_line(const std::string& line, Session* session, std::string* err) {
  std::istringstream ls(line);
  std::string kind;
  ls >> kind;
  if (kind == "sensor") {
    size_t id = 0;
    int type = 0;
    SensorInfo info;
    ls >> id >> type >> info.line >> info.file;
    std::getline(ls, info.name);
    if (!info.name.empty() && info.name.front() == ' ') {
      info.name.erase(0, 1);
    }
    if (!ls || type < 0 || type >= kSensorTypeCount) {
      *err = "malformed sensor line: " + line;
      return false;
    }
    if (id != session->sensors.size()) {
      *err = "sensor ids must be dense and in order";
      return false;
    }
    info.type = static_cast<SensorType>(type);
    session->sensors.push_back(std::move(info));
  } else if (kind == "record") {
    SliceRecord r;
    ls >> r.sensor_id >> r.rank >> r.t_begin >> r.t_end >> r.avg_duration >>
        r.min_duration >> r.count >> r.metric >> r.flags;
    if (!ls) {
      *err = "malformed record line: " + line;
      return false;
    }
    if (r.sensor_id < 0 ||
        static_cast<size_t>(r.sensor_id) >= session->sensors.size()) {
      *err = "record references unknown sensor: " + line;
      return false;
    }
    if (r.rank < 0 || r.rank >= session->ranks) {
      *err = "record from unknown rank: " + line;
      return false;
    }
    session->records.push_back(r);
  } else if (kind == "transport") {
    size_t rank = 0;
    RankChannelStats s;
    ls >> rank >> s.batches_sent >> s.batches_delivered >> s.batches_lost >>
        s.records_delivered >> s.records_lost >> s.retries >>
        s.duplicates_suppressed >> s.delayed_batches >> s.wire_bytes >>
        s.backoff_seconds >> s.last_delivery_time >> s.next_seq;
    if (!ls || rank >= static_cast<size_t>(session->ranks)) {
      *err = "malformed transport line: " + line;
      return false;
    }
    if (rank != session->transport.size()) {
      *err = "transport ranks must be dense and in order";
      return false;
    }
    session->transport.push_back(s);
  } else if (kind == "stale") {
    int rank = -1;
    ls >> rank;
    if (!ls || rank < 0 || rank >= session->ranks) {
      *err = "malformed stale line: " + line;
      return false;
    }
    session->stale_ranks.push_back(rank);
  } else {
    *err = "unknown session line kind: " + kind;
    return false;
  }
  return true;
}
}  // namespace

void save_session(std::ostream& out, const Session& session) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Export);
  write_header(out, session.ranks, session.run_time, session.sensors);
  for (const auto& r : session.records) write_record(out, r);
  write_transport(out, session.transport, session.stale_ranks);
}

void save_session_file(const std::string& path, const Collector& collector,
                       int ranks, double run_time) {
  save_session_file(path, collector, ranks, run_time, {}, {});
}

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
  io::FileStreambuf buf(file.get());
  std::ostream out(&buf);
  // Stream the records straight out of the collector's shards (locked
  // view) instead of copying the full history into a Session first.
  write_header(out, ranks, run_time, collector.sensors());
  collector.visit_records([&out](std::span<const SliceRecord> seg) {
    for (const auto& r : seg) write_record(out, r);
  });
  write_transport(out, transport, stale_ranks);
  out.flush();
  if (buf.failed() || !out) {
    throw Error("failed while writing session file: " + path);
  }
}

Session load_session(std::istream& in) {
  Session session;
  std::string line;

  if (!std::getline(in, line)) throw Error("empty session file");
  int version = 0;
  {
    std::istringstream header(line);
    std::string magic;
    header >> magic >> version;
    if (magic != kMagic) throw Error("not a vsensor session file");
    if (version < kOldestSupported || version > kVersion) {
      throw Error("unsupported session version: " + std::to_string(version));
    }
  }
  const bool checked = version >= 3;

  // Salvage discipline (v3): the first damaged or malformed line ends the
  // load — everything before it is intact (CRC-verified), everything from
  // it on is dropped and counted, and the reason lands in warnings.
  // Legacy files (v1/v2) keep their original strict throw behavior.
  size_t line_no = 1;  // the magic line
  bool body_ok = true;
  auto fail = [&](std::istream& rest, const std::string& why) {
    session.warnings.push_back("line " + std::to_string(line_no) + ": " + why +
                               "; salvaged valid prefix");
    ++session.salvaged_lines;
    std::string dropped;
    while (std::getline(rest, dropped)) ++session.salvaged_lines;
    body_ok = false;
  };

  if (!std::getline(in, line)) {
    if (checked) {
      session.warnings.push_back("session file truncated before metadata");
      return session;
    }
    throw Error("session file truncated");
  }
  ++line_no;
  std::string err;
  if (checked && !strip_crc(line)) {
    fail(in, "metadata line torn or CRC mismatch");
  } else if (!parse_meta(line, &session, &err)) {
    if (!checked) throw Error(err);
    session.ranks = 0;  // drop the partial parse
    session.run_time = 0.0;
    fail(in, err);
  }

  while (body_ok && std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (checked && !strip_crc(line)) {
      fail(in, "line torn or CRC mismatch");
      break;
    }
    if (!parse_line(line, &session, &err)) {
      if (!checked) throw Error(err);
      fail(in, err);
      break;
    }
  }
  // Totals are derived, never stored: recompute so they can't drift from
  // the per-rank lines.
  session.transport_totals = RankChannelStats{};
  for (const auto& s : session.transport) {
    accumulate_totals(session.transport_totals, s);
  }
  return session;
}

Session load_session_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open session file: " + path);
  return load_session(in);
}

}  // namespace vsensor::rt
