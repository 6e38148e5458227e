#include "runtime/journal.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/binio.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {

constexpr const char* kHeader = "vsensor-journal 1\n";
constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

#if VSENSOR_OBS
struct JournalInstruments {
  obs::Counter& frames;
  obs::Counter& bytes;
  obs::Counter& commits;
  obs::Counter& committed_bytes;
  obs::Counter& io_errors;
  obs::Counter& lost_bytes;

  static JournalInstruments& get() {
    auto& reg = obs::MetricsRegistry::global();
    static JournalInstruments inst{reg.counter("journal.frames_appended"),
                                   reg.counter("journal.bytes_appended"),
                                   reg.counter("journal.commits"),
                                   reg.counter("journal.bytes_committed"),
                                   reg.counter("journal.io_errors"),
                                   reg.counter("journal.lost_bytes")};
    return inst;
  }
};
#endif

using vsensor::put_raw;

template <typename T>
void put(std::string& out, T v) {
  put_raw(out, v);
}

/// Parse one frame payload. Returns false on any structural mismatch.
bool parse_payload(const char* data, size_t len, JournalFrame* frame) {
  ByteReader in{data, len};
  uint8_t kind = 0;
  uint32_t count = 0;
  if (!in.read(&kind) || !in.read(&frame->rank) || !in.read(&frame->seq) ||
      !in.read(&count)) {
    return false;
  }
  if (kind > static_cast<uint8_t>(JournalFrameKind::RankRejoin)) return false;
  frame->kind = static_cast<JournalFrameKind>(kind);
  // The payload length must match the declared record count exactly: a
  // frame with trailing or missing bytes is corrupt, not "close enough".
  const size_t want = 1 + 4 + 8 + 4 + size_t{count} * kRecordWireBytes;
  if (want != len) return false;
  // SliceRecord's in-memory layout IS the wire layout (static_asserts in
  // runtime/types.hpp pin size and trivial copyability), so the whole
  // record block decodes as one bulk copy instead of ten reads per record.
  frame->records.resize(count);
  if (count > 0) {
    std::memcpy(frame->records.data(), data + in.pos,
                size_t{count} * kRecordWireBytes);
  }
  return true;
}

}  // namespace

std::string encode_journal_frame(const JournalFrame& frame) {
  std::string payload;
  payload.reserve(17 + frame.records.size() * kRecordWireBytes);
  put(payload, static_cast<uint8_t>(frame.kind));
  put(payload, frame.rank);
  put(payload, frame.seq);
  put(payload, static_cast<uint32_t>(frame.records.size()));
  // Bulk append: memory layout == wire layout (see parse_payload).
  if (!frame.records.empty()) {
    payload.append(reinterpret_cast<const char*>(frame.records.data()),
                   frame.records.size() * kRecordWireBytes);
  }

  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put(out, static_cast<uint32_t>(payload.size()));
  put(out, crc32(payload));
  out += payload;
  return out;
}

JournalFrame make_standard_frame(int32_t sensor_id, int32_t group,
                                 double value) {
  JournalFrame frame;
  frame.kind = JournalFrameKind::Standard;
  frame.rank = sensor_id;
  frame.seq = static_cast<uint64_t>(static_cast<uint32_t>(group));
  SliceRecord carrier{};
  carrier.sensor_id = sensor_id;
  carrier.rank = group;
  carrier.avg_duration = value;
  carrier.min_duration = value;
  carrier.count = 1;
  frame.records.push_back(carrier);
  return frame;
}

std::optional<StandardFrameView> decode_standard_frame(
    const JournalFrame& frame) {
  if (frame.kind != JournalFrameKind::Standard) return std::nullopt;
  if (frame.records.size() != 1) return std::nullopt;
  StandardFrameView view;
  view.sensor_id = frame.rank;
  view.group = static_cast<int32_t>(static_cast<uint32_t>(frame.seq));
  view.value = frame.records.front().avg_duration;
  if (view.sensor_id < 0 || !(view.value > 0.0)) return std::nullopt;
  return view;
}

JournalWriter::JournalWriter(std::string path, JournalWriterConfig cfg,
                             io::Vfs* vfs)
    : path_(std::move(path)), cfg_(cfg), vfs_(vfs) {
  VS_CHECK_MSG(cfg_.commit_every_frames > 0, "commit interval must be positive");
  open_truncated();
}

JournalWriter::~JournalWriter() {
  // Best effort: a clean shutdown commits; a simulated crash calls
  // discard_buffer() first, so this flushes nothing. Anything the final
  // drain cannot land was acknowledged to a caller and is gone — count it.
  if (!commit()) add_lost(buf_.size());
}

bool JournalWriter::open_truncated() {
  std::string err;
  file_ = io::resolve(vfs_).open_truncate(path_, &err);
  if (file_ == nullptr) {
    record_error(err.empty() ? "cannot open journal for writing: " + path_
                             : err);
    return false;
  }
  const auto r = file_->append(kHeader, std::strlen(kHeader));
  if (!r.ok) {
    record_error(r.error);
    file_.reset();
    return false;
  }
  committed_bytes_ += std::strlen(kHeader);
  return true;
}

bool JournalWriter::append(const JournalFrame& frame) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  const std::string encoded = encode_journal_frame(frame);
  buf_ += encoded;
  ++appended_frames_;
  ++frames_since_commit_;
  appended_bytes_ += encoded.size();
  VS_OBS_ONLY(if (obs::enabled()) {
    auto& inst = JournalInstruments::get();
    inst.frames.add();
    inst.bytes.add(encoded.size());
  })
  if (buf_.size() >= cfg_.buffer_bytes ||
      frames_since_commit_ >= cfg_.commit_every_frames) {
    return commit();
  }
  return true;
}

bool JournalWriter::commit() {
  frames_since_commit_ = 0;
  if (buf_.empty()) return file_ != nullptr;
  if (file_ == nullptr) {
    record_error("journal stream not open: " + path_);
    return false;
  }
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  const auto r = file_->append(buf_.data(), buf_.size());
  if (r.written > 0) {
    // Partial progress is real progress: the landed prefix leaves the
    // buffer so a retry only re-drives what is still owed.
    committed_bytes_ += r.written;
    VS_OBS_ONLY(if (obs::enabled()) {
      JournalInstruments::get().committed_bytes.add(r.written);
    })
    buf_.erase(0, r.written);
  }
  if (!r.ok) {
    record_error(r.error);
    return false;
  }
  const auto f = file_->flush();  // to the OS page cache; never fsync
  if (!f.ok) {
    record_error(f.error);
    return false;
  }
  ++commits_;
  VS_OBS_ONLY(if (obs::enabled()) { JournalInstruments::get().commits.add(); })
  return true;
}

bool JournalWriter::reopen_truncated() {
  buf_.clear();
  frames_since_commit_ = 0;
  file_.reset();
  return open_truncated();
}

void JournalWriter::discard_buffer() {
  buf_.clear();
  frames_since_commit_ = 0;
}

size_t JournalWriter::drop_buffer_as_lost() {
  const size_t dropped = buf_.size();
  add_lost(dropped);
  buf_.clear();
  frames_since_commit_ = 0;
  return dropped;
}

void JournalWriter::record_error(std::string what) {
  ++io_errors_;
  last_error_ = std::move(what);
  VS_OBS_ONLY(if (obs::enabled()) { JournalInstruments::get().io_errors.add(); })
}

void JournalWriter::add_lost(size_t bytes) {
  if (bytes == 0) return;
  lost_bytes_ += bytes;
  VS_OBS_ONLY(
      if (obs::enabled()) { JournalInstruments::get().lost_bytes.add(bytes); })
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad load;
  std::string bytes;
  if (!io::read_file(path, &bytes)) {
    load.warning = "journal missing or unreadable: " + path;
    return load;
  }
  load.total_bytes = bytes.size();

  const size_t header_len = std::strlen(kHeader);
  if (bytes.size() < header_len ||
      bytes.compare(0, header_len, kHeader) != 0) {
    load.torn_bytes = bytes.size();
    load.warning = "journal header invalid; no frames salvaged";
    return load;
  }
  load.header_valid = true;
  load.valid_bytes = header_len;

  size_t pos = header_len;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderBytes) {
      load.warning = "torn frame header at byte " + std::to_string(pos);
      break;
    }
    uint32_t len = 0;
    uint32_t crc = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (bytes.size() - pos - kFrameHeaderBytes < len) {
      load.warning = "torn frame payload at byte " + std::to_string(pos);
      break;
    }
    const char* payload = bytes.data() + pos + kFrameHeaderBytes;
    if (crc32(payload, static_cast<size_t>(len)) != crc) {
      load.warning = "frame CRC mismatch at byte " + std::to_string(pos);
      break;
    }
    JournalFrame frame;
    if (!parse_payload(payload, len, &frame)) {
      load.warning = "malformed frame payload at byte " + std::to_string(pos);
      break;
    }
    load.frames.push_back(std::move(frame));
    pos += kFrameHeaderBytes + len;
    load.valid_bytes = pos;
  }
  load.torn_bytes = load.total_bytes - load.valid_bytes;
  return load;
}

}  // namespace vsensor::rt
