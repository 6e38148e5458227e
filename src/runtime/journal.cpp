#include "runtime/journal.hpp"

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "support/binio.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace vsensor::rt {

namespace {

constexpr std::string_view kHeader = "vsensor-journal 1\n";
constexpr size_t kPayloadHeaderBytes = 1 + 4 + 8 + 4;  // kind, rank, seq, count

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
  const size_t want = kPayloadHeaderBytes + size_t{count} * kRecordWireBytes;
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

JournalWalk walk_journal(io::ReadWindow& bytes,
                         const std::function<void(const JournalFrame&)>& apply) {
  JournalWalk walk;
  walk.total_bytes = bytes.size();
  if (bytes.view(0, kHeader.size()) != kHeader) {
    walk.torn_bytes = walk.total_bytes;
    walk.warning = "journal header invalid; no frames salvaged";
    return walk;
  }
  walk.header_valid = true;
  JournalFrame frame;
  walk.valid_bytes = walk_frames(
      bytes, kHeader.size(),
      [&](std::string_view payload) -> const char* {
        if (!parse_payload(payload.data(), payload.size(), &frame)) {
          return "malformed frame payload";
        }
        apply(frame);
        return nullptr;
      },
      &walk.warning);
  walk.torn_bytes = walk.total_bytes - walk.valid_bytes;
  return walk;
}

}  // namespace

size_t open_frame(std::string& out) {
  const size_t at = out.size();
  out.append(kFrameHeaderBytes, '\0');
  return at;
}

void close_frame(std::string& out, size_t at) {
  const auto payload = std::string_view(out).substr(at + kFrameHeaderBytes);
  VS_CHECK_MSG(payload.size() <= UINT32_MAX,
               "frame payload does not fit its u32 length");
  const auto len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = crc32(payload);
  std::memcpy(out.data() + at, &len, sizeof len);
  std::memcpy(out.data() + at + sizeof len, &crc, sizeof crc);
}

void append_journal_frame(std::string& out, JournalFrameKind kind,
                          int32_t rank, uint64_t seq,
                          std::span<const SliceRecord> records) {
  const size_t at = open_frame(out);
  put_raw(out, static_cast<uint8_t>(kind));
  put_raw(out, rank);
  put_raw(out, seq);
  put_raw(out, static_cast<uint32_t>(records.size()));
  // Bulk append: memory layout == wire layout (see parse_payload).
  if (!records.empty()) {
    out.append(reinterpret_cast<const char*>(records.data()),
               records.size_bytes());
  }
  close_frame(out, at);
}

size_t journal_frame_bytes(size_t records) {
  return kFrameHeaderBytes + kPayloadHeaderBytes + records * kRecordWireBytes;
}

std::string encode_journal_frame(const JournalFrame& frame) {
  std::string out;
  out.reserve(journal_frame_bytes(frame.records.size()));
  append_journal_frame(out, frame.kind, frame.rank, frame.seq, frame.records);
  return out;
}

uint64_t walk_frames(
    io::ReadWindow& bytes, uint64_t pos,
    const std::function<const char*(std::string_view payload)>& accept,
    std::string* warning) {
  while (pos < bytes.size()) {
    const uint64_t left = bytes.size() - pos;
    const std::string_view head = bytes.view(pos, kFrameHeaderBytes);
    uint32_t len = 0;
    uint32_t crc = 0;
    if (head.size() == kFrameHeaderBytes) {
      std::memcpy(&len, head.data(), 4);
      std::memcpy(&crc, head.data() + 4, 4);
    }
    // A length past the end is torn before any of it is read, so a crafted
    // length costs no allocation.
    const std::string_view payload =
        head.size() < kFrameHeaderBytes || len > left - kFrameHeaderBytes
            ? std::string_view()
            : bytes.view(pos + kFrameHeaderBytes, len);
    const char* why = head.size() < kFrameHeaderBytes ? "torn frame header"
                      : payload.size() < len          ? "torn frame payload"
                      : crc32(payload) != crc         ? "frame CRC mismatch"
                                                      : accept(payload);
    if (why != nullptr) {
      *warning = std::string(why) + " at byte " + std::to_string(pos);
      break;
    }
    pos += kFrameHeaderBytes + len;
  }
  return pos;
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

void JournalCounters::add(const JournalCounters& c) {
  appended_frames += c.appended_frames;
  appended_bytes += c.appended_bytes;
  commits += c.commits;
  committed_bytes += c.committed_bytes;
  io_errors += c.io_errors;
  lost_bytes += c.lost_bytes;
}

JournalWriter::JournalWriter(std::string path, JournalWriterConfig cfg,
                             io::Vfs* vfs)
    : path_(std::move(path)), cfg_(cfg), vfs_(vfs) {
  VS_CHECK_MSG(cfg_.commit_every_frames > 0, "commit interval must be positive");
  open_truncated();
}

JournalWriter::~JournalWriter() { close(); }

uint64_t JournalWriter::close() {
  // A simulated crash calls discard_buffer() first, so this drains
  // nothing. Anything the final drain cannot land was acknowledged to a
  // caller and is gone.
  const uint64_t lost = commit() ? 0 : drop_buffer_as_lost();
  file_.reset();
  return lost;
}

bool JournalWriter::open_truncated() {
  std::string err;
  file_ = io::resolve(vfs_).open_truncate(path_, &err);
  if (file_ == nullptr) {
    record_error(err.empty() ? "cannot open journal for writing: " + path_
                             : err);
    return false;
  }
  const auto r = file_->append(kHeader.data(), kHeader.size());
  if (!r.ok) {
    record_error(r.error);
    file_.reset();
    return false;
  }
  n_.committed_bytes += kHeader.size();
  return true;
}

bool JournalWriter::append(JournalFrameKind kind, int32_t rank, uint64_t seq,
                           std::span<const SliceRecord> records) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  const size_t before = buf_.size();
  append_journal_frame(buf_, kind, rank, seq, records);
  const size_t encoded = buf_.size() - before;
  ++n_.appended_frames;
  ++frames_since_commit_;
  n_.appended_bytes += encoded;
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
    n_.committed_bytes += r.written;
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
  ++n_.commits;
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
  n_.lost_bytes += dropped;
  buf_.clear();
  frames_since_commit_ = 0;
  return dropped;
}

void JournalWriter::record_error(std::string what) {
  ++n_.io_errors;
  last_error_ = std::move(what);
}

JournalWalk load_journal(const std::string& path,
                         const std::function<void(const JournalFrame&)>& apply) {
  io::ReadWindow bytes;
  if (!bytes.open_file(path)) {
    JournalWalk walk;
    walk.warning = "journal missing or unreadable: " + path;
    return walk;
  }
  return walk_journal(bytes, apply);
}

JournalWalk parse_journal(std::string_view bytes,
                          const std::function<void(const JournalFrame&)>& apply) {
  io::ReadWindow window(bytes);
  return walk_journal(window, apply);
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad load;
  static_cast<JournalWalk&>(load) = load_journal(
      path, [&](const JournalFrame& frame) { load.frames.push_back(frame); });
  return load;
}

}  // namespace vsensor::rt
