#include "runtime/checkpoint.hpp"

#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/journal.hpp"
#include "support/binio.hpp"

namespace vsensor::rt {

namespace {

constexpr std::string_view kHeader = "vsensor-checkpoint 4\n";
constexpr std::string_view kMagic = "vsensor-checkpoint ";

/// Leading payload section: shape, collector counters, watermarks.
void put_server_state(std::string& out, const StreamingDetector& detector,
                      const Collector::Counters& c,
                      const std::vector<SeqTracker>& watermarks) {
  put_raw(out, static_cast<uint32_t>(detector.sensor_count()));
  put_raw(out, static_cast<int32_t>(detector.ranks()));
  put_raw(out, detector.run_time());
  put_raw(out, static_cast<uint32_t>(detector.buckets()));
  put_raw(out, c.ingested);
  put_raw(out, c.dropped);
  put_raw(out, c.taken);
  put_raw(out, c.bytes);
  put_raw(out, c.batches);
  put_raw(out, static_cast<uint64_t>(watermarks.size()));
  for (const auto& wm : watermarks) {
    put_raw(out, wm.contiguous);
    put_raw(out, static_cast<uint64_t>(wm.ahead.size()));
    for (uint64_t seq : wm.ahead) put_raw(out, seq);
  }
}

/// Read the leading payload section into `head`; false when it is
/// malformed (buckets == 0 included).
bool read_server_state(ByteReader& in, ServerCheckpoint* head) {
  Collector::Counters& c = head->collector;
  uint64_t n = 0;
  if (!in.read(&head->sensor_count) || !in.read(&head->ranks) ||
      !in.read(&head->run_time) || !in.read(&head->buckets) ||
      head->buckets == 0 || !in.read(&c.ingested) || !in.read(&c.dropped) ||
      !in.read(&c.taken) || !in.read(&c.bytes) || !in.read(&c.batches) ||
      !in.read(&n) || !in.holds(n, 16)) {
    return false;
  }
  head->watermarks.resize(n);
  for (auto& wm : head->watermarks) {
    uint64_t ahead = 0;
    if (!in.read(&wm.contiguous) || !in.read(&ahead) ||
        !in.holds(ahead, 8)) {
      return false;
    }
    for (uint64_t i = 0; i < ahead; ++i) {
      uint64_t seq = 0;
      if (!in.read(&seq)) return false;
      wm.ahead.insert(seq);
    }
  }
  return true;
}

/// Whether a frame's leading fields have the shape `want`: the same sensor
/// count, ranks, run time and buckets, and one watermark per rank.
bool matches_shape(const ServerCheckpoint& head, const ServerCheckpoint& want) {
  return head.sensor_count == want.sensor_count && head.ranks == want.ranks &&
         head.run_time == want.run_time && head.buckets == want.buckets &&
         head.ranks >= 0 &&
         head.watermarks.size() == static_cast<size_t>(head.ranks);
}

/// Append all of `bytes` to `out`, then flush: the first failure, if any.
io::IoResult append_all(io::File& out, std::string_view bytes) {
  const auto w = out.append(bytes.data(), bytes.size());
  return w.ok ? out.flush() : w;
}

}  // namespace

void encode_live_checkpoint(std::string& out, CheckpointFrame frame,
                            const Collector::Counters& collector,
                            const std::vector<SeqTracker>& watermarks,
                            StreamingDetector& detector) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  out.assign(frame == CheckpointFrame::Base ? kHeader : std::string_view());
  const size_t at = open_frame(out);
  put_server_state(out, detector, collector, watermarks);
  detector.encode_checkpoint_state(out, frame);
  close_frame(out, at);
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
  result.ok = true;
  return result;
}

namespace {

/// The checkpoint loader over either form of the bytes.
CheckpointLoad read_checkpoint(io::ReadWindow& bytes, StreamingDetector* into) {
  CheckpointLoad load;
  load.total_bytes = bytes.size();
  // Another version of the format names itself on its first line.
  const std::string_view head = bytes.view(0, kMagic.size() + 8);
  if (!head.starts_with(kHeader)) {
    const size_t eol = head.find('\n');
    load.warning =
        head.starts_with(kMagic) && eol != std::string_view::npos
            ? "checkpoint version " +
                  std::string(head.substr(kMagic.size(), eol - kMagic.size())) +
                  " is not readable (this build reads version 4)"
            : "checkpoint header invalid";
    return load;
  }

  // Every frame must have the shape of the detector decoded into, or,
  // when only checking, the shape its base declares.
  ServerCheckpoint want;
  if (into != nullptr) {
    want.sensor_count = static_cast<uint32_t>(into->sensor_count());
    want.ranks = into->ranks();
    want.run_time = into->run_time();
    want.buckets = static_cast<uint32_t>(into->buckets());
  }
  uint64_t frames = 0;
  std::string why;
  const uint64_t end = walk_frames(
      bytes, kHeader.size(),
      [&](std::string_view payload) -> const char* {
        ByteReader in{payload.data(), payload.size()};
        ServerCheckpoint head;
        if (!read_server_state(in, &head)) return "payload malformed";
        if (frames == 0 && into == nullptr) want = head;
        if (!matches_shape(head, want)) return "shape mismatch";
        const auto section = payload.substr(in.pos);
        const bool decoded =
            into != nullptr
                ? into->decode_checkpoint_state(
                      section,
                      frames == 0 ? CheckpointFrame::Base
                                  : CheckpointFrame::Delta,
                      &load.detector)
                : StreamingDetector::check_checkpoint_state(
                      section,
                      {head.sensor_count, head.ranks, head.buckets},
                      &load.detector);
        if (!decoded) return "payload malformed";
        load.ckpt = std::move(head);
        ++frames;
        return nullptr;
      },
      &why);

  if (frames == 0) {
    load.warning = "checkpoint base: " + (why.empty() ? "no frame" : why);
    return load;
  }
  load.ok = true;
  load.deltas = frames - 1;
  load.torn_bytes = bytes.size() - end;
  if (!why.empty()) {
    // The delta chain ends at the first frame that does not apply.
    load.warning = "checkpoint delta: " + why + "; " +
                   std::to_string(load.torn_bytes) +
                   " tail bytes dropped after " + std::to_string(load.deltas) +
                   " deltas";
  }
  return load;
}

}  // namespace

CheckpointLoad parse_checkpoint(std::string_view bytes,
                                StreamingDetector* into) {
  io::ReadWindow window(bytes);
  return read_checkpoint(window, into);
}

CheckpointLoad load_checkpoint(const std::string& path,
                               StreamingDetector* into) {
  VS_OBS_SCOPED_STAGE(obs::Stage::Durability);
  io::ReadWindow bytes;
  if (!bytes.open_file(path)) {
    CheckpointLoad load;
    load.warning = "checkpoint missing or unreadable: " + path;
    return load;
  }
  return read_checkpoint(bytes, into);
}

}  // namespace vsensor::rt
