// The frame walker where its read buffer ends. Journals, checkpoints and
// sessions are read through one io::ReadWindow whose buffer holds
// kReadBytes (or the largest frame), so a file several buffers long has
// frames that cross a read. Loading such a file must give exactly what the
// in-memory parse of the same bytes gives — frames or records, warning
// text, valid and torn bytes — under truncation and bit flips at every
// offset near a buffer boundary, for frames larger than the buffer, and
// for a header that declares a length no file holds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "io/vfs.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/journal.hpp"
#include "runtime/session_io.hpp"
#include "runtime/streaming_detector.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace vsensor::rt {
namespace {

constexpr uint64_t kRead = io::ReadWindow::kReadBytes;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_walk_" + name;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrite one byte of the file at `path` in place.
void patch_byte(const std::string& path, uint64_t at, char value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(at));
  f.put(value);
}

SliceRecord make_record(int sensor, int rank, double t, double avg) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = 1;
  return r;
}

bool same_records(std::span<const SliceRecord> a,
                  std::span<const SliceRecord> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Where ReadWindow's reads end while a loader walks the frames of `bytes`
/// from `pos`; the last is where the read in progress would end if the
/// file went on. This mirrors its refill rule: the first read takes
/// kReadBytes from offset 0 (the header line), and each later one starts at
/// the first frame header or payload the buffer does not hold whole and
/// takes the larger of kReadBytes and that view.
std::vector<uint64_t> read_ends(std::string_view bytes, uint64_t pos) {
  uint64_t end = kRead;
  std::vector<uint64_t> ends{end};
  const auto view = [&](uint64_t from, uint64_t n) {
    if (from + n <= end) return;
    end = from + std::max(n, kRead);
    ends.push_back(end);
  };
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    view(pos, kFrameHeaderBytes);
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);
    if (len > bytes.size() - pos - kFrameHeaderBytes) break;
    view(pos + kFrameHeaderBytes, len);
    pos += kFrameHeaderBytes + len;
  }
  return ends;
}

/// Small frames cover this many bytes either side of each read end.
constexpr uint64_t kMargin = 2048;

/// Grow the frames of `bytes` (walked from `header`) until `count` reads
/// end among small frames: `big(n)` appends one frame of close to, and at
/// most, `n` bytes, and `small()` one of a few hundred bytes at most. Big
/// frames fill each read to about kMargin short of its end, and small
/// frames cover kMargin either side of it, so a file several reads long
/// has few frames and every one of its read ends sits in small ones.
/// Returns those read ends.
std::vector<uint64_t> pad_reads(std::string& bytes, uint64_t header,
                                size_t count,
                                const std::function<void(uint64_t)>& big,
                                const std::function<void()>& small) {
  std::vector<uint64_t> covered;
  while (covered.size() < count) {
    const uint64_t end = read_ends(bytes, header).back();
    if (bytes.size() + 2 * kMargin < end) {
      big(end - kMargin - bytes.size());
      continue;
    }
    while (bytes.size() < end + kMargin) small();
    covered.push_back(end);
  }
  return covered;
}

/// The largest frame that starts within kMargin / 2 of `at`: "one frame"
/// around a read end that pad_reads put among small frames.
uint64_t frame_near(std::string_view bytes, uint64_t pos, uint64_t at) {
  uint64_t largest = 0;
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof len);
    if (pos + kMargin / 2 >= at && pos <= at + kMargin / 2) {
      largest = std::max<uint64_t>(largest, kFrameHeaderBytes + len);
    }
    pos += kFrameHeaderBytes + len;
  }
  return largest;
}

/// Damage `bytes` at every offset within one frame of each read end in
/// `ends`: once cut there, once with that byte flipped. `same` loads the
/// damaged file at `path` and parses the damaged bytes, and checks that the
/// two agree. The file is written once per read end and cut shorter step
/// by step, and each flip is patched in and out of place.
void sweep_read_ends(const std::string& path, std::string bytes,
                     uint64_t header, const std::vector<uint64_t>& ends,
                     const std::function<void(std::string_view,
                                              const std::string&)>& same) {
  // pad_reads's ends are where the finished file's reads end.
  const auto real = read_ends(bytes, header);
  for (const uint64_t end : ends) {
    ASSERT_NE(std::find(real.begin(), real.end(), end), real.end()) << end;
  }
  for (const uint64_t end : ends) {
    const uint64_t reach = frame_near(bytes, header, end);
    ASSERT_GT(reach, 0u);
    ASSERT_LT(reach, kMargin / 2);
    const uint64_t lo = end - reach;
    const uint64_t hi = end + reach;
    write_file(path, bytes);
    for (uint64_t cut = hi; cut >= lo; --cut) {
      std::filesystem::resize_file(path, cut);
      same(std::string_view(bytes).substr(0, cut),
           "cut at " + std::to_string(cut));
      if (::testing::Test::HasFatalFailure()) return;
    }
    write_file(path, bytes);
    for (uint64_t at = lo; at <= hi; ++at) {
      const char was = bytes[at];
      bytes[at] = static_cast<char>(was ^ 0x10);
      patch_byte(path, at, bytes[at]);
      same(bytes, "flip at " + std::to_string(at));
      bytes[at] = was;
      patch_byte(path, at, was);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// -------------------------------------------------------------- Journal

/// parse_journal collecting the frames, as load_journal(path) does.
JournalLoad parse_all(std::string_view bytes) {
  JournalLoad load;
  static_cast<JournalWalk&>(load) = parse_journal(
      bytes, [&](const JournalFrame& f) { load.frames.push_back(f); });
  return load;
}

void expect_same_journal(const JournalLoad& file, const JournalLoad& mem,
                         const std::string& what) {
  ASSERT_EQ(file.frames.size(), mem.frames.size()) << what;
  for (size_t i = 0; i < file.frames.size(); ++i) {
    const auto& a = file.frames[i];
    const auto& b = mem.frames[i];
    ASSERT_TRUE(a.kind == b.kind && a.rank == b.rank && a.seq == b.seq &&
                same_records(a.records, b.records))
        << what << ": frame " << i;
  }
  EXPECT_EQ(file.warning, mem.warning) << what;
  EXPECT_EQ(file.valid_bytes, mem.valid_bytes) << what;
  EXPECT_EQ(file.torn_bytes, mem.torn_bytes) << what;
  EXPECT_EQ(file.total_bytes, mem.total_bytes) << what;
  EXPECT_EQ(file.header_valid, mem.header_valid) << what;
}

constexpr std::string_view kJournalHeader = "vsensor-journal 1\n";

/// A journal `reads` reads long whose read ends sit among one-record
/// frames and stale marks (pad_reads), with those ends in `ends`.
std::string padded_journal(size_t reads, std::vector<uint64_t>* ends) {
  std::string bytes(kJournalHeader);
  Rng rng(17);
  uint64_t seq = 0;
  const auto batch = [&](size_t records) {
    const int rank = static_cast<int>(rng.next_below(8));
    std::vector<SliceRecord> out;
    for (size_t i = 0; i < records; ++i) {
      out.push_back(make_record(static_cast<int>(i % 2), rank,
                                1e-4 * static_cast<double>(seq),
                                1e-4 * (1.0 + rng.uniform(0.0, 1.0))));
    }
    append_journal_frame(bytes, JournalFrameKind::Batch, rank, seq++, out);
  };
  *ends = pad_reads(
      bytes, kJournalHeader.size(), reads - 1,
      [&](uint64_t n) {
        batch((n - journal_frame_bytes(0)) / kRecordWireBytes);
      },
      [&] {
        if (rng.next_below(6) == 0) {
          append_journal_frame(bytes, JournalFrameKind::StaleRank,
                               static_cast<int>(rng.next_below(8)), 0, {});
        } else {
          batch(1);
        }
      });
  return bytes;
}

TEST(FrameWalk, JournalLoadEqualsParseAtEveryReadEnd) {
  std::vector<uint64_t> ends;
  const std::string bytes = padded_journal(3, &ends);
  ASSERT_GT(bytes.size(), 2 * kRead);
  const std::string path = tmp_path("journal.wal");
  write_file(path, bytes);
  const auto clean = load_journal(path);
  ASSERT_TRUE(clean.clean()) << clean.warning;

  sweep_read_ends(path, bytes, kJournalHeader.size(), ends,
                  [&](std::string_view damaged, const std::string& what) {
                    expect_same_journal(load_journal(path),
                                        parse_all(damaged), what);
                  });
}

TEST(FrameWalk, JournalFrameLargerThanTheBufferLoads) {
  // 25,000 records: a 1.2 MB frame between small ones.
  std::vector<SliceRecord> big;
  for (int i = 0; i < 25000; ++i) {
    big.push_back(make_record(i % 2, i % 8, 1e-6 * i, 1e-4 + 1e-9 * i));
  }
  const std::string path = tmp_path("big.wal");
  {
    JournalWriter w(path);
    w.append(JournalFrameKind::Batch, 0, 0, std::span(big).first(3));
    w.append(JournalFrameKind::Batch, 1, 0, big);
    w.append(JournalFrameKind::StaleRank, 2, 0, {});
  }
  ASSERT_GT(journal_frame_bytes(big.size()), kRead);
  const auto load = load_journal(path);
  ASSERT_TRUE(load.clean()) << load.warning;
  ASSERT_EQ(load.frames.size(), 3u);
  EXPECT_TRUE(same_records(load.frames[1].records, big));
  EXPECT_EQ(load.frames[2].kind, JournalFrameKind::StaleRank);

  std::ifstream in(path, std::ios::binary);
  const std::string bytes(std::istreambuf_iterator<char>(in), {});
  expect_same_journal(load, parse_all(bytes), "whole file");
}

/// A frame header declaring a 4 GiB payload, after `prefix`.
std::string with_huge_frame(std::string prefix) {
  const uint32_t len = 0xFFFFFFF0u;
  const uint32_t crc = 0;
  prefix.append(reinterpret_cast<const char*>(&len), sizeof len);
  prefix.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  prefix.append("a few bytes of payload");
  return prefix;
}

TEST(FrameWalk, HugeDeclaredJournalFrameIsTornNotAllocated) {
  JournalFrame good{JournalFrameKind::Batch, 0, 0,
                    {make_record(0, 0, 0.1, 1e-4)}};
  const std::string valid = "vsensor-journal 1\n" + encode_journal_frame(good);
  const std::string bytes = with_huge_frame(valid);
  const std::string path = tmp_path("huge.wal");
  write_file(path, bytes);
  JournalLoad load;
  ASSERT_NO_THROW(load = load_journal(path));
  ASSERT_EQ(load.frames.size(), 1u);
  EXPECT_EQ(load.warning,
            "torn frame payload at byte " + std::to_string(valid.size()));
  EXPECT_EQ(load.valid_bytes, valid.size());
  EXPECT_EQ(load.torn_bytes, bytes.size() - valid.size());
}

// ----------------------------------------------------------- Checkpoint

DetectorConfig detector_cfg() {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.min_records = 1;
  return cfg;
}

std::vector<SensorInfo> two_sensors() {
  return {{"comp", SensorType::Computation, "f.c", 1},
          {"net", SensorType::Network, "f.c", 2}};
}

/// A base of a detector fed `base_records` records over `ranks` ranks, then
/// `deltas` deltas of one-record folds.
std::string checkpoint_file(int ranks, size_t base_records, size_t deltas) {
  StreamingDetector detector(detector_cfg(), two_sensors(), ranks, 0.2);
  Rng rng(29);
  const auto fold = [&](size_t n) {
    std::vector<SliceRecord> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(make_record(static_cast<int>(rng.next_below(2)),
                                  static_cast<int>(rng.next_below(ranks)),
                                  rng.uniform(0.0, 0.199),
                                  1e-4 * (1.0 + rng.uniform(0.0, 1.0))));
    }
    detector.on_batch(batch);
  };
  const std::vector<SeqTracker> watermarks(static_cast<size_t>(ranks));
  Collector::Counters counters;
  fold(base_records);
  std::string file;
  encode_live_checkpoint(file, CheckpointFrame::Base, counters, watermarks,
                         detector);
  std::string delta;
  for (size_t i = 0; i < deltas; ++i) {
    fold(1);
    ++counters.batches;
    encode_live_checkpoint(delta, CheckpointFrame::Delta, counters,
                           watermarks, detector);
    file += delta;
  }
  return file;
}

void expect_same_checkpoint(const CheckpointLoad& file,
                            const CheckpointLoad& mem,
                            const std::string& what) {
  EXPECT_EQ(file.ok, mem.ok) << what;
  EXPECT_EQ(file.warning, mem.warning) << what;
  EXPECT_EQ(file.deltas, mem.deltas) << what;
  EXPECT_EQ(file.torn_bytes, mem.torn_bytes) << what;
  EXPECT_EQ(file.total_bytes, mem.total_bytes) << what;
  EXPECT_EQ(file.ckpt.collector.batches, mem.ckpt.collector.batches) << what;
  EXPECT_EQ(file.ckpt.ranks, mem.ckpt.ranks) << what;
  EXPECT_EQ(file.detector.observed, mem.detector.observed) << what;
  EXPECT_EQ(file.detector.rows, mem.detector.rows) << what;
  EXPECT_EQ(file.detector.cells, mem.detector.cells) << what;
}

/// A checkpoint `reads` reads long whose read ends sit among small deltas
/// (pad_reads), with those ends in `ends`. One rank and 60,000 buckets: a
/// small delta is one new cell of sensor 1's row, and a big one rewrites
/// sensor 0's row from the bucket that leaves about the bytes wanted.
std::string padded_checkpoint(size_t reads, std::vector<uint64_t>* ends) {
  DetectorConfig cfg = detector_cfg();
  cfg.matrix_resolution = 1e-5;
  StreamingDetector detector(cfg, two_sensors(), 1, 0.6);
  const std::vector<SeqTracker> watermarks(1);
  Collector::Counters counters;
  Rng rng(29);
  const auto record_at = [&](int sensor, uint32_t bucket) {
    SliceRecord r = make_record(sensor, 0, (bucket + 0.25) * 1e-5,
                                1e-4 * (1.0 + rng.uniform(0.0, 1.0)));
    r.t_end = r.t_begin + 1e-6;
    return r;
  };
  std::vector<SliceRecord> batch{record_at(1, 0)};
  detector.on_batch(batch);
  std::string bytes;
  encode_live_checkpoint(bytes, CheckpointFrame::Base, counters, watermarks,
                         detector);
  const uint64_t header = bytes.find('\n') + 1;
  std::string delta;
  const auto fold_and_append = [&] {
    detector.on_batch(batch);
    ++counters.batches;
    encode_live_checkpoint(delta, CheckpointFrame::Delta, counters,
                           watermarks, detector);
    bytes += delta;
  };
  uint32_t filled = 0;      // sensor 0's row holds buckets [0, filled)
  uint32_t next_small = 1;  // sensor 1's next bucket
  *ends = pad_reads(
      bytes, header, reads - 1,
      [&](uint64_t n) {
        // About n bytes of 20-byte cells, less the delta's fixed part.
        const auto cells = static_cast<uint32_t>(n / 20 - 20);
        batch.clear();
        if (cells <= filled) {
          batch.push_back(record_at(0, filled - cells));
        } else {
          for (uint32_t b = filled; b < cells; ++b) {
            batch.push_back(record_at(0, b));
          }
          batch.push_back(record_at(0, 0));
          filled = cells;
        }
        fold_and_append();
      },
      [&] {
        batch.assign(1, record_at(1, next_small++));
        fold_and_append();
      });
  return bytes;
}

TEST(FrameWalk, CheckpointLoadEqualsParseAtEveryReadEnd) {
  std::vector<uint64_t> ends;
  const std::string bytes = padded_checkpoint(3, &ends);
  ASSERT_GT(bytes.size(), 2 * kRead);
  const uint64_t header = bytes.find('\n') + 1;
  const std::string path = tmp_path("walk.ckpt");
  write_file(path, bytes);
  const auto clean = load_checkpoint(path);
  ASSERT_TRUE(clean.ok && clean.torn_bytes == 0) << clean.warning;

  sweep_read_ends(path, bytes, header, ends,
                  [&](std::string_view damaged, const std::string& what) {
                    expect_same_checkpoint(load_checkpoint(path),
                                           parse_checkpoint(damaged), what);
                  });
}

TEST(FrameWalk, CheckpointBaseLargerThanTheBufferLoads) {
  // 256 ranks with records in most cells: a base over 1 MiB, then deltas.
  const std::string bytes = checkpoint_file(256, 120000, 4);
  uint32_t base = 0;
  std::memcpy(&base, bytes.data() + bytes.find('\n') + 1, sizeof base);
  ASSERT_GT(base, kRead);
  const std::string path = tmp_path("big.ckpt");
  write_file(path, bytes);

  StreamingDetector from_file(detector_cfg(), two_sensors(), 256, 0.2);
  StreamingDetector from_bytes(detector_cfg(), two_sensors(), 256, 0.2);
  const auto file = load_checkpoint(path, &from_file);
  const auto mem = parse_checkpoint(bytes, &from_bytes);
  ASSERT_TRUE(file.ok) << file.warning;
  EXPECT_EQ(file.torn_bytes, 0u);
  EXPECT_EQ(file.deltas, 4u);
  expect_same_checkpoint(file, mem, "whole file");
  std::string a;
  std::string b;
  from_file.encode_checkpoint_state(a, CheckpointFrame::Base);
  from_bytes.encode_checkpoint_state(b, CheckpointFrame::Base);
  EXPECT_TRUE(a == b) << "decoded states differ";
}

TEST(FrameWalk, HugeDeclaredCheckpointFrameIsTornNotAllocated) {
  const std::string base = checkpoint_file(4, 64, 0);
  const std::string bytes = with_huge_frame(base);
  const std::string path = tmp_path("huge.ckpt");
  write_file(path, bytes);
  CheckpointLoad load;
  ASSERT_NO_THROW(load = load_checkpoint(path));
  EXPECT_TRUE(load.ok);
  EXPECT_EQ(load.deltas, 0u);
  EXPECT_EQ(load.torn_bytes, bytes.size() - base.size());
  EXPECT_NE(load.warning.find("torn frame payload at byte " +
                              std::to_string(base.size())),
            std::string::npos)
      << load.warning;
}

// -------------------------------------------------------------- Session

/// A session `reads` reads long whose read ends sit among one-record batch
/// frames (pad_reads), with those ends in `ends`: the reader takes any
/// record count per batch frame, so the frames between are big ones.
std::string padded_session(size_t reads, std::vector<uint64_t>* ends) {
  Session s;
  s.ranks = 4;
  s.run_time = 1.0;
  s.sensors = two_sensors();
  s.transport.resize(4);
  s.stale_ranks = {3};
  // With no record: the header line, the meta frame and the trailer.
  const std::string shell = encode_session(s);
  const uint64_t header = shell.find('\n') + 1;
  uint32_t meta = 0;
  std::memcpy(&meta, shell.data() + header, sizeof meta);
  const uint64_t body = header + kFrameHeaderBytes + meta;
  std::string bytes = shell.substr(0, body);
  Rng rng(41);
  uint64_t seq = 0;
  const auto batch = [&](size_t n) {
    const size_t at = s.records.size();
    for (size_t i = 0; i < n; ++i) {
      s.records.push_back(make_record(static_cast<int>(rng.next_below(2)),
                                      static_cast<int>(rng.next_below(4)),
                                      1e-6 * static_cast<double>(at + i),
                                      1e-4 * (1.0 + rng.uniform(0.0, 1.0))));
    }
    append_journal_frame(bytes, JournalFrameKind::Batch, -1, seq++,
                         std::span(s.records).subspan(at));
  };
  *ends = pad_reads(
      bytes, header, reads - 1,
      [&](uint64_t n) {
        batch((n - journal_frame_bytes(0)) / kRecordWireBytes);
      },
      [&] { batch(1); });
  bytes += shell.substr(body);
  // The meta frame declares the record count (payload offset 13): set it
  // and the frame's CRC.
  const uint64_t records = s.records.size();
  std::memcpy(bytes.data() + header + kFrameHeaderBytes + 13, &records,
              sizeof records);
  const uint32_t crc =
      crc32(std::string_view(bytes).substr(header + kFrameHeaderBytes, meta));
  std::memcpy(bytes.data() + header + 4, &crc, sizeof crc);
  return bytes;
}

void expect_same_session(const std::string& path, std::string_view bytes,
                         const std::string& what) {
  std::string file_error;
  std::string mem_error;
  Session file;
  Session mem;
  try {
    file = load_session_file(path);
  } catch (const Error& e) {
    file_error = e.what();
  }
  try {
    mem = parse_session(bytes);
  } catch (const Error& e) {
    mem_error = e.what();
  }
  ASSERT_EQ(file_error, mem_error) << what;
  EXPECT_TRUE(same_records(file.records, mem.records)) << what;
  EXPECT_EQ(file.warnings, mem.warnings) << what;
  EXPECT_EQ(file.torn_bytes, mem.torn_bytes) << what;
  EXPECT_EQ(file.ranks, mem.ranks) << what;
  EXPECT_EQ(file.sensors.size(), mem.sensors.size()) << what;
  EXPECT_EQ(file.transport.size(), mem.transport.size()) << what;
  EXPECT_EQ(file.stale_ranks, mem.stale_ranks) << what;
}

TEST(FrameWalk, SessionLoadEqualsParseAtEveryReadEnd) {
  std::vector<uint64_t> ends;
  const std::string bytes = padded_session(4, &ends);
  ASSERT_GT(bytes.size(), 3 * kRead);
  const uint64_t header = bytes.find('\n') + 1;
  const std::string path = tmp_path("walk.vsr");
  write_file(path, bytes);
  const Session clean = load_session_file(path);
  ASSERT_TRUE(clean.clean()) << clean.warnings.front();

  sweep_read_ends(path, bytes, header, ends,
                  [&](std::string_view damaged, const std::string& what) {
                    expect_same_session(path, damaged, what);
                  });
}

TEST(FrameWalk, HugeDeclaredSessionFrameIsTornNotAllocated) {
  Session s;
  s.ranks = 1;
  s.sensors = two_sensors();
  const std::string shell = encode_session(s);
  // Keep the header line and the meta frame.
  const uint64_t header = shell.find('\n') + 1;
  uint32_t meta = 0;
  std::memcpy(&meta, shell.data() + header, sizeof meta);
  const uint64_t body = header + kFrameHeaderBytes + meta;
  const std::string bytes = with_huge_frame(shell.substr(0, body));
  const std::string path = tmp_path("huge.vsr");
  write_file(path, bytes);
  Session load;
  ASSERT_NO_THROW(load = load_session_file(path));
  ASSERT_EQ(load.warnings.size(), 1u);
  EXPECT_EQ(load.warnings[0],
            "torn frame payload at byte " + std::to_string(body));
  EXPECT_EQ(load.torn_bytes, bytes.size() - body);
  EXPECT_TRUE(load.records.empty());
}

}  // namespace
}  // namespace vsensor::rt
