// Session file round-trip and robustness (the §5.4 shared-file transport).
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "io/fault_fs.hpp"
#include "runtime/detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/session_io.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace vsensor::rt {
namespace {

constexpr size_t kFrameRecords = 4096;  // records per batch frame

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_session_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Session make_session(size_t records = 50) {
  Session s;
  s.ranks = 4;
  s.run_time = 1.25;
  s.sensors = {
      {"cg:matvec kernel", SensorType::Computation, "cg.c", 112},
      {"cg:allreduce", SensorType::Network, "cg.c", 122},
      {"cg:checkpoint", SensorType::IO, "cg.c", 140},
  };
  Rng rng(5);
  for (size_t i = 0; i < records; ++i) {
    SliceRecord r;
    r.sensor_id = static_cast<int>(rng.next_below(3));
    r.rank = static_cast<int>(rng.next_below(4));
    r.t_begin = static_cast<double>(i) * 1e-3;
    r.t_end = r.t_begin + 1e-3;
    r.avg_duration = rng.uniform(50e-6, 150e-6);
    r.min_duration = r.avg_duration * 0.9;
    r.count = 1 + static_cast<uint32_t>(rng.next_below(20));
    r.metric = static_cast<float>(rng.uniform(0.0, 1.0));
    r.flags = i % 7 == 0 ? 1 : 0;
    s.records.push_back(r);
  }
  s.transport.resize(4);
  for (size_t r = 0; r < 4; ++r) {
    auto& t = s.transport[r];
    t.batches_sent = 10 + r;
    t.batches_delivered = 9 + r;
    t.batches_lost = 1;
    t.records_delivered = 100 * (r + 1);
    t.retries = r;
    t.wire_bytes = 5600 * (r + 1);
    t.backoff_seconds = 0.25 * static_cast<double>(r);
    t.last_delivery_time = 1.0 + static_cast<double>(r);
    t.next_seq = 10 + r;
  }
  s.stale_ranks = {2};
  return s;
}

bool same_records(std::span<const SliceRecord> a,
                  std::span<const SliceRecord> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Offsets at which the header line and then each frame of `bytes` end.
std::vector<size_t> frame_ends(const std::string& bytes) {
  std::vector<size_t> ends{bytes.find('\n') + 1};
  while (ends.back() < bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + ends.back(), sizeof len);
    ends.push_back(ends.back() + 8 + len);
  }
  return ends;
}

/// The frames of an encoded session, each with its framing bytes.
std::vector<std::string> split_frames(const std::string& bytes) {
  const auto ends = frame_ends(bytes);
  std::vector<std::string> frames;
  for (size_t i = 1; i < ends.size(); ++i) {
    frames.push_back(bytes.substr(ends[i - 1], ends[i] - ends[i - 1]));
  }
  return frames;
}

/// Records a damaged load of `bytes` may keep when its valid frames end at
/// `valid_end`: every batch frame that ends there or before.
size_t records_before(const std::string& bytes, size_t valid_end,
                      size_t total) {
  const auto ends = frame_ends(bytes);
  size_t frames = 0;  // batch frames are ends[2 .. size-2]
  for (size_t i = 2; i + 1 < ends.size(); ++i) {
    if (ends[i] <= valid_end) ++frames;
  }
  return std::min(total, frames * kFrameRecords);
}

/// Check the load of a damaged `size`-byte copy of `bytes`, the intact
/// encoding of `original`: not clean, one warning, and the records a
/// frame-granular prefix of the original.
void expect_salvaged(const Session& loaded, const Session& original,
                     const std::string& bytes, size_t size,
                     const std::string& what) {
  EXPECT_FALSE(loaded.clean()) << what;
  EXPECT_EQ(loaded.warnings.size(), 1u) << what;
  ASSERT_LE(loaded.torn_bytes, size) << what;
  const size_t valid_end = size - loaded.torn_bytes;
  const size_t kept = records_before(bytes, valid_end, original.records.size());
  EXPECT_TRUE(same_records(loaded.records,
                           std::span(original.records).first(kept)))
      << what << ": kept " << loaded.records.size() << ", want " << kept;
}

TEST(SessionIo, RoundTripPreservesEverything) {
  const Session original = make_session();
  const Session loaded = parse_session(encode_session(original));

  EXPECT_TRUE(loaded.clean());
  EXPECT_EQ(loaded.torn_bytes, 0u);
  EXPECT_EQ(loaded.ranks, original.ranks);
  EXPECT_EQ(loaded.run_time, original.run_time);
  ASSERT_EQ(loaded.sensors.size(), original.sensors.size());
  for (size_t i = 0; i < original.sensors.size(); ++i) {
    EXPECT_EQ(loaded.sensors[i].name, original.sensors[i].name);
    EXPECT_EQ(loaded.sensors[i].type, original.sensors[i].type);
    EXPECT_EQ(loaded.sensors[i].file, original.sensors[i].file);
    EXPECT_EQ(loaded.sensors[i].line, original.sensors[i].line);
  }
  EXPECT_TRUE(same_records(loaded.records, original.records));
  ASSERT_EQ(loaded.transport.size(), original.transport.size());
  EXPECT_EQ(std::memcmp(loaded.transport.data(), original.transport.data(),
                        original.transport.size() * sizeof(RankChannelStats)),
            0);
  EXPECT_EQ(loaded.transport_totals.batches_delivered, 9u + 10u + 11u + 12u);
  EXPECT_EQ(loaded.transport_totals.last_delivery_time, 4.0);
  EXPECT_EQ(loaded.stale_ranks, original.stale_ranks);
}

TEST(SessionIo, SensorStringsRoundTripExactly) {
  Session s;
  s.ranks = 1;
  s.run_time = 0.1;
  s.sensors = {
      {"relax loop", SensorType::Computation, "/home/u/My Programs/stencil.mc",
       3},
      {"", SensorType::Network, "", 0},
      {"two\nlines", SensorType::IO, "a.c", 9},
  };
  for (int sensor = 0; sensor < 3; ++sensor) {
    SliceRecord r;
    r.sensor_id = sensor;
    r.rank = 0;
    r.count = 1;
    s.records.push_back(r);
  }
  const Session loaded = parse_session(encode_session(s));
  EXPECT_TRUE(loaded.clean());
  ASSERT_EQ(loaded.sensors.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.sensors[i].file, s.sensors[i].file) << i;
    EXPECT_EQ(loaded.sensors[i].name, s.sensors[i].name) << i;
    EXPECT_EQ(loaded.sensors[i].type, s.sensors[i].type) << i;
    EXPECT_EQ(loaded.sensors[i].line, s.sensors[i].line) << i;
  }
  EXPECT_EQ(loaded.records.size(), 3u);
}

TEST(SessionIo, AnalysisOfLoadedSessionMatchesDirect) {
  const Session session = make_session();
  const Session loaded = parse_session(encode_session(session));

  auto analyze = [](const Session& s) {
    Collector c;
    c.set_sensors(s.sensors);
    c.ingest(s.records);
    DetectorConfig cfg;
    cfg.matrix_resolution = s.run_time / 20.0;
    return Detector(cfg).analyze(c, s.ranks, s.run_time);
  };
  const auto a = analyze(session);
  const auto b = analyze(loaded);
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.flagged.size(), b.flagged.size());
  EXPECT_DOUBLE_EQ(a.matrix(SensorType::Computation).average(),
                   b.matrix(SensorType::Computation).average());
}

TEST(SessionIo, BatchFramesAreJournalFrames) {
  const Session s = make_session(2 * kFrameRecords + 100);
  const auto frames = split_frames(encode_session(s));
  ASSERT_EQ(frames.size(), 5u);  // meta, 3 batch frames, trailer
  for (size_t b = 0; b < 3; ++b) {
    const auto chunk = std::span(s.records).subspan(
        b * kFrameRecords,
        std::min(kFrameRecords, s.records.size() - b * kFrameRecords));
    JournalFrame frame{JournalFrameKind::Batch, -1, b,
                       {chunk.begin(), chunk.end()}};
    EXPECT_EQ(frames[1 + b], encode_journal_frame(frame)) << "frame " << b;
  }
}

TEST(SessionIo, EncodeSessionMatchesSavedFile) {
  // The collector's lanes hand the writer chunk spans of at most 1,024
  // records, so batch frames straddle spans.
  Session s = make_session(2 * kFrameRecords + 100);
  Collector collector;
  collector.set_sensors(s.sensors);
  collector.ingest(s.records);
  s.records = collector.records();  // the order the writer visits

  const std::string path = tmp_path("encode.vsr");
  save_session_file(path, collector, s.ranks, s.run_time, s.transport,
                    s.stale_ranks);
  EXPECT_EQ(read_file(path), encode_session(s));
  EXPECT_TRUE(load_session_file(path).clean());
  EXPECT_THROW(load_session_file("/nonexistent/path.vsr"), Error);
}

TEST(SessionIo, RejectsWhatIsNotAVersionFourSession) {
  EXPECT_THROW(parse_session(""), Error);
  EXPECT_THROW(parse_session("hello world\n1 2 3\n"), Error);
  EXPECT_THROW(parse_session("vsensor-session 4"), Error);  // no newline
  EXPECT_THROW(parse_session("vsensor-session 4x\n"), Error);
  // Older text sessions and unknown versions name their version.
  for (const char* version : {"1", "2", "3", "99"}) {
    const std::string text =
        std::string("vsensor-session ") + version + "\nranks 1 run_time 1\n";
    try {
      parse_session(text);
      ADD_FAILURE() << "version " << version << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("session version ") +
                                           version + " is not readable"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SessionIo, EveryDamageIsVisible) {
  // A small session: one batch frame, every prefix and every bit flip.
  Session small = make_session(10);
  const std::string text = encode_session(small);
  const size_t header = text.find('\n') + 1;
  for (size_t cut = 0; cut < text.size(); ++cut) {
    const std::string prefix = text.substr(0, cut);
    if (cut < header) {
      EXPECT_THROW(parse_session(prefix), Error) << "cut " << cut;
      continue;
    }
    const Session loaded = parse_session(prefix);
    expect_salvaged(loaded, small, text, cut, "cut " + std::to_string(cut));
  }
  for (size_t pos = 0; pos < text.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = text;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      if (pos < header) {
        EXPECT_THROW(parse_session(mutated), Error) << "flip at " << pos;
        continue;
      }
      const Session loaded = parse_session(mutated);
      expect_salvaged(loaded, small, text, text.size(),
                      "flip at " + std::to_string(pos));
    }
  }

  // Three batch frames: damage keeps exactly the frames before it.
  const Session big = make_session(2 * kFrameRecords + 100);
  const std::string bytes = encode_session(big);
  for (size_t end : frame_ends(bytes)) {
    for (size_t back : {1, 7, 8, 9, 100}) {
      if (back > end || end - back < header) continue;
      const Session loaded = parse_session(bytes.substr(0, end - back));
      expect_salvaged(loaded, big, bytes, end - back,
                      "cut " + std::to_string(end - back));
    }
    if (end == bytes.size()) continue;
    for (size_t at : {end, end + 5, end + 8, end + 4000}) {
      if (at >= bytes.size()) continue;
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(mutated[at] ^ 0x10);
      const Session loaded = parse_session(mutated);
      expect_salvaged(loaded, big, bytes, bytes.size(),
                      "flip at " + std::to_string(at));
    }
  }
}

TEST(SessionIo, SalvageNamesTheDamageAndCountsTornBytes) {
  const Session s = make_session(2 * kFrameRecords + 100);
  const std::string bytes = encode_session(s);
  const auto ends = frame_ends(bytes);  // header, meta, 3 batches, trailer

  // Cut mid-way through the second batch frame.
  const size_t cut = ends[3] - 1000;
  const Session torn = parse_session(bytes.substr(0, cut));
  ASSERT_EQ(torn.warnings.size(), 1u);
  EXPECT_NE(torn.warnings[0].find("torn frame payload at byte " +
                                  std::to_string(ends[2])),
            std::string::npos)
      << torn.warnings[0];
  EXPECT_EQ(torn.torn_bytes, cut - ends[2]);
  EXPECT_EQ(torn.records.size(), kFrameRecords);
  EXPECT_EQ(torn.ranks, 4);
  EXPECT_EQ(torn.sensors.size(), 3u);
  EXPECT_FALSE(torn.has_transport());

  // A flipped byte in the third batch frame fails its CRC.
  std::string flipped = bytes;
  flipped[ends[3] + 100] ^= 0x01;
  const Session damaged = parse_session(flipped);
  ASSERT_EQ(damaged.warnings.size(), 1u);
  EXPECT_NE(damaged.warnings[0].find("frame CRC mismatch at byte " +
                                     std::to_string(ends[3])),
            std::string::npos)
      << damaged.warnings[0];
  EXPECT_EQ(damaged.torn_bytes, bytes.size() - ends[3]);
  EXPECT_EQ(damaged.records.size(), 2 * kFrameRecords);

  // A cut at a frame boundary is visible too: no trailer.
  const Session no_trailer = parse_session(bytes.substr(0, ends[4]));
  ASSERT_EQ(no_trailer.warnings.size(), 1u);
  EXPECT_NE(no_trailer.warnings[0].find("without its trailer frame"),
            std::string::npos);
  EXPECT_EQ(no_trailer.torn_bytes, 0u);
  EXPECT_EQ(no_trailer.records.size(), s.records.size());
}

TEST(SessionIo, MalformedFramesEndTheLoad) {
  const Session s = make_session(10);
  const std::string head = "vsensor-session 4\n";
  const auto f = split_frames(encode_session(s));  // meta, batch, trailer
  ASSERT_EQ(f.size(), 3u);
  const auto expect_stop = [&](const std::string& bytes, const char* why,
                               size_t records) {
    const Session loaded = parse_session(bytes);
    ASSERT_EQ(loaded.warnings.size(), 1u) << why;
    EXPECT_NE(loaded.warnings[0].find(why), std::string::npos)
        << loaded.warnings[0];
    EXPECT_EQ(loaded.records.size(), records) << why;
  };

  expect_stop(head + f[1] + f[0] + f[2], "first frame is not the meta frame",
              0);
  expect_stop(head + f[0] + f[0] + f[1] + f[2], "second meta frame", 0);
  expect_stop(head + f[0] + f[1] + f[1] + f[2], "batch frame out of sequence",
              10);
  expect_stop(head + f[0] + f[1] + f[2] + f[1], "frame after the trailer", 10);
  expect_stop(head + f[0] + f[2], "meta frame declares 10", 0);
  std::string stale_mark;
  append_journal_frame(stale_mark, JournalFrameKind::StaleRank, 1, 0, {});
  expect_stop(head + f[0] + stale_mark + f[1] + f[2], "unknown frame kind", 0);

  Session bad = s;
  bad.records[3].rank = bad.ranks;
  expect_stop(encode_session(bad), "record names an unknown sensor or rank", 0);
  bad = s;
  bad.records[3].sensor_id = 3;
  expect_stop(encode_session(bad), "record names an unknown sensor or rank", 0);
  bad = s;
  bad.stale_ranks = {bad.ranks};
  expect_stop(encode_session(bad), "stale rank outside", 10);
  bad = s;
  bad.transport.resize(static_cast<size_t>(bad.ranks) + 1);
  expect_stop(encode_session(bad), "more transport entries than ranks", 10);
  bad = s;
  bad.sensors[1].type = static_cast<SensorType>(kSensorTypeCount);
  expect_stop(encode_session(bad), "sensor type out of range", 0);

  // A sensor name whose length runs past the meta frame.
  std::string meta;
  const size_t at = open_frame(meta);
  for (const char c : {'\x04', '\x01', '\0', '\0', '\0'}) meta += c;  // ranks 1
  meta.append(8, '\0');                                     // run_time
  meta.append(8, '\0');                                     // records
  meta += std::string("\x01\0\0\0", 4);                     // one sensor
  meta += std::string("\0\x01\0\0\0", 5);                   // type, line
  meta += std::string("\0\0\0\0", 4);                       // empty file
  meta += std::string("\xE8\x03\0\0abc", 7);                // name: 1000 > 3
  close_frame(meta, at);
  const Session overrun = parse_session(head + meta + f[2]);
  ASSERT_EQ(overrun.warnings.size(), 1u);
  EXPECT_NE(overrun.warnings[0].find("sensor entry overruns the meta frame"),
            std::string::npos)
      << overrun.warnings[0];
  EXPECT_EQ(overrun.ranks, 0);  // a damaged meta frame: empty session
  EXPECT_TRUE(overrun.sensors.empty());
}

TEST(SessionIo, HugeDeclaredCountDoesNotAllocate) {
  const Session s = make_session(10);
  std::string bytes = encode_session(s);
  const size_t meta = bytes.find('\n') + 1;
  const auto ends = frame_ends(bytes);
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(bytes.data() + meta + 8 + 1 + 4 + 8, &huge, sizeof huge);
  const uint32_t crc =
      crc32(bytes.data() + meta + 8, ends[1] - meta - 8);
  std::memcpy(bytes.data() + meta + 4, &crc, sizeof crc);

  const Session loaded = parse_session(bytes);
  EXPECT_LE(loaded.records.capacity(), bytes.size() / kRecordWireBytes);
  EXPECT_EQ(loaded.records.size(), 10u);
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].find("declares 1099511627776"),
            std::string::npos)
      << loaded.warnings[0];
}

TEST(SessionIo, DeniedFirstAppendThrowsNamingThePath) {
  const Session s = make_session();
  Collector collector;
  collector.set_sensors(s.sensors);
  collector.ingest(s.records);
  io::FaultFsConfig cfg;
  cfg.deny_ops = {{1, 1}};  // op 0 opens the file, op 1 is the first append
  io::FaultFs fs(cfg);
  const std::string path = tmp_path("denied.vsr");
  try {
    save_session_file(path, collector, s.ranks, s.run_time, {}, {}, &fs);
    ADD_FAILURE() << "save succeeded on a denied append";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  EXPECT_EQ(fs.injected_enospc(), 1u);
}

TEST(SessionIo, ShortWriteLeavesTheFramePrefix) {
  Session s = make_session(2 * kFrameRecords + 100);
  Collector collector;
  collector.set_sensors(s.sensors);
  collector.ingest(s.records);
  s.records = collector.records();
  const std::string whole = encode_session(s);
  const auto ends = frame_ends(whole);
  const std::string path = tmp_path("short.vsr");

  // Each append is one frame (the first also carries the header line), so
  // a torn append leaves the frames before it whole.
  int torn_in_batches = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    io::FaultFsConfig cfg;
    cfg.seed = seed;
    cfg.short_write = 0.3;
    io::FaultFs fs(cfg);
    bool threw = false;
    try {
      save_session_file(path, collector, s.ranks, s.run_time, s.transport,
                        s.stale_ranks, &fs);
    } catch (const Error&) {
      threw = true;
    }
    const std::string bytes = read_file(path);
    ASSERT_EQ(threw, fs.injected_short_writes() > 0) << "seed " << seed;
    ASSERT_EQ(whole.compare(0, bytes.size(), bytes), 0) << "seed " << seed;
    if (!threw) {
      EXPECT_EQ(bytes, whole);
      continue;
    }
    if (bytes.size() < ends[0]) {
      EXPECT_THROW(parse_session(bytes), Error) << "seed " << seed;
      continue;
    }
    const Session loaded = parse_session(bytes);
    size_t valid = ends[0];
    for (size_t end : ends) {
      if (end <= bytes.size()) valid = end;
    }
    EXPECT_EQ(loaded.torn_bytes, bytes.size() - valid) << "seed " << seed;
    expect_salvaged(loaded, s, whole, bytes.size(),
                    "seed " + std::to_string(seed));
    if (valid > ends[1] && valid < ends[ends.size() - 2]) ++torn_in_batches;
  }
  EXPECT_GT(torn_in_batches, 0);
}

}  // namespace
}  // namespace vsensor::rt
