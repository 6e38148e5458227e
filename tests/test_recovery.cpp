// Crash tolerance of the analysis server: write-ahead journal framing and
// salvage, checkpoint round-trips, and the headline invariant — a server
// that crashes and recovers at any delivery boundary finishes with
// bit-identical matrices, variance events, and flag counters to an
// uninterrupted server fed the same deliveries (property-tested across
// randomized crash points), with watermark dedup guaranteeing no journal
// replay ever double-counts a batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/fault_fs.hpp"
#include "io/vfs.hpp"
#include "obs/health.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/server.hpp"
#include "runtime/sharded_tier.hpp"
#include "runtime/slicer.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "simmpi/faults.hpp"
#include "support/binio.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "vsensor_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

SliceRecord make_record(int sensor, int rank, double t, double avg,
                        double metric = 0.0, uint32_t count = 1) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = count;
  r.metric = static_cast<float>(metric);
  return r;
}

std::vector<SensorInfo> two_sensors() {
  return {{"comp", SensorType::Computation, "f.c", 1},
          {"net", SensorType::Network, "f.c", 2}};
}

// ---------------------------------------------------------------- CRC32

TEST(Crc32, MatchesKnownVectors) {
  // IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  // Seed chaining: crc of a whole buffer equals crc resumed over halves.
  const std::string s = "incremental-crc-check";
  const uint32_t whole = crc32(s);
  const uint32_t half = crc32(s.data(), 7);
  EXPECT_EQ(crc32(s.data() + 7, s.size() - 7, half), whole);
}

TEST(Crc32, EveryPathMatchesReference) {
  // crc32() folds 16-byte blocks by carry-less multiply where the CPU has
  // it and finishes in the tables; crc32_portable() is the tables alone.
  // Both must equal the bytewise reference for every length across the
  // fold threshold and block boundaries, at every alignment, from any
  // seed, and when the input is split anywhere.
  Rng rng(0xC4C);
  std::vector<unsigned char> buf((9u << 20) + 16);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next_below(256));
  const uint32_t seeds[] = {0u, 0xFFFFFFFFu,
                            static_cast<uint32_t>(rng.next_below(1ull << 32))};
  using Crc = uint32_t (*)(const void*, size_t, uint32_t);
  const std::pair<const char*, Crc> paths[] = {
      {"crc32",
       [](const void* p, size_t n, uint32_t s) { return crc32(p, n, s); }},
      {"crc32_portable", crc32_portable}};
  SCOPED_TRACE(std::string("active implementation ") + crc32_impl_name());
  const auto expect_all = [&](const unsigned char* p, size_t len,
                              uint32_t seed, uint32_t want) {
    for (const auto& [name, crc] : paths) {
      ASSERT_EQ(crc(p, len, seed), want)
          << name << ": len " << len << " offset " << (p - buf.data())
          << " seed " << seed;
    }
  };

  for (size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (const uint32_t seed : seeds) {
      for (size_t len = 0; len <= 1024; ++len) {
        ASSERT_NO_FATAL_FAILURE(
            expect_all(p, len, seed, crc32_reference(p, len, seed)));
      }
    }
    // 1, 4 and 9 MB, one seed per offset (the bytewise reference is slow):
    // the reference chains over the growing prefix.
    const uint32_t seed = seeds[offset % 3];
    uint32_t want = seed;
    size_t done = 0;
    for (const size_t mb : {1u, 4u, 9u}) {
      const size_t len = mb << 20;
      want = crc32_reference(p + done, len - done, want);
      done = len;
      ASSERT_NO_FATAL_FAILURE(expect_all(p, len, seed, want));
    }
  }
  for (const uint32_t seed : seeds) {
    const uint32_t whole = crc32_reference(buf.data(), 300, seed);
    for (const auto& [name, crc] : paths) {
      for (size_t split = 0; split <= 300; ++split) {
        ASSERT_EQ(crc(buf.data() + split, 300 - split,
                      crc(buf.data(), split, seed)),
                  whole)
            << name << ": split at " << split << " seed " << seed;
      }
    }
  }
}

// -------------------------------------------------------------- Journal

TEST(Journal, RoundTripPreservesFramesExactly) {
  const auto path = tmp_path("journal_roundtrip.wal");
  JournalFrame a{JournalFrameKind::Batch, 2, 7,
                 {make_record(0, 2, 0.1, 3e-4, 0.5, 4)}};
  JournalFrame b{JournalFrameKind::StaleRank, 1, 0, {}};
  JournalFrame c{JournalFrameKind::Batch, 0, 0,
                 {make_record(1, 0, 0.2, 5e-4), make_record(1, 0, 0.3, 6e-4)}};
  {
    JournalWriter w(path);
    w.append(a);
    w.append(b);
    w.append(c);
  }
  const auto load = load_journal(path);
  EXPECT_TRUE(load.clean()) << load.warning;
  ASSERT_EQ(load.frames.size(), 3u);
  EXPECT_EQ(load.frames[0].kind, JournalFrameKind::Batch);
  EXPECT_EQ(load.frames[0].rank, 2);
  EXPECT_EQ(load.frames[0].seq, 7u);
  ASSERT_EQ(load.frames[0].records.size(), 1u);
  // Doubles survive bit for bit.
  EXPECT_EQ(load.frames[0].records[0].avg_duration, 3e-4);
  EXPECT_EQ(load.frames[0].records[0].count, 4u);
  EXPECT_EQ(load.frames[1].kind, JournalFrameKind::StaleRank);
  EXPECT_EQ(load.frames[1].rank, 1);
  ASSERT_EQ(load.frames[2].records.size(), 2u);
  EXPECT_EQ(load.frames[2].records[1].t_begin, 0.3);
}

TEST(Journal, SalvagesValidPrefixOfTornTail) {
  const auto path = tmp_path("journal_torn.wal");
  JournalFrame good{JournalFrameKind::Batch, 0, 0,
                    {make_record(0, 0, 0.1, 1e-4)}};
  {
    JournalWriter w(path);
    w.append(good);
    w.append(good);
  }
  // Append a prefix of a real frame: the write the crash cut short.
  const std::string torn = encode_journal_frame(good);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }
  const auto load = load_journal(path);
  EXPECT_FALSE(load.clean());
  EXPECT_EQ(load.frames.size(), 2u);
  EXPECT_EQ(load.torn_bytes, torn.size() / 2);
  EXPECT_FALSE(load.warning.empty());
}

TEST(Journal, GroupCommitBoundsTheCrashWindow) {
  const auto path = tmp_path("journal_group.wal");
  JournalWriterConfig cfg;
  cfg.commit_every_frames = 3;
  JournalFrame f{JournalFrameKind::Batch, 0, 0, {make_record(0, 0, 0.1, 1e-4)}};
  JournalWriter w(path, cfg);
  w.append(f);
  w.append(f);
  // Two frames buffered, none committed: a crash here loses both.
  w.discard_buffer();
  w.append(f);
  w.append(f);
  w.append(f);  // third append triggers the group commit
  const auto load = load_journal(path);
  EXPECT_EQ(load.frames.size(), 3u);
  EXPECT_TRUE(load.clean()) << load.warning;
}

TEST(Journal, FuzzTruncationsAndBitFlipsNeverCrash) {
  const auto path = tmp_path("journal_fuzz_src.wal");
  {
    JournalWriter w(path);
    for (int i = 0; i < 6; ++i) {
      w.append(JournalFrame{
          JournalFrameKind::Batch, i % 3, static_cast<uint64_t>(i),
          {make_record(0, i % 3, 0.1 * i, 1e-4 * (i + 1))}});
    }
  }
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 100u);
  const auto fuzz_path = tmp_path("journal_fuzz.wal");

  // Every truncation point: the loader must salvage a valid prefix and
  // never throw, crash, or report more valid bytes than the file holds.
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_file(fuzz_path, bytes.substr(0, cut));
    const auto load = load_journal(fuzz_path);
    EXPECT_LE(load.valid_bytes, cut);
    EXPECT_EQ(load.valid_bytes + load.torn_bytes, cut);
    EXPECT_LE(load.frames.size(), 6u);
  }

  // Single-byte corruption at every offset: a flipped byte must never be
  // silently accepted — the frame it lands in (and everything after, which
  // salvage drops) must disappear from the load.
  const auto clean = load_journal(path);
  ASSERT_EQ(clean.frames.size(), 6u);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x41);
    write_file(fuzz_path, mutated);
    const auto load = load_journal(fuzz_path);
    EXPECT_FALSE(load.clean()) << "flip at byte " << i;
    EXPECT_LT(load.frames.size(), 6u) << "flip at byte " << i;
  }
}

// ----------------------------------------------------------- Checkpoint

/// A checkpoint as plain data: the leading fields and the detector state as
/// a Snapshot, the input of the reference encoder.
struct ReferenceCheckpoint : ServerCheckpoint {
  StreamingDetector::Snapshot detector;
};

/// The reference encoder: the detector section written from a Snapshot's
/// maps, by the layout in runtime/checkpoint.hpp, apart from the live
/// encoder it checks. The three maps share their key prefixes and order,
/// so one pass walks them together: a slot's rows are the run of rank
/// standards under its key, and a row's cells the run of cells under the
/// row's key. It writes what it is given, unchecked.
void put_snapshot(std::string& out, const StreamingDetector::Snapshot& d) {
  auto row = d.rank_standard.begin();
  auto cell = d.cells.begin();
  put_raw(out, static_cast<uint64_t>(d.standard.size()));
  for (const auto& [slot, standard] : d.standard) {
    const auto rows_end =
        std::find_if(row, d.rank_standard.end(), [&](const auto& entry) {
          const auto& [s, g, r] = entry.first;
          return std::pair(s, g) != slot;
        });
    put_raw(out, static_cast<int32_t>(slot.first));
    put_raw(out, static_cast<int32_t>(slot.second));
    put_raw(out, standard);
    put_raw(out, static_cast<uint64_t>(std::distance(row, rows_end)));
    for (; row != rows_end; ++row) {
      const auto& [key, rank_standard] = *row;
      const auto cells_end =
          std::find_if(cell, d.cells.end(), [&](const auto& entry) {
            const auto& [s, g, r, b] = entry.first;
            return std::tuple(s, g, r) != key;
          });
      put_raw(out, static_cast<int32_t>(std::get<2>(key)));
      put_raw(out, rank_standard);
      put_raw(out, static_cast<uint32_t>(std::distance(cell, cells_end)));
      for (; cell != cells_end; ++cell) {
        put_raw(out, static_cast<uint32_t>(std::get<3>(cell->first)));
        put_raw(out, cell->second.weight_over_avg);
        put_raw(out, cell->second.weight);
      }
    }
  }
  put_raw(out, static_cast<uint64_t>(d.stats.size()));
  for (const auto& st : d.stats) {
    put_raw(out, st.count);
    put_raw(out, st.mean);
    put_raw(out, st.m2);
  }
  put_raw(out, static_cast<uint64_t>(d.sensor_records.size()));
  for (uint64_t n : d.sensor_records) put_raw(out, n);
  put_raw(out, static_cast<uint64_t>(d.last.size()));
  for (const auto& [key, slice] : d.last) {
    put_raw(out, static_cast<int32_t>(key.first));
    put_raw(out, static_cast<int32_t>(key.second));
    put_raw(out, slice.t_end);
    put_raw(out, slice.avg_duration);
    put_raw(out, slice.normalized);
  }
  put_raw(out, static_cast<uint64_t>(d.stale.size()));
  for (int rank : d.stale) put_raw(out, static_cast<int32_t>(rank));
  put_raw(out, d.observed);
  put_raw(out, d.stale_records);
  put_raw(out, d.degenerate_records);
  put_raw(out, d.intra_flags);
  put_raw(out, d.inter_flags);
}

/// A whole checkpoint file of one base frame: `head`'s leading fields,
/// then `detector` through put_snapshot.
std::string encode_checkpoint(const ServerCheckpoint& head,
                              const StreamingDetector::Snapshot& detector) {
  std::string out = "vsensor-checkpoint 4\n";
  const size_t at = open_frame(out);
  put_raw(out, head.sensor_count);
  put_raw(out, head.ranks);
  put_raw(out, head.run_time);
  put_raw(out, head.buckets);
  put_raw(out, head.collector.ingested);
  put_raw(out, head.collector.dropped);
  put_raw(out, head.collector.taken);
  put_raw(out, head.collector.bytes);
  put_raw(out, head.collector.batches);
  put_raw(out, static_cast<uint64_t>(head.watermarks.size()));
  for (const auto& wm : head.watermarks) {
    put_raw(out, wm.contiguous);
    put_raw(out, static_cast<uint64_t>(wm.ahead.size()));
    for (uint64_t seq : wm.ahead) put_raw(out, seq);
  }
  put_snapshot(out, detector);
  close_frame(out, at);
  return out;
}

std::string encode_checkpoint(const ReferenceCheckpoint& ckpt) {
  return encode_checkpoint(ckpt, ckpt.detector);
}

DetectorConfig sample_cfg() {
  DetectorConfig cfg;
  cfg.matrix_resolution = 1e-3;
  cfg.metric_bucket_width = 0.5;
  return cfg;
}

ReferenceCheckpoint sample_checkpoint() {
  StreamingDetector det(sample_cfg(), two_sensors(), 3, 10e-3);
  std::vector<SliceRecord> recs{make_record(0, 0, 0.001, 3e-4, 0.1),
                                make_record(0, 1, 0.002, 7e-4, 0.9),
                                make_record(1, 2, 0.003, 5e-4, 0.1)};
  det.on_batch(recs);
  det.mark_stale(2);

  ReferenceCheckpoint ckpt;
  ckpt.sensor_count = 2;
  ckpt.ranks = 3;
  ckpt.run_time = 10e-3;
  ckpt.buckets = static_cast<uint32_t>(det.buckets());
  ckpt.collector = Collector::Counters{3, 0, 0, 3 * kRecordWireBytes, 1};
  ckpt.watermarks.resize(3);
  ckpt.watermarks[0].insert(0);
  ckpt.watermarks[0].insert(1);
  ckpt.watermarks[1].insert(5);  // out of order: ahead-set entry
  ckpt.detector = det.snapshot();
  return ckpt;
}

TEST(Checkpoint, RoundTripIsByteExact) {
  const auto path = tmp_path("checkpoint_roundtrip.ckpt");
  const auto ckpt = sample_checkpoint();
  write_file(path, encode_checkpoint(ckpt));
  StreamingDetector decoded(sample_cfg(), two_sensors(), 3, 10e-3);
  const auto load = load_checkpoint(path, &decoded);
  ASSERT_TRUE(load.ok) << load.warning;
  const auto got = decoded.snapshot();

  EXPECT_EQ(load.ckpt.sensor_count, 2u);
  EXPECT_EQ(load.ckpt.ranks, 3);
  EXPECT_EQ(load.ckpt.run_time, 10e-3);
  EXPECT_EQ(load.ckpt.collector.ingested, 3u);
  ASSERT_EQ(load.ckpt.watermarks.size(), 3u);
  EXPECT_EQ(load.ckpt.watermarks[0].contiguous, 2u);
  ASSERT_EQ(load.ckpt.watermarks[1].ahead.size(), 1u);
  EXPECT_EQ(*load.ckpt.watermarks[1].ahead.begin(), 5u);

  // Detector state, decoded into the dense rows and exported again:
  // identical maps, bit-identical doubles.
  EXPECT_EQ(got.standard, ckpt.detector.standard);
  EXPECT_EQ(got.rank_standard, ckpt.detector.rank_standard);
  ASSERT_EQ(got.cells.size(), ckpt.detector.cells.size());
  for (const auto& [key, cell] : ckpt.detector.cells) {
    const auto it = got.cells.find(key);
    ASSERT_NE(it, got.cells.end());
    EXPECT_EQ(it->second.weight_over_avg, cell.weight_over_avg);
    EXPECT_EQ(it->second.weight, cell.weight);
  }
  ASSERT_EQ(got.stats.size(), 2u);
  EXPECT_EQ(got.stats[0].mean, ckpt.detector.stats[0].mean);
  EXPECT_EQ(got.stats[0].m2, ckpt.detector.stats[0].m2);
  EXPECT_EQ(got.stale, ckpt.detector.stale);
  EXPECT_EQ(got.observed, ckpt.detector.observed);
  EXPECT_EQ(got.stale_records, ckpt.detector.stale_records);

  // The whole encoding is deterministic: same state, same bytes.
  EXPECT_EQ(encode_checkpoint(ckpt), encode_checkpoint(load.ckpt, got));

  // The check-only load accepts the same file and counts its section.
  const auto checked = load_checkpoint(path);
  ASSERT_TRUE(checked.ok) << checked.warning;
  EXPECT_EQ(checked.detector.standards, ckpt.detector.standard.size());
  EXPECT_EQ(checked.detector.rows, ckpt.detector.rank_standard.size());
  EXPECT_EQ(checked.detector.cells, ckpt.detector.cells.size());
  EXPECT_EQ(checked.detector.stale_ranks, ckpt.detector.stale.size());
  EXPECT_EQ(checked.detector.observed, ckpt.detector.observed);
}

TEST(Checkpoint, FuzzTruncationsAndBitFlipsFailClosed) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  ASSERT_GT(bytes.size(), 64u);
  // A failed base leaves the detector it would decode into untouched.
  StreamingDetector decoded(sample_cfg(), two_sensors(), 3, 10e-3);

  EXPECT_TRUE(parse_checkpoint(bytes).ok);
  // Every truncation must be rejected, never crash or misparse.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto load = parse_checkpoint(bytes.substr(0, cut));
    EXPECT_FALSE(load.ok) << "cut at " << cut;
    EXPECT_FALSE(parse_checkpoint(bytes.substr(0, cut), &decoded).ok);
  }
  // Every single-byte flip lands in the header, the framing, or the
  // CRC-protected payload — all must fail closed.
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x41);
    const auto load = parse_checkpoint(mutated);
    EXPECT_FALSE(load.ok) << "flip at byte " << i;
    EXPECT_FALSE(parse_checkpoint(mutated, &decoded).ok);
  }
  EXPECT_EQ(decoded.observed_records(), 0u);
  EXPECT_EQ(decoded.snapshot().standard.size(), 0u);
  // Bytes after the base start a delta frame; one that is torn is dropped
  // as a tail, and the base loads as it was written.
  const auto tail = parse_checkpoint(bytes + "x", &decoded);
  EXPECT_TRUE(tail.ok) << tail.warning;
  EXPECT_EQ(tail.deltas, 0u);
  EXPECT_EQ(tail.torn_bytes, 1u);
  EXPECT_FALSE(tail.warning.empty());
  EXPECT_TRUE(encode_checkpoint(tail.ckpt, decoded.snapshot()) == bytes);
}

TEST(Checkpoint, StructurallyMalformedPayloadFailsClosed) {
  // The bit-flip fuzz above never reaches the parser: the CRC rejects every
  // flip first. Here each structural field is damaged and the CRC
  // recomputed, so only the decoder's own checks stand in the way.
  ReferenceCheckpoint sample = sample_checkpoint();
  ASSERT_EQ(sample.buckets, 10u);
  // Slot (0, 0) gains a second row (rank 1) and its rank-0 row a second
  // cell, so there are repeats and orders to break.
  auto& d = sample.detector;
  d.rank_standard[{0, 0, 1}] = 4e-4;
  d.cells[{0, 0, 0, 5}] = StreamingDetector::CellSums{1.0 / 3e-4, 1.0};
  d.cells[{0, 0, 1, 6}] = StreamingDetector::CellSums{1.0 / 4e-4, 1.0};
  const std::string bytes = encode_checkpoint(sample);
  ASSERT_TRUE(parse_checkpoint(bytes).ok);

  // Field offsets, by the layout in checkpoint.hpp.
  const size_t crc_at = bytes.find('\n') + 1 + 4;
  const size_t payload = crc_at + 4;
  const auto u32_at = [&](size_t at) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
  };
  const auto u64_at = [&](size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
  };
  const size_t buckets_at = payload + 4 + 4 + 8;
  size_t at = buckets_at + 4 + 5 * 8;  // collector counters
  const uint64_t watermarks = u64_at(at);
  at += 8;
  for (uint64_t i = 0; i < watermarks; ++i) at += 16 + 8 * u64_at(at + 8);
  ASSERT_EQ(u64_at(at), 3u) << "slot count";
  const size_t slot0 = at + 8;       // i32 sensor | i32 group | f64 | u64 rows
  const size_t row0 = slot0 + 24;    // i32 rank | f64 | u32 cells
  const size_t cell00 = row0 + 16;   // u32 bucket | f64 | f64
  const size_t cell01 = cell00 + 20;
  const size_t row1 = cell01 + 20;
  const size_t slot1 = row1 + 16 + 20;
  const size_t slot2 = slot1 + 24 + 16 + 20;  // slot (1, 0): one row, one cell
  const size_t stats = slot2 + 24 + 16 + 20;
  const size_t last = stats + 8 + 2 * 24 + 8 + 2 * 8;
  const size_t stale = last + 8 + 3 * 32;
  ASSERT_EQ(u32_at(buckets_at), 10u);
  ASSERT_EQ(u64_at(slot0 + 16), 2u) << "rows of slot (0, 0)";
  ASSERT_EQ(u32_at(row0 + 12), 2u) << "cells of row 0";
  ASSERT_EQ(u32_at(cell00), 1u);
  ASSERT_EQ(u32_at(cell01), 5u);
  ASSERT_EQ(u32_at(row1), 1u) << "rank of row 1";
  ASSERT_EQ(u32_at(slot1 + 4), 1u) << "group of slot (0, 1)";
  ASSERT_EQ(u32_at(slot2), 1u) << "sensor of slot (1, 0)";
  ASSERT_EQ(u64_at(stats), 2u) << "stats count";
  ASSERT_EQ(u64_at(last), 3u) << "last slice count";
  ASSERT_EQ(u32_at(last + 8 + 2 * 32 + 4), 2u) << "rank of last slice (1, 2)";
  ASSERT_EQ(u64_at(stale), 1u) << "stale count";
  ASSERT_EQ(u32_at(stale + 8), 2u) << "stale rank";
  ASSERT_EQ(stale + 8 + 4 + 5 * 8, bytes.size());

  const auto with = [&](size_t field, auto value) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + field, &value, sizeof value);
    const uint32_t crc =
        crc32(mutated.data() + payload, mutated.size() - payload);
    std::memcpy(mutated.data() + crc_at, &crc, sizeof crc);
    return mutated;
  };
  const std::pair<const char*, std::string> cases[] = {
      {"bucket >= buckets", with(cell01, uint32_t{10})},
      {"repeated bucket", with(cell01, uint32_t{1})},
      {"ranks out of order", with(row0, int32_t{2})},
      {"slots out of order", with(slot0 + 4, int32_t{5})},
      {"row count past the end", with(slot0 + 16, uint64_t{1} << 40)},
      {"cell count past the end", with(row0 + 12, UINT32_MAX)},
      {"buckets = 0", with(buckets_at, uint32_t{0})},
      {"row rank >= ranks", with(row1, int32_t{3})},
      {"negative cell weight", with(cell00 + 12, -2.0)},
      {"rows of an unknown sensor", with(slot2, int32_t{2})},
      {"last slice rank >= ranks", with(last + 8 + 2 * 32 + 4, int32_t{3})},
      {"stale rank >= ranks", with(stale + 8, int32_t{3})},
      {"stats of another sensor table", with(stats, uint64_t{1})},
  };
  for (const auto& [what, mutated] : cases) {
    const auto load = parse_checkpoint(mutated);
    EXPECT_FALSE(load.ok) << what;
    EXPECT_NE(load.warning.find("payload malformed"), std::string::npos)
        << what << ": " << load.warning;
  }

  // buckets = 0 is malformed even with no cell to fall outside it.
  ReferenceCheckpoint cell_free;
  cell_free.buckets = 1;
  ASSERT_TRUE(parse_checkpoint(encode_checkpoint(cell_free)).ok);
  cell_free.buckets = 0;
  EXPECT_FALSE(parse_checkpoint(encode_checkpoint(cell_free)).ok);

  // A file of another format version fails closed and names its version.
  std::string v1 = bytes;
  v1[bytes.find('\n') - 1] = '1';
  const auto load = parse_checkpoint(v1);
  EXPECT_FALSE(load.ok);
  EXPECT_NE(load.warning.find("version 1"), std::string::npos) << load.warning;
  std::string v3 = bytes;
  v3[bytes.find('\n') - 1] = '3';
  const auto old_framing = parse_checkpoint(v3);
  EXPECT_FALSE(old_framing.ok);
  EXPECT_NE(old_framing.warning.find("version 3"), std::string::npos)
      << old_framing.warning;
}

TEST(Checkpoint, MissingFileLoadsAsRejected) {
  const auto load = load_checkpoint(tmp_path("no_such.ckpt"));
  EXPECT_FALSE(load.ok);
  EXPECT_FALSE(load.warning.empty());
}

// ------------------------------------------------- Recovery equivalence

/// One simulated delivery into the server.
struct Delivery {
  int rank;
  uint64_t seq;
  std::vector<SliceRecord> records;
  double now;
};

/// Deterministic Fig13/Fig14-style delivery stream: several ranks, two
/// sensors, occasional slow slices, dynamic-rule metric groups, rare
/// degenerate records, shuffled arrival order, and ~10% re-deliveries of
/// old (rank, seq) pairs — the transport-fault surface the server's
/// watermarks must absorb.
std::vector<Delivery> make_stream(uint64_t seed, int ranks, double T) {
  Rng rng(seed);
  std::vector<Delivery> stream;
  for (int rank = 0; rank < ranks; ++rank) {
    const int batches = 6 + static_cast<int>(rng.next_below(7));
    double t = 0.0;
    for (int b = 0; b < batches; ++b) {
      Delivery d;
      d.rank = rank;
      d.seq = static_cast<uint64_t>(b);
      const int n = 1 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < n; ++i) {
        t += T / (static_cast<double>(batches) * 4.0);
        const int sensor = static_cast<int>(rng.next_below(2));
        double avg = 1e-4 * (1.0 + 0.1 * static_cast<double>(rng.next_below(10)));
        if (rng.next_below(5) == 0) avg *= 2.5;  // a slow slice
        if (rng.next_below(23) == 0) avg = 0.0;  // degenerate measurement
        const double metric = rng.next_below(4) == 0 ? 0.9 : 0.1;
        d.records.push_back(make_record(sensor, rank, t, avg, metric));
      }
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
  }
  // Shuffle across ranks (Fisher–Yates with the deterministic rng), then
  // splice in duplicate re-deliveries of random earlier entries.
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }
  const size_t dups = stream.size() / 10 + 1;
  for (size_t i = 0; i < dups; ++i) {
    Delivery d = stream[rng.next_below(stream.size())];
    d.now = T;  // arrives late, after the original
    stream.push_back(std::move(d));
  }
  return stream;
}

struct ServerRig {
  Collector collector;
  StreamingDetector detector;
  AnalysisServer server;

  ServerRig(const std::string& tag, int ranks, double T,
            uint64_t checkpoint_every)
      : detector(make_cfg(), two_sensors(), ranks, T),
        server(make_server_cfg(tag, checkpoint_every), &collector, &detector) {
    collector.set_sensors(two_sensors());
    collector.attach_sink(&detector);
  }

  static DetectorConfig make_cfg() {
    DetectorConfig cfg;
    cfg.matrix_resolution = 1e-3;
    cfg.metric_bucket_width = 0.5;
    cfg.min_records = 1;
    return cfg;
  }

  static ServerConfig make_server_cfg(const std::string& tag,
                                      uint64_t checkpoint_every) {
    ServerConfig cfg;
    cfg.journal_path = tmp_path(tag + ".wal");
    cfg.checkpoint_path = tmp_path(tag + ".ckpt");
    cfg.checkpoint_every_batches = checkpoint_every;
    // No stale on-disk state from a previous test or seed.
    std::remove(cfg.checkpoint_path.c_str());
    return cfg;
  }
};

/// Bit-identical equality of two analysis results: exact double compares,
/// no tolerance anywhere.
void expect_bit_identical(const AnalysisResult& a, const AnalysisResult& b) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& ma = a.matrices[static_cast<size_t>(t)];
    const auto& mb = b.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(ma.ranks(), mb.ranks());
    ASSERT_EQ(ma.buckets(), mb.buckets());
    for (int r = 0; r < ma.ranks(); ++r) {
      for (int c = 0; c < ma.buckets(); ++c) {
        ASSERT_EQ(ma.has(r, c), mb.has(r, c)) << "cell " << r << "," << c;
        if (ma.has(r, c)) {
          ASSERT_EQ(ma.at(r, c), mb.at(r, c)) << "cell " << r << "," << c;
        }
      }
    }
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].type, b.events[i].type) << i;
    EXPECT_EQ(a.events[i].rank_begin, b.events[i].rank_begin) << i;
    EXPECT_EQ(a.events[i].rank_end, b.events[i].rank_end) << i;
    EXPECT_EQ(a.events[i].cells, b.events[i].cells) << i;
    EXPECT_EQ(a.events[i].t_begin, b.events[i].t_begin) << i;
    EXPECT_EQ(a.events[i].t_end, b.events[i].t_end) << i;
    EXPECT_EQ(a.events[i].severity, b.events[i].severity) << i;
  }
  EXPECT_EQ(a.stale_ranks, b.stale_ranks);
}

/// Near-equality for cross-run comparisons of threaded workload runs: the
/// set of folded records is identical, but delayed-batch release order
/// depends on cross-thread arrival interleaving, so cell sums can differ
/// between two runs at ULP scale.
void expect_equivalent(const AnalysisResult& a, const AnalysisResult& b) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& ma = a.matrices[static_cast<size_t>(t)];
    const auto& mb = b.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(ma.ranks(), mb.ranks());
    ASSERT_EQ(ma.buckets(), mb.buckets());
    for (int r = 0; r < ma.ranks(); ++r) {
      for (int c = 0; c < ma.buckets(); ++c) {
        ASSERT_EQ(ma.has(r, c), mb.has(r, c)) << "cell " << r << "," << c;
        if (ma.has(r, c)) {
          ASSERT_NEAR(ma.at(r, c), mb.at(r, c), 1e-9)
              << "cell " << r << "," << c;
        }
      }
    }
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].type, b.events[i].type) << i;
    EXPECT_EQ(a.events[i].rank_begin, b.events[i].rank_begin) << i;
    EXPECT_EQ(a.events[i].rank_end, b.events[i].rank_end) << i;
    EXPECT_EQ(a.events[i].cells, b.events[i].cells) << i;
    EXPECT_NEAR(a.events[i].severity, b.events[i].severity, 1e-9) << i;
  }
  EXPECT_EQ(a.stale_ranks, b.stale_ranks);
}

TEST(RecoveryEquivalence, CrashedRunIsBitIdenticalAcrossRandomSeeds) {
  constexpr int kSeeds = 30;
  uint64_t total_skipped = 0;
  uint64_t total_crashes = 0;
  uint64_t total_torn = 0;

  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0xC0FFEE + static_cast<uint64_t>(seed));
    const int ranks = 2 + static_cast<int>(rng.next_below(3));
    const double T = 10e-3;
    const auto stream = make_stream(static_cast<uint64_t>(seed), ranks, T);

    ServerRig uninterrupted("uninterrupted", ranks, T, /*checkpoint_every=*/4);
    ServerRig crashed("crashed", ranks, T, /*checkpoint_every=*/4);

    // 1–3 crash points in the delivery window; crash/restart is a pure
    // function of the seed.
    std::vector<double> crash_times;
    const size_t n_crashes = 1 + rng.next_below(3);
    for (size_t i = 0; i < n_crashes; ++i) {
      crash_times.push_back(T * 0.2 +
                            T * 0.6 * static_cast<double>(rng.next_below(100)) /
                                100.0);
    }
    crashed.server.set_crash_plan(crash_times, 0xBAD5EED + seed);

    // Same deliveries, same order, single-threaded: the fold order is the
    // deterministic quantity the journal must reproduce.
    const size_t stale_at = stream.size() / 2;
    for (size_t i = 0; i < stream.size(); ++i) {
      if (i == stale_at) {
        // One rank goes stale mid-run, in both worlds; the journal must
        // carry the exclusion across crashes.
        uninterrupted.server.mark_stale(ranks - 1);
        crashed.server.mark_stale(ranks - 1);
      }
      const auto& d = stream[i];
      uninterrupted.server.on_delivery(d.rank, d.seq, d.records, d.now);
      crashed.server.on_delivery(d.rank, d.seq, d.records, d.now);
    }

    EXPECT_GE(crashed.server.crashes(), 1u);
    EXPECT_EQ(uninterrupted.server.crashes(), 0u);
    total_crashes += crashed.server.crashes();

    // Headline invariant: bit-identical analysis output.
    expect_bit_identical(uninterrupted.detector.finalize(),
                         crashed.detector.finalize());

    // Flag counters and Welford statistics are fold-order dependent; the
    // replayed order must reproduce them exactly too.
    EXPECT_EQ(uninterrupted.detector.inter_flags(),
              crashed.detector.inter_flags());
    EXPECT_EQ(uninterrupted.detector.intra_flags(),
              crashed.detector.intra_flags());
    EXPECT_EQ(uninterrupted.detector.observed_records(),
              crashed.detector.observed_records());
    EXPECT_EQ(uninterrupted.detector.stale_records(),
              crashed.detector.stale_records());
    EXPECT_EQ(uninterrupted.detector.degenerate_records(),
              crashed.detector.degenerate_records());
    for (int s = 0; s < 2; ++s) {
      const auto su = uninterrupted.detector.sensor_stats(s);
      const auto sc = crashed.detector.sensor_stats(s);
      EXPECT_EQ(su.count, sc.count) << "sensor " << s;
      EXPECT_EQ(su.mean, sc.mean) << "sensor " << s;
      EXPECT_EQ(su.m2, sc.m2) << "sensor " << s;
    }

    // No double counting anywhere: the crashed server's collector
    // accounting equals the uninterrupted one's — restored checkpoint
    // counters plus replayed and live batches add up exactly once.
    const auto cu = uninterrupted.collector.counters();
    const auto cc = crashed.collector.counters();
    EXPECT_EQ(cu.ingested, cc.ingested);
    EXPECT_EQ(cu.batches, cc.batches);
    EXPECT_EQ(cu.bytes, cc.bytes);

    // The injected duplicates were absorbed identically, through the live
    // watermarks in one world and the recovered watermarks in the other.
    EXPECT_GT(uninterrupted.server.duplicate_deliveries(), 0u);
    EXPECT_EQ(uninterrupted.server.duplicate_deliveries(),
              crashed.server.duplicate_deliveries());

    for (const auto& rep : crashed.server.recoveries()) {
      total_skipped += rep.frames_skipped;
      total_torn += rep.torn_bytes;
      EXPECT_TRUE(rep.checkpoint_loaded || !rep.checkpoint_warning.empty());
    }
  }

  EXPECT_GE(total_crashes, static_cast<uint64_t>(kSeeds));
  // Watermark dedup did real work: checkpointed frames showed up in the
  // journal again and were skipped, not double-counted.
  EXPECT_GT(total_skipped, 0u);
  // Every crash appends a torn frame; salvage saw and dropped them.
  EXPECT_GT(total_torn, 0u);
}

TEST(RecoveryEquivalence, RecoversFromJournalAloneWhenCheckpointCorrupt) {
  const int ranks = 2;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/99, ranks, T);

  ServerRig uninterrupted("nockpt_u", ranks, T, /*checkpoint_every=*/0);
  ServerRig crashed("nockpt_c", ranks, T, /*checkpoint_every=*/0);
  crashed.server.set_crash_plan({T * 0.5}, 0x7007);

  for (const auto& d : stream) {
    uninterrupted.server.on_delivery(d.rank, d.seq, d.records, d.now);
    // Corrupt whatever checkpoint exists right before each delivery: the
    // crash must fall back to full journal replay.
    write_file(crashed.server.config().checkpoint_path, "garbage");
    crashed.server.on_delivery(d.rank, d.seq, d.records, d.now);
  }
  ASSERT_GE(crashed.server.crashes(), 1u);
  ASSERT_FALSE(crashed.server.recoveries().empty());
  EXPECT_FALSE(crashed.server.recoveries()[0].checkpoint_loaded);

  expect_bit_identical(uninterrupted.detector.finalize(),
                       crashed.detector.finalize());
  EXPECT_EQ(uninterrupted.detector.inter_flags(),
            crashed.detector.inter_flags());
  EXPECT_EQ(uninterrupted.collector.counters().ingested,
            crashed.collector.counters().ingested);
}

TEST(RecoveryEquivalence, WorkloadRunWithTransportFaultsAndCrashes) {
  // Fig 14 scenario at test scale, with the full fault surface on: drops,
  // duplicates, reordering, one killed rank, and two server crashes. The
  // crashed run's streaming analysis must match the uninterrupted one's.
  const auto cg = workloads::make_workload("CG");
  workloads::RunOptions opts;
  opts.params.iterations = 6;
  opts.params.scale = 0.12;

  // Probe run fixes the analysis horizon (batch-path convention).
  Collector probe;
  const auto probe_run = workloads::run_workload(
      *cg, workloads::baseline_config(8), opts, &probe);
  const double horizon = probe_run.makespan;
  ASSERT_GT(horizon, 0.0);

  auto run_one = [&](const std::string& tag,
                     std::vector<double> crash_times) {
    simmpi::FaultConfig fc;
    fc.drop_prob = 0.05;
    fc.duplicate_prob = 0.05;
    fc.delay_prob = 0.10;
    fc.kill_rank = 2;
    fc.kill_time = horizon * 0.6;
    fc.seed = 0xFA17;
    fc.server_crash_times = std::move(crash_times);

    auto cluster = workloads::baseline_config(8);
    cluster.transport_faults = std::make_shared<simmpi::FaultInjector>(fc);

    struct Result {
      AnalysisResult analysis;
      uint64_t ingested = 0;
      uint64_t crashes = 0;
      uint64_t duplicates = 0;
    };

    DetectorConfig dcfg;
    dcfg.matrix_resolution = horizon / 40.0;
    Collector collector;
    StreamingDetector detector(dcfg, cg->sensors(), 8, horizon);
    collector.attach_sink(&detector);
    AnalysisServer server(
        ServerRig::make_server_cfg("workload_" + tag, /*checkpoint_every=*/32),
        &collector, &detector);

    workloads::run_workload(*cg, cluster, opts, &server);

    return Result{detector.finalize(), collector.counters().ingested,
                  server.crashes(), server.duplicate_deliveries()};
  };

  const auto smooth = run_one("smooth", {});
  const auto crashed = run_one("crashed", {horizon * 0.3, horizon * 0.7});

  EXPECT_EQ(smooth.crashes, 0u);
  EXPECT_GE(crashed.crashes, 1u);
  // Transport dedup upstream means the server never sees a duplicate.
  EXPECT_EQ(smooth.duplicates, 0u);
  EXPECT_EQ(crashed.duplicates, 0u);
  // The unique delivered set is a pure function of the fault seed, so the
  // two runs ingested exactly the same records.
  EXPECT_EQ(smooth.ingested, crashed.ingested);
  ASSERT_GT(smooth.ingested, 0u);

  // The folded record set is a pure function of the fault seed, so both
  // runs produce the same analysis; cell sums can wobble at ULP scale
  // because delayed-batch release order follows the cross-thread arrival
  // interleaving, which differs between any two runs (crash or not). The
  // bit-identical invariant is pinned by the single-threaded property
  // tests above, where fold order is controlled.
  expect_equivalent(smooth.analysis, crashed.analysis);
}

/// Every field of a snapshot, bit for bit, as checkpoint bytes.
std::string snapshot_bytes(const StreamingDetector::Snapshot& snap) {
  return encode_checkpoint(ServerCheckpoint{}, snap);
}

TEST(RecoveryEquivalence, FreshServerRecoversPredecessorFiles) {
  const int ranks = 3;
  const double T = 10e-3;
  const uint64_t every = 4;
  const auto stream = make_stream(/*seed=*/7, ranks, T);

  // Server A delivers past its last periodic checkpoint, then its process
  // ends: only the journal and checkpoint files remain.
  ServerConfig cfg;
  std::string want;
  Collector::Counters want_counters;
  {
    ServerRig a("predecessor", ranks, T, every);
    cfg = a.server.config();
    for (size_t i = 0; i < stream.size(); ++i) {
      if (i == stream.size() / 2) a.server.mark_stale(ranks - 1);
      const auto& d = stream[i];
      a.server.on_delivery(d.rank, d.seq, d.records, d.now);
    }
    ASSERT_NE(a.server.delivered_batches() % every, 0u)
        << "the stream must leave journal frames past the last checkpoint";
    want = snapshot_bytes(a.detector.snapshot());
    want_counters = a.collector.counters();
  }

  // Server B is a new process over the same paths.
  Collector collector;
  collector.set_sensors(two_sensors());
  StreamingDetector detector(ServerRig::make_cfg(), two_sensors(), ranks, T);
  collector.attach_sink(&detector);
  AnalysisServer b(cfg, &collector, &detector);
  const auto report = b.recover();
  EXPECT_TRUE(report.checkpoint_loaded) << report.checkpoint_warning;
  EXPECT_GT(report.frames_replayed, 0u);
  EXPECT_TRUE(snapshot_bytes(detector.snapshot()) == want)
      << "recovered state differs from the predecessor's";
  EXPECT_EQ(collector.counters().ingested, want_counters.ingested);
  EXPECT_EQ(collector.counters().batches, want_counters.batches);
}

TEST(RecoveryEquivalence, CheckpointFromOtherResolutionIsIgnored) {
  // A checkpoint taken at 1 ms buckets fits a 0.5 ms detector cell for
  // cell (every bucket index is in range), but its cells hold the wrong
  // time spans. Recovery must refuse it and replay the journal instead.
  const int ranks = 3;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/5, ranks, T);
  ServerConfig cfg;
  {
    ServerRig coarse("other_resolution", ranks, T, /*checkpoint_every=*/0);
    cfg = coarse.server.config();
    for (const auto& d : stream) {
      coarse.server.on_delivery(d.rank, d.seq, d.records, d.now);
    }
    coarse.server.checkpoint();
  }
  ASSERT_TRUE(load_checkpoint(cfg.checkpoint_path).ok);

  DetectorConfig fine = ServerRig::make_cfg();
  fine.matrix_resolution = 0.5e-3;
  Collector collector;
  collector.set_sensors(two_sensors());
  StreamingDetector detector(fine, two_sensors(), ranks, T);
  collector.attach_sink(&detector);
  AnalysisServer recovered(cfg, &collector, &detector);
  const auto report = recovered.recover();
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_NE(report.checkpoint_warning.find("shape"), std::string::npos)
      << report.checkpoint_warning;
  EXPECT_GT(report.frames_replayed, 0u);

  Collector fresh_collector;
  fresh_collector.set_sensors(two_sensors());
  StreamingDetector fresh(fine, two_sensors(), ranks, T);
  fresh_collector.attach_sink(&fresh);
  AnalysisServer fresh_server(
      ServerRig::make_server_cfg("other_resolution_fresh", 0),
      &fresh_collector, &fresh);
  for (const auto& d : stream) {
    fresh_server.on_delivery(d.rank, d.seq, d.records, d.now);
  }
  EXPECT_TRUE(snapshot_bytes(detector.snapshot()) ==
              snapshot_bytes(fresh.snapshot()))
      << "recovered state differs from a fresh fold at 0.5 ms";
  expect_bit_identical(detector.finalize(), fresh.finalize());
}

TEST(RecoveryEquivalence, RevivalSurvivesRecovery) {
  // Rank 1 folds, goes stale, sends a straggler, rejoins and folds again
  // under its next generation. The journal holds the StaleRank and
  // RankRejoin frames in that order, so a journal-only recovery must end
  // with the rank live and the straggler still excluded.
  const int ranks = 2;
  const double T = 10e-3;
  const std::vector<SliceRecord> first{make_record(0, 1, 1e-3, 1e-4)};
  // Faster than anything that folds: it would set the standard if the
  // stale exclusion let it through.
  const std::vector<SliceRecord> straggler{make_record(0, 1, 2e-3, 3e-5)};
  const std::vector<SliceRecord> fresh{make_record(0, 1, 4e-3, 5e-5)};
  const auto feed = [&](auto& sink) {
    sink.on_delivery(1, 0, first, 2e-3);
    sink.mark_stale(1);
    sink.on_delivery(1, 1, straggler, 3e-3);
    sink.mark_live(1);
    sink.on_delivery(1, seq_make(1, 0), fresh, 5e-3);
  };

  ServerRig rig("revival", ranks, T, /*checkpoint_every=*/0);
  feed(rig.server);
  EXPECT_EQ(rig.detector.stale_records(), 1u);
  EXPECT_EQ(rig.detector.standard_time(0, 0.0F), 5e-5);
  const std::string want = snapshot_bytes(rig.detector.snapshot());
  rig.server.crash();
  const auto report = rig.server.recover();
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.frames_replayed, 5u);
  EXPECT_TRUE(snapshot_bytes(rig.detector.snapshot()) == want)
      << "recovered state differs from the pre-crash state";
  EXPECT_TRUE(rig.detector.stale_ranks().empty());

  ShardedTierConfig tcfg;
  tcfg.shards = 2;
  tcfg.journal_path = tmp_path("revival_tier.wal");
  tcfg.checkpoint_path = tmp_path("revival_tier.ckpt");
  tcfg.detector = ServerRig::make_cfg();
  for (int k = 0; k < tcfg.shards; ++k) {
    std::remove((tcfg.checkpoint_path + ".shard" + std::to_string(k)).c_str());
  }
  ShardedAnalysisTier tier(tcfg, two_sensors(), ranks, T);
  feed(tier);
  AnalysisServer& owner = tier.server(tier.shard_of(1));
  owner.crash();
  owner.recover();
  const auto merged = tier.merged_snapshot();
  EXPECT_TRUE(merged.stale.empty());
  EXPECT_EQ(merged.stale_records, 1u);
  EXPECT_EQ(merged.observed, 3u);
}

TEST(RecoveryEquivalence, OutOfShapeDeliveryThrowsBeforeJournaling) {
  const int ranks = 2;
  ServerRig rig("out_of_shape", ranks, 10e-3, /*checkpoint_every=*/0);
  const std::vector<SliceRecord> good{make_record(0, 0, 0.0, 1e-4)};
  rig.server.on_delivery(0, 0, good, 1e-3);
  const std::string journal = read_file(rig.server.config().journal_path);
  ASSERT_FALSE(journal.empty());

  const std::vector<SliceRecord> rank2{make_record(0, 2, 0.0, 1e-5)};
  const std::vector<SliceRecord> sensor9{make_record(9, 1, 0.0, 1e-5)};
  EXPECT_THROW(rig.server.on_delivery(ranks, 0, good, 2e-3), Error);
  EXPECT_THROW(rig.server.on_delivery(-1, 0, good, 2e-3), Error);
  EXPECT_THROW(rig.server.on_delivery(1, 0, rank2, 2e-3), Error);
  EXPECT_THROW(rig.server.on_delivery(1, 0, sensor9, 2e-3), Error);
  EXPECT_THROW(rig.server.mark_stale(ranks), Error);
  EXPECT_THROW(rig.server.mark_live(-1), Error);

  EXPECT_TRUE(read_file(rig.server.config().journal_path) == journal)
      << "a rejected call reached the journal";
  EXPECT_EQ(rig.server.journal()->appended_frames(), 1u);
  EXPECT_EQ(rig.server.delivered_batches(), 1u);
  EXPECT_EQ(rig.detector.observed_records(), 1u);
  EXPECT_EQ(rig.detector.standard_time(0, 0.0F), 1e-4);
}

// ------------------------------------ Records live only in the journal

/// Fold the unique (rank, seq) deliveries of `stream` into `plain`, in
/// order — what a server folds once its watermarks refuse the
/// re-deliveries — and return their record count.
uint64_t fold_unique(const std::vector<Delivery>& stream,
                     StreamingDetector& plain) {
  std::set<std::pair<int, uint64_t>> seen;
  uint64_t records = 0;
  for (const auto& d : stream) {
    if (!seen.insert({d.rank, d.seq}).second) continue;
    plain.on_batch(d.records);
    records += d.records.size();
  }
  return records;
}

TEST(RecordRetention, ServerKeepsRecordsOnlyInItsJournal) {
  // Through deliveries, a crash, recovery and more deliveries, a server's
  // collector stores no record, yet accounts every one exactly as an
  // uninterrupted server does, and the fold matches a plain one.
  const int ranks = 3;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/7, ranks, T);
  ServerRig uninterrupted("retain_u", ranks, T, /*checkpoint_every=*/4);
  ServerRig crashed("retain_c", ranks, T, /*checkpoint_every=*/4);
  const size_t crash_at = stream.size() / 2 + 1;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == crash_at) {
      crashed.server.crash();
      crashed.server.recover();
    }
    const auto& d = stream[i];
    uninterrupted.server.on_delivery(d.rank, d.seq, d.records, d.now);
    crashed.server.on_delivery(d.rank, d.seq, d.records, d.now);
  }
  ASSERT_EQ(crashed.server.recoveries().size(), 1u);
  const auto& report = crashed.server.recoveries().front();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_GT(report.records_replayed, 0u);

  StreamingDetector plain(ServerRig::make_cfg(), two_sensors(), ranks, T);
  const uint64_t records = fold_unique(stream, plain);
  for (const ServerRig* rig : {&uninterrupted, &crashed}) {
    EXPECT_EQ(rig->collector.record_count(), 0u);
    EXPECT_TRUE(rig->collector.records().empty());
    EXPECT_EQ(rig->collector.ingested_records(), records);
  }
  // Counters stay continuous across the crash: the restored checkpoint
  // plus the replayed and later batches add up to the uninterrupted ones.
  const auto cu = uninterrupted.collector.counters();
  const auto cc = crashed.collector.counters();
  EXPECT_EQ(cu.ingested, cc.ingested);
  EXPECT_EQ(cu.dropped, cc.dropped);
  EXPECT_EQ(cu.taken, cc.taken);
  EXPECT_EQ(cu.bytes, cc.bytes);
  EXPECT_EQ(cu.batches, cc.batches);
  expect_bit_identical(plain.finalize(), uninterrupted.detector.finalize());
  expect_bit_identical(plain.finalize(), crashed.detector.finalize());
}

TEST(RecordRetention, TierShardsKeepRecordsOnlyInTheirJournals) {
  const int ranks = 4;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/11, ranks, T);
  ShardedTierConfig cfg;
  cfg.shards = 2;
  cfg.journal_path = tmp_path("retain_tier.wal");
  cfg.checkpoint_path = tmp_path("retain_tier.ckpt");
  cfg.checkpoint_every_batches = 4;
  cfg.detector = ServerRig::make_cfg();
  for (int k = 0; k < cfg.shards; ++k) {
    std::remove((cfg.checkpoint_path + ".shard" + std::to_string(k)).c_str());
  }
  ShardedAnalysisTier tier(cfg, two_sensors(), ranks, T);
  tier.set_crash_plan(0, {T * 0.5}, 0x5EED);

  uint64_t routed = 0;
  for (const auto& d : stream) {
    tier.on_delivery(d.rank, d.seq, d.records, d.now);
    routed += d.records.size();
  }
  EXPECT_EQ(tier.server(0).crashes(), 1u);
  EXPECT_EQ(tier.total_routed_records(), routed);
  StreamingDetector plain(ServerRig::make_cfg(), two_sensors(), ranks, T);
  uint64_t ingested = 0;
  for (int k = 0; k < tier.shard_count(); ++k) {
    EXPECT_EQ(tier.collector(k).record_count(), 0u) << "shard " << k;
    ingested += tier.collector(k).ingested_records();
  }
  EXPECT_EQ(ingested, fold_unique(stream, plain));
  expect_bit_identical(plain.finalize(), tier.finalize());
}

TEST(RecordRetention, DegradedServerCountsEachDroppedFrameAtItsEncodedSize) {
  // Every storage op fails, so the server degrades at its first append and
  // drops every frame after it: the drop count must equal the encoded
  // size of every frame, of every kind, that it did not journal.
  io::FaultFsConfig fc;
  fc.deny_ops.push_back({0, UINT64_MAX});
  io::FaultFs faults(fc);
  const int ranks = 3;
  const double T = 10e-3;
  ServerConfig scfg = ServerRig::make_server_cfg("degraded_bytes", 4);
  scfg.vfs = &faults;
  scfg.io_retry_attempts = 1;
  scfg.rearm_every_appends = 0;
  Collector collector;
  collector.set_sensors(two_sensors());
  StreamingDetector detector(ServerRig::make_cfg(), two_sensors(), ranks, T);
  collector.attach_sink(&detector);
  AnalysisServer server(scfg, &collector, &detector);

  uint64_t want = 0;
  for (const auto& d : make_stream(/*seed=*/5, ranks, T)) {
    server.on_delivery(d.rank, d.seq, d.records, d.now);
    want += encode_journal_frame(
                JournalFrame{JournalFrameKind::Batch, d.rank, d.seq, d.records})
                .size();
  }
  server.mark_stale(1);
  want += encode_journal_frame(
              JournalFrame{JournalFrameKind::StaleRank, 1, 0, {}})
              .size();
  server.mark_live(1);
  want += encode_journal_frame(
              JournalFrame{JournalFrameKind::RankRejoin, 1, 0, {}})
              .size();
  server.apply_standard(0, 0, 5e-5);
  want += encode_journal_frame(make_standard_frame(0, 0, 5e-5)).size();

  EXPECT_TRUE(server.degraded());
  EXPECT_EQ(server.degraded_entries(), 1u);
  EXPECT_EQ(server.dropped_journal_bytes(), want);
  for (const size_t n : {0u, 1u, 64u}) {
    JournalFrame frame{JournalFrameKind::Batch, 0, 0, {}};
    frame.records.resize(n);
    EXPECT_EQ(journal_frame_bytes(n), encode_journal_frame(frame).size());
  }
}

TEST(RecordRetention, AppendSizeGaugesReadTheirPercentiles) {
  // 90 one-record and 10 64-record deliveries: frames of 81 and 3,609
  // bytes. p50 is a one-record frame and p99 a 64-record one, each within
  // the histogram's bucket resolution (a factor of 2).
  const double T = 10e-3;
  ServerRig rig("append_gauges", /*ranks=*/1, T, /*checkpoint_every=*/0);
  const uint64_t small = journal_frame_bytes(1);
  const uint64_t large = journal_frame_bytes(64);
  ASSERT_EQ(small, 81u);
  ASSERT_EQ(large, 3609u);
  for (uint64_t seq = 0; seq < 100; ++seq) {
    const double t = static_cast<double>(seq) * 1e-5;
    const std::vector<SliceRecord> batch(seq % 10 == 9 ? 64 : 1,
                                         make_record(0, 0, t, 1e-4));
    rig.server.on_delivery(0, seq, batch, t);
  }
  obs::HealthRecorder rec;
  rig.server.sample_health(T, rec);
  const double p50 = rec.gauges().at("journal.append_bytes_p50");
  const double p99 = rec.gauges().at("journal.append_bytes_p99");
  EXPECT_GE(p50, static_cast<double>(small) / 2.0);
  EXPECT_LE(p50, static_cast<double>(small) * 2.0);
  EXPECT_GE(p99, static_cast<double>(large) / 2.0);
  EXPECT_LE(p99, static_cast<double>(large) * 2.0);
}

/// Per-rank batches of 4, dealt round-robin in time order: a deterministic
/// delivery stream from one workload run.
std::vector<Delivery> deal_batches(std::vector<SliceRecord> records, int ranks) {
  std::stable_sort(records.begin(), records.end(),
                   [](const SliceRecord& a, const SliceRecord& b) {
                     return a.t_begin < b.t_begin;
                   });
  std::vector<std::vector<SliceRecord>> by_rank(static_cast<size_t>(ranks));
  for (const auto& r : records) by_rank[static_cast<size_t>(r.rank)].push_back(r);
  std::vector<Delivery> stream;
  for (size_t at = 0;; at += 4) {
    bool any = false;
    for (int rank = 0; rank < ranks; ++rank) {
      const auto& src = by_rank[static_cast<size_t>(rank)];
      if (at >= src.size()) continue;
      any = true;
      const auto end = std::min(src.size(), at + 4);
      Delivery d{rank, at / 4, {src.begin() + static_cast<long>(at),
                                src.begin() + static_cast<long>(end)}, 0.0};
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
    if (!any) break;
  }
  return stream;
}

TEST(Checkpoint, LiveEncoderMatchesReferenceEncoder) {
  const int ranks = 8;
  workloads::RunOptions opts;
  opts.params.iterations = 4;
  opts.params.scale = 0.05;
  opts.runtime.batch_records = 8;
  auto apps = workloads::make_all_workloads();
  apps.push_back(workloads::make_workload("CAPACITY"));

  for (const auto& app : apps) {
    SCOPED_TRACE(app->name());
    Collector collected;
    const auto run = workloads::run_workload(
        *app, workloads::baseline_config(ranks), opts, &collected);
    const auto stream = deal_batches(collected.records(), ranks);
    ASSERT_FALSE(stream.empty());

    DetectorConfig dcfg;
    dcfg.matrix_resolution = run.makespan / 20.0;
    dcfg.metric_bucket_width = 0.1;  // grouping on
    dcfg.min_records = 1;
    Collector collector;
    collector.set_sensors(app->sensors());
    StreamingDetector detector(dcfg, app->sensors(), ranks, run.makespan);
    collector.attach_sink(&detector);
    auto cfg = ServerRig::make_server_cfg("live_" + app->name(), 16);
    AnalysisServer server(cfg, &collector, &detector);
    server.set_crash_plan({stream[stream.size() / 2].now}, 0x11FE);

    std::vector<SeqTracker> watermarks(static_cast<size_t>(ranks));
    for (size_t i = 0; i < stream.size(); ++i) {
      if (i == stream.size() * 3 / 4) server.mark_stale(ranks - 1);
      const auto& d = stream[i];
      server.on_delivery(d.rank, d.seq, d.records, d.now);
      watermarks[static_cast<size_t>(d.rank)].insert(d.seq);
    }
    // A peer's standard on a key no record of this run touched.
    server.apply_standard(0, 1000, 1e-3);
    ASSERT_EQ(server.crashes(), 1u);

    const auto reference = [&] {
      ReferenceCheckpoint ckpt;
      ckpt.sensor_count = static_cast<uint32_t>(app->sensors().size());
      ckpt.ranks = ranks;
      ckpt.run_time = run.makespan;
      ckpt.buckets = static_cast<uint32_t>(detector.buckets());
      ckpt.collector = collector.counters();
      ckpt.watermarks = watermarks;
      ckpt.detector = detector.snapshot();
      return encode_checkpoint(ckpt);
    };
    server.checkpoint();
    const std::string written = read_file(cfg.checkpoint_path);
    EXPECT_TRUE(written == reference())
        << "live checkpoint differs from encode_checkpoint of snapshot()";

    // The checkpoint a recovery writes, from restored state.
    server.crash();
    server.recover();
    EXPECT_TRUE(read_file(cfg.checkpoint_path) == written)
        << "recovery checkpoint differs from the pre-crash checkpoint";

    // Decoding the checkpoint into a fresh detector round-trips bit for
    // bit.
    const auto snap = detector.snapshot();
    StreamingDetector restored(dcfg, app->sensors(), ranks, run.makespan);
    ASSERT_TRUE(parse_checkpoint(written, &restored).ok);
    EXPECT_TRUE(snapshot_bytes(restored.snapshot()) == snapshot_bytes(snap))
        << "decoding the checkpoint does not round-trip";
  }
}

// ---------------------------------------------------- Delta checkpoints

/// The reference encoding of a server's live state: what its checkpoint
/// file must decode to right after it wrote one.
std::string reference_checkpoint(const StreamingDetector& detector,
                                 const Collector& collector,
                                 const std::vector<SeqTracker>& watermarks) {
  ReferenceCheckpoint ckpt;
  ckpt.sensor_count = static_cast<uint32_t>(detector.sensor_count());
  ckpt.ranks = detector.ranks();
  ckpt.run_time = detector.run_time();
  ckpt.buckets = static_cast<uint32_t>(detector.buckets());
  ckpt.collector = collector.counters();
  ckpt.watermarks = watermarks;
  ckpt.detector = detector.snapshot();
  return encode_checkpoint(ckpt);
}

/// Whether `server` wrote a checkpoint since `*saved` checkpoints and has
/// folded no delivery after it, so its file holds the live state. Updates
/// `*saved`.
bool wrote_current_checkpoint(const AnalysisServer& server, double* saved) {
  obs::HealthRecorder rec;
  server.sample_health(0.0, rec);
  const double now = rec.gauges().at("checkpoints_saved");
  const bool wrote = now > *saved;
  *saved = now;
  return wrote && rec.gauges().at("batches_since_checkpoint") == 0.0;
}

/// Start offsets of a checkpoint file's frames by the documented layout (a
/// header line, then u32 payload_len | u32 crc32 | payload per frame),
/// ending with the offset after the last whole frame header's payload.
std::vector<size_t> frame_offsets(const std::string& bytes) {
  std::vector<size_t> at{bytes.find('\n') + 1};
  while (at.back() + 8 <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at.back(), sizeof len);
    at.push_back(at.back() + 8 + len);
  }
  return at;
}

/// Offsets of fields in the frame whose payload starts at `payload`, by the
/// documented layout: its bucket count, the rank of the last row of the
/// first slot that has rows, the frame's first cell, and the rank of its
/// last last-slice entry. 0 where the frame has none.
struct FrameFields {
  size_t buckets = 0;
  size_t last_row_rank = 0;
  size_t first_cell = 0;
  size_t last_slice_rank = 0;
};
FrameFields frame_fields(const std::string& bytes, size_t payload) {
  const auto u32_at = [&](size_t where) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + where, sizeof v);
    return v;
  };
  const auto u64_at = [&](size_t where) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + where, sizeof v);
    return v;
  };
  FrameFields f;
  f.buckets = payload + 4 + 4 + 8;
  size_t pos = f.buckets + 4 + 5 * 8;  // collector counters
  const uint64_t watermarks = u64_at(pos);
  pos += 8;
  for (uint64_t i = 0; i < watermarks; ++i) pos += 16 + 8 * u64_at(pos + 8);
  const uint64_t slots = u64_at(pos);
  pos += 8;
  for (uint64_t i = 0; i < slots; ++i) {
    const uint64_t rows = u64_at(pos + 16);
    pos += 24;
    for (uint64_t j = 0; j < rows; ++j) {
      const uint32_t cells = u32_at(pos + 12);
      if (j + 1 == rows && f.last_row_rank == 0) f.last_row_rank = pos;
      pos += 16;
      if (cells > 0 && f.first_cell == 0) f.first_cell = pos;
      pos += 20 * cells;
    }
  }
  const uint64_t sensors = u64_at(pos);
  pos += 8 + 24 * sensors + 8 + 8 * sensors;
  const uint64_t last = u64_at(pos);
  if (last > 0) f.last_slice_rank = pos + 8 + 32 * (last - 1) + 4;
  return f;
}

/// `bytes` with `value` written at `field`, inside the frame that starts
/// at `frame`, and that frame's CRC recomputed, so only the decoder's own
/// checks stand in the way. The frame runs to the end of `bytes`.
template <typename T>
std::string reframe(const std::string& bytes, size_t frame, size_t field,
                    T value) {
  std::string mutated = bytes;
  std::memcpy(mutated.data() + field, &value, sizeof value);
  const size_t payload = frame + 8;
  const uint32_t crc =
      crc32(mutated.data() + payload, mutated.size() - payload);
  std::memcpy(mutated.data() + frame + 4, &crc, sizeof crc);
  return mutated;
}

TEST(Checkpoint, DeltaChainMatchesReferenceEncoder) {
  // LiveEncoderMatchesReferenceEncoder's runs at cadence 4, with the peer
  // standard, stale mark and revival mid-run: after every delivery that
  // wrote a checkpoint, the file's base and the deltas after it must
  // decode to the live state.
  const int ranks = 8;
  workloads::RunOptions opts;
  opts.params.iterations = 4;
  opts.params.scale = 0.05;
  opts.runtime.batch_records = 8;
  auto apps = workloads::make_all_workloads();
  apps.push_back(workloads::make_workload("CAPACITY"));

  uint64_t longest_chain = 0;
  uint64_t rebases = 0;
  for (const auto& app : apps) {
    SCOPED_TRACE(app->name());
    Collector collected;
    const auto run = workloads::run_workload(
        *app, workloads::baseline_config(ranks), opts, &collected);
    const auto stream = deal_batches(collected.records(), ranks);
    ASSERT_FALSE(stream.empty());

    DetectorConfig dcfg;
    dcfg.matrix_resolution = run.makespan / 20.0;
    dcfg.metric_bucket_width = 0.1;  // grouping on
    dcfg.min_records = 1;
    Collector collector;
    collector.set_sensors(app->sensors());
    StreamingDetector detector(dcfg, app->sensors(), ranks, run.makespan);
    collector.attach_sink(&detector);
    auto cfg = ServerRig::make_server_cfg("delta_" + app->name(), 4);
    AnalysisServer server(cfg, &collector, &detector);
    server.set_crash_plan({stream[stream.size() / 2].now}, 0x11FE);
    StreamingDetector decoded(dcfg, app->sensors(), ranks, run.makespan);

    std::vector<SeqTracker> watermarks(static_cast<size_t>(ranks));
    double saved = 0.0;
    uint64_t chain = 0;  // deltas in the file at the previous check
    for (size_t i = 0; i < stream.size(); ++i) {
      // A peer's standard on a key no record of this run touches.
      if (i == stream.size() / 4) server.apply_standard(0, 1000, 1e-3);
      if (i == stream.size() * 3 / 4) server.mark_stale(ranks - 1);
      if (i == stream.size() * 7 / 8) server.mark_live(ranks - 1);
      const auto& d = stream[i];
      const size_t recoveries = server.recoveries().size();
      server.on_delivery(d.rank, d.seq, d.records, d.now);
      watermarks[static_cast<size_t>(d.rank)].insert(d.seq);
      if (!wrote_current_checkpoint(server, &saved)) continue;
      const auto load = load_checkpoint(cfg.checkpoint_path, &decoded);
      ASSERT_TRUE(load.ok) << load.warning;
      EXPECT_EQ(load.torn_bytes, 0u);
      ASSERT_TRUE(encode_checkpoint(load.ckpt, decoded.snapshot()) ==
                  reference_checkpoint(detector, collector, watermarks))
          << "delivery " << i << ": the base and " << load.deltas
          << " deltas differ from the live state";
      // A periodic base after a chain, not the base a recovery writes.
      if (load.deltas == 0 && chain > 0 &&
          server.recoveries().size() == recoveries) {
        ++rebases;
      }
      chain = load.deltas;
      longest_chain = std::max(longest_chain, chain);
    }
    ASSERT_EQ(server.crashes(), 1u);
  }
  EXPECT_GE(longest_chain, 2u) << "no file held two deltas";
  EXPECT_GE(rebases, 2u) << "the deltas never grew to a rebase";
}

TEST(Checkpoint, DeltaTailIsSalvagedBaseFailsClosed) {
  // A server-written file with a base and two deltas, and the live state
  // as each of its frames was written. One delivery per checkpoint over 16
  // ranks keeps each delta small next to the base.
  const int ranks = 16;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/3, ranks, T);
  ServerRig rig("delta_tail", ranks, T, /*checkpoint_every=*/1);
  StreamingDetector decoded(ServerRig::make_cfg(), two_sensors(), ranks, T);
  std::vector<SeqTracker> watermarks(static_cast<size_t>(ranks));
  std::vector<std::string> states;  // after the base, then each delta
  std::string bytes;
  double saved = 0.0;
  for (const auto& d : stream) {
    rig.server.on_delivery(d.rank, d.seq, d.records, d.now);
    watermarks[static_cast<size_t>(d.rank)].insert(d.seq);
    if (!wrote_current_checkpoint(rig.server, &saved)) continue;
    bytes = read_file(rig.server.config().checkpoint_path);
    const auto load = parse_checkpoint(bytes);
    ASSERT_TRUE(load.ok) << load.warning;
    if (load.deltas == 0) states.clear();
    states.push_back(
        reference_checkpoint(rig.detector, rig.collector, watermarks));
    ASSERT_EQ(load.deltas + 1, states.size());
    if (load.deltas == 2) break;
  }
  ASSERT_EQ(states.size(), 3u) << "no base came with two deltas";

  // Frames by the documented layout: three, each CRC over its payload.
  const auto at = frame_offsets(bytes);
  ASSERT_EQ(at.size(), 4u);
  ASSERT_EQ(at.back(), bytes.size());
  for (size_t f = 0; f < 3; ++f) {
    uint32_t crc = 0;
    std::memcpy(&crc, bytes.data() + at[f] + 4, sizeof crc);
    ASSERT_EQ(crc, crc32(bytes.data() + at[f] + 8, at[f + 1] - at[f] - 8))
        << "frame " << f;
  }

  // Every cut inside the base fails closed, and so does the previous
  // format version, whose bytes after the base were corruption.
  for (size_t cut = 0; cut < at[1]; ++cut) {
    EXPECT_FALSE(parse_checkpoint(bytes.substr(0, cut)).ok) << "cut at " << cut;
  }
  std::string v2 = bytes;
  v2[at[0] - 2] = '2';
  const auto old_version = parse_checkpoint(v2);
  EXPECT_FALSE(old_version.ok);
  EXPECT_NE(old_version.warning.find("version 2"), std::string::npos)
      << old_version.warning;
  // A cut inside delta k (frame k + 1) keeps the base and k deltas, and
  // drops exactly the bytes of delta k it holds.
  for (size_t k = 0; k < 2; ++k) {
    for (size_t cut = at[k + 1]; cut < at[k + 2]; ++cut) {
      const auto load = parse_checkpoint(bytes.substr(0, cut), &decoded);
      ASSERT_TRUE(load.ok) << "cut at " << cut << ": " << load.warning;
      EXPECT_EQ(load.deltas, k) << "cut at " << cut;
      EXPECT_EQ(load.torn_bytes, cut - at[k + 1]) << "cut at " << cut;
      EXPECT_EQ(load.warning.empty(), cut == at[k + 1]) << load.warning;
      EXPECT_TRUE(encode_checkpoint(load.ckpt, decoded.snapshot()) ==
                  states[k])
          << "cut at " << cut;
    }
  }
  const auto whole = parse_checkpoint(bytes, &decoded);
  EXPECT_EQ(whole.deltas, 2u);
  EXPECT_EQ(whole.torn_bytes, 0u);
  EXPECT_TRUE(whole.warning.empty()) << whole.warning;
  EXPECT_TRUE(encode_checkpoint(whole.ckpt, decoded.snapshot()) == states[2]);

  // A tail that does not apply leaves the chain before delta k.
  const auto expect_chain_ends_at = [&](const std::string& mutated, size_t k,
                                        const std::string& what) {
    const auto load = parse_checkpoint(mutated, &decoded);
    ASSERT_TRUE(load.ok) << what << ": " << load.warning;
    EXPECT_EQ(load.deltas, k) << what;
    EXPECT_EQ(load.torn_bytes, mutated.size() - at[k + 1]) << what;
    EXPECT_NE(load.warning.find("byte " + std::to_string(at[k + 1])),
              std::string::npos)
        << what << ": " << load.warning;
    EXPECT_TRUE(encode_checkpoint(load.ckpt, decoded.snapshot()) == states[k])
        << what;
  };
  for (size_t k = 0; k < 2; ++k) {
    for (size_t i = at[k + 1]; i < at[k + 2]; ++i) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x41);
      expect_chain_ends_at(mutated, k, "flip at byte " + std::to_string(i));
    }
  }

  // Delta 1 re-framed under a fresh CRC: decodable, yet out of range or of
  // another shape than the base.
  const size_t payload = at[2] + 8;
  const auto reframed = [&](size_t field, auto value) {
    return reframe(bytes, at[2], field, value);
  };
  const auto u32_at = [&](size_t where) {
    uint32_t v = 0;
    std::memcpy(&v, bytes.data() + where, sizeof v);
    return v;
  };
  const FrameFields delta1 = frame_fields(bytes, payload);
  const size_t buckets_at = delta1.buckets;
  const uint32_t buckets = u32_at(buckets_at);
  ASSERT_EQ(buckets, static_cast<uint32_t>(rig.detector.buckets()));
  const size_t first_cell = delta1.first_cell;
  ASSERT_NE(first_cell, 0u) << "delta 1 lists no cell";
  ASSERT_LT(u32_at(first_cell), buckets);
  expect_chain_ends_at(reframed(first_cell, buckets), 1, "bucket >= buckets");
  expect_chain_ends_at(reframed(buckets_at, buckets + 1), 1,
                       "another bucket count");
  expect_chain_ends_at(reframed(payload + 4, int32_t{ranks + 1}), 1,
                       "another rank count");
  // A rank the detector does not have, as the last row of a slot (so the
  // rows stay in ascending order) and as the last last slice.
  ASSERT_NE(delta1.last_row_rank, 0u) << "delta 1 lists no row";
  ASSERT_NE(delta1.last_slice_rank, 0u) << "delta 1 lists no last slice";
  expect_chain_ends_at(reframed(delta1.last_row_rank, int32_t{ranks}), 1,
                       "row rank == ranks");
  expect_chain_ends_at(reframed(delta1.last_slice_rank, int32_t{ranks}), 1,
                       "last slice rank == ranks");
}

TEST(Checkpoint, DamagedFrameNeverHalfApplies) {
  // Random damage to one frame under a recomputed CRC. Whatever the
  // decoder makes of it, loading does not throw, and a frame it rejects
  // leaves the detector exactly as the frames before it left it.
  const int ranks = 8;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/21, ranks, T);
  StreamingDetector live(ServerRig::make_cfg(), two_sensors(), ranks, T);
  const std::vector<SeqTracker> watermarks(static_cast<size_t>(ranks));
  std::string bytes, frame;
  std::vector<std::string> states;  // after the base, then each delta
  for (size_t f = 0; f < 4; ++f) {
    for (size_t i = f * stream.size() / 4; i < (f + 1) * stream.size() / 4;
         ++i) {
      live.observe(stream[i].records);
    }
    if (f == 2) live.mark_stale(ranks - 1);
    encode_live_checkpoint(
        frame, f == 0 ? CheckpointFrame::Base : CheckpointFrame::Delta, {},
        watermarks, live);
    bytes += frame;
    states.push_back(snapshot_bytes(live.snapshot()));
  }
  const auto at = frame_offsets(bytes);
  ASSERT_EQ(at.size(), 5u);
  ASSERT_EQ(at.back(), bytes.size());
  const std::string empty = snapshot_bytes(
      StreamingDetector(ServerRig::make_cfg(), two_sensors(), ranks, T)
          .snapshot());

  Rng rng(0xDA3A6E);
  size_t rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t k = rng.next_below(4);
    const std::string frames = bytes.substr(0, at[k + 1]);
    const size_t payload = at[k] + 8;
    const size_t field = payload + rng.next_below(frames.size() - payload - 3);
    const auto value = static_cast<int32_t>(rng.next_below(40)) - 4;
    const std::string damaged = reframe(frames, at[k], field, value);
    StreamingDetector decoded(ServerRig::make_cfg(), two_sensors(), ranks, T);
    CheckpointLoad load;
    ASSERT_NO_THROW(load = parse_checkpoint(damaged, &decoded));
    if (load.ok && load.deltas == k) continue;  // damage no check can see
    ++rejected;
    const std::string what =
        "frame " + std::to_string(k) + " field " + std::to_string(field);
    EXPECT_EQ(load.ok, k > 0) << what;
    if (k > 0) {
      EXPECT_EQ(load.deltas, k - 1) << what;
    }
    EXPECT_TRUE(snapshot_bytes(decoded.snapshot()) ==
                (k == 0 ? empty : states[k - 1]))
        << what << ": a rejected frame changed the state";
  }
  EXPECT_GT(rejected, 1000u) << "too little damage was detectable";
}

TEST(Checkpoint, DeltaWritesOnlyTheChangedWindow) {
  // A delta writes a changed row over the buckets folded since the
  // previous frame, not from the lowest of them to the row's end: rank 0's
  // cell 8 predates the base, so a fold into its cell 5 makes a delta of
  // one row, one cell and one last slice.
  const std::vector<SensorInfo> sensor{
      {"comp", SensorType::Computation, "f.c", 1}};
  const double T = 10e-3;
  StreamingDetector live(ServerRig::make_cfg(), sensor, /*ranks=*/2, T);
  ASSERT_EQ(live.buckets(), 10);
  // make_record's slice is 1e-3 long, so its middle lies in `bucket`.
  const auto at = [](int rank, int bucket) {
    return make_record(0, rank, (bucket + 0.2) * 1e-3, 1e-4);
  };
  live.observe(std::vector{at(0, 2), at(0, 8), at(1, 3)});
  std::string base, delta;
  live.encode_checkpoint_state(base, CheckpointFrame::Base);
  live.observe(std::vector{at(0, 5)});
  live.encode_checkpoint_state(delta, CheckpointFrame::Delta);

  StreamingDetector::CheckpointCounts counts;
  ASSERT_TRUE(StreamingDetector::check_checkpoint_state(
      delta, {sensor.size(), 2, 10}, &counts));
  EXPECT_EQ(counts.rows, 1u);
  EXPECT_EQ(counts.cells, 1u);
  EXPECT_EQ(counts.last, 1u);

  // The base and the delta still decode to the live state.
  StreamingDetector decoded(ServerRig::make_cfg(), sensor, 2, T);
  ASSERT_TRUE(decoded.decode_checkpoint_state(base, CheckpointFrame::Base));
  ASSERT_TRUE(decoded.decode_checkpoint_state(delta, CheckpointFrame::Delta));
  std::string want, got;
  live.encode_checkpoint_state(want, CheckpointFrame::Base);
  decoded.encode_checkpoint_state(got, CheckpointFrame::Base);
  EXPECT_TRUE(got == want)
      << "the base and the delta differ from the live state";
}

TEST(Checkpoint, MergedRowsReachTheNextDelta) {
  // Rows that merge_from brings in were never in this detector's frames,
  // so its next delta must list them whole, with their last slices.
  const int ranks = 4;
  const double T = 10e-3;
  StreamingDetector a(ServerRig::make_cfg(), two_sensors(), ranks, T);
  StreamingDetector b(ServerRig::make_cfg(), two_sensors(), ranks, T);
  for (const auto& d : make_stream(/*seed=*/8, ranks, T)) {
    (d.rank < 2 ? a : b).observe(d.records);
  }
  std::string base, delta;
  a.encode_checkpoint_state(base, CheckpointFrame::Base);
  const auto merged = b.snapshot();
  ASSERT_FALSE(merged.rank_standard.empty());
  a.merge_from(b);
  a.encode_checkpoint_state(delta, CheckpointFrame::Delta);

  StreamingDetector::CheckpointCounts counts;
  ASSERT_TRUE(StreamingDetector::check_checkpoint_state(
      delta, {two_sensors().size(), ranks, static_cast<uint32_t>(a.buckets())},
      &counts));
  EXPECT_EQ(counts.rows, merged.rank_standard.size());
  EXPECT_EQ(counts.cells, merged.cells.size());
  EXPECT_EQ(counts.last, merged.last.size());
  // Alone, the delta holds exactly b's rows and last slices.
  StreamingDetector rows_only(ServerRig::make_cfg(), two_sensors(), ranks, T);
  ASSERT_TRUE(rows_only.decode_checkpoint_state(delta, CheckpointFrame::Delta));
  const auto listed = rows_only.snapshot();
  EXPECT_EQ(listed.rank_standard, merged.rank_standard);
  EXPECT_EQ(listed.cells.size(), merged.cells.size());
  EXPECT_EQ(listed.last.size(), merged.last.size());
  for (const auto& [key, slice] : merged.last) {
    ASSERT_EQ(listed.last.count(key), 1u);
    EXPECT_EQ(listed.last.at(key).t_end, slice.t_end);
  }

  StreamingDetector decoded(ServerRig::make_cfg(), two_sensors(), ranks, T);
  ASSERT_TRUE(decoded.decode_checkpoint_state(base, CheckpointFrame::Base));
  ASSERT_TRUE(decoded.decode_checkpoint_state(delta, CheckpointFrame::Delta));
  std::string want, got;
  a.encode_checkpoint_state(want, CheckpointFrame::Base);
  decoded.encode_checkpoint_state(got, CheckpointFrame::Base);
  EXPECT_TRUE(got == want)
      << "the base and the delta differ from the live state";
}

/// Routes every operation to `target`, which a test may swap mid-run.
struct SwitchFs final : io::Vfs {
  io::Vfs* target = &io::real_fs();

  std::unique_ptr<io::File> open_truncate(const std::string& path,
                                          std::string* error) override {
    return target->open_truncate(path, error);
  }
  std::unique_ptr<io::File> open_append(const std::string& path,
                                        std::string* error) override {
    return target->open_append(path, error);
  }
  io::IoResult rename_file(const std::string& from,
                           const std::string& to) override {
    return target->rename_file(from, to);
  }
  io::IoResult truncate_file(const std::string& path, uint64_t size) override {
    return target->truncate_file(path, size);
  }
  io::IoResult remove_file(const std::string& path) override {
    return target->remove_file(path);
  }
};

TEST(Checkpoint, FailedDeltaAppendMakesNextCheckpointABase) {
  const int ranks = 16;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/3, ranks, T);
  for (const bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "short_write" : "enospc");
    io::FaultFsConfig fc;
    (torn ? fc.short_write : fc.enospc) = 1.0;
    io::FaultFs faults(fc);
    SwitchFs fs;
    Collector collector;
    collector.set_sensors(two_sensors());
    StreamingDetector detector(ServerRig::make_cfg(), two_sensors(), ranks, T);
    collector.attach_sink(&detector);
    auto cfg = ServerRig::make_server_cfg(torn ? "delta_torn" : "delta_enospc",
                                          /*checkpoint_every=*/1);
    cfg.vfs = &fs;
    AnalysisServer server(cfg, &collector, &detector);
    std::vector<SeqTracker> watermarks(static_cast<size_t>(ranks));
    size_t i = 0;
    const auto deliver = [&] {
      const auto& d = stream[i++];
      server.on_delivery(d.rank, d.seq, d.records, d.now);
      watermarks[static_cast<size_t>(d.rank)].insert(d.seq);
    };

    // Until a rebase follows a chain of deltas: the next periodic
    // checkpoint after a base is always a delta.
    double saved = 0.0;
    std::string before;
    uint64_t chain = 0;
    while (i < stream.size()) {
      deliver();
      if (!wrote_current_checkpoint(server, &saved)) continue;
      before = read_file(cfg.checkpoint_path);
      const uint64_t deltas = parse_checkpoint(before).deltas;
      if (deltas == 0 && chain > 0) break;
      chain = deltas;
    }
    ASSERT_GT(chain, 0u) << "no rebase after a delta chain";
    ASSERT_EQ(parse_checkpoint(before).deltas, 0u);
    // The journal's file is already open, so only the delta append meets
    // the faults.
    fs.target = &faults;
    while (i < stream.size() && server.checkpoint_failures() == 0) deliver();
    ASSERT_EQ(server.checkpoint_failures(), 1u);
    fs.target = &io::real_fs();
    const std::string after = read_file(cfg.checkpoint_path);
    const auto failed = parse_checkpoint(after);
    ASSERT_TRUE(failed.ok) << failed.warning;
    EXPECT_EQ(failed.deltas, 0u);
    if (torn) {
      ASSERT_GT(after.size(), before.size());
      EXPECT_EQ(failed.torn_bytes, after.size() - before.size());
    } else {
      EXPECT_TRUE(after == before);
    }

    // The next checkpoint is a base that replaces the damaged chain.
    while (i < stream.size() && !wrote_current_checkpoint(server, &saved)) {
      deliver();
    }
    StreamingDetector decoded(ServerRig::make_cfg(), two_sensors(), ranks, T);
    const auto next = load_checkpoint(cfg.checkpoint_path, &decoded);
    ASSERT_TRUE(next.ok) << next.warning;
    EXPECT_EQ(next.deltas, 0u);
    EXPECT_EQ(next.torn_bytes, 0u);
    EXPECT_TRUE(encode_checkpoint(next.ckpt, decoded.snapshot()) ==
                reference_checkpoint(detector, collector, watermarks));
  }
}

TEST(RecoveryEquivalence, TornDeltaAfterJournalResetRecoversExactly) {
  // Recovery truncates the journal after its post-recovery base, so from
  // then on the checkpoint file is the only copy of the state before the
  // reset. A bad delta at its end must cost only that delta: recovery
  // applies the base and the deltas before it, then replays the journal.
  // The delta is bad either by a torn append or, under a valid CRC, by a
  // row of a rank the server does not have.
  const int ranks = 16;
  const double T = 10e-3;
  const auto stream = make_stream(/*seed=*/11, ranks, T);
  const auto torn = [](const std::string& bytes, size_t last) {
    return bytes.substr(0, last + (bytes.size() - last) / 2);
  };
  const auto rank_out_of_range = [&](const std::string& bytes, size_t last) {
    const size_t row = frame_fields(bytes, last + 8).last_row_rank;
    EXPECT_NE(row, 0u) << "the last delta lists no row";
    return reframe(bytes, last, row, int32_t{ranks});
  };
  const std::pair<const char*, std::function<std::string(
                                   const std::string&, size_t)>>
      damages[] = {{"torn", torn}, {"rank_out_of_range", rank_out_of_range}};
  for (const auto& [what, damage] : damages) {
    SCOPED_TRACE(what);
    const std::string tag = std::string("torn_delta_") + what;
    ServerRig uninterrupted(tag + "_u", ranks, T, /*checkpoint_every=*/1);
    ServerRig crashed(tag + "_c", ranks, T, /*checkpoint_every=*/1);
    const std::string& path = crashed.server.config().checkpoint_path;
    size_t i = 0;
    const auto deliver = [&] {
      const auto& d = stream[i++];
      uninterrupted.server.on_delivery(d.rank, d.seq, d.records, d.now);
      crashed.server.on_delivery(d.rank, d.seq, d.records, d.now);
    };
    const auto expect_same_state = [&] {
      EXPECT_TRUE(snapshot_bytes(crashed.detector.snapshot()) ==
                  snapshot_bytes(uninterrupted.detector.snapshot()))
          << "recovered state differs from the uninterrupted server's";
      expect_bit_identical(uninterrupted.detector.finalize(),
                           crashed.detector.finalize());
      EXPECT_EQ(uninterrupted.collector.counters().ingested,
                crashed.collector.counters().ingested);
      EXPECT_EQ(uninterrupted.collector.counters().batches,
                crashed.collector.counters().batches);
    };

    while (i < stream.size() / 3) deliver();
    crashed.server.crash();
    ASSERT_TRUE(crashed.server.recover().checkpoint_loaded);
    uint64_t written = 0;
    while (i < stream.size() && written < 2) {
      deliver();
      written = load_checkpoint(path).deltas;
    }
    ASSERT_EQ(written, 2u) << "no delta chain after the journal reset";

    crashed.server.crash();
    const std::string bytes = read_file(path);
    const auto at = frame_offsets(bytes);
    ASSERT_EQ(at.size(), written + 2);
    ASSERT_EQ(at.back(), bytes.size());
    const size_t last = at[at.size() - 2];
    write_file(path, damage(bytes, last));
    const auto report = crashed.server.recover();
    EXPECT_TRUE(report.checkpoint_loaded) << report.checkpoint_warning;
    EXPECT_EQ(report.checkpoint_deltas, written - 1);
    EXPECT_NE(report.checkpoint_warning.find("byte " + std::to_string(last)),
              std::string::npos)
        << report.checkpoint_warning;
    expect_same_state();

    while (i < stream.size()) deliver();
    expect_same_state();
  }
}

TEST(RecoveryEquivalence, JournalSeveralReadsLongRecoversExactly) {
  // 1,024 ranks, five 14-record batches each: 5,120 frames of 697 bytes.
  // Recovery folds each frame as the walk reads it, so the journal crosses
  // read ends of the bounded buffer while replay and watermark skips run.
  constexpr int kRanks = 1024;
  const double T = 10e-3;
  Rng rng(0x10A6);
  std::vector<Delivery> stream;
  for (int rank = 0; rank < kRanks; ++rank) {
    double t = 0.0;
    for (uint64_t b = 0; b < 5; ++b) {
      Delivery d{rank, b, {}, 0.0};
      for (int i = 0; i < 14; ++i) {
        t += T / 80.0;
        const double avg = 1e-4 * (1.0 + 0.1 * static_cast<double>(rng.next_below(10)));
        d.records.push_back(make_record(static_cast<int>(rng.next_below(2)),
                                        rank, t, avg,
                                        rng.next_below(4) == 0 ? 0.9 : 0.1));
      }
      d.now = d.records.back().t_end;
      stream.push_back(std::move(d));
    }
  }
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }

  ServerRig uninterrupted("long_journal_u", kRanks, T, /*checkpoint_every=*/1000);
  ServerRig crashed("long_journal_c", kRanks, T, /*checkpoint_every=*/1000);
  const size_t crash_at = stream.size() * 9 / 10;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == crash_at) {
      ASSERT_GT(std::filesystem::file_size(crashed.server.config().journal_path),
                2 * io::ReadWindow::kReadBytes);
      crashed.server.crash();
      const auto report = crashed.server.recover();
      EXPECT_TRUE(report.checkpoint_loaded) << report.checkpoint_warning;
      EXPECT_GT(report.torn_bytes, 0u);
      EXPECT_EQ(report.frames_replayed + report.frames_skipped, crash_at);
      EXPECT_EQ(report.frames_skipped, crash_at / 1000 * 1000);
    }
    const auto& d = stream[i];
    uninterrupted.server.on_delivery(d.rank, d.seq, d.records, d.now);
    crashed.server.on_delivery(d.rank, d.seq, d.records, d.now);
  }

  expect_bit_identical(uninterrupted.detector.finalize(),
                       crashed.detector.finalize());
  EXPECT_TRUE(snapshot_bytes(crashed.detector.snapshot()) ==
              snapshot_bytes(uninterrupted.detector.snapshot()))
      << "recovered state differs from the uninterrupted server's";
  EXPECT_EQ(uninterrupted.detector.inter_flags(), crashed.detector.inter_flags());
  EXPECT_EQ(uninterrupted.detector.intra_flags(), crashed.detector.intra_flags());
  EXPECT_EQ(uninterrupted.collector.counters().ingested,
            crashed.collector.counters().ingested);
  EXPECT_EQ(uninterrupted.collector.counters().batches,
            crashed.collector.counters().batches);
}

// --------------------------------------------- Satellite regression pins

struct HoldAllFaults final : TransportFaultModel {
  Decision decide(int, uint64_t, uint32_t) const override {
    Decision d;
    d.delay_batches = 1000000;  // held until drain
    return d;
  }
  bool killed(int, double) const override { return false; }
};

TEST(TransportDrain, DoubleDrainAndDestructorDrainAreIdempotent) {
  HoldAllFaults faults;
  Collector collector;
  collector.set_sensors(two_sensors());
  {
    BatchTransport transport(&collector, 2, {}, &faults);
    std::vector<SliceRecord> batch{make_record(0, 0, 0.1, 1e-4)};
    ASSERT_TRUE(transport.ship(0, batch, 0.1));
    EXPECT_EQ(collector.batch_count(), 0u);  // held in the delay queue

    transport.drain();
    EXPECT_EQ(collector.batch_count(), 1u);
    transport.drain();  // second drain delivers nothing new
    EXPECT_EQ(collector.batch_count(), 1u);
    EXPECT_EQ(transport.totals().batches_delivered, 1u);
    // Destructor drains a third time on scope exit.
  }
  EXPECT_EQ(collector.batch_count(), 1u);
  EXPECT_EQ(collector.ingested_records(), 1u);
}

TEST(BatchStage, FlushDetachesRecordsSoFailuresCannotDoubleShip) {
  // A stage whose ship path throws (rank outside the transport's channel
  // range): the staged records must not survive into a second ship — and
  // the destructor must swallow the failure instead of terminating.
  Collector collector;
  collector.set_sensors(two_sensors());
  BatchTransport transport(&collector, /*ranks=*/1);
  {
    BatchStage stage(&transport, /*rank=*/5, /*capacity=*/16);
    stage.push(make_record(0, 0, 0.1, 1e-4));
    EXPECT_EQ(stage.staged(), 1u);
    EXPECT_THROW(stage.flush(), Error);
    EXPECT_EQ(stage.staged(), 0u);  // cleared as the throw unwound
    EXPECT_NO_THROW(stage.flush());  // idempotent: nothing left to ship
    stage.push(make_record(0, 0, 0.2, 1e-4));
    // Destructor: counts the record as unflushed, tries to ship, swallows
    // the throw. Reaching the next line alive is the assertion.
  }
  EXPECT_EQ(collector.ingested_records(), 0u);
}

}  // namespace
}  // namespace vsensor::rt
