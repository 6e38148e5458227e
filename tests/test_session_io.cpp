// Session file round-trip and robustness (the §5.4 shared-file transport).
#include <gtest/gtest.h>

#include <sstream>

#include "runtime/detector.hpp"
#include "runtime/session_io.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace vsensor::rt {
namespace {

Session make_session() {
  Session s;
  s.ranks = 4;
  s.run_time = 1.25;
  s.sensors = {
      {"cg:matvec kernel", SensorType::Computation, "cg.c", 112},
      {"cg:allreduce", SensorType::Network, "cg.c", 122},
  };
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    SliceRecord r;
    r.sensor_id = static_cast<int>(rng.next_below(2));
    r.rank = static_cast<int>(rng.next_below(4));
    r.t_begin = i * 1e-3;
    r.t_end = r.t_begin + 1e-3;
    r.avg_duration = rng.uniform(50e-6, 150e-6);
    r.min_duration = r.avg_duration * 0.9;
    r.count = 1 + static_cast<uint32_t>(rng.next_below(20));
    r.metric = static_cast<float>(rng.uniform(0.0, 1.0));
    r.flags = i % 7 == 0 ? 1 : 0;
    s.records.push_back(r);
  }
  return s;
}

TEST(SessionIo, RoundTripPreservesEverything) {
  const Session original = make_session();
  std::stringstream buffer;
  save_session(buffer, original);
  const Session loaded = load_session(buffer);

  EXPECT_EQ(loaded.ranks, original.ranks);
  EXPECT_DOUBLE_EQ(loaded.run_time, original.run_time);
  ASSERT_EQ(loaded.sensors.size(), original.sensors.size());
  for (size_t i = 0; i < original.sensors.size(); ++i) {
    EXPECT_EQ(loaded.sensors[i].name, original.sensors[i].name);
    EXPECT_EQ(loaded.sensors[i].type, original.sensors[i].type);
    EXPECT_EQ(loaded.sensors[i].file, original.sensors[i].file);
    EXPECT_EQ(loaded.sensors[i].line, original.sensors[i].line);
  }
  ASSERT_EQ(loaded.records.size(), original.records.size());
  for (size_t i = 0; i < original.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].sensor_id, original.records[i].sensor_id);
    EXPECT_EQ(loaded.records[i].rank, original.records[i].rank);
    EXPECT_DOUBLE_EQ(loaded.records[i].avg_duration,
                     original.records[i].avg_duration);
    EXPECT_EQ(loaded.records[i].count, original.records[i].count);
    EXPECT_FLOAT_EQ(loaded.records[i].metric, original.records[i].metric);
    EXPECT_EQ(loaded.records[i].flags, original.records[i].flags);
  }
}

TEST(SessionIo, SensorNamesWithSpacesSurvive) {
  Session s;
  s.ranks = 1;
  s.run_time = 0.1;
  s.sensors = {{"the stencil relax loop", SensorType::Computation, "a.c", 3}};
  std::stringstream buffer;
  save_session(buffer, s);
  const Session loaded = load_session(buffer);
  EXPECT_EQ(loaded.sensors[0].name, "the stencil relax loop");
}

TEST(SessionIo, AnalysisOfLoadedSessionMatchesDirect) {
  const Session session = make_session();
  std::stringstream buffer;
  save_session(buffer, session);
  const Session loaded = load_session(buffer);

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

TEST(SessionIo, RejectsGarbage) {
  std::stringstream not_a_session("hello world\n1 2 3\n");
  EXPECT_THROW(load_session(not_a_session), Error);

  std::stringstream empty("");
  EXPECT_THROW(load_session(empty), Error);

  std::stringstream bad_version("vsensor-session 99\nranks 1 run_time 1\n");
  EXPECT_THROW(load_session(bad_version), Error);

  std::stringstream dangling_record(
      "vsensor-session 1\nranks 1 run_time 1\nrecord 5 0 0 1 1 1 1 0 0\n");
  EXPECT_THROW(load_session(dangling_record), Error);

  std::stringstream truncated_record(
      "vsensor-session 1\nranks 1 run_time 1\n"
      "sensor 0 0 1 f.c s\nrecord 0 0 0.5\n");
  EXPECT_THROW(load_session(truncated_record), Error);
}

TEST(SessionIo, RejectsRecordFromUnknownRank) {
  // Strict (v2): the line throws, like a record of an unknown sensor.
  for (const char* rank : {"2", "-1"}) {
    std::istringstream v2(std::string("vsensor-session 2\nranks 2 run_time 1\n"
                                      "sensor 0 0 1 f.c s\nrecord 0 ") +
                          rank + " 0.1 0.2 1e-4 9e-5 3 0.5 0\n");
    EXPECT_THROW(load_session(v2), Error) << rank;
  }

  // Salvaging (v3): the load stops at the record and says why.
  Session session = make_session();
  session.records[10].rank = session.ranks;
  std::stringstream buffer;
  save_session(buffer, session);
  const Session loaded = load_session(buffer);
  EXPECT_FALSE(loaded.clean());
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].find("record from unknown rank"),
            std::string::npos);
  EXPECT_EQ(loaded.records.size(), 10u);
}

TEST(SessionIo, V3LinesCarryCrcAndLoadClean) {
  std::stringstream buffer;
  save_session(buffer, make_session());
  const std::string text = buffer.str();
  EXPECT_NE(text.find("vsensor-session 3\n"), std::string::npos);
  // Every line after the magic line ends in the ` #xxxxxxxx` suffix.
  std::istringstream lines(text);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));  // magic
  size_t body_lines = 0;
  while (std::getline(lines, line)) {
    ++body_lines;
    ASSERT_GE(line.size(), 10u);
    EXPECT_EQ(line[line.size() - 10], ' ') << line;
    EXPECT_EQ(line[line.size() - 9], '#') << line;
  }
  EXPECT_GT(body_lines, 50u);

  std::istringstream reload(text);
  const Session loaded = load_session(reload);
  EXPECT_TRUE(loaded.clean());
  EXPECT_EQ(loaded.salvaged_lines, 0u);
}

TEST(SessionIo, SalvagesValidPrefixOfTruncatedFile) {
  std::stringstream buffer;
  save_session(buffer, make_session());
  const std::string text = buffer.str();

  // Cut mid-line, three quarters in: the partial line fails its CRC, the
  // prefix loads, and the loss is reported instead of thrown.
  std::istringstream cut(text.substr(0, text.size() * 3 / 4));
  const Session loaded = load_session(cut);
  EXPECT_FALSE(loaded.clean());
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].find("salvaged valid prefix"),
            std::string::npos);
  EXPECT_EQ(loaded.salvaged_lines, 1u);  // only the torn final line
  EXPECT_EQ(loaded.ranks, 4);
  EXPECT_GT(loaded.records.size(), 0u);
  EXPECT_LT(loaded.records.size(), 50u);
}

TEST(SessionIo, SalvageStopsAtBitFlipAndCountsDroppedLines) {
  std::stringstream buffer;
  save_session(buffer, make_session());
  std::string text = buffer.str();

  // Flip one digit inside a record value near the middle of the file; the
  // line's CRC no longer matches, so it and everything after are dropped.
  const size_t at = text.find("record", text.size() / 2);
  ASSERT_NE(at, std::string::npos);
  const size_t digit = text.find_first_of("0123456789", at + 7);
  text[digit] = text[digit] == '9' ? '8' : static_cast<char>(text[digit] + 1);

  std::istringstream in(text);
  const Session loaded = load_session(in);
  EXPECT_FALSE(loaded.clean());
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].find("CRC mismatch"), std::string::npos);
  EXPECT_GT(loaded.salvaged_lines, 1u);  // the damaged line + the rest
  EXPECT_LT(loaded.records.size(), 50u);
  // The prefix itself is intact and analyzable.
  EXPECT_EQ(loaded.ranks, 4);
  EXPECT_EQ(loaded.sensors.size(), 2u);
}

TEST(SessionIo, V2WithoutCrcStillLoadsStrict) {
  // A v2 file has no CRC suffixes and keeps the original throwing
  // behavior on damage.
  const std::string v2 =
      "vsensor-session 2\n"
      "ranks 2 run_time 1\n"
      "sensor 0 0 1 f.c s\n"
      "record 0 0 0.1 0.2 1e-4 9e-5 3 0.5 0\n"
      "transport 0 1 1 0 3 0 0 0 0 168 0 0.2 1\n"
      "transport 1 0 0 0 0 0 0 0 0 0 0 -1 0\n"
      "stale 1\n";
  std::istringstream good(v2);
  const Session loaded = load_session(good);
  EXPECT_TRUE(loaded.clean());
  EXPECT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.transport.size(), 2u);
  EXPECT_EQ(loaded.stale_ranks, (std::vector<int>{1}));

  std::istringstream bad("vsensor-session 2\nranks 2 run_time 1\njunk\n");
  EXPECT_THROW(load_session(bad), Error);
}

TEST(SessionIo, FuzzTruncationsAndFlipsNeverThrowOnV3) {
  Session small = make_session();
  small.records.resize(6);
  std::stringstream buffer;
  save_session(buffer, small);
  const std::string text = buffer.str();

  for (size_t cut = 0; cut <= text.size(); cut += 3) {
    std::istringstream in(text.substr(0, cut));
    if (cut == 0 || text.substr(0, cut).find('\n') == std::string::npos) {
      // No complete magic line yet: still the hard "not a session" error.
      EXPECT_THROW(load_session(in), Error);
      continue;
    }
    const Session loaded = load_session(in);  // must not throw
    EXPECT_LE(loaded.records.size(), 6u);
  }

  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = text;
    const size_t pos = rng.next_below(mutated.size());
    mutated[pos] =
        static_cast<char>(mutated[pos] ^ (1u << rng.next_below(8)));
    std::istringstream in(mutated);
    try {
      const Session loaded = load_session(in);
      // A flip after the magic line is caught by a line CRC: either it
      // landed in salvaged territory or (rarely) in trailing whitespace.
      EXPECT_LE(loaded.records.size(), 6u);
    } catch (const Error&) {
      // Flips inside the magic line keep the typed error path.
    }
  }
}

TEST(SessionIo, FileRoundTrip) {
  const Session original = make_session();
  Collector collector;
  collector.set_sensors(original.sensors);
  collector.ingest(original.records);
  const std::string path = "/tmp/vsensor_test_session.vsr";
  save_session_file(path, collector, original.ranks, original.run_time);
  const Session loaded = load_session_file(path);
  EXPECT_EQ(loaded.records.size(), original.records.size());
  EXPECT_THROW(load_session_file("/nonexistent/path.vsr"), Error);
}

}  // namespace
}  // namespace vsensor::rt
