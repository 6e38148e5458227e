// vsensor-report — offline analysis of a saved session file.
//
// vsensor-cc --run --save-records=session.vsr writes the sensor table and
// every slice record the analysis server received (the paper's shared-file
// transport, §5.4); this tool re-runs the detector over the file:
//
//   vsensor-report session.vsr
//   vsensor-report session.vsr --matrix
//   vsensor-report session.vsr --threshold=0.8 --resolution-ms=5
//   vsensor-report session.vsr --until=0.5       # on-line view at 50%
//   vsensor-report session.vsr --series=net --points=40
//   vsensor-report session.vsr --metrics-out=m.jsonl --trace-out=t.json
//
// Durability artifacts of the crash-tolerant server are inspected the
// same way (no session file needed):
//
//   vsensor-report --journal=analysis.journal      # verify + summarize
//   vsensor-report --checkpoint=analysis.ckpt      # verify + summarize
//
// And so are the health plane's JSONL artifacts:
//
//   vsensor-report --health=run.health             # gauge summary table
//   vsensor-report --events=run.events             # flag/crash timeline
//   vsensor-report --flight=analysis.journal.flight.shard0
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/identity.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "report/report.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/session_io.hpp"
#include "support/error.hpp"

namespace {

using namespace vsensor;

struct Options {
  std::string input;
  bool matrix = false;
  double threshold = 0.7;
  double resolution_ms = 0.0;  ///< 0 = run_time / 60
  double until_fraction = 1.0;
  std::string series;  ///< "", "comp", "net", "io"
  int series_points = 40;
  std::string metrics_out;  ///< self-telemetry JSONL destination
  std::string trace_out;    ///< Chrome trace-event JSON destination
  std::string journal;      ///< write-ahead journal to inspect/verify
  std::string checkpoint;   ///< checkpoint file to inspect/verify
  std::string health;       ///< vsensor-health/1 JSONL to render
  std::string events;       ///< vsensor-events/1 JSONL to render
  std::string flight;       ///< vsensor-flight/1 crash dump to render
  int max_events = 0;       ///< cap the --events timeline (0 = all)
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: vsensor-report <session.vsr> [--matrix]\n"
               "  [--threshold=F] [--resolution-ms=N] [--until=FRACTION]\n"
               "  [--series=comp|net|io] [--points=N]\n"
               "  [--metrics-out=FILE] [--trace-out=FILE]\n"
               "   or: vsensor-report --journal=FILE\n"
               "   or: vsensor-report --checkpoint=FILE\n"
               "   or: vsensor-report --health=FILE\n"
               "   or: vsensor-report --events=FILE [--max-events=N]\n"
               "   or: vsensor-report --flight=FILE\n");
  std::exit(2);
}

bool flag_value(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (flag_value(argv[i], "--matrix", &value)) {
      opts.matrix = true;
    } else if (flag_value(argv[i], "--threshold", &value)) {
      opts.threshold = std::stod(value);
    } else if (flag_value(argv[i], "--resolution-ms", &value)) {
      opts.resolution_ms = std::stod(value);
    } else if (flag_value(argv[i], "--until", &value)) {
      opts.until_fraction = std::stod(value);
    } else if (flag_value(argv[i], "--series", &value)) {
      opts.series = value;
    } else if (flag_value(argv[i], "--points", &value)) {
      opts.series_points = std::stoi(value);
    } else if (flag_value(argv[i], "--metrics-out", &value)) {
      opts.metrics_out = value;
    } else if (flag_value(argv[i], "--trace-out", &value)) {
      opts.trace_out = value;
    } else if (flag_value(argv[i], "--journal", &value)) {
      opts.journal = value;
    } else if (flag_value(argv[i], "--checkpoint", &value)) {
      opts.checkpoint = value;
    } else if (flag_value(argv[i], "--health", &value)) {
      opts.health = value;
    } else if (flag_value(argv[i], "--events", &value)) {
      opts.events = value;
    } else if (flag_value(argv[i], "--flight", &value)) {
      opts.flight = value;
    } else if (flag_value(argv[i], "--max-events", &value)) {
      opts.max_events = std::stoi(value);
    } else if (argv[i][0] == '-') {
      usage();
    } else if (opts.input.empty()) {
      opts.input = argv[i];
    } else {
      usage();
    }
  }
  if (opts.input.empty() && opts.journal.empty() && opts.checkpoint.empty() &&
      opts.health.empty() && opts.events.empty() && opts.flight.empty()) {
    usage();
  }
  return opts;
}

/// Inspect/verify a write-ahead journal. Exit 0 when the file is clean,
/// 4 when the valid prefix had to be salvaged.
int inspect_journal(const std::string& path) {
  const auto load = rt::load_journal(path);
  std::printf("journal: %s\n", path.c_str());
  std::printf("  header: %s\n", load.header_valid ? "ok" : "INVALID");
  std::printf("  bytes: %llu total, %llu valid, %llu torn\n",
              static_cast<unsigned long long>(load.total_bytes),
              static_cast<unsigned long long>(load.valid_bytes),
              static_cast<unsigned long long>(load.torn_bytes));
  uint64_t batches = 0;
  uint64_t stale = 0;
  uint64_t records = 0;
  for (const auto& f : load.frames) {
    if (f.kind == rt::JournalFrameKind::Batch) {
      ++batches;
      records += f.records.size();
    } else {
      ++stale;
    }
  }
  std::printf("  frames: %zu (%llu batch, %llu stale-mark), %llu records\n",
              load.frames.size(), static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(stale),
              static_cast<unsigned long long>(records));
  if (!load.warning.empty()) {
    std::printf("  warning: %s\n", load.warning.c_str());
  }
  return load.clean() ? 0 : 4;
}

/// Inspect/verify a checkpoint. Exit 0 when valid, 4 when rejected or
/// when a torn delta tail was dropped (as --journal does on salvage).
int inspect_checkpoint(const std::string& path) {
  const auto load = rt::load_checkpoint(path);
  std::printf("checkpoint: %s\n", path.c_str());
  std::printf("  bytes: %llu\n",
              static_cast<unsigned long long>(load.total_bytes));
  if (!load.ok) {
    std::printf("  INVALID: %s\n", load.warning.c_str());
    return 4;
  }
  std::printf("  frames: base + %llu deltas\n",
              static_cast<unsigned long long>(load.deltas));
  if (load.torn_bytes > 0) {
    std::printf("  torn tail: %s\n", load.warning.c_str());
  }
  const auto& c = load.ckpt;
  std::printf("  shape: %u sensors, %d ranks, run_time %.6f s, %u buckets\n",
              c.sensor_count, c.ranks, c.run_time, c.buckets);
  std::printf("  collector: %llu records ingested, %llu batches, %llu bytes\n",
              static_cast<unsigned long long>(c.collector.ingested),
              static_cast<unsigned long long>(c.collector.batches),
              static_cast<unsigned long long>(c.collector.bytes));
  uint64_t covered = 0;
  for (const auto& wm : c.watermarks) covered += wm.contiguous + wm.ahead.size();
  std::printf("  watermarks: %zu ranks, %llu deliveries covered\n",
              c.watermarks.size(), static_cast<unsigned long long>(covered));
  std::printf(
      "  detector: %llu records observed, %llu standards, %llu cells, "
      "%llu inter flags, %llu intra flags, %zu stale ranks\n",
      static_cast<unsigned long long>(c.detector.observed),
      static_cast<unsigned long long>(c.detector.standard.size()),
      static_cast<unsigned long long>(c.detector.cells.size()),
      static_cast<unsigned long long>(c.detector.inter_flags),
      static_cast<unsigned long long>(c.detector.intra_flags),
      c.detector.stale.size());
  return load.torn_bytes > 0 ? 4 : 0;
}

rt::SensorType parse_series(const std::string& s) {
  if (s == "comp") return rt::SensorType::Computation;
  if (s == "net") return rt::SensorType::Network;
  if (s == "io") return rt::SensorType::IO;
  throw Error("unknown series type: " + s + " (use comp|net|io)");
}

int run_tool(const Options& opts) {
  if (!opts.journal.empty() || !opts.checkpoint.empty() ||
      !opts.health.empty() || !opts.events.empty() || !opts.flight.empty()) {
    int rc = 0;
    if (!opts.journal.empty()) rc = std::max(rc, inspect_journal(opts.journal));
    if (!opts.checkpoint.empty()) {
      rc = std::max(rc, inspect_checkpoint(opts.checkpoint));
    }
    if (!opts.health.empty()) {
      std::printf("%s", report::render_health_file(opts.health).c_str());
    }
    if (!opts.events.empty()) {
      std::printf("%s",
                  report::render_events_file(
                      opts.events, static_cast<size_t>(
                                       std::max(opts.max_events, 0)))
                      .c_str());
    }
    if (!opts.flight.empty()) {
      std::printf("%s", report::render_flight_file(opts.flight).c_str());
    }
    return rc;
  }

  // Exporter flags opt into self-telemetry for this invocation; with
  // VSENSOR_OBS=0 builds the hooks are compiled out and the exports are
  // valid-but-empty.
  if (!opts.metrics_out.empty() || !opts.trace_out.empty()) {
    obs::set_enabled(true);
  }

  const auto session = rt::load_session_file(opts.input);
  std::printf("session: %d ranks, %.6f s, %zu sensors, %zu records\n",
              session.ranks, session.run_time, session.sensors.size(),
              session.records.size());
  for (const auto& w : session.warnings) {
    std::fprintf(stderr, "vsensor-report: warning: %s (%llu lines dropped)\n",
                 w.c_str(),
                 static_cast<unsigned long long>(session.salvaged_lines));
  }
  std::printf("\n");

  rt::Collector collector;
  collector.set_sensors(session.sensors);
  collector.ingest(session.records);

  rt::DetectorConfig cfg;
  cfg.variance_threshold = opts.threshold;
  cfg.matrix_resolution = opts.resolution_ms > 0.0
                              ? opts.resolution_ms * 1e-3
                              : session.run_time / 60.0;
  rt::Detector detector(cfg);

  const double horizon = opts.until_fraction * session.run_time;
  const auto analysis =
      opts.until_fraction < 1.0
          ? detector.analyze_until(collector, session.ranks, horizon)
          : detector.analyze(collector, session.ranks, session.run_time);

  report::ReportOptions ropts;
  ropts.include_matrices = opts.matrix;
  std::printf("%s", report::variance_report(analysis, ropts).c_str());

  if (session.has_transport()) {
    std::printf("\n%s",
                report::transport_report(session.transport,
                                         session.transport_totals,
                                         session.stale_ranks)
                    .c_str());
  }

  if (!opts.series.empty()) {
    const auto type = parse_series(opts.series);
    const auto series = detector.component_series(
        collector, type, horizon / opts.series_points, horizon);
    std::printf("\n%s performance series:\n", rt::sensor_type_name(type));
    for (const auto& p : series) {
      if (p.samples == 0) continue;
      const int bars = static_cast<int>(p.perf * 40);
      std::printf("  t=%10.6fs %5.2f |%s\n", p.t, p.perf,
                  std::string(static_cast<size_t>(std::max(bars, 0)), '#')
                      .c_str());
    }
  }

  // Every exported artifact carries the run identity header so a reader
  // can tell which invocation (and record layout) produced it.
  obs::RunIdentity id;
  id.tool = "vsensor-report";
  id.config = opts.input;
  id.record_layout_bytes = rt::kRecordWireBytes;
  if (!opts.metrics_out.empty()) {
    std::ofstream out(opts.metrics_out);
    if (!out) throw Error("cannot open metrics file: " + opts.metrics_out);
    obs::MetricsRegistry::global().write_jsonl(out, &id);
    out.flush();
    if (!out) throw Error("metrics export failed mid-write (disk full?): " +
                          opts.metrics_out);
    std::printf("wrote metrics to %s\n", opts.metrics_out.c_str());
  }
  if (!opts.trace_out.empty()) {
    std::ofstream out(opts.trace_out);
    if (!out) throw Error("cannot open trace file: " + opts.trace_out);
    obs::SpanTracer::global().write_chrome_trace(out, &id);
    out.flush();
    if (!out) throw Error("trace export failed mid-write (disk full?): " +
                          opts.trace_out);
    std::printf("wrote trace to %s\n", opts.trace_out.c_str());
  }
  return analysis.events.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(parse(argc, argv));
  } catch (const Error& e) {
    std::fprintf(stderr, "vsensor-report: %s\n", e.what());
    return 1;
  }
}
