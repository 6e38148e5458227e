// Pipeline benchmark: times the vSensor monitoring pipeline end to end and
// layer by layer, from outside, on three closed-loop workloads.
//
//   pipebench --workload live_cg|fanin_durable|fanin_concurrent --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 repeats rounds of the workload for S seconds with the obs plane
// off and reports the end-to-end metrics (trimmed means over rounds; set-up
// time as a median over repeated set-ups). --trace 1
// spends half the time on untraced rounds and half on traced ones (obs
// plane and span log on), runs the single-layer passes, and reports the
// per-layer metrics. The last stdout line is one JSON object.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engines.hpp"
#include "obs/obs.hpp"
#include "support/stats.hpp"

namespace {

using namespace pipebench;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0) return std::nullopt;
  if (a.workload != "live_cg" && a.workload != "fanin_durable" &&
      a.workload != "fanin_concurrent") {
    return std::nullopt;
  }
  if (!(a.seconds > 0.0)) return std::nullopt;
  return a;
}

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"rec_per_s", "records/s"}, {"delivery_p50_us", "us"}, {"delivery_tail_us", "us"},
    {"peak_rss_mb", "MB"},      {"setup_s", "s"},
};

// Per-call timings of the untraced rounds. They follow the host's memory
// latency from one run to the next by more than any bound a benchmark may
// set (see NOTES.md), so they are reported with the per-layer metrics.
constexpr Metric kCallTimings[] = {
    {"finalize_ms", "ms"}, {"recover_ms", "ms"}, {"offline_analyze_ms", "ms"}};

constexpr Metric kPerLayer[] = {
    {"finalize_ms", "ms"},
    {"recover_ms", "ms"},
    {"offline_analyze_ms", "ms"},
    {"simmpi.wall_s", "s"},
    {"sensor.probe_ns_per_record", "ns"},
    {"sensor.slicing_ns_per_record", "ns"},
    {"stage.ns_per_record", "ns"},
    {"transport.ns_per_record", "ns"},
    {"transport.ship_us", "us"},
    {"transport.wait_share", "fraction"},
    {"collector.ns_per_record", "ns"},
    {"collector.retained_mb", "MB"},
    {"fold.ns_per_record", "ns"},
    {"fold.wait_share", "fraction"},
    {"fold.state_cells", "count"},
    {"fold.flags_per_record", "fraction"},
    {"fold.snapshot_ms", "ms"},
    {"server.journal_ns_per_record", "ns"},
    {"server.journal_bytes_per_record", "bytes"},
    {"server.checkpoint_ms", "ms"},
    {"server.checkpoints", "count"},
    {"server.checkpoint_mb", "MB"},
    {"server.recover_frames_replayed", "count"},
    {"server.recover_frames_skipped", "count"},
    {"server.loop_residual_pct", "%"},
    {"tier.deliver_us", "us"},
    {"tier.broadcasts_per_delivery", "count"},
    {"tier.shard_skew", "ratio"},
    {"tier.merge_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.monitor_share", "fraction"},
    {"static.pipeline_ms", "ms"},
};

// --- set-up ----------------------------------------------------------------

constexpr int kFaninRanks = 1024;
constexpr int kFaninSlowed = 3;

/// The live_cg configuration of a seed: the seed drives the OS noise and
/// the workload's own randomness. The bad node is always the last one, so
/// that seeds differ in noise, not in which rank's slowdown shapes the run
/// (and how the rank threads contend for the detector).
LiveSpec live_spec(uint64_t seed) {
  LiveSpec spec;
  spec.seed = seed;
  spec.bad_rank = spec.ranks - 1;
  return spec;
}

struct Setup {
  LiveSpec live;
  PlainRun plain;  ///< live_cg: the plain run that fixes the horizon
  double static_ms = 0.0;
  Stream stream;  ///< fan-in workloads
};

Setup set_up(const Args& args) {
  Setup s;
  s.static_ms = static_pipeline_ms("CG");
  s.live = live_spec(args.seed);
  if (args.workload == "live_cg") {
    s.plain = plain_run(s.live);
  } else {
    LiveSpec tmpl = s.live;
    tmpl.iterations = 2;
    tmpl.bad_rank = -1;
    s.stream = make_fanin_stream(tmpl, kFaninRanks, args.seed, kFaninSlowed);
    if (args.workload == "fanin_concurrent") add_soa(s.stream);
  }
  return s;
}

// --- rounds ----------------------------------------------------------------

struct Runner {
  const Args& args;
  const Setup& setup;
  const Reference* reference;  ///< fan-in workloads
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  /// live_cg: time deliveries by replaying each round's records (off in the
  /// memory-measuring round, whose growth must be the run's alone).
  bool replay = true;

  RoundResult round(uint32_t index, bool traced, bool deep, Layers* layers,
                    Stream* export_stream = nullptr) {
    SpanLog::global().set_round(index);
    SpanLog::global().set_on(traced);
    vsensor::obs::set_enabled(traced);
    const Env env{args.workdir, traced};
    RoundResult r;
    if (args.workload == "live_cg") {
      Stream records;
      Stream* out = export_stream != nullptr ? export_stream : &records;
      r = live_round(setup.live, setup.plain.horizon(), env, layers,
                     replay ? out : export_stream);
      if (replay) replay_deliveries(*out, r);
    } else if (args.workload == "fanin_durable") {
      r = server_round(setup.stream, *reference,
                       checkpoint_cadence(setup.stream), deep, env, layers);
    } else {
      r = tier_round(setup.stream, *reference, env, layers);
    }
    vsensor::obs::set_enabled(false);
    SpanLog::global().set_on(false);
    account(r);
    return r;
  }

  void account(const RoundResult& r) {
    attempted += r.records;
    failed += r.failures + r.failed_checks.size();
    for (const auto& c : r.failed_checks) failed_checks.push_back(c);
  }

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    failed_checks.push_back(what);
  }
};

double rec_per_s(const RoundResult& r) {
  return static_cast<double>(r.records) / r.deliver_s;
}

/// Rounds until `seconds` elapsed (at least `min_rounds`). The first round
/// runs the deep checks and fills `export_stream`; `layer_medians` (traced
/// rounds) receives each layer metric's median over the rounds.
std::vector<RoundResult> rounds_for(Runner& runner, double seconds,
                                    int min_rounds, bool traced, uint32_t& index,
                                    Layers* layer_medians,
                                    Stream* export_stream = nullptr) {
  std::vector<RoundResult> out;
  std::map<std::string, std::vector<double>> layer_runs;
  const uint64_t t0 = now_ns();
  while (static_cast<int>(out.size()) < min_rounds || seconds_since(t0) < seconds) {
    Layers layers;
    const bool first = out.empty();
    out.push_back(runner.round(index++, traced, first,
                               layer_medians != nullptr ? &layers : nullptr,
                               first ? export_stream : nullptr));
    for (const auto& [k, v] : layers) layer_runs[k].push_back(v);
  }
  if (layer_medians != nullptr) {
    for (const auto& [k, v] : layer_runs) (*layer_medians)[k] = median(v);
  }
  return out;
}

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// What a measuring child reports back through its pipe.
struct ChildReport {
  double growth_mb = 0.0;
  uint64_t records = 0;
  uint64_t failed = 0;
};

/// Peak resident-set growth of one untraced round, in MB. The round runs in
/// a forked child. The child starts with the parent's resident pages (the
/// set-up, the check reference, the heap earlier rounds left), so its peak
/// RSS minus its RSS at the fork is what the round itself added. The parent
/// first returns its free heap to the kernel, so that the round cannot
/// reuse pages earlier rounds left resident. Call with no other thread
/// running.
double round_rss_growth_mb(Runner& runner, uint32_t index,
                           const std::string& expected_digest) {
  std::fflush(stdout);
  std::fflush(stderr);
  malloc_trim(0);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    close(fds[0]);
    runner.replay = false;
    ChildReport rep;
    const double base = max_rss_mb();
    try {
      const RoundResult r = runner.round(index, false, false, nullptr);
      rep.growth_mb = max_rss_mb() - base;
      rep.records = r.records;
      rep.failed = r.failures + r.failed_checks.size() +
                   (r.digest == expected_digest ? 0 : 1);
    } catch (...) {
      rep.failed = 1;
    }
    const bool sent =
        write(fds[1], &rep, sizeof rep) == static_cast<ssize_t>(sizeof rep);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  ChildReport rep;
  const ssize_t got = read(fds[0], &rep, sizeof rep);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  const bool ok = got == static_cast<ssize_t>(sizeof rep) && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  runner.attempted += rep.records;
  runner.expect(ok && rep.failed == 0,
                "memory-measuring round failed or differs from the first round");
  return rep.growth_mb;
}

std::vector<double> field(const std::vector<RoundResult>& rounds,
                          const std::function<double(const RoundResult&)>& f) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(f(r));
  return v;
}

/// Mean over rounds of `f`, without the highest and the lowest tenth of the
/// rounds. On this kind of host the memory-bound phases run at one of two
/// speeds, round by round: a median jumps between the two whenever their
/// mix crosses one half, where a mean moves only with the mix.
double round_mean(const std::vector<RoundResult>& rounds,
                  const std::function<double(const RoundResult&)>& f) {
  std::vector<double> v = field(rounds, f);
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

void check_same_outputs(Runner& runner, const std::vector<RoundResult>& rounds,
                        const std::string& reference, const char* what) {
  for (const auto& r : rounds) {
    runner.expect(r.digest == reference,
                  std::string(what) + " output differs from the first round");
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: pipebench --workload live_cg|fanin_durable|fanin_concurrent "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  const Args& args = *parsed;
  vsensor::obs::set_enabled(false);
  // Keep freed heap memory in the process instead of returning it to the
  // kernel after every round: otherwise whether a round's allocations hit
  // recycled heap or fresh (faulting) pages flips from round to round and
  // dominates the spread of the allocation-heavy phases.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  try {
    // Set-up, at least seven times and for at least a second (the fan-in
    // set-up takes milliseconds); the last one's products are used.
    std::vector<double> setup_s;
    Setup setup;
    const uint64_t setup_t0 = now_ns();
    while (setup_s.size() < 7 || seconds_since(setup_t0) < 1.0) {
      setup = Setup{};  // free the previous products before building anew
      const uint64_t t0 = now_ns();
      setup = set_up(args);
      setup_s.push_back(seconds_since(t0));
    }

    // The fan-in checks' reference is built after set-up, untimed.
    std::unique_ptr<Reference> reference;
    if (args.workload != "live_cg") reference = make_reference(setup.stream);
    Runner runner{args, setup, reference.get(), 0, 0, {}, true};
    uint32_t index = 0;
    std::map<std::string, double> e2e;
    std::map<std::string, double> layers;

    // One warm-up round (checked, not timed) fills the heap and caches.
    runner.round(index++, false, false, nullptr);
    const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
    const auto plain = rounds_for(runner, untraced_s, args.trace ? 2 : 3, false,
                                  index, nullptr);
    check_same_outputs(runner, plain, plain.front().digest, "untraced");
    const double rss = round_rss_growth_mb(runner, index++, plain.front().digest);

    e2e["rec_per_s"] = round_mean(plain, rec_per_s);
    // Each round's delivery p50 and tail. The tail is the highest percentile
    // with at least ten of the round's deliveries beyond it, so it is fixed
    // by the stream, not by how many rounds fit the run.
    const size_t deliveries = plain.front().delivery_us.size();
    const double tail_p = tail_percentile(deliveries);
    e2e["delivery_p50_us"] = round_mean(
        plain, [](const RoundResult& r) { return percentile_of(r.delivery_us, 50.0); });
    e2e["delivery_tail_us"] = round_mean(plain, [tail_p](const RoundResult& r) {
      return percentile_of(r.delivery_us, tail_p);
    });
    layers["finalize_ms"] = round_mean(plain, [](const RoundResult& r) { return r.finalize_ms; });
    layers["recover_ms"] = round_mean(plain, [](const RoundResult& r) { return r.recover_ms; });
    layers["offline_analyze_ms"] =
        round_mean(plain, [](const RoundResult& r) { return r.analyze_ms; });
    e2e["peak_rss_mb"] = rss;
    e2e["setup_s"] = median(setup_s);

    if (args.trace) {
      // The first traced round of live_cg also exports its records: the
      // stream the server and tier passes replay.
      Stream live_stream;
      const auto traced =
          rounds_for(runner, args.seconds / 2, 2, true, index, &layers,
                     args.workload == "live_cg" ? &live_stream : nullptr);
      check_same_outputs(runner, traced, plain.front().digest, "traced");
      layers["obs.trace_overhead_pct"] =
          (median(field(plain, rec_per_s)) / median(field(traced, rec_per_s)) - 1.0) *
          100.0;

      // Single-layer passes over this workload's stream, traced, for the
      // layers its own rounds do not run.
      const Env env{args.workdir, true};
      SpanLog::global().set_on(true);
      vsensor::obs::set_enabled(true);
      Stream& stream = args.workload == "live_cg" ? live_stream : setup.stream;
      add_soa(stream);  // the tier pass ships SoA batches
      const auto pass_reference =
          args.workload == "live_cg" ? make_reference(stream) : nullptr;
      const Reference& ref = pass_reference ? *pass_reference : *reference;
      Layers pass;
      if (args.workload == "live_cg") {
        layers["simmpi.wall_s"] = setup.plain.wall_s;
      } else {
        const PlainRun plain_cg = plain_run(setup.live);
        layers["simmpi.wall_s"] = plain_cg.wall_s;
        runner.account(live_round(setup.live, plain_cg.horizon(), env, &pass));
      }
      if (args.workload != "fanin_durable") {
        runner.account(server_round(stream, ref, checkpoint_cadence(stream),
                                    true, env, &pass));
      }
      if (args.workload != "fanin_concurrent") {
        runner.account(tier_round(stream, ref, env, &pass));
      }
      // live_cg reads its collector cost off the StageClock of its own rounds;
      // the delivery-loop account below always uses the ingest-only pass.
      const double ingest_ns = collector_ns_per_record(stream);
      layers.emplace("collector.ns_per_record", ingest_ns);
      // A pass only fills layers the workload's own rounds did not measure.
      for (const auto& [k, v] : pass) layers.emplace(k, v);
      layers["server.journal_ns_per_record"] = journal_ns_per_record(stream, env);
      layers["static.pipeline_ms"] = setup.static_ms;
      vsensor::obs::set_enabled(false);
      SpanLog::global().set_on(false);

      // Delivery-loop account of the server engine: fold and checkpoint
      // measured in the loop, collector store and journal append from
      // their single-layer passes; the residual is what none of them
      // explains (watermarks, frame copies, call overhead).
      const double rec = layers["server.records"];
      const double explained =
          layers["server.fold_s"] + layers["server.checkpoint_s"] +
          (ingest_ns + layers["server.journal_ns_per_record"]) * rec * 1e-9;
      const double loop = layers["server.loop_s"];
      layers["server.loop_residual_pct"] = (loop - explained) / loop * 100.0;
      std::printf("server delivery loop %.4f s: fold %.4f, checkpoint %.4f, "
                  "collector %.4f, journal %.4f, residual %.4f (%.1f%%)\n",
                  loop, layers["server.fold_s"], layers["server.checkpoint_s"],
                  ingest_ns * rec * 1e-9,
                  layers["server.journal_ns_per_record"] * rec * 1e-9,
                  loop - explained, layers["server.loop_residual_pct"]);

      for (const auto& m : kPerLayer) {
        runner.expect(layers.count(m.name) != 0,
                      std::string("per-layer metric not measured: ") + m.name);
      }
      const std::string spans_path =
          args.workdir + "/spans-" + args.workload + ".jsonl";
      if (!SpanLog::global().write_jsonl(spans_path)) {
        runner.expect(false, "could not write " + spans_path);
      }
    }

    // --- report ------------------------------------------------------------
    std::printf("workload %s seed %llu: %zu untraced rounds, %llu records attempted\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                plain.size(), static_cast<unsigned long long>(runner.attempted));
    for (const auto& m : kEndToEnd) {
      std::printf("  %-34s %16.6g %s\n", m.name, e2e[m.name], m.unit);
    }
    std::printf("  per-round figures are trimmed means over %zu rounds; a round has "
                "n=%zu deliveries and its tail is p%.4f (10 deliveries beyond it)\n",
                plain.size(), deliveries, tail_p);
    std::printf("  peak_rss_mb is the resident-set growth of one round\n");
    const double error_rate = static_cast<double>(runner.failed) /
                              static_cast<double>(std::max<uint64_t>(runner.attempted, 1));
    std::printf("  %-34s %16.6g failed/attempted\n", "error_rate", error_rate);
    if (args.trace) {
      for (const auto& m : kPerLayer) {
        std::printf("  %-34s %16.6g %s\n", m.name, layers[m.name], m.unit);
      }
    } else {
      for (const auto& m : kCallTimings) {
        std::printf("  %-34s %16.6g %s (per-layer)\n", m.name, layers[m.name], m.unit);
      }
    }
    for (const auto& c : runner.failed_checks) {
      std::printf("CHECK FAILED: %s\n", c.c_str());
    }

    const bool correct = runner.failed_checks.empty() && runner.failed == 0;
    std::ostringstream json;
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << runner.attempted << ", \"failed\": " << runner.failed
         << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const Metric& m, double v) {
      json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
           << json_number(v) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    };
    if (args.trace) {
      for (const auto& m : kPerLayer) emit(m, layers[m.name]);
    } else {
      for (const auto& m : kEndToEnd) emit(m, e2e[m.name]);
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
