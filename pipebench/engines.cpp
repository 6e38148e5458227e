#include "engines.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <latch>
#include <thread>

#include "analysis/analysis.hpp"
#include "ir/ir.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "obs/obs.hpp"
#include "runtime/journal.hpp"
#include "runtime/server.hpp"
#include "runtime/session_io.hpp"
#include "runtime/sharded_tier.hpp"
#include "support/error.hpp"

namespace pipebench {

namespace {

constexpr double kMB = 1e6;

double ms_since(uint64_t t0) { return seconds_since(t0) * 1e3; }

void remove_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

double file_mb(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size) / kMB;
}

void check(RoundResult& out, bool ok, const std::string& what) {
  if (!ok) out.failed_checks.push_back(what);
}

/// Offline analysis (the vsensor-report path) plus the checks every engine
/// shares: streaming == batch, and a Computation event names exactly the
/// ground-truth ranks.
void analyze_and_check(RoundResult& out, const rt::AnalysisResult& streaming,
                       const rt::Collector& collector,
                       const rt::DetectorConfig& dcfg, int ranks,
                       double run_time, const std::vector<int>& truth,
                       const char* engine) {
  const auto offline = repeat_ms(out.analyze_ms, "analyze", [&] {
    return rt::Detector(dcfg).analyze(collector, ranks, run_time);
  });
  out.digest = result_digest(streaming);
  check(out, close_results(streaming, offline),
        std::string(engine) + ": streaming result differs from Detector::analyze");
  check(out, computation_event_ranks(streaming) == truth,
        std::string(engine) + ": Computation events do not name the ground-truth ranks");
}

/// Fold-side layer metrics of a detector after a round.
void fold_layers(Layers& layers, const rt::StreamingDetector::Snapshot& snap) {
  layers["fold.state_cells"] = static_cast<double>(snap.cells.size());
  layers["fold.flags_per_record"] =
      snap.observed == 0
          ? 0.0
          : static_cast<double>(snap.intra_flags + snap.inter_flags) /
                static_cast<double>(snap.observed);
}

}  // namespace

// --- live_cg ---------------------------------------------------------------

RoundResult live_round(const LiveSpec& spec, double horizon, const Env& env,
                       Layers* layers, Stream* export_stream) {
  const auto cg = workloads::make_workload("CG");
  const auto sensors = cg->sensors();
  const auto dcfg = detector_config(horizon);
  rt::Collector collector;
  rt::StreamingDetector detector(dcfg, sensors, spec.ranks, horizon);
  LatencyLog folds(size_t{1} << 16);  // a round makes about 2,100 folds
  TimingBatchSink sink(&detector, &folds, true);
  collector.attach_sink(env.traced ? static_cast<rt::BatchSink*>(&sink)
                                   : &detector);

  RoundResult out;
  obs::StageClock::global().reset();
  workloads::WorkloadRun run;
  {
    ScopedSpan span("live.run");
    const uint64_t t0 = now_ns();
    run = workloads::run_workload(*cg, spec.sim_config(), spec.run_options(true),
                                  &collector);
    out.deliver_s = seconds_since(t0);
  }
  out.records = collector.ingested_records();
  if (layers != nullptr) {
    const double rec = static_cast<double>(std::max<uint64_t>(out.records, 1));
    // The run's own self-attribution (exclusive wall time per stage).
    const auto attribution = obs::attribution(out.deliver_s);
    const auto ns = [&](obs::Stage stage) {
      for (const auto& s : attribution.stages) {
        if (s.stage == stage) return s.seconds * 1e9;
      }
      return 0.0;
    };
    auto& l = *layers;
    l["sensor.probe_ns_per_record"] =
        (ns(obs::Stage::ProbeTick) + ns(obs::Stage::ProbeTock)) / rec;
    l["sensor.slicing_ns_per_record"] = ns(obs::Stage::Slicing) / rec;
    l["stage.ns_per_record"] = ns(obs::Stage::Staging) / rec;
    l["transport.ns_per_record"] = ns(obs::Stage::TransportShip) / rec;
    // The sink's queue sits inside Collector::ingest but ahead of the
    // detector's stage; it is the detector's wait, not the collector's work.
    l["collector.ns_per_record"] =
        (ns(obs::Stage::CollectorIngest) - sink.wait_s() * 1e9) / rec;
    l["fold.ns_per_record"] = folds.total_s() * 1e9 / rec;
    l["fold.wait_share"] = sink.wait_s() / (sink.wait_s() + folds.total_s());
    l["obs.monitor_share"] = attribution.monitoring_wall_fraction;
    l["collector.retained_mb"] =
        static_cast<double>(collector.record_count() * rt::kRecordWireBytes) / kMB;
  }

  const auto result =
      repeat_ms(out.finalize_ms, "finalize", [&] { return detector.finalize(); });
  if (layers != nullptr) {
    const uint64_t t0 = now_ns();
    const auto snap = detector.snapshot();
    (*layers)["fold.snapshot_ms"] = ms_since(t0);
    fold_layers(*layers, snap);
  }

  // The run's durable artifact is its session file; recovery rebuilds the
  // analysis state from it.
  const std::string session = env.workdir + "/live.vsr";
  rt::save_session_file(session, collector, spec.ranks, horizon, run.transport,
                        run.stale_ranks);
  bool loaded_clean = false;
  const auto recovered = timed_ms(out.recover_ms, "recover", [&] {
    const auto loaded = rt::load_session_file(session);
    loaded_clean = loaded.clean();
    rt::StreamingDetector rebuilt(dcfg, loaded.sensors, loaded.ranks,
                                  loaded.run_time);
    for (int r : loaded.stale_ranks) rebuilt.mark_stale(r);
    rebuilt.on_batch(std::span<const rt::SliceRecord>(loaded.records));
    return rebuilt.finalize();
  });
  check(out, loaded_clean, "live_cg: session file did not load clean");
  remove_file(session);

  std::vector<int> truth;
  if (spec.bad_rank >= 0) truth.push_back(spec.bad_rank);
  analyze_and_check(out, result, collector, dcfg, spec.ranks, horizon, truth,
                    "live_cg");
  check(out, result_digest(recovered) == out.digest,
        "live_cg: state rebuilt from the session differs from the live state");
  out.failures = run.transport_totals.records_lost + collector.dropped_records();

  if (export_stream != nullptr) {
    *export_stream = stream_from_collector(collector, sensors, spec.ranks,
                                           horizon, spec.batch_records);
    export_stream->truth = truth;
  }
  return out;
}

void replay_deliveries(const Stream& s, RoundResult& round) {
  rt::StreamingDetector detector(s.detector, s.sensors, s.ranks, s.run_time);
  round.delivery_us.clear();
  round.delivery_us.reserve(s.order.size());
  for (const auto& d : s.order) {
    const auto batch = s.batch(d.rank, d.index);
    const uint64_t t0 = now_ns();
    detector.on_batch(batch);
    round.delivery_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  check(round, computation_event_ranks(detector.finalize()) == s.truth,
        "live_cg: replayed deliveries do not flag the ground-truth ranks");
}

// --- fanin_durable ---------------------------------------------------------

uint64_t checkpoint_cadence(const Stream& stream) {
  return std::max<uint64_t>(1, stream.order.size() / 24);
}

RoundResult server_round(const Stream& s, const Reference& reference,
                         uint64_t checkpoint_every, bool deep_checks,
                         const Env& env, Layers* layers) {
  rt::Collector collector;
  collector.set_sensors(s.sensors);
  rt::StreamingDetector detector(s.detector, s.sensors, s.ranks, s.run_time);
  LatencyLog folds(s.order.size() * 2 + 16);
  TimingBatchSink sink(&detector, &folds, true);
  collector.attach_sink(env.traced ? static_cast<rt::BatchSink*>(&sink)
                                   : &detector);

  rt::ServerConfig cfg;
  cfg.journal_path = env.workdir + "/durable.journal";
  cfg.checkpoint_path = env.workdir + "/durable.ckpt";
  cfg.checkpoint_every_batches = checkpoint_every;
  remove_file(cfg.checkpoint_path);
  rt::AnalysisServer server(cfg, &collector, &detector);

  RoundResult out;
  out.records = s.total_records;
  out.delivery_us.resize(s.order.size());
  const uint64_t loop_t0 = now_ns();
  for (size_t i = 0; i < s.order.size(); ++i) {
    const Delivery& d = s.order[i];
    const auto batch = s.batch(d.rank, d.index);
    ScopedSpan span("server.deliver", batch.size());
    const uint64_t t0 = now_ns();
    server.on_delivery(d.rank, d.index, batch, d.now);
    out.delivery_us[i] = static_cast<double>(now_ns() - t0) * 1e-3;
  }
  out.deliver_s = seconds_since(loop_t0);

  if (layers != nullptr) {
    auto& l = *layers;
    const double rec = static_cast<double>(s.total_records);
    // A delivery that crossed the cadence carried a checkpoint; its excess
    // over the median delivery is the checkpoint's cost.
    const double p50 = median(out.delivery_us);
    double ckpt_s = 0.0;
    uint64_t ckpts = 0;
    for (size_t i = checkpoint_every - 1; i < s.order.size(); i += checkpoint_every) {
      ckpt_s += std::max(0.0, out.delivery_us[i] - p50) * 1e-6;
      ++ckpts;
    }
    l["server.checkpoints"] = static_cast<double>(ckpts);
    l["server.checkpoint_ms"] = ckpts == 0 ? 0.0 : ckpt_s * 1e3 / static_cast<double>(ckpts);
    l["server.checkpoint_mb"] = file_mb(cfg.checkpoint_path);
    l["server.journal_bytes_per_record"] =
        static_cast<double>(server.journal()->appended_bytes()) / rec;
    l["fold.ns_per_record"] = folds.total_s() * 1e9 / rec;
    l["fold.wait_share"] = sink.wait_s() / (sink.wait_s() + folds.total_s());
    l["collector.retained_mb"] =
        static_cast<double>(collector.record_count() * rt::kRecordWireBytes) / kMB;
    // Raw parts of the delivery-loop account (see main.cpp).
    l["server.loop_s"] = out.deliver_s;
    l["server.fold_s"] = folds.total_s();
    l["server.checkpoint_s"] = ckpt_s;
    l["server.records"] = rec;
  }

  const auto result =
      repeat_ms(out.finalize_ms, "finalize", [&] { return detector.finalize(); });
  rt::StreamingDetector::Snapshot before;
  if (deep_checks || layers != nullptr) {
    const uint64_t t0 = now_ns();
    before = detector.snapshot();
    if (layers != nullptr) {
      (*layers)["fold.snapshot_ms"] = ms_since(t0);
      fold_layers(*layers, before);
    }
  }

  // Crash and recover the same server object: a freshly constructed server
  // would truncate the journal in its constructor before recover() reads it.
  const auto report = timed_ms(out.recover_ms, "recover", [&] {
    server.crash();
    return server.recover();
  });
  if (layers != nullptr) {
    (*layers)["server.recover_frames_replayed"] =
        static_cast<double>(report.frames_replayed);
    (*layers)["server.recover_frames_skipped"] =
        static_cast<double>(report.frames_skipped);
  }
  check(out, report.checkpoint_loaded, "fanin_durable: recovery found no checkpoint");
  check(out, result_digest(detector.finalize()) == result_digest(result),
        "fanin_durable: recovered result differs from the pre-crash result");
  if (deep_checks) {
    check(out, same_snapshot(before, detector.snapshot()),
          "fanin_durable: recovered detector state differs from the pre-crash state");
  }

  analyze_and_check(out, result, reference.collector, s.detector, s.ranks,
                    s.run_time, s.truth, "fanin_durable");
  check(out, out.digest == reference.single_server_digest,
        "fanin_durable: server result differs from a plain streaming fold");
  out.failures = collector.dropped_records() + server.dropped_journal_bytes() +
                 server.io_errors() + server.duplicate_deliveries();
  remove_file(cfg.journal_path);
  remove_file(cfg.checkpoint_path);
  return out;
}

// --- fanin_concurrent ------------------------------------------------------

RoundResult tier_round(const Stream& s, const Reference& reference,
                       const Env& env, Layers* layers) {
  constexpr int kProducers = 4;
  VS_CHECK_MSG(!s.soa.empty(), "tier replay needs the stream's SoA batches");
  rt::ShardedTierConfig cfg;
  cfg.shards = 4;
  cfg.journal_path = env.workdir + "/tier.journal";
  cfg.checkpoint_path = env.workdir + "/tier.ckpt";
  cfg.detector = s.detector;
  rt::ShardedAnalysisTier tier(cfg, s.sensors, s.ranks, s.run_time);

  LatencyLog folds(s.order.size() * 2 + 16);
  std::vector<std::unique_ptr<TimingBatchSink>> sinks;
  if (env.traced) {
    for (int k = 0; k < tier.shard_count(); ++k) {
      sinks.push_back(
          std::make_unique<TimingBatchSink>(&tier.detector(k), &folds, true));
      tier.collector(k).attach_sink(sinks.back().get());
    }
  }
  LatencyLog tier_lat(s.order.size() + 16);
  TimingDeliverySink front(&tier, &tier_lat);
  rt::BatchTransport transport(
      env.traced ? static_cast<rt::DeliverySink*>(&front) : &tier, s.ranks);

  // Producer p owns ranks [p * R / 4, (p + 1) * R / 4) and ships them in
  // the stream's virtual-time order.
  std::vector<std::vector<Delivery>> parts(kProducers);
  for (const auto& d : s.order) {
    parts[static_cast<size_t>(d.rank) * kProducers / static_cast<size_t>(s.ranks)]
        .push_back(d);
  }
  std::vector<std::vector<double>> ship_us(kProducers);
  std::vector<std::exception_ptr> errors(kProducers);
  std::latch start(kProducers + 1);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      start.arrive_and_wait();
      try {
        auto& lat = ship_us[static_cast<size_t>(p)];
        lat.reserve(parts[static_cast<size_t>(p)].size());
        for (const auto& d : parts[static_cast<size_t>(p)]) {
          const auto& batch = s.soa[static_cast<size_t>(d.rank)][d.index];
          ScopedSpan span("transport.ship", batch.size());
          const uint64_t t0 = now_ns();
          transport.ship(d.rank, batch, d.now);
          lat.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
      } catch (...) {
        errors[static_cast<size_t>(p)] = std::current_exception();
      }
    });
  }
  RoundResult out;
  out.records = s.total_records;
  const uint64_t loop_t0 = now_ns();
  start.count_down();
  for (auto& t : producers) t.join();
  transport.drain();
  out.deliver_s = seconds_since(loop_t0);
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const auto& lat : ship_us) {
    out.delivery_us.insert(out.delivery_us.end(), lat.begin(), lat.end());
  }

  const auto result =
      repeat_ms(out.finalize_ms, "finalize", [&] { return tier.finalize(); });
  if (layers != nullptr) {
    auto& l = *layers;
    const double rec = static_cast<double>(s.total_records);
    const double deliveries = static_cast<double>(s.order.size());
    uint64_t t0 = now_ns();
    const auto merged = tier.merged_snapshot();
    l["tier.merge_ms"] = ms_since(t0);
    fold_layers(l, merged);
    t0 = now_ns();
    for (int k = 0; k < tier.shard_count(); ++k) (void)tier.detector(k).snapshot();
    l["fold.snapshot_ms"] = ms_since(t0);
    l["fold.ns_per_record"] = folds.total_s() * 1e9 / rec;
    double wait_s = 0.0;
    for (const auto& sink : sinks) wait_s += sink->wait_s();
    l["fold.wait_share"] = wait_s / (wait_s + folds.total_s());
    l["tier.deliver_us"] = median(tier_lat.micros());
    l["tier.broadcasts_per_delivery"] =
        static_cast<double>(tier.broadcast_updates()) / deliveries;
    double max_routed = 0.0;
    double retained = 0.0;
    for (int k = 0; k < tier.shard_count(); ++k) {
      max_routed = std::max(max_routed, static_cast<double>(tier.routed_records(k)));
      retained += static_cast<double>(tier.collector(k).record_count());
    }
    l["tier.shard_skew"] =
        max_routed / (static_cast<double>(tier.total_routed_records()) /
                      static_cast<double>(tier.shard_count()));
    l["collector.retained_mb"] =
        retained * static_cast<double>(rt::kRecordWireBytes) / kMB;
    double ship_total = 0.0;
    for (double v : out.delivery_us) ship_total += v;
    l["transport.ship_us"] = median(out.delivery_us);
    l["transport.wait_share"] = (ship_total - tier_lat.total_s() * 1e6) / ship_total;
  }

  timed_ms(out.recover_ms, "recover", [&] {
    for (int k = 0; k < tier.shard_count(); ++k) {
      tier.server(k).crash();
      tier.server(k).recover();
    }
    return 0;
  });
  check(out, result_digest(tier.finalize()) == result_digest(result),
        "fanin_concurrent: recovered tier result differs from the pre-crash result");

  analyze_and_check(out, result, reference.collector, s.detector, s.ranks,
                    s.run_time, s.truth, "fanin_concurrent");
  check(out, out.digest == reference.single_server_digest,
        "fanin_concurrent: 4-shard result differs from the single-server result");
  out.failures = transport.totals().records_lost + tier.dropped_journal_bytes() +
                 tier.io_errors();
  for (int k = 0; k < tier.shard_count(); ++k) {
    out.failures += tier.collector(k).dropped_records() +
                    tier.server(k).duplicate_deliveries();
    remove_file(tier.server(k).config().journal_path);
    remove_file(tier.server(k).config().checkpoint_path);
  }
  return out;
}

// --- single-layer passes ---------------------------------------------------

namespace {
void fill_collector(const Stream& stream, rt::Collector& collector) {
  collector.set_sensors(stream.sensors);
  for (const auto& d : stream.order) collector.ingest(stream.batch(d.rank, d.index));
}
}  // namespace

std::unique_ptr<Reference> make_reference(const Stream& stream) {
  auto ref = std::make_unique<Reference>();
  rt::StreamingDetector single(stream.detector, stream.sensors, stream.ranks,
                               stream.run_time);
  ref->collector.attach_sink(&single);
  fill_collector(stream, ref->collector);
  ref->collector.attach_sink(nullptr);
  ref->single_server_digest = result_digest(single.finalize());
  return ref;
}

double collector_ns_per_record(const Stream& stream) {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    rt::Collector collector;
    ScopedSpan span("collector.ingest_pass", stream.total_records);
    const uint64_t t0 = now_ns();
    fill_collector(stream, collector);
    runs.push_back(seconds_since(t0) * 1e9 / static_cast<double>(stream.total_records));
  }
  return median(runs);
}

double journal_ns_per_record(const Stream& stream, const Env& env) {
  const std::string path = env.workdir + "/pass.journal";
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    rt::JournalWriter journal(path);
    ScopedSpan span("journal.append_pass", stream.total_records);
    const uint64_t t0 = now_ns();
    for (const auto& d : stream.order) {
      const auto batch = stream.batch(d.rank, d.index);
      journal.append(rt::JournalFrame{rt::JournalFrameKind::Batch, d.rank, d.index,
                                      {batch.begin(), batch.end()}});
    }
    journal.commit();
    runs.push_back(seconds_since(t0) * 1e9 / static_cast<double>(stream.total_records));
  }
  remove_file(path);
  return median(runs);
}

PlainRun plain_run(const LiveSpec& spec) {
  const auto cg = workloads::make_workload("CG");
  ScopedSpan span("simmpi.plain_run");
  const uint64_t t0 = now_ns();
  const auto run =
      workloads::run_workload(*cg, spec.sim_config(), spec.run_options(false));
  return PlainRun{seconds_since(t0), run.makespan};
}

double static_pipeline_ms(const std::string& workload_name) {
  const std::string source = workloads::minic_model(workload_name);
  const uint64_t t0 = now_ns();
  minic::Program program = minic::parse(source);
  minic::run_sema(program);
  const ir::ProgramIR ir = ir::lower(program);
  const auto result = analysis::analyze(ir);
  const double ms = ms_since(t0);
  VS_CHECK_MSG(result.snippet_count() > 0,
               "static pipeline found no snippets in " + workload_name);
  return ms;
}

}  // namespace pipebench
