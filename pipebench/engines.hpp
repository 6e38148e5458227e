// The three pipeline engines the workloads time, and the single-layer
// passes a traced run adds. Each engine runs one round: deliver the
// records, finalize, recover, analyze offline, and check the outputs.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bench.hpp"

namespace pipebench {

/// Per-layer measurements of one round or pass, by metric name.
using Layers = std::map<std::string, double>;

struct Env {
  std::string workdir;  ///< journals, checkpoints, sessions of this process
  bool traced = false;  ///< obs plane + span log on for this round
};

/// live_cg: CG through run_workload; records flow transport -> collector ->
/// streaming detector on the 4 rank threads. Recovery rebuilds the
/// analysis from the session file the run saves. `export_stream` (optional)
/// receives the collected records as a replayable stream.
RoundResult live_round(const LiveSpec& spec, double horizon, const Env& env,
                       Layers* layers, Stream* export_stream = nullptr);

/// live_cg's deliveries: the round's records (as live_round exports them)
/// delivered batch by batch, in virtual-time order, from one producer into
/// a fresh streaming detector; fills `round.delivery_us` and checks that
/// the replay flags the ground-truth ranks. In the run itself each fold is
/// inline on a rank thread, where its time is mostly the wait for the
/// detector's mutex and follows the host's scheduling from run to run.
void replay_deliveries(const Stream& stream, RoundResult& round);

/// What a fan-in round is checked against: the offline collector holding
/// every record of the stream (the input of Detector::analyze), and the
/// result of one streaming detector folding the stream in delivery order
/// (what a single analysis server computes).
struct Reference {
  rt::Collector collector;
  std::string single_server_digest;
};
std::unique_ptr<Reference> make_reference(const Stream& stream);

/// fanin_durable: one producer delivers the stream round-robin into one
/// AnalysisServer (journal commit per frame, a checkpoint every
/// `checkpoint_every` batches), then crash() + recover() on the same
/// server.
RoundResult server_round(const Stream& stream, const Reference& reference,
                         uint64_t checkpoint_every, bool deep_checks,
                         const Env& env, Layers* layers);

/// fanin_concurrent: 4 producer threads, each owning a contiguous rank
/// partition, ship through one synchronous BatchTransport into a 4-shard
/// ShardedAnalysisTier (no periodic checkpoints); every shard then
/// crashes and recovers.
RoundResult tier_round(const Stream& stream, const Reference& reference,
                       const Env& env, Layers* layers);

/// Checkpoint cadence that gives a stream about 24 periodic checkpoints.
uint64_t checkpoint_cadence(const Stream& stream);

/// Ingest-only pass: Collector::ingest over the stream, no sink attached.
double collector_ns_per_record(const Stream& stream);

/// Journal-only pass: JournalWriter::append of every batch frame with the
/// server's default commit-every-frame setting.
double journal_ns_per_record(const Stream& stream, const Env& env);

/// Uninstrumented run of the live config: the simulator floor, and the
/// virtual makespan that fixes the live analysis horizon.
struct PlainRun {
  double wall_s = 0.0;
  double makespan = 0.0;
  double horizon() const { return makespan * 1.05; }  ///< probes add < 5%
};
PlainRun plain_run(const LiveSpec& spec);

/// Parse -> sema -> lower -> analyze of a workload's MiniC model.
double static_pipeline_ms(const std::string& workload_name);

}  // namespace pipebench
