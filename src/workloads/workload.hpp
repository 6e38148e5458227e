// Mini-app workload framework.
//
// Each workload mirrors the loop/communication structure of one of the
// paper's evaluation programs (NPB BT/CG/FT/LU/SP, LULESH, AMG, RAxML) and
// comes in two forms:
//  * a C++ rank body on simMPI with hand-placed sensors — the "compiled with
//    the original compiler" instrumented binary the dynamic module measures;
//  * a MiniC source model — the input to the static module, providing the
//    compile-time columns of Table 1 (snippets, v-sensors, selection).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "obs/health.hpp"
#include "runtime/collector.hpp"
#include "runtime/sensor.hpp"
#include "runtime/transport.hpp"
#include "simmpi/comm.hpp"
#include "support/rng.hpp"

namespace vsensor::workloads {

/// Per-(rank, sensor) PMU validation samples (same role as interp's).
using PmuSamples = interp::PmuSamples;

/// Handed to each rank body: wraps the communicator, the optional sensor
/// runtime, and the PMU recorder.
class RankContext {
 public:
  RankContext(simmpi::Comm& comm, rt::SensorRuntime* sensors,
              std::vector<PmuSamples>* pmu, double pmu_jitter, uint64_t pmu_seed);

  simmpi::Comm& comm() { return comm_; }
  int rank() const { return comm_.rank(); }
  int size() const { return comm_.size(); }

  /// Elastic lifecycle hooks for this rank, built by run_workload from
  /// Config::elastic. Transitions fire only at sense boundaries — the
  /// natural cut points of the instrumented program — so a leave never
  /// tears a slice in half: at the first sense_begin at/after a window's
  /// leave_at, on_leave runs (staged records flush), the clock jumps to
  /// rejoin_at, and on_rejoin runs (fresh transport incarnation, revival
  /// routed into the detection layer).
  struct ElasticHooks {
    std::vector<simmpi::ElasticWindow> windows;  ///< this rank's windows
    std::function<void(double now)> on_leave;
    std::function<void(double now)> on_rejoin;
  };
  void set_elastic(ElasticHooks hooks);

  /// Nominal-speed computation expressed in abstract work units.
  void compute(uint64_t units, double units_per_second = 1e9) {
    comm_.compute_units(units, units_per_second);
  }

  void sense_begin(int sensor_id);
  void sense_end(int sensor_id, double metric = 0.0);

 private:
  void maybe_elastic_transition();

  simmpi::Comm& comm_;
  rt::SensorRuntime* sensors_;
  std::vector<PmuSamples>* pmu_;
  std::vector<uint64_t> tick_units_;
  double pmu_jitter_;
  uint64_t pmu_rng_;
  ElasticHooks elastic_;
  size_t next_window_ = 0;
};

/// RAII sense bracket.
class Sense {
 public:
  Sense(RankContext& ctx, int sensor_id, double metric = 0.0)
      : ctx_(ctx), id_(sensor_id), metric_(metric) {
    ctx_.sense_begin(id_);
  }
  ~Sense() { ctx_.sense_end(id_, metric_); }
  Sense(const Sense&) = delete;
  Sense& operator=(const Sense&) = delete;

 private:
  RankContext& ctx_;
  int id_;
  double metric_;
};

struct WorkloadParams {
  int iterations = 40;   ///< outer time-step/solver iterations
  double scale = 1.0;    ///< multiplies per-iteration work
  uint64_t seed = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Source lines of code of the full application this models (paper
  /// Table 1 "Code KLoc" column records the original program's size).
  virtual double paper_kloc() const = 0;
  /// MiniC model for the static module.
  virtual std::string minic_source() const = 0;
  /// Sensors the instrumented binary registers (fixed order across ranks).
  virtual std::vector<rt::SensorInfo> sensors() const = 0;
  /// One rank's execution.
  virtual void run_rank(RankContext& ctx, const WorkloadParams& params) const = 0;
};

/// All eight evaluation workloads, in Table 1 order.
std::vector<std::unique_ptr<Workload>> make_all_workloads();
std::unique_ptr<Workload> make_workload(const std::string& name);

/// MiniC source model of a workload (same as Workload::minic_source()).
std::string minic_model(const std::string& workload_name);

struct RunOptions {
  WorkloadParams params;
  rt::RuntimeConfig runtime;
  bool instrumented = true;
  double pmu_jitter = 0.0;
  uint64_t pmu_seed = 7;
  /// Knobs of the resilient batch transport every instrumented run ships
  /// through (retry budget, backoff, stale threshold).
  rt::TransportConfig transport;
  /// Live health plane (optional, not owned). When set, the transport's
  /// delivery path pokes the sampler at virtual-time boundary crossings,
  /// run_workload registers the transport as the "transport" source for
  /// the run's duration, and it closes with one unconditional snapshot at
  /// the makespan. The analysis stack behind the sink (collector, detector,
  /// server or tier) is the caller's to register, like its event hooks.
  obs::HealthSampler* health = nullptr;
};

struct WorkloadRun {
  simmpi::RunResult mpi;
  rt::SenseStats sense;  ///< merged over ranks
  std::vector<std::vector<PmuSamples>> pmu;  ///< [rank][sensor]
  double makespan = 0.0;
  /// Per-rank transport channel counters (empty for uncollected runs).
  std::vector<rt::RankChannelStats> transport;
  /// Field-wise sum over ranks of `transport`.
  rt::RankChannelStats transport_totals;
  /// Ranks the end-of-run stale sweep reported (killed, or silent longer
  /// than the stale threshold) — the exact set the detection layer was
  /// told to exclude, so it always equals StreamingDetector::stale_ranks()
  /// of whatever detector the run fed.
  std::vector<int> stale_ranks;

  /// Pm - 1: the paper's "workload max error" (Table 1).
  double workload_max_error() const;
};

/// Execute the workload on a simulated job. When `sink` is given
/// (instrumented runs only), every rank ships its slice records through one
/// resilient BatchTransport into it: a Collector, an AnalysisServer or a
/// ShardedAnalysisTier. The sink gets the sensor table before the run, the
/// fault model's server crash schedule as its crash plan, and the
/// end-of-run stale verdicts through mark_stale.
WorkloadRun run_workload(const Workload& workload, simmpi::Config sim_config,
                         const RunOptions& options = {},
                         rt::DeliverySink* sink = nullptr);

}  // namespace vsensor::workloads
