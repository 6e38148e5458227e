// MiniC interpreter on simMPI: the "run" step of the paper's workflow.
//
// Each simulated rank executes the instrumented AST. Evaluation accrues
// abstract work units (the simulated PMU instruction counter); units are
// flushed into virtual compute time at probe and MPI boundaries so sensor
// durations reflect exactly the work between Tick and Tock. MPI builtins
// map onto the simMPI communicator.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "instrument/instrument.hpp"
#include "minic/ast.hpp"
#include "runtime/collector.hpp"
#include "runtime/sensor.hpp"
#include "simmpi/comm.hpp"

namespace vsensor::interp {

struct InterpConfig {
  /// Work units executed per virtual second at nominal node speed.
  double units_per_second = 1e9;
  /// Flush accumulated units into virtual time after this many.
  uint64_t flush_units = 256;
  /// Per-rank sensor runtime configuration.
  rt::RuntimeConfig runtime;
  /// Execute probes (false = run the instrumented program as if the probes
  /// were compiled out; used for overhead measurement baselines).
  bool enable_sensors = true;
  /// Multiplicative PMU measurement jitter amplitude (models hardware
  /// counter non-determinism [Weaver et al.]); 0 = exact counts.
  double pmu_jitter = 0.0;
  uint64_t pmu_seed = 42;
};

/// Per-(rank, sensor) summary of simulated-PMU instruction counts, the
/// input to the paper's Ps/Pa/Pm workload-error statistics (Table 1).
struct PmuSamples {
  uint64_t executions = 0;
  double min_units = 0.0;
  double max_units = 0.0;

  void add(double units);
  /// Ps = MAX(v_i) / MIN(v_i); 1.0 when unobserved.
  double ps() const;
};

struct InterpResult {
  simmpi::RunResult mpi;
  /// sense stats merged over ranks.
  rt::SenseStats sense;
  /// Simulated PMU instruction samples: [rank][sensor_id].
  std::vector<std::vector<PmuSamples>> pmu;
  /// Text printed by rank 0 (printf output).
  std::string rank0_output;

  /// Pa = MAX over sensors of Ps, Pm = MAX over ranks of Pa (paper §6.2);
  /// returns Pm.
  double workload_max_error() const;
};

/// Execute `program` (optionally instrumented) on a simulated MPI job.
/// `plan` supplies the sensor table; pass an empty plan for uninstrumented
/// runs. Slice records flow through a transport into `collector` when
/// provided.
InterpResult run_program(const minic::Program& program,
                         const instrument::InstrumentationPlan& plan,
                         simmpi::Config sim_config, const InterpConfig& config = {},
                         rt::Collector* collector = nullptr);

}  // namespace vsensor::interp
