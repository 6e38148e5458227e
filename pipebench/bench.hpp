// Shared pieces of the pipeline benchmark: the replayable record stream,
// the outside-in timers and span log, and the per-round results each
// engine returns. Every timer here wraps a public entry point of the
// library from the outside; nothing in the library is modified.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/record_batch.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "runtime/types.hpp"
#include "simmpi/engine.hpp"
#include "workloads/workload.hpp"

namespace pipebench {

using namespace vsensor;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// --- the live CG configuration ---------------------------------------------

/// CG on 4 simulated ranks, one rank per node. `bad_rank` < 0 runs a
/// healthy cluster; otherwise that rank's node runs at 55% speed.
struct LiveSpec {
  int ranks = 4;
  int iterations = 150;
  double scale = 0.01;
  size_t batch_records = 64;
  uint64_t seed = 1;
  int bad_rank = -1;

  simmpi::Config sim_config() const;
  workloads::RunOptions run_options(bool instrumented) const;
};

// --- the replayable stream -------------------------------------------------

/// One delivery of the stream: batch `index` of `rank`, due at virtual
/// time `now` (the batch's latest slice end).
struct Delivery {
  int32_t rank = 0;
  uint32_t index = 0;
  double now = 0.0;
};

/// A record stream cut into per-rank batches, in the delivery order the
/// fan-in workloads replay. `truth` is the set of ranks whose computation
/// was slowed when the stream was made.
struct Stream {
  std::vector<rt::SensorInfo> sensors;
  int ranks = 0;
  double run_time = 0.0;
  rt::DetectorConfig detector;
  size_t batch_records = 64;
  /// [rank] time-ordered records; batch i is the slice
  /// [i * batch_records, min((i + 1) * batch_records, size)).
  std::vector<std::vector<rt::SliceRecord>> records;
  /// [rank][i] the same batches as struct-of-arrays (what ranks ship);
  /// empty until add_soa() fills it for the tier replay.
  std::vector<std::vector<rt::RecordBatch>> soa;
  std::vector<Delivery> order;  ///< all batches, virtual-time order
  std::vector<int> truth;
  uint64_t total_records = 0;

  std::span<const rt::SliceRecord> batch(int rank, uint32_t index) const;
};

/// The records a collector retained, regrouped per rank in time order.
Stream stream_from_collector(const rt::Collector& collector,
                             std::vector<rt::SensorInfo> sensors, int ranks,
                             double run_time, size_t batch_records);

/// Seeded fan-in stream: run the live config (healthy) once as a template,
/// then expand its 4 ranks to `ranks` ranks with seeded per-rank jitter,
/// slowing the computation records of a seeded set of ranks.
Stream make_fanin_stream(const LiveSpec& template_spec, int ranks,
                         uint64_t seed, int slowed_ranks);

/// Fill `stream.soa` (a no-op when it is filled already).
void add_soa(Stream& stream);

/// Detector configuration every workload analyses with (50 time buckets
/// over the horizon).
rt::DetectorConfig detector_config(double run_time);

// --- outside-in timers -----------------------------------------------------

/// In-memory span log. Each thread appends to its own buffer; buffers are
/// read only after every producer thread joined.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint32_t round = 0;
  uint32_t thread = 0;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t items = 0;   ///< records the span covered (0 = not a record span)
};

class SpanLog {
 public:
  /// Globally switched on for traced passes only.
  static SpanLog& global();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  void set_round(uint32_t round) { round_.store(round); }

  std::vector<Span>& buffer();  ///< calling thread's buffer
  uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  uint32_t round() const { return round_.load(); }

  /// Every span recorded so far (call when no thread is recording).
  std::vector<Span> all() const;
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint32_t> round_{0};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::deque<std::vector<Span>> buffers_;
};

/// RAII span around one call; a no-op unless the log is on. Nested spans on
/// one thread link to their parent, so self time can be derived.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t items = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool armed_ = false;
};

/// Run `f` under a span named `name`, store its wall time in `ms`, and
/// return its result.
template <typename F>
auto timed_ms(double& ms, const char* name, F&& f) {
  ScopedSpan span(name);
  const uint64_t t0 = now_ns();
  auto result = f();
  ms = static_cast<double>(now_ns() - t0) * 1e-6;
  return result;
}

/// Median wall time of `f` in ms over a fixed number of calls, so that every
/// round times the same amount of work. Returns the last call's result.
template <typename F>
auto repeat_ms(double& ms, const char* name, F&& f) {
  constexpr int kCalls = 5;
  std::vector<double> runs;
  auto result = timed_ms(ms, name, f);
  runs.push_back(ms);
  while (runs.size() < kCalls) {
    result = timed_ms(ms, name, f);
    runs.push_back(ms);
  }
  std::sort(runs.begin(), runs.end());
  ms = runs[runs.size() / 2];
  return result;
}

/// Latencies of calls made from several threads at once: each call claims a
/// slot with one atomic increment (no lock on the measured path).
class LatencyLog {
 public:
  explicit LatencyLog(size_t capacity) : ns_(capacity) {}
  void add(uint64_t ns) {
    const size_t i = n_.fetch_add(1, std::memory_order_relaxed);
    if (i < ns_.size()) ns_[i] = ns;
  }
  std::vector<double> micros() const;
  /// Sum of the recorded latencies, in seconds.
  double total_s() const;

 private:
  std::vector<uint64_t> ns_;
  std::atomic<size_t> n_{0};
};

/// BatchSink between a collector and its streaming detector: forwards both
/// on_batch overloads and the stale/live verdicts unchanged, and times each
/// call from outside. A timed call covers what the caller waits for: the
/// detector's own mutex and the fold. With `split_wait` (traced rounds
/// only: it adds a mutex the program does not have), calls are serialized
/// here, ahead of the detector's mutex, so the queueing and the fold are
/// timed apart: `latencies` gets the fold, wait_s() the queueing.
class TimingBatchSink final : public rt::BatchSink {
 public:
  TimingBatchSink(rt::StreamingDetector* inner, LatencyLog* latencies,
                  bool split_wait)
      : inner_(inner), latencies_(latencies), split_wait_(split_wait) {}
  void on_batch(std::span<const rt::SliceRecord> batch) override;
  void on_batch(const rt::RecordBatch& batch) override;
  void on_stale_rank(int rank) override { inner_->on_stale_rank(rank); }
  void on_live_rank(int rank) override { inner_->on_live_rank(rank); }

  double wait_s() const { return static_cast<double>(wait_ns_.load()) * 1e-9; }

 private:
  template <typename Batch>
  void fold(const Batch& batch, size_t records);

  rt::StreamingDetector* inner_;
  LatencyLog* latencies_;
  bool split_wait_;
  std::mutex mu_;
  std::atomic<uint64_t> wait_ns_{0};
};

/// DeliverySink placed in front of another one (the sharded tier): times
/// each delivery from outside and forwards it unchanged.
class TimingDeliverySink final : public rt::DeliverySink {
 public:
  TimingDeliverySink(rt::DeliverySink* inner, LatencyLog* latencies)
      : inner_(inner), latencies_(latencies) {}
  void on_delivery(int rank, uint64_t seq, std::span<const rt::SliceRecord> batch,
                   double now) override;

 private:
  rt::DeliverySink* inner_;
  LatencyLog* latencies_;
};

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Highest percentile with at least ten samples beyond it.
double tail_percentile(size_t n);

// --- per-round results ----------------------------------------------------

struct RoundResult {
  uint64_t records = 0;
  double deliver_s = 0.0;
  std::vector<double> delivery_us;
  double finalize_ms = 0.0;
  double recover_ms = 0.0;
  double analyze_ms = 0.0;
  uint64_t failures = 0;  ///< lost/dropped records, journal loss, I/O, dups
  std::string digest;     ///< byte image of the finalized matrices + events
  std::vector<std::string> failed_checks;
};

// --- output checks ---------------------------------------------------------

/// Byte image of the three matrices and the variance events (flag counts
/// are not part of it).
std::string result_digest(const rt::AnalysisResult& result);
/// Streaming finalize() against Detector::analyze: the two paths sum each
/// matrix cell in a different order, so cell values may differ in the last
/// bits. Same cells, values within 1e-12, and the same events (severity
/// within 1e-12) — the tolerance the library's own tests pin.
bool close_results(const rt::AnalysisResult& a, const rt::AnalysisResult& b);
bool same_snapshot(const rt::StreamingDetector::Snapshot& a,
                   const rt::StreamingDetector::Snapshot& b);
/// Ranks covered by Computation events.
std::vector<int> computation_event_ranks(const rt::AnalysisResult& result);

}  // namespace pipebench
