// Structured event log + crash flight recorder for the live health plane.
//
// Every operationally interesting transition in the pipeline — a variance
// flag, a standards-exchange update, a stale-rank sweep, a journal
// salvage, a crash/recovery — becomes one schema'd event carrying
// its causal context (virtual time, rank, sensor, shard, score vs.
// standard). The log is the machine-readable twin of the human report:
// `vsensor-events/1` JSONL, bounded, with dropped-event accounting so
// telemetry can never grow without bound.
//
// The FlightRecorder is a small ring of pre-rendered event/health lines
// kept per shard; AnalysisServer dumps it to `<prefix>.flight[.shard<k>]`
// on crash or torn-journal salvage so post-mortems start from the last N
// things that actually happened instead of from zero.
//
// Nothing in here touches simMPI virtual time — detection output stays
// bit-identical with the health plane on or off. Event timestamps are
// virtual-time values handed in by the emitting site, so a sequential
// replay of the same delivery stream renders a byte-identical log.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "io/vfs.hpp"
#include "obs/identity.hpp"

namespace vsensor::obs {

enum class EventKind : uint8_t {
  VarianceFlag,     ///< detector scored a record below threshold
  StandardUpdate,   ///< sharded tier broadcast a lowered standard
  StaleRank,        ///< sweep declared a rank stale
  JournalSalvage,   ///< journal load discarded a torn tail
  Crash,            ///< injected/real server crash fired
  Recovery,         ///< server finished checkpoint restore + replay
  CheckpointSaved,  ///< checkpoint written (base published or delta appended)
  DurabilityDegraded,  ///< journal gave up retrying; ingest continues non-durable
  DurabilityRearmed,   ///< fresh checkpoint landed; journaling resumed
  CheckpointFailed,    ///< a checkpoint publish attempt failed (old one kept)
  RankRejoin,          ///< elastic revival: a stale rank rejoined the run
  kCount
};

const char* event_kind_name(EventKind kind);

struct Event {
  EventKind kind = EventKind::VarianceFlag;
  double t = -1.0;     ///< virtual time, -1 = unknown
  int rank = -1;       ///< -1 = not rank-scoped
  int sensor = -1;     ///< sensor id, -1 = not sensor-scoped
  int shard = -1;      ///< shard index, -1 = unsharded
  bool has_group = false;
  int group = 0;       ///< dynamic-rule group (only when has_group)
  double value = 0.0;  ///< score / new standard / torn bytes — per kind
  double standard = 0.0;  ///< standard compared against (VarianceFlag)
  uint64_t count = 0;  ///< kind-specific count (frames replayed, drops, ...)
  std::string detail;  ///< short free-form tag ("inter", "intra", ...)
};

/// Render one event as a single JSON object (no trailing newline).
std::string render_event_json(const Event& e);

/// Thread-safe bounded event log. Past `capacity` the oldest events are
/// kept and new ones counted in dropped() — a crash post-mortem cares more
/// about how trouble started than about the steady state that followed.
class EventLog {
 public:
  explicit EventLog(size_t capacity = size_t{1} << 16);

  void emit(const Event& e);

  size_t size() const;
  uint64_t dropped() const;
  uint64_t total_emitted() const;
  /// Events of one kind currently retained (for tests and summaries).
  size_t count(EventKind kind) const;

  std::vector<Event> events() const;

  /// `vsensor-events/1` JSONL: identity header line (when given), then one
  /// event object per line in emission order.
  void write_jsonl(std::ostream& out, const RunIdentity* id = nullptr) const;

  /// write_jsonl into a file through `vfs` (null = real filesystem).
  /// Returns false when the open or any write failed — callers surface
  /// that as a visible export warning, never a silent truncation.
  bool export_file(const std::string& path, const RunIdentity* id = nullptr,
                   io::Vfs* vfs = nullptr) const;

  void clear();

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
  uint64_t emitted_ = 0;
};

/// Bounded ring of pre-rendered JSONL lines (events + health snapshots).
/// Kept per shard; dumped on crash/salvage. Lines arrive already rendered
/// so the dump path does zero formatting work at crash time.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 256);

  void push(std::string line);

  size_t size() const;
  uint64_t total_pushed() const;
  std::vector<std::string> lines() const;

  /// Write `vsensor-flight/1` through `vfs` (null = real filesystem):
  /// identity header (when given), then the retained lines oldest-first.
  /// Returns false when the open or a write failed (dump sites must never
  /// throw — they run during crashes).
  bool dump(const std::string& path, const RunIdentity* id = nullptr,
            io::Vfs* vfs = nullptr) const;

  void clear();

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<std::string> lines_;
  uint64_t pushed_ = 0;
};

/// Non-owning emission hooks a pipeline component holds. The shard index
/// is stamped onto every event that doesn't carry one, so per-shard
/// detectors/servers emit attributable events without knowing the tier.
struct EventHooks {
  EventLog* log = nullptr;
  FlightRecorder* flight = nullptr;
  int shard = -1;

  explicit operator bool() const {
    return log != nullptr || flight != nullptr;
  }

  void emit(Event e) const;
};

}  // namespace vsensor::obs
