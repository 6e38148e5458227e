// Streaming (incremental) variance detection — the one detection core
// (paper §5.4: the dedicated analysis process folds batches as ranks push
// them, and §2: reports appear during the run). Every run, server,
// checkpoint and tier shard folds through it, and so does the offline
// Detector, which folds a record set into a fresh instance.
//
// Each ingested batch updates per-sensor running state in O(batch) work:
//  * the cross-rank standard time per (sensor, dynamic-rule group) — a
//    running minimum, so arrival order never changes it;
//  * each rank's own fastest slice (intra-process comparison, Fig 13);
//  * Welford mean/variance of normalized performance per sensor;
//  * per-(rank, time-bucket) matrix contributions, stored in a
//    standard-free form (sum of weight/duration), so the final matrices
//    apply the standard only once it is fully known, at the end — no
//    history replay, ever.
//
// Intra-/inter-process variance flags are raised online against the
// standards known at arrival time. finalize() gives exactly what
// Detector::analyze_records gives on the same records: a cell sums only
// records of one (sensor, group, rank), so any delivery that keeps each
// (sensor, rank) pair's records in order yields the same bits.
//
// State layout. The running state is dense, so a record folds by index
// arithmetic rather than tree lookups:
//  * one slot per (sensor, dynamic-rule group) seen, holding the group's
//    standard, one row per rank (the rank's standard, its bucket cells and
//    its checkpoint window) and one bit per rank, set while that window is
//    open. A row's cells are allocated the first time a record of its rank
//    folds into the slot, so a tier shard pays only for the ranks routed
//    to it;
//  * a sensors x ranks array of last slices and a per-rank stale flag.
// Memory is bounded by slots x touched-rank rows x buckets cells (16 bytes
// each) plus slots x ranks x 24 bytes of rows and 1 bit of bitmap, plus
// sensors x ranks last slices (32 bytes each). Records must name a known
// sensor and a rank in [0, ranks); anything else throws.
//
// The dense state has one serialized form, the detector section of a
// checkpoint frame (runtime/checkpoint.hpp), and this class alone knows
// its layout: encode_checkpoint_state writes it straight from the dense
// rows and decode_checkpoint_state reads it straight back into them. Each
// slot is written once, each written row once under it, and each
// non-empty cell as its bucket and two sums (20 bytes). A base frame holds
// the whole state. A delta frame holds what the fold changed since the
// previous frame. For that, each row keeps the window of buckets folded
// into it since the last encode, from the lowest (its mark) to the
// highest, and its slot's bitmap has the rank's bit set while the window
// is open. The fold stores each only when it changes, so a record inside
// its row's window stores nothing for it. Between two encodes a fold or a
// merge only adds or changes entries, never removes one, so the rows whose
// bit is set, each over its window, with the last slices of their
// (sensor, rank), carry every change. A delta reads the bits, not the
// whole state, so it costs what the fold changed. Only reset() and a
// decoded base remove entries, and the server writes a base after both.
// A checkpoint also records buckets(), so recovery refuses one taken at
// another matrix resolution.
//
// The sharded tier combines its shards' detectors with merge_from, dense
// state into dense state. Snapshot, ordered maps of the same state, is a
// read-only export for tests and benchmarks: no production path builds or
// reads one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/events.hpp"
#include "obs/health.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/types.hpp"

namespace vsensor::rt {

/// One (sensor, dynamic-rule group) standard-time minimum in flight between
/// analysis shards. The sharded tier broadcasts these after every routed
/// delivery so each shard's standard board tracks the *global* running
/// minimum — the invariant that makes per-shard inter-process flags equal
/// the single-server run's (see runtime/sharded_tier.hpp).
struct StandardUpdate {
  int32_t sensor_id = 0;
  int32_t group = 0;
  double value = 0.0;
};

/// The two kinds of checkpoint frame (runtime/checkpoint.hpp): a base holds
/// the whole detector state, a delta what the fold changed since the
/// previous frame of either kind.
enum class CheckpointFrame : uint8_t { Base, Delta };

class StreamingDetector final : public BatchSink, public obs::HealthSource {
 public:
  /// The analysis horizon (`run_time`) and rank count are fixed up front;
  /// records past the horizon clamp into the last bucket.
  StreamingDetector(DetectorConfig cfg, std::vector<SensorInfo> sensors,
                    int ranks, double run_time);

  /// Fold one batch into the running state. Thread-safe; O(batch) work.
  /// Column batches reach this fold through the BatchSink bridge. A record
  /// of an unknown sensor or of a rank outside [0, ranks) throws; the
  /// records before it in the batch stay folded.
  using BatchSink::on_batch;
  void on_batch(std::span<const SliceRecord> batch) override;
  void observe(std::span<const SliceRecord> batch) { on_batch(batch); }

  /// Welford running statistics over normalized performance, per sensor.
  /// Normalization uses the standard known when each record arrived.
  struct RunningStats {
    uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;  ///< sum of squared deviations from the running mean
    double variance() const {
      return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
    }
  };
  RunningStats sensor_stats(int sensor_id) const;

  /// Last slice folded per (sensor, rank): online inspection state.
  struct LastSlice {
    double t_end = 0.0;
    double avg_duration = 0.0;
    double normalized = 1.0;  ///< against the standard at arrival time
  };
  std::optional<LastSlice> last_slice(int sensor_id, int rank) const;

  /// Cross-rank standard time of the record's (sensor, group); 0 if unseen.
  double standard_time(int sensor_id, float metric) const;

  /// Graceful degradation under transport failure: once a rank is marked
  /// stale (its batch deliveries stopped arriving — see
  /// BatchTransport::sweep_stale), late stragglers from it are counted in
  /// stale_records() and excluded from standard-time updates, matrices,
  /// flags, and statistics, instead of silently skewing the analysis with
  /// a half-delivered history. Idempotent; thread-safe. The `now` overload
  /// stamps the sweep's virtual time onto the emitted StaleRank event;
  /// callers that don't know the time get an unstamped event (t = -1).
  /// A rank outside [0, ranks) throws, as it does for mark_live.
  void mark_stale(int rank) { mark_stale(rank, -1.0); }
  void mark_stale(int rank, double now);
  std::vector<int> stale_ranks() const;

  /// Elastic revival: `rank` rejoined the run (BatchTransport::rejoin_rank),
  /// so its fresh incarnation's records fold normally again. Lifts the
  /// stale exclusion; records the first incarnation shipped while excluded
  /// stay counted in stale_records() — revival is not retroactive.
  /// Idempotent (reviving a live rank is a no-op); thread-safe.
  void mark_live(int rank) { mark_live(rank, -1.0); }
  void mark_live(int rank, double now);

  /// Transport-layer stale verdicts arriving through the collector (the
  /// server-less wiring: BatchTransport::sweep_stale -> Collector ->
  /// attached sink). Same semantics as mark_stale.
  void on_stale_rank(int rank) override { mark_stale(rank); }
  /// Elastic revival arriving through the collector (server-less wiring).
  void on_live_rank(int rank) override { mark_live(rank); }

  /// Opt in to lowered-standard tracking: every record that inserts or
  /// lowers a (sensor, group) standard queues that key for publication.
  /// Off by default so single-server folds pay nothing. Call before the
  /// first batch folds.
  void enable_standard_publication(bool on = true);

  /// Drain the keys whose standards were lowered since the last call,
  /// reporting each key's current (lowest) value. The sharded tier calls
  /// this after every routed delivery and broadcasts the result.
  std::vector<StandardUpdate> take_lowered_standards();

  /// Fold one externally supplied standard (a peer shard's minimum) into
  /// the board: pure min, touching no record counters and never queueing
  /// for publication (every peer receives the same broadcast). Idempotent,
  /// so journal replay may re-apply updates a checkpoint already covers.
  void apply_standard_update(int sensor_id, int group, double value);

  uint64_t observed_records() const;
  /// Records dropped because their rank was already marked stale.
  uint64_t stale_records() const;
  /// Records dropped as degenerate (avg_duration below kMinStandardTime):
  /// a broken measurement must not pose as the fastest slice.
  uint64_t degenerate_records() const;
  /// Slices below threshold against their own rank's fastest slice (§5.3).
  uint64_t intra_flags() const;
  /// Slices below threshold against the cross-rank standard (§5.4).
  uint64_t inter_flags() const;

  /// Final matrices and variance events: the one place standards meet the
  /// cell sums. Detector::analyze_records over the same records returns
  /// this bit for bit whenever each (sensor, rank) pair's records reached
  /// both in the same order (AnalysisResult::flagged stays empty here —
  /// the online flag counters replace the per-record list).
  AnalysisResult finalize() const;

  /// Per sensor, the (group, slot) of a flag pass's last lookup. The flag
  /// passes of one analysis share one, so a run of one sensor's records
  /// finds its slot without a search, as the fold does. Starts empty;
  /// share one only between passes over an unchanged state.
  using SlotHint = std::vector<std::pair<int, uint32_t>>;

  /// The per-record list of an offline analysis (AnalysisResult::flagged):
  /// a record of `records` is flagged when it is not degenerate, its
  /// sensor has at least min_records folded records, and it scores
  /// max(standard, kMinStandardTime) / avg_duration below
  /// variance_threshold against its (sensor, group)'s current standard.
  /// Returns how many records are flagged and, given `out`, appends them
  /// to it in order, so a counting pass can size the list a second pass
  /// fills. Detector calls it after the last fold, so the standards are
  /// final. A record of an unknown sensor throws; one whose (sensor,
  /// group) has no standard is skipped. One lock for the whole pass.
  size_t flag_records(std::span<const SliceRecord> records, SlotHint& hint,
                      std::vector<FlaggedRecord>* out = nullptr) const;

  const DetectorConfig& config() const { return cfg_; }
  int ranks() const { return ranks_; }
  double run_time() const { return run_time_; }
  /// Matrix time buckets per row: ceil(run_time / matrix_resolution).
  int buckets() const { return buckets_; }
  size_t sensor_count() const { return sensors_.size(); }

  /// Health plane (opt-in, non-owning). With hooks engaged, every online
  /// variance flag and stale-rank verdict becomes a structured event with
  /// its full causal context (virtual time, rank, sensor, group, score vs.
  /// standard). Wire before folding starts; one null-check branch when
  /// unwired. Journal replay after a crash re-folds batches through the
  /// same path, so events are at-least-once across a recovery — exactly
  /// mirroring what the server re-did.
  void set_event_hooks(obs::EventHooks hooks) { hooks_ = hooks; }

  /// Health plane: fold counters, flag totals, and board sizes (standards,
  /// per-rank standards, matrix cells, stale set).
  void sample_health(double now, obs::HealthRecorder& rec) const override;

  // (sensor, group, rank, bucket) -> standard-free matrix contributions.
  // Degenerate records never reach a cell, so every contribution has a
  // positive avg_duration.
  struct CellSums {
    double weight_over_avg = 0.0;  ///< sum of count/avg_duration
    double weight = 0.0;           ///< sum of count for those records
  };
  using CellKey = std::tuple<int, int, int, int>;

  /// The complete mutable state of the detector as ordered maps: a
  /// read-only export for tests and benchmarks, built on demand by
  /// snapshot(). Every field is an exact integer or a double copied bit
  /// for bit, so two snapshots compare the two states exactly.
  struct Snapshot {
    std::map<std::pair<int, int>, double> standard;
    std::map<std::tuple<int, int, int>, double> rank_standard;
    std::map<CellKey, CellSums> cells;
    std::vector<RunningStats> stats;
    std::vector<uint64_t> sensor_records;
    std::map<std::pair<int, int>, LastSlice> last;
    std::set<int> stale;
    uint64_t observed = 0;
    uint64_t stale_records = 0;
    uint64_t degenerate_records = 0;
    uint64_t intra_flags = 0;
    uint64_t inter_flags = 0;
  };
  Snapshot snapshot() const;

  /// Fold `other`'s state into this one (the sharded tier's reduction).
  /// Both must have the same sensor-table size, ranks and buckets, and no
  /// (sensor, group, rank) row may be in both, as when each folded its own
  /// ranks; anything else throws and changes nothing. Rows move across bit
  /// for bit, standards fold by min, counters sum, last slices (the later
  /// of two) and stale flags union, and Welford statistics combine by
  /// Chan's formula, the one field whose bits can differ from a single
  /// fold. Merged rows are marked for the next delta. Locks both.
  void merge_from(const StreamingDetector& other);

  /// Drop all running state (a server crash destroys the in-memory
  /// detector; recovery then decodes a checkpoint and replays the journal).
  void reset();

  /// Append this detector's section of a `vsensor-checkpoint 4` frame
  /// payload to `out`, straight from the dense rows under the detector
  /// lock. A base holds the whole state. A delta lists every standard,
  /// only the rows whose bit is set, each with its non-empty cells from the
  /// lowest to the highest bucket folded since the previous encode, and
  /// only the last slices of the (sensor, rank) pairs of those rows; its
  /// other sections are whole. A delta walks the set bits, never every
  /// row. Either kind closes the windows and clears the bits. `out` grows
  /// once, by the section's exact size.
  void encode_checkpoint_state(std::string& out, CheckpointFrame frame);

  /// The shape a checkpoint section must fit.
  struct CheckpointShape {
    size_t sensors = 0;  ///< sensor-table size
    int ranks = 0;
    uint32_t buckets = 0;
  };
  /// What one checkpoint section holds: its entry counts (rows, cells and
  /// last slices as written, so a delta's are its changes) and counters.
  struct CheckpointCounts {
    uint64_t standards = 0;
    uint64_t rows = 0;
    uint64_t cells = 0;
    uint64_t last = 0;
    uint64_t stale_ranks = 0;
    uint64_t observed = 0;
    uint64_t intra_flags = 0;
    uint64_t inter_flags = 0;
  };

  /// The decoder of encode_checkpoint_state's section, check only: whether
  /// `section` is well formed for `shape` (the checks runtime/checkpoint.hpp
  /// lists). Fills `counts`, if given, only when it is.
  static bool check_checkpoint_state(std::string_view section,
                                     const CheckpointShape& shape,
                                     CheckpointCounts* counts = nullptr);

  /// Decode `section` straight into the running state: check it in full
  /// against this detector's shape, then apply it. A base replaces the
  /// state; a delta's entries are assigned over it and its whole sections
  /// replace the state's. On a failed check it returns false and changes
  /// nothing.
  bool decode_checkpoint_state(std::string_view section, CheckpointFrame frame,
                               CheckpointCounts* counts = nullptr);

 private:
  /// A CellSums::weight no fold can produce: the cell holds no record.
  static constexpr double kEmptyCell = -1.0;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// One rank's row of a slot.
  struct Row {
    /// buckets() cells, null until a record of the rank folds here.
    /// Untouched cells carry weight kEmptyCell.
    std::unique_ptr<CellSums[]> cells;
    /// The rank's fastest slice; meaningful once cells exist.
    double standard = 0.0;
    /// The window of buckets folded into the row since the last checkpoint
    /// encode: the lowest (buckets() when none was) and the highest (0 when
    /// none was).
    uint32_t mark = 0;
    uint32_t high = 0;
  };
  static_assert(sizeof(Row) == 24, "the window fits in the row's padding");

  /// Dense state of one (sensor, dynamic-rule group).
  struct Slot {
    int sensor = 0;
    int group = 0;
    bool has_standard = false;
    double standard = 0.0;
    /// Queued for publication (enable_standard_publication).
    bool queued = false;
    std::vector<Row> rows;  ///< per rank
    /// One bit per rank, set while its row's window is open: the rows the
    /// next delta checkpoint writes.
    std::vector<uint64_t> dirty;
  };

  /// The complete running state; reset() and a decoded base replace it
  /// whole.
  struct State {
    State() = default;
    State(size_t sensors, int ranks);
    /// First position in `order` whose slot is not below (sensor, group).
    std::vector<uint32_t>::const_iterator lower_bound(int sensor,
                                                     int group) const;
    /// Entry counts of a checkpoint base of this state.
    CheckpointCounts sizes() const;

    std::vector<Slot> slots;       ///< in creation order
    std::vector<uint32_t> order;   ///< slot indices by (sensor, group)
    /// Per sensor: the (group, slot) of its last fold, so an ungrouped
    /// sensor finds its slot without a search.
    std::vector<std::pair<int, uint32_t>> hint;
    std::vector<RunningStats> stats;       ///< per sensor id
    std::vector<uint64_t> sensor_records;  ///< per sensor id
    std::vector<std::optional<LastSlice>> last;  ///< sensor * ranks + rank
    std::vector<uint8_t> stale;                  ///< per rank
    uint64_t cells = 0;  ///< cells holding at least one record
    uint64_t observed = 0;
    uint64_t stale_records = 0;
    uint64_t degenerate_records = 0;
    uint64_t intra_flags = 0;
    uint64_t inter_flags = 0;
  };

  int group_of(float metric) const;
  int bucket_of(double time) const;
  /// Slot of (sensor, group) in `st`, created (standard unset, `ranks`
  /// empty rows, no bit set) if absent.
  static uint32_t slot_of(State& st, int sensor, int group, int ranks);
  const Slot* find_slot(int sensor, int group) const;
  /// Allocate `buckets` cells for `row`, all empty, and leave it clean.
  static CellSums* add_row(Row& row, int buckets);
  /// The one decode routine of a checkpoint section: it checks `section`
  /// against `shape` and, given a state, applies it there. Run once to
  /// check and, only if that passed, once to apply.
  static bool decode_section(std::string_view section,
                             const CheckpointShape& shape, State* into,
                             CheckpointCounts* counts);

  DetectorConfig cfg_;
  std::vector<SensorInfo> sensors_;
  int ranks_;
  double run_time_;
  int buckets_;

  mutable std::mutex mu_;
  State st_;
  /// Publication queue (enable_standard_publication): slots whose standard
  /// a folded record inserted or lowered. Transient routing state — never
  /// checkpointed; a recovering shard repopulates it by replaying its
  /// journal and re-broadcasts (idempotent min-folds).
  bool publish_standards_ = false;
  std::vector<uint32_t> lowered_;
  /// Health plane (non-owning; disengaged = one branch per flag site).
  obs::EventHooks hooks_;
};

}  // namespace vsensor::rt
