// Resilient batch transport: sequencing, dedup, retry/backoff, delay and
// reorder, rank-kill, stale tracking — plus streaming-vs-batch equivalence
// under adversarial delivery and the full fault-injection acceptance run.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "runtime/collector.hpp"
#include "runtime/detector.hpp"
#include "runtime/slicer.hpp"
#include "runtime/streaming_detector.hpp"
#include "runtime/transport.hpp"
#include "simmpi/faults.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workload.hpp"

namespace vsensor::rt {
namespace {

SliceRecord make_record(int sensor, int rank, double t, double avg,
                        double metric = 0.0, uint32_t count = 1) {
  SliceRecord r;
  r.sensor_id = sensor;
  r.rank = rank;
  r.t_begin = t;
  r.t_end = t + 1e-3;
  r.avg_duration = avg;
  r.min_duration = avg;
  r.count = count;
  r.metric = static_cast<float>(metric);
  return r;
}

std::vector<SensorInfo> one_sensor(SensorType type = SensorType::Computation) {
  return {SensorInfo{"s0", type, "s.c", 1}};
}

bool same_record(const SliceRecord& a, const SliceRecord& b) {
  return a.sensor_id == b.sensor_id && a.rank == b.rank &&
         a.t_begin == b.t_begin && a.t_end == b.t_end &&
         a.avg_duration == b.avg_duration && a.min_duration == b.min_duration &&
         a.count == b.count && a.metric == b.metric && a.flags == b.flags;
}

std::vector<SliceRecord> sorted_records(const Collector& collector) {
  auto records = collector.records();
  std::sort(records.begin(), records.end(),
            [](const SliceRecord& a, const SliceRecord& b) {
              return std::tie(a.sensor_id, a.rank, a.t_begin, a.avg_duration) <
                     std::tie(b.sensor_id, b.rank, b.t_begin, b.avg_duration);
            });
  return records;
}

void expect_same_matrices(const AnalysisResult& batch,
                          const AnalysisResult& streaming) {
  for (int t = 0; t < kSensorTypeCount; ++t) {
    const auto& bm = batch.matrices[static_cast<size_t>(t)];
    const auto& sm = streaming.matrices[static_cast<size_t>(t)];
    ASSERT_EQ(bm.ranks(), sm.ranks());
    ASSERT_EQ(bm.buckets(), sm.buckets());
    for (int r = 0; r < bm.ranks(); ++r) {
      for (int b = 0; b < bm.buckets(); ++b) {
        ASSERT_EQ(bm.has(r, b), sm.has(r, b))
            << "type " << t << " cell " << r << "," << b;
        if (bm.has(r, b)) {
          EXPECT_NEAR(bm.at(r, b), sm.at(r, b), 1e-12)
              << "type " << t << " cell " << r << "," << b;
        }
      }
    }
  }
  ASSERT_EQ(batch.events.size(), streaming.events.size());
  for (size_t i = 0; i < batch.events.size(); ++i) {
    EXPECT_EQ(batch.events[i].type, streaming.events[i].type) << i;
    EXPECT_EQ(batch.events[i].cells, streaming.events[i].cells) << i;
  }
}

/// Scripted fault model: a fixed fate per (seq, attempt) for every rank.
class ScriptedFaults final : public TransportFaultModel {
 public:
  using Script = std::function<Decision(int, uint64_t, uint32_t)>;
  explicit ScriptedFaults(Script script, int kill_rank = -1,
                          double kill_time = 0.0)
      : script_(std::move(script)), kill_rank_(kill_rank),
        kill_time_(kill_time) {}

  Decision decide(int rank, uint64_t seq, uint32_t attempt) const override {
    return script_(rank, seq, attempt);
  }
  bool killed(int rank, double now) const override {
    return kill_rank_ >= 0 && rank == kill_rank_ && now >= kill_time_;
  }

 private:
  Script script_;
  int kill_rank_;
  double kill_time_;
};

TransportFaultModel::Decision no_fault(int, uint64_t, uint32_t) { return {}; }

/// Every shipped batch is accounted exactly once: delivered or lost.
void expect_conserved(const RankChannelStats& s) {
  EXPECT_EQ(s.batches_sent, s.batches_delivered + s.batches_lost);
}

// ---------------------------------------------------------------------------
// Pass-through and sequencing
// ---------------------------------------------------------------------------

TEST(Transport, NoFaultPassThroughMatchesDirectIngest) {
  Collector direct;
  Collector via;
  BatchTransport transport(&via, 2);

  std::vector<std::vector<SliceRecord>> batches;
  for (int b = 0; b < 3; ++b) {
    std::vector<SliceRecord> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(make_record(0, b % 2, 1e-3 * (b * 4 + i), 2.0 + i));
    }
    batches.push_back(std::move(batch));
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    direct.ingest(batches[b]);
    EXPECT_TRUE(transport.ship(static_cast<int>(b) % 2, batches[b],
                               1e-3 * static_cast<double>(b)));
  }
  transport.drain();

  const auto want = direct.records();
  const auto got = via.records();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_record(want[i], got[i])) << i;
  }

  const auto totals = transport.totals();
  EXPECT_EQ(totals.batches_sent, 3u);
  EXPECT_EQ(totals.batches_delivered, 3u);
  EXPECT_EQ(totals.batches_lost, 0u);
  EXPECT_EQ(totals.records_delivered, 12u);
  EXPECT_EQ(totals.records_lost, 0u);
  EXPECT_EQ(totals.retries, 0u);
  EXPECT_EQ(totals.duplicates_suppressed, 0u);
  EXPECT_EQ(totals.wire_bytes, 12u * kRecordWireBytes);
  // Sequence numbers are per rank and dense: rank 0 shipped 2, rank 1 one.
  EXPECT_EQ(transport.rank_stats(0).next_seq, 2u);
  EXPECT_EQ(transport.rank_stats(1).next_seq, 1u);
}

TEST(Transport, EmptyBatchIsANoOp) {
  Collector collector;
  BatchTransport transport(&collector, 1);
  EXPECT_TRUE(transport.ship(0, std::span<const SliceRecord>{}, 0.0));
  EXPECT_EQ(transport.totals().batches_sent, 0u);
  EXPECT_EQ(collector.record_count(), 0u);
}

// The column adapter gathers to AoS once and takes the span path.
TEST(Transport, SoaShipGathersOnceAndRoundTrips) {
  Collector collector;
  BatchTransport transport(&collector, 1);

  RecordBatch batch;
  batch.push_back(make_record(0, 0, 0.0, 2.0));
  batch.push_back(make_record(0, 0, 1e-3, 3.0));
  EXPECT_TRUE(transport.ship(0, batch, 1e-3));
  transport.drain();

  const auto records = collector.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(same_record(records[0], batch.get(0)));
  EXPECT_TRUE(same_record(records[1], batch.get(1)));
  expect_conserved(transport.rank_stats(0));
}

// ---------------------------------------------------------------------------
// Duplicate suppression
// ---------------------------------------------------------------------------

TEST(Transport, DuplicateDeliveriesAreSuppressed) {
  Collector collector;
  ScriptedFaults faults([](int, uint64_t, uint32_t) {
    TransportFaultModel::Decision d;
    d.duplicate = true;  // every delivery arrives twice
    return d;
  });
  BatchTransport transport(&collector, 1, {}, &faults);

  for (int b = 0; b < 5; ++b) {
    const std::vector<SliceRecord> batch{
        make_record(0, 0, 1e-3 * b, 2.0),
        make_record(0, 0, 1e-3 * b + 5e-4, 3.0)};
    EXPECT_TRUE(transport.ship(0, batch, 1e-3 * b));
  }

  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.batches_delivered, 5u);
  EXPECT_EQ(stats.duplicates_suppressed, 5u);
  EXPECT_EQ(stats.records_delivered, 10u);
  // Duplicates still crossed the wire; they just never reach the analysis.
  EXPECT_EQ(stats.wire_bytes, 20u * kRecordWireBytes);
  EXPECT_EQ(collector.record_count(), 10u);
  expect_conserved(stats);
}

// ---------------------------------------------------------------------------
// Retry with backoff
// ---------------------------------------------------------------------------

TEST(Transport, RetryRecoversFromTransientDrops) {
  Collector collector;
  // First two attempts of every batch drop; the third succeeds.
  ScriptedFaults faults([](int, uint64_t, uint32_t attempt) {
    TransportFaultModel::Decision d;
    d.drop = attempt < 2;
    return d;
  });
  TransportConfig cfg;
  cfg.max_attempts = 4;
  cfg.retry_backoff = 1e-4;
  BatchTransport transport(&collector, 1, cfg, &faults);

  const std::vector<SliceRecord> batch{make_record(0, 0, 0.0, 2.0)};
  EXPECT_TRUE(transport.ship(0, batch, 0.0));

  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.batches_delivered, 1u);
  EXPECT_EQ(stats.batches_lost, 0u);
  EXPECT_EQ(stats.retries, 2u);
  // Exponential backoff: 1e-4 after the first drop, 2e-4 after the second.
  EXPECT_DOUBLE_EQ(stats.backoff_seconds, 3e-4);
  // The delivery time reflects the backoff the batch waited through.
  EXPECT_DOUBLE_EQ(stats.last_delivery_time, 3e-4);
  EXPECT_EQ(collector.record_count(), 1u);
  expect_conserved(stats);
}

TEST(Transport, BatchIsLostWhenAttemptsExhaust) {
  Collector collector;
  ScriptedFaults faults([](int, uint64_t, uint32_t) {
    TransportFaultModel::Decision d;
    d.drop = true;
    return d;
  });
  TransportConfig cfg;
  cfg.max_attempts = 3;
  BatchTransport transport(&collector, 1, cfg, &faults);

  const std::vector<SliceRecord> batch{make_record(0, 0, 0.0, 2.0),
                                       make_record(0, 0, 5e-4, 3.0)};
  EXPECT_FALSE(transport.ship(0, batch, 0.0));

  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.batches_sent, 1u);
  EXPECT_EQ(stats.batches_delivered, 0u);
  EXPECT_EQ(stats.batches_lost, 1u);
  EXPECT_EQ(stats.records_lost, 2u);
  // The final attempt fails outright; only the first two count as retries.
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(collector.record_count(), 0u);
  expect_conserved(stats);
}

// ---------------------------------------------------------------------------
// Delay / reorder
// ---------------------------------------------------------------------------

TEST(Transport, DelayedBatchIsOvertakenThenReleased) {
  Collector collector;
  // Batch seq 0 waits behind the next two deliveries; everything else sails.
  ScriptedFaults faults([](int, uint64_t seq, uint32_t) {
    TransportFaultModel::Decision d;
    if (seq == 0) d.delay_batches = 2;
    return d;
  });
  BatchTransport transport(&collector, 1, {}, &faults);

  for (int b = 0; b < 3; ++b) {
    const std::vector<SliceRecord> batch{
        make_record(0, 0, 1e-3 * b, 2.0 + b)};
    EXPECT_TRUE(transport.ship(0, batch, 1e-3 * b));
  }

  // Released after two later arrivals — collector order shows the overtake.
  const auto records = collector.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].avg_duration, 3.0);
  EXPECT_DOUBLE_EQ(records[1].avg_duration, 4.0);
  EXPECT_DOUBLE_EQ(records[2].avg_duration, 2.0);
  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.delayed_batches, 1u);
  EXPECT_EQ(stats.batches_delivered, 3u);
  expect_conserved(stats);
}

TEST(Transport, DrainDeliversBatchesStillHeldInTheDelayQueue) {
  Collector collector;
  ScriptedFaults faults([](int, uint64_t, uint32_t) {
    TransportFaultModel::Decision d;
    d.delay_batches = 5;  // held longer than the run has arrivals
    return d;
  });
  BatchTransport transport(&collector, 1, {}, &faults);

  EXPECT_TRUE(
      transport.ship(0, {{make_record(0, 0, 0.0, 2.0)}}, 0.0));
  EXPECT_EQ(collector.record_count(), 0u);  // still in flight

  transport.drain();
  EXPECT_EQ(collector.record_count(), 1u);
  EXPECT_EQ(transport.rank_stats(0).batches_delivered, 1u);
  expect_conserved(transport.rank_stats(0));
}

TEST(Transport, DuplicateOfADelayedBatchIsSuppressedOnRelease) {
  Collector collector;
  ScriptedFaults faults([](int, uint64_t, uint32_t) {
    TransportFaultModel::Decision d;
    d.delay_batches = 3;
    d.duplicate = true;  // one copy held, one arrives immediately
    return d;
  });
  BatchTransport transport(&collector, 1, {}, &faults);

  EXPECT_TRUE(
      transport.ship(0, {{make_record(0, 0, 0.0, 2.0)}}, 0.0));
  transport.drain();

  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.batches_delivered, 1u);
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(collector.record_count(), 1u);
  expect_conserved(stats);
}

TEST(Transport, DrainCountsASuppressedOriginalLikeAnArrival) {
  // Delayed by 2 and duplicated, with no later delivery: the duplicate copy
  // lands first, and drain() releases the held original as the duplicate.
  // drain() and arrive() share one accept path, so the metric counts it too.
  Collector collector;
  ScriptedFaults faults([](int, uint64_t, uint32_t) {
    TransportFaultModel::Decision d;
    d.delay_batches = 2;
    d.duplicate = true;
    return d;
  });
  BatchTransport transport(&collector, 1, {}, &faults);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto& metric = obs::MetricsRegistry::global().counter(
      "transport.duplicates_suppressed");
  const uint64_t metric_before = metric.value();

  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 0.0, 2.0)}}, 0.0));
  EXPECT_EQ(collector.record_count(), 1u);  // the duplicate copy
  EXPECT_EQ(transport.rank_stats(0).duplicates_suppressed, 0u);
  transport.drain();
  const uint64_t metric_delta = metric.value() - metric_before;
  obs::set_enabled(was_enabled);

  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.batches_delivered, 1u);
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(stats.wire_bytes, 2 * kRecordWireBytes);
  EXPECT_EQ(collector.record_count(), 1u);
  expect_conserved(stats);
#if VSENSOR_OBS
  EXPECT_EQ(metric_delta, stats.duplicates_suppressed);
#else
  EXPECT_EQ(metric_delta, 0u);
#endif
}

// ---------------------------------------------------------------------------
// Rank kill and staleness
// ---------------------------------------------------------------------------

TEST(Transport, KilledRankLosesBatchesWithoutRetry) {
  Collector collector;
  ScriptedFaults faults(no_fault, /*kill_rank=*/0, /*kill_time=*/5.0);
  BatchTransport transport(&collector, 2, {}, &faults);

  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 1.0, 2.0)}}, 1.0));
  EXPECT_FALSE(transport.ship(0, {{make_record(0, 0, 6.0, 2.0)}}, 6.0));
  EXPECT_TRUE(transport.ship(1, {{make_record(0, 1, 6.0, 2.0)}}, 6.0));

  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.batches_delivered, 1u);
  EXPECT_EQ(stats.batches_lost, 1u);
  EXPECT_EQ(stats.retries, 0u);  // a dead transport is not retried
  expect_conserved(stats);

  const auto stale = transport.stale_ranks(6.0);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 0);
}

TEST(Transport, SilentRankGoesStaleAfterThreshold) {
  Collector collector;
  TransportConfig cfg;
  cfg.stale_after = 1.0;
  BatchTransport transport(&collector, 2, cfg);

  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 1.0, 2.0)}}, 1.0));
  // Rank 1 never delivered anything: stale once the run outlives the
  // threshold. Rank 0 goes stale only after a silence longer than it.
  EXPECT_TRUE(transport.stale_ranks(0.5).empty());
  EXPECT_EQ(transport.stale_ranks(1.5), std::vector<int>{1});
  const auto both = transport.stale_ranks(2.5);
  EXPECT_EQ(both, (std::vector<int>{0, 1}));

  // Fresh delivery clears the staleness.
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 2.5, 2.0)}}, 2.5));
  EXPECT_EQ(transport.stale_ranks(3.0), std::vector<int>{1});
}

TEST(Transport, SweepStaleReportsEachRankOnce) {
  Collector collector;
  TransportConfig cfg;
  cfg.stale_after = 1.0;
  BatchTransport transport(&collector, 3, cfg);
  EXPECT_TRUE(transport.ship(2, {{make_record(0, 2, 1.0, 2.0)}}, 1.0));

  std::vector<int> reported;
  auto record_rank = [&reported](int r) { reported.push_back(r); };
  EXPECT_EQ(transport.sweep_stale(0.5, record_rank), 0u);
  EXPECT_EQ(transport.sweep_stale(1.5, record_rank), 2u);  // ranks 0 and 1
  EXPECT_EQ(transport.sweep_stale(2.5, record_rank), 1u);  // now rank 2 too
  EXPECT_EQ(transport.sweep_stale(3.5, record_rank), 0u);  // idempotent
  EXPECT_EQ(reported, (std::vector<int>{0, 1, 2}));
}

// Regression: a channel created mid-run (late joiner) must age from its
// first-contact time, not from t=0 — the old code treated "never delivered"
// as "born at time zero" and insta-flagged any rank joining after
// stale_after elapsed.
TEST(Transport, LateJoinedRankAgesFromFirstContact) {
  Collector collector;
  TransportConfig cfg;
  cfg.stale_after = 1.0;
  BatchTransport transport(&collector, 1, cfg);
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 5.0, 2.0)}}, 5.0));

  const int late = transport.add_rank(/*now=*/5.0);
  EXPECT_EQ(late, 1);
  // Not stale until a full stale_after has passed since first contact.
  EXPECT_TRUE(transport.stale_ranks(5.5).empty());
  EXPECT_TRUE(transport.stale_ranks(6.0).empty());
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 6.2, 2.0)}}, 6.2));
  EXPECT_EQ(transport.stale_ranks(6.5), std::vector<int>{late});

  // The late channel is a first-class citizen: a delivery refreshes it.
  EXPECT_TRUE(transport.ship(late, {{make_record(0, late, 6.6, 2.0)}}, 6.6));
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 6.6, 2.0)}}, 6.6));
  EXPECT_TRUE(transport.stale_ranks(7.0).empty());
}

// Regression: the reported stale set is the sweep's verdict, not a raw
// recomputation. A rank that recovers after it was swept stays in the
// reported set (the analysis already excluded it) even though a fresh
// stale_ranks() no longer lists it.
TEST(Transport, ReportedStaleSetSurvivesLateRecovery) {
  Collector collector;
  TransportConfig cfg;
  cfg.stale_after = 1.0;
  BatchTransport transport(&collector, 2, cfg);
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 1.0, 2.0)}}, 1.0));

  std::vector<int> swept;
  transport.sweep_stale(2.5, [&swept](int r) { swept.push_back(r); });
  EXPECT_EQ(swept, (std::vector<int>{0, 1}));
  EXPECT_EQ(transport.reported_stale_ranks(), swept);

  // Rank 0 comes back. The raw recomputation forgets it was ever swept;
  // the reported set must not.
  EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, 3.0, 2.0)}}, 3.0));
  EXPECT_EQ(transport.stale_ranks(3.5), std::vector<int>{1});
  EXPECT_EQ(transport.reported_stale_ranks(), (std::vector<int>{0, 1}));
}

// Regression (elastic ranks): a rank that leaves, is swept stale, and later
// rejoins under the same id ships a fresh incarnation whose sequence
// numbers restart at zero. The pre-leave receive watermark must NOT swallow
// those fresh deliveries as duplicates, and the rank must not stay (or be
// re-) reported stale after an explicit rejoin.
TEST(Transport, RejoinedRankDeliveriesNotSwallowedByOldWatermark) {
  Collector collector;
  TransportConfig cfg;
  cfg.stale_after = 1.0;
  BatchTransport transport(&collector, 2, cfg);

  // First incarnation: three deliveries from rank 0.
  for (int i = 0; i < 3; ++i) {
    const double t = 0.1 * (i + 1);
    EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, t, 2.0)}}, t));
  }
  EXPECT_TRUE(transport.ship(1, {{make_record(0, 1, 1.4, 2.0)}}, 1.4));

  // Rank 0 leaves; the sweep declares it stale.
  std::vector<int> swept;
  transport.sweep_stale(1.5, [&swept](int r) { swept.push_back(r); });
  EXPECT_EQ(swept, std::vector<int>{0});
  EXPECT_EQ(transport.reported_stale_ranks(), std::vector<int>{0});

  // Rejoin under the same id: a fresh incarnation, shipping from seq 0.
  EXPECT_TRUE(transport.rejoin_rank(0, 2.0));
  for (int i = 0; i < 3; ++i) {
    const double t = 2.0 + 0.1 * (i + 1);
    EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, t, 2.0)}}, t));
  }
  transport.drain();

  // The fresh deliveries are unique, not duplicates of the first
  // incarnation's seqs 0..2.
  const auto stats = transport.rank_stats(0);
  EXPECT_EQ(stats.duplicates_suppressed, 0u);
  EXPECT_EQ(stats.batches_delivered, 6u);
  EXPECT_EQ(collector.record_count(), 7u);

  // Delivering again, the rank is live: not stale, not re-swept, and the
  // explicit rejoin cleared the sticky reported verdict.
  EXPECT_TRUE(transport.stale_ranks(2.4).empty());
  EXPECT_EQ(transport.sweep_stale(2.4, nullptr), 0u);
  EXPECT_TRUE(transport.reported_stale_ranks().empty());
}

// A straggler from the pre-leave incarnation arriving after the rejoin is
// history, not news: it must be suppressed as a duplicate instead of
// double-counting into the fresh incarnation's stream.
TEST(Transport, PreRejoinStragglerIsSuppressedAfterRejoin) {
  Collector collector;
  ScriptedFaults faults([](int, uint64_t seq, uint32_t) {
    TransportFaultModel::Decision d;
    // The first incarnation's last batch is held back behind the next two
    // deliveries — it releases mid-way through the second incarnation.
    d.delay_batches = seq_local(seq) == 2 && seq_generation(seq) == 0 ? 2 : 0;
    return d;
  });
  TransportConfig cfg;
  cfg.stale_after = 1.0;
  BatchTransport transport(&collector, 1, cfg, &faults);

  for (int i = 0; i < 3; ++i) {
    const double t = 0.1 * (i + 1);
    EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, t, 2.0)}}, t));
  }
  transport.sweep_stale(1.5, nullptr);
  EXPECT_TRUE(transport.rejoin_rank(0, 2.0));
  for (int i = 0; i < 3; ++i) {
    const double t = 2.0 + 0.1 * (i + 1);
    EXPECT_TRUE(transport.ship(0, {{make_record(0, 0, t, 2.0)}}, t));
  }
  transport.drain();

  const auto stats = transport.rank_stats(0);
  // The delayed gen-0 batch released after the rejoin reads as a duplicate
  // of superseded history; the five on-time batches delivered.
  EXPECT_EQ(stats.batches_delivered, 5u);
  EXPECT_EQ(stats.duplicates_suppressed, 1u);
  EXPECT_EQ(collector.record_count(), 5u);
}

// ---------------------------------------------------------------------------
// BatchStage integration
// ---------------------------------------------------------------------------

TEST(Transport, BatchStageShipsThroughTransportAndCountsLosses) {
  Collector collector;
  ScriptedFaults faults([](int, uint64_t seq, uint32_t) {
    TransportFaultModel::Decision d;
    d.drop = seq == 1;  // the second batch is unrecoverable
    return d;
  });
  TransportConfig cfg;
  cfg.max_attempts = 1;
  BatchTransport transport(&collector, 1, cfg, &faults);

  BatchStage stage(transport, /*rank=*/0, /*capacity=*/2);
  for (int i = 0; i < 6; ++i) {
    stage.push(make_record(0, 0, 1e-3 * i, 2.0));
  }
  EXPECT_EQ(stage.shipped_batches(), 3u);
  EXPECT_EQ(stage.lost_records(), 2u);
  EXPECT_EQ(collector.record_count(), 4u);
  expect_conserved(transport.rank_stats(0));
}

TEST(Transport, BatchStageDestructorFlushesStagedRecords) {
  Collector collector;
  const uint64_t before = BatchStage::unflushed_records();
  {
    BatchStage stage(&collector, /*capacity=*/16);
    stage.push(make_record(0, 0, 0.0, 2.0));
    stage.push(make_record(0, 0, 5e-4, 3.0));
    // No flush(): teardown must rescue the staged records.
  }
  EXPECT_EQ(collector.record_count(), 2u);
  EXPECT_EQ(BatchStage::unflushed_records() - before, 2u);

  // An explicitly flushed stage leaves the counter untouched.
  {
    BatchStage stage(&collector, /*capacity=*/16);
    stage.push(make_record(0, 0, 1e-3, 2.0));
    stage.flush();
  }
  EXPECT_EQ(BatchStage::unflushed_records() - before, 2u);
}

// ---------------------------------------------------------------------------
// Deterministic fault injector
// ---------------------------------------------------------------------------

TEST(FaultInjector, DecisionsAreDeterministicAndSeedSensitive) {
  simmpi::FaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.duplicate_prob = 0.3;
  cfg.delay_prob = 0.3;
  const simmpi::FaultInjector a(cfg);
  const simmpi::FaultInjector b(cfg);
  cfg.seed = 999;
  const simmpi::FaultInjector other(cfg);

  int differs = 0;
  for (int rank = 0; rank < 4; ++rank) {
    for (uint64_t seq = 0; seq < 64; ++seq) {
      const auto da = a.decide(rank, seq, 0);
      const auto db = b.decide(rank, seq, 0);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_EQ(da.duplicate, db.duplicate);
      EXPECT_EQ(da.delay_batches, db.delay_batches);
      const auto dc = other.decide(rank, seq, 0);
      if (da.drop != dc.drop || da.duplicate != dc.duplicate ||
          da.delay_batches != dc.delay_batches) {
        ++differs;
      }
    }
  }
  EXPECT_GT(differs, 0) << "a different seed must give a different pattern";
}

TEST(FaultInjector, RatesTrackConfiguredProbabilities) {
  simmpi::FaultConfig cfg;
  cfg.drop_prob = 0.2;
  const simmpi::FaultInjector inj(cfg);
  int drops = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (inj.decide(0, static_cast<uint64_t>(i), 0).drop) ++drops;
  }
  const double rate = static_cast<double>(drops) / n;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(FaultInjector, AttemptsAreIndependentSoRetriesCanSucceed) {
  simmpi::FaultConfig cfg;
  cfg.drop_prob = 0.5;
  const simmpi::FaultInjector inj(cfg);
  // Across many batches, some must drop on attempt 0 and pass on attempt 1 —
  // i.e. the retry path is actually exercisable.
  int recovered = 0;
  for (uint64_t seq = 0; seq < 256; ++seq) {
    if (inj.decide(0, seq, 0).drop && !inj.decide(0, seq, 1).drop) ++recovered;
  }
  EXPECT_GT(recovered, 0);
}

// ---------------------------------------------------------------------------
// Streaming-vs-batch equivalence under adversarial delivery
// ---------------------------------------------------------------------------

TEST(Transport, StreamingMatchesBatchUnderAdversarialDelivery) {
  const int ranks = 4;
  const double run_time = 0.1;
  DetectorConfig dcfg;
  dcfg.matrix_resolution = run_time / 20.0;

  simmpi::FaultConfig fcfg;
  fcfg.drop_prob = 0.3;
  fcfg.duplicate_prob = 0.15;
  fcfg.delay_prob = 0.2;
  fcfg.max_delay_batches = 3;
  const simmpi::FaultInjector faults(fcfg);

  Collector collector;
  collector.set_sensors(one_sensor());
  StreamingDetector streaming(dcfg, one_sensor(), ranks, run_time);
  collector.attach_sink(&streaming);
  // A two-attempt budget against a 30% drop rate: some batches are lost
  // outright, so the loss accounting is exercised too.
  TransportConfig tcfg;
  tcfg.max_attempts = 2;
  BatchTransport transport(&collector, ranks, tcfg, &faults);

  // 40 batches per rank, 2 records each, with enough spread that some
  // records are slow (variance) and one in ten is degenerate (zero length).
  for (int rank = 0; rank < ranks; ++rank) {
    for (int b = 0; b < 40; ++b) {
      const double t = run_time * static_cast<double>(b) / 40.0;
      std::vector<SliceRecord> batch;
      const double avg = (b % 7 == 0) ? 5.0 : 2.0 + 0.1 * rank;
      batch.push_back(make_record(0, rank, t, avg));
      batch.push_back(
          make_record(0, rank, t + 1e-4, (b % 10 == 0) ? 0.0 : avg));
      transport.ship(rank, batch, t);
    }
  }
  transport.drain();

  const auto totals = transport.totals();
  EXPECT_GT(totals.duplicates_suppressed, 0u);
  EXPECT_GT(totals.delayed_batches, 0u);
  EXPECT_GT(totals.batches_lost, 0u);
  EXPECT_EQ(totals.batches_sent,
            totals.batches_delivered + totals.batches_lost);
  // The streaming detector saw exactly the delivered records, once each.
  EXPECT_EQ(streaming.observed_records(), totals.records_delivered);
  EXPECT_EQ(collector.record_count(), totals.records_delivered);

  // ...and folds them into the same matrices the batch detector computes
  // from the collector's retained records.
  const Detector detector(dcfg);
  const auto batch = detector.analyze_records(collector.records(),
                                              one_sensor(), ranks, run_time);
  expect_same_matrices(batch, streaming.finalize());
}

TEST(Streaming, MidRunMarkStaleExcludesStragglers) {
  const int ranks = 2;
  const double run_time = 0.02;
  DetectorConfig dcfg;
  dcfg.matrix_resolution = run_time / 10.0;

  StreamingDetector streaming(dcfg, one_sensor(), ranks, run_time);
  std::vector<SliceRecord> kept;
  for (int i = 0; i < 10; ++i) {
    const double t = 1e-3 * i;
    const std::vector<SliceRecord> batch{make_record(0, 0, t, 2.0),
                                         make_record(0, 1, t, 2.5)};
    streaming.observe(batch);
    kept.insert(kept.end(), batch.begin(), batch.end());
  }
  streaming.mark_stale(1);
  for (int i = 10; i < 20; ++i) {
    const double t = 1e-3 * i;
    streaming.observe({{make_record(0, 0, t, 2.0)}});
    kept.push_back(make_record(0, 0, t, 2.0));
    // Stragglers from the stale rank are counted, not folded.
    streaming.observe({{make_record(0, 1, t, 0.5)}});
  }

  EXPECT_EQ(streaming.stale_ranks(), std::vector<int>{1});
  EXPECT_EQ(streaming.stale_records(), 10u);
  EXPECT_EQ(streaming.observed_records(), 40u);

  const auto result = streaming.finalize();
  EXPECT_EQ(result.stale_ranks, std::vector<int>{1});
  // The matrices match a batch analysis over only the folded records: the
  // stale rank's stragglers (all far below the standard) left no trace.
  const Detector detector(dcfg);
  const auto batch =
      detector.analyze_records(kept, one_sensor(), ranks, run_time);
  expect_same_matrices(batch, result);
}

TEST(Detector, DropStaleRanksFiltersRecords) {
  std::vector<SliceRecord> records{
      make_record(0, 0, 0.0, 2.0), make_record(0, 1, 0.0, 2.0),
      make_record(0, 2, 0.0, 2.0), make_record(0, 1, 1e-3, 3.0)};
  const std::vector<int> stale{1};
  const auto kept = drop_stale_ranks(records, stale);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].rank, 0);
  EXPECT_EQ(kept[1].rank, 2);
  EXPECT_TRUE(drop_stale_ranks(records, {}).size() == records.size());
}

// ---------------------------------------------------------------------------
// End-to-end workload runs
// ---------------------------------------------------------------------------

workloads::RunOptions quick_options() {
  workloads::RunOptions opts;
  opts.params.iterations = 6;
  opts.params.scale = 0.08;
  opts.runtime.batch_records = 8;  // many small batches: more wire traffic
  return opts;
}

TEST(TransportWorkload, ZeroProbabilityInjectionIsBitIdentical) {
  const auto cg = workloads::make_workload("CG");
  const int ranks = 8;

  auto plain_cfg = workloads::baseline_config(ranks);
  plain_cfg.ranks_per_node = 4;
  Collector plain;
  const auto run_plain =
      workloads::run_workload(*cg, plain_cfg, quick_options(), &plain);

  auto injected_cfg = workloads::baseline_config(ranks);
  injected_cfg.ranks_per_node = 4;
  injected_cfg.transport_faults =
      std::make_shared<simmpi::FaultInjector>(simmpi::FaultConfig{});
  Collector injected;
  const auto run_injected =
      workloads::run_workload(*cg, injected_cfg, quick_options(), &injected);

  EXPECT_DOUBLE_EQ(run_plain.makespan, run_injected.makespan);
  const auto a = sorted_records(plain);
  const auto b = sorted_records(injected);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_record(a[i], b[i])) << i;
  }
  const auto totals = run_injected.transport_totals;
  EXPECT_EQ(totals.retries, 0u);
  EXPECT_EQ(totals.duplicates_suppressed, 0u);
  EXPECT_EQ(totals.batches_lost, 0u);
  EXPECT_TRUE(run_injected.stale_ranks.empty());
}

TEST(TransportWorkload, FaultInjectionAcceptanceScenario) {
  const auto cg = workloads::make_workload("CG");
  const int ranks = 8;

  // Probe run: learn the makespan (fault injection never touches the
  // simulated job's clocks, so the faulted run has the same makespan).
  auto probe_cfg = workloads::baseline_config(ranks);
  probe_cfg.ranks_per_node = 4;
  Collector probe;
  const auto probe_run =
      workloads::run_workload(*cg, probe_cfg, quick_options(), &probe);
  const double makespan = probe_run.makespan;
  ASSERT_GT(makespan, 0.0);

  // The ISSUE scenario: 5% drops, 5% duplicates, delays up to 2 batches,
  // and one rank's transport killed mid-run.
  simmpi::FaultConfig fcfg;
  fcfg.drop_prob = 0.05;
  fcfg.duplicate_prob = 0.05;
  fcfg.delay_prob = 0.10;
  fcfg.max_delay_batches = 2;
  fcfg.kill_rank = 2;
  fcfg.kill_time = makespan / 2.0;

  auto cfg = workloads::baseline_config(ranks);
  cfg.ranks_per_node = 4;
  cfg.transport_faults = std::make_shared<simmpi::FaultInjector>(fcfg);

  DetectorConfig dcfg;
  dcfg.matrix_resolution = makespan / 25.0;
  Collector collector;
  collector.set_sensors(cg->sensors());
  StreamingDetector streaming(dcfg, cg->sensors(), ranks, makespan);
  collector.attach_sink(&streaming);

  auto options = quick_options();
  options.transport.stale_after = makespan / 4.0;
  const auto run =
      workloads::run_workload(*cg, cfg, options, &collector);

  // The run completed (no crash, no deadlock) and the makespan is the
  // uninjected one: faults never leak into the simulated job.
  EXPECT_DOUBLE_EQ(run.makespan, makespan);

  const auto& totals = run.transport_totals;
  EXPECT_GT(totals.batches_sent, 0u);
  EXPECT_EQ(totals.batches_sent,
            totals.batches_delivered + totals.batches_lost);
  // Dup suppression is provable from the counters: every duplicate that
  // crossed the wire was swallowed before the collector.
  EXPECT_GT(totals.duplicates_suppressed, 0u);
  EXPECT_EQ(collector.record_count(), totals.records_delivered);
  EXPECT_GT(totals.retries, 0u);
  // The killed rank lost data and is reported stale at end of run.
  EXPECT_GT(run.transport[2].batches_lost, 0u);
  EXPECT_NE(std::find(run.stale_ranks.begin(), run.stale_ranks.end(), 2),
            run.stale_ranks.end());

  // Graceful degradation: the surviving analysis equals a batch analysis
  // of exactly the records that were delivered.
  const Detector detector(dcfg);
  const auto batch = detector.analyze_records(collector.records(),
                                              cg->sensors(), ranks, makespan);
  expect_same_matrices(batch, streaming.finalize());
  EXPECT_EQ(streaming.observed_records(), totals.records_delivered);
}

// Regression: a server-less run (collector + streaming sink, no
// AnalysisServer) must still sweep stale ranks into the detector. An
// early wiring swept only when a server was attached, so the streaming
// detector never heard about the killed rank and its stale set diverged
// from the run's.
TEST(TransportWorkload, ServerlessRunSweepsStaleIntoDetector) {
  const auto cg = workloads::make_workload("CG");
  const int ranks = 8;

  // Probe run for the makespan (fault injection never touches it).
  auto probe_cfg = workloads::baseline_config(ranks);
  probe_cfg.ranks_per_node = 4;
  Collector probe;
  const auto probe_run =
      workloads::run_workload(*cg, probe_cfg, quick_options(), &probe);
  const double makespan = probe_run.makespan;
  ASSERT_GT(makespan, 0.0);

  simmpi::FaultConfig fcfg;
  fcfg.kill_rank = 3;
  fcfg.kill_time = makespan / 2.0;
  auto cfg = workloads::baseline_config(ranks);
  cfg.ranks_per_node = 4;
  cfg.transport_faults = std::make_shared<simmpi::FaultInjector>(fcfg);

  DetectorConfig dcfg;
  dcfg.matrix_resolution = makespan / 25.0;
  Collector collector;
  collector.set_sensors(cg->sensors());
  StreamingDetector streaming(dcfg, cg->sensors(), ranks, makespan);
  collector.attach_sink(&streaming);

  auto options = quick_options();
  options.transport.stale_after = makespan / 4.0;
  // Deliberately no server and no tier: the sweep must still run.
  const auto run = workloads::run_workload(*cg, cfg, options, &collector);

  // The killed rank is stale in the run's report...
  ASSERT_NE(std::find(run.stale_ranks.begin(), run.stale_ranks.end(), 3),
            run.stale_ranks.end());
  // ...and the streaming detector heard the same verdicts: the reported
  // set IS whatever the sink was told (set equality, satellite contract).
  EXPECT_EQ(run.stale_ranks, streaming.stale_ranks());
  EXPECT_EQ(streaming.finalize().stale_ranks, run.stale_ranks);

  // The sweep happens at end of run, after every record was folded, so the
  // analysis still equals a batch analysis over the delivered records.
  const Detector detector(dcfg);
  const auto batch = detector.analyze_records(collector.records(),
                                              cg->sensors(), ranks, makespan);
  expect_same_matrices(batch, streaming.finalize());
}

}  // namespace
}  // namespace vsensor::rt
