// Span log, outside-in timing sinks, statistics and output comparisons.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.hpp"
#include "support/stats.hpp"

namespace pipebench {

// --- spans -----------------------------------------------------------------

namespace {
thread_local std::vector<Span>* tl_buffer = nullptr;
thread_local uint32_t tl_thread = 0;
thread_local uint64_t tl_current_id = 0;  ///< innermost open span
}  // namespace

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

std::vector<Span>& SpanLog::buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    tl_thread = static_cast<uint32_t>(buffers_.size());
    tl_buffer = &buffers_.emplace_back();
  }
  return *tl_buffer;
}

std::vector<Span> SpanLog::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) out.insert(out.end(), b.begin(), b.end());
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : all()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"round\":" << s.round
        << ",\"thread\":" << s.thread << ",\"begin_ns\":" << s.begin_ns
        << ",\"dur_ns\":" << (s.end_ns - s.begin_ns) << ",\"records\":" << s.items
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t items) {
  auto& log = SpanLog::global();
  if (!log.on()) return;
  armed_ = true;
  span_.name = name;
  span_.id = log.next_id();
  span_.parent = tl_current_id;
  span_.round = log.round();
  span_.items = items;
  tl_current_id = span_.id;
  span_.begin_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  span_.end_ns = now_ns();
  auto& buf = SpanLog::global().buffer();
  span_.thread = tl_thread;
  buf.push_back(span_);
  tl_current_id = span_.parent;
}

std::vector<double> LatencyLog::micros() const {
  const size_t n = std::min(n_.load(), ns_.size());
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(ns_[i]) * 1e-3;
  return out;
}

double LatencyLog::total_s() const {
  const size_t n = std::min(n_.load(), ns_.size());
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += ns_[i];
  return static_cast<double>(sum) * 1e-9;
}

// --- timing sinks ----------------------------------------------------------

template <typename Batch>
void TimingBatchSink::fold(const Batch& batch, size_t records) {
  const uint64_t arrived = now_ns();
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  if (split_wait_) lock.lock();
  ScopedSpan span("fold", records);
  const uint64_t t0 = now_ns();
  inner_->on_batch(batch);
  latencies_->add(now_ns() - t0);
  wait_ns_.fetch_add(t0 - arrived, std::memory_order_relaxed);
}

void TimingBatchSink::on_batch(std::span<const rt::SliceRecord> batch) {
  fold(batch, batch.size());
}

void TimingBatchSink::on_batch(const rt::RecordBatch& batch) {
  fold(batch, batch.size());
}

void TimingDeliverySink::on_delivery(int rank, uint64_t seq,
                                     std::span<const rt::SliceRecord> batch,
                                     double now) {
  ScopedSpan span("tier.deliver", batch.size());
  const uint64_t t0 = now_ns();
  inner_->on_delivery(rank, seq, batch, now);
  latencies_->add(now_ns() - t0);
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) { return percentile_of(std::move(v), 50.0); }

double tail_percentile(size_t n) {
  if (n <= 10) return 50.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

// --- output checks ---------------------------------------------------------

namespace {
template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
}  // namespace

std::string result_digest(const rt::AnalysisResult& result) {
  std::string out;
  for (const auto& m : result.matrices) {
    put(out, m.ranks());
    put(out, m.buckets());
    for (int r = 0; r < m.ranks(); ++r) {
      for (int b = 0; b < m.buckets(); ++b) {
        const bool has = m.has(r, b);
        put(out, has);
        if (has) put(out, m.at(r, b));
      }
    }
  }
  for (const auto& ev : result.events) {
    put(out, ev.type);
    put(out, ev.t_begin);
    put(out, ev.t_end);
    put(out, ev.rank_begin);
    put(out, ev.rank_end);
    put(out, ev.severity);
    put(out, ev.cells);
    put(out, ev.likely_wait_on_slow_ranks);
  }
  return out;
}

bool close_results(const rt::AnalysisResult& a, const rt::AnalysisResult& b) {
  constexpr double kTol = 1e-12;
  for (size_t t = 0; t < a.matrices.size(); ++t) {
    const auto& ma = a.matrices[t];
    const auto& mb = b.matrices[t];
    if (ma.ranks() != mb.ranks() || ma.buckets() != mb.buckets()) return false;
    for (int r = 0; r < ma.ranks(); ++r) {
      for (int k = 0; k < ma.buckets(); ++k) {
        if (ma.has(r, k) != mb.has(r, k)) return false;
        if (ma.has(r, k) && std::abs(ma.at(r, k) - mb.at(r, k)) > kTol) return false;
      }
    }
  }
  if (a.events.size() != b.events.size()) return false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    const auto& ea = a.events[i];
    const auto& eb = b.events[i];
    if (ea.type != eb.type || ea.t_begin != eb.t_begin || ea.t_end != eb.t_end ||
        ea.rank_begin != eb.rank_begin || ea.rank_end != eb.rank_end ||
        ea.cells != eb.cells ||
        ea.likely_wait_on_slow_ranks != eb.likely_wait_on_slow_ranks ||
        std::abs(ea.severity - eb.severity) > kTol) {
      return false;
    }
  }
  return true;
}

namespace {
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

template <typename Map>
bool same_double_map(const Map& a, const Map& b) {
  if (a.size() != b.size()) return false;
  auto ia = a.begin();
  for (auto ib = b.begin(); ib != b.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !same_bits(ia->second, ib->second)) return false;
  }
  return true;
}
}  // namespace

bool same_snapshot(const rt::StreamingDetector::Snapshot& a,
                   const rt::StreamingDetector::Snapshot& b) {
  if (!same_double_map(a.standard, b.standard) ||
      !same_double_map(a.rank_standard, b.rank_standard)) {
    return false;
  }
  if (a.cells.size() != b.cells.size() || a.last.size() != b.last.size() ||
      a.stats.size() != b.stats.size()) {
    return false;
  }
  for (auto ia = a.cells.begin(), ib = b.cells.begin(); ia != a.cells.end();
       ++ia, ++ib) {
    if (ia->first != ib->first ||
        !same_bits(ia->second.weight_over_avg, ib->second.weight_over_avg) ||
        !same_bits(ia->second.weight, ib->second.weight)) {
      return false;
    }
  }
  for (auto ia = a.last.begin(), ib = b.last.begin(); ia != a.last.end();
       ++ia, ++ib) {
    if (ia->first != ib->first || !same_bits(ia->second.t_end, ib->second.t_end) ||
        !same_bits(ia->second.avg_duration, ib->second.avg_duration) ||
        !same_bits(ia->second.normalized, ib->second.normalized)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.stats.size(); ++i) {
    if (a.stats[i].count != b.stats[i].count ||
        !same_bits(a.stats[i].mean, b.stats[i].mean) ||
        !same_bits(a.stats[i].m2, b.stats[i].m2)) {
      return false;
    }
  }
  return a.sensor_records == b.sensor_records && a.stale == b.stale &&
         a.observed == b.observed && a.stale_records == b.stale_records &&
         a.degenerate_records == b.degenerate_records &&
         a.intra_flags == b.intra_flags && a.inter_flags == b.inter_flags;
}

std::vector<int> computation_event_ranks(const rt::AnalysisResult& result) {
  std::vector<int> ranks;
  for (const auto& ev : result.events) {
    if (ev.type != rt::SensorType::Computation) continue;
    for (int r = ev.rank_begin; r <= ev.rank_end; ++r) ranks.push_back(r);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

}  // namespace pipebench
