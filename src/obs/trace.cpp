#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/identity.hpp"
#include "obs/obs.hpp"

namespace vsensor::obs {

namespace {

/// Span storage stripes; threads spread round-robin over them, so
/// concurrent rank threads rarely share a stripe's mutex.
constexpr size_t kStripes = 16;

/// Stripe index of the calling thread (round-robin assigned, cached).
size_t thread_stripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default: out << c;
    }
  }
  out << '"';
}

}  // namespace

SpanTracer::SpanTracer(size_t capacity)
    : capacity_per_stripe_(std::max<size_t>(1, capacity / kStripes)),
      stripes_(kStripes),
      epoch_ns_(steady_ns()) {}

uint64_t SpanTracer::now_ns() const {
  const int64_t delta = steady_ns() - epoch_ns_.load(std::memory_order_relaxed);
  return delta > 0 ? static_cast<uint64_t>(delta) : 0;
}

void SpanTracer::record(TraceSpan span) {
  Stripe& stripe = stripes_[thread_stripe()];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (stripe.spans.size() >= capacity_per_stripe_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stripe.spans.push_back(std::move(span));
}

size_t SpanTracer::span_count() const {
  size_t n = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    n += stripe.spans.size();
  }
  return n;
}

std::vector<TraceSpan> SpanTracer::spans() const {
  std::vector<TraceSpan> all;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    all.insert(all.end(), stripe.spans.begin(), stripe.spans.end());
  }
  std::sort(all.begin(), all.end(), [](const TraceSpan& a, const TraceSpan& b) {
    return a.ts_ns < b.ts_ns;
  });
  return all;
}

void SpanTracer::write_chrome_trace(std::ostream& out,
                                    const RunIdentity* id) const {
  const auto old = out.precision(17);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans()) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":";
    write_escaped(out, s.name);
    out << ",\"cat\":";
    write_escaped(out, s.category);
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.ts_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3;
    const bool has_vt = s.vt_begin >= 0.0 && std::isfinite(s.vt_begin) &&
                        std::isfinite(s.vt_end);
    if (has_vt || s.shard >= 0 || !s.path.empty()) {
      out << ",\"args\":{";
      bool first_arg = true;
      if (has_vt) {
        out << "\"vt_begin\":" << s.vt_begin << ",\"vt_end\":" << s.vt_end;
        first_arg = false;
      }
      if (s.shard >= 0) {
        if (!first_arg) out << ',';
        out << "\"shard\":" << s.shard;
        first_arg = false;
      }
      if (!s.path.empty()) {
        if (!first_arg) out << ',';
        out << "\"path\":";
        write_escaped(out, s.path);
      }
      out << '}';
    }
    out << '}';
  }
  out << "\n],\"displayTimeUnit\":\"ms\"";
  if (id != nullptr) {
    out << ",\"otherData\":{\"schema\":\"vsensor-trace/1\",";
    id->write_fields(out);
    out << '}';
  }
  out << "}\n";
  out.precision(old);
}

void SpanTracer::clear() {
  for (auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.spans.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
}

SpanTracer& SpanTracer::global() {
  static SpanTracer tracer;
  return tracer;
}

ScopedSpan::ScopedSpan(std::string name, const char* category, int tid) {
  if (!enabled()) return;
  armed_ = true;
  span_.name = std::move(name);
  span_.category = category;
  span_.tid = tid;
  span_.ts_ns = SpanTracer::global().now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  const uint64_t end = SpanTracer::global().now_ns();
  span_.dur_ns = end > span_.ts_ns ? end - span_.ts_ns : 0;
  SpanTracer::global().record(std::move(span_));
}

}  // namespace vsensor::obs
