// Portable SIMD kernels for the detector hot path.
//
// Every kernel here is bit-identical to its scalar definition: the vector
// paths use only exactly-rounded IEEE operations (min, max, divide,
// compare), never reassociated sums, so enabling or disabling the
// intrinsics can never change a detection result. Guarded SSE2 (baseline
// on x86-64) and NEON (baseline on aarch64) paths cover the two targets CI
// builds; everything else takes the multi-accumulator scalar loop, which
// modern compilers vectorize on their own.
//
// All kernels operate on contiguous arrays — the reason batch analysis
// converts records to struct-of-arrays once (see runtime/record_batch.hpp):
// an AoS scan strides 56 bytes per record to touch one double, an SoA scan
// streams cache lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__SSE2__) || defined(_M_X64)
#define VSENSOR_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__aarch64__)
#define VSENSOR_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace vsensor::simd {

/// Minimum over v[0..n) of the elements >= floor; +inf when none qualify.
/// The floor test mirrors rt::is_degenerate: NaNs and sub-floor values are
/// skipped, so a broken measurement can never become a standard time.
inline double min_above(const double* v, size_t n, double floor) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t i = 0;
  double best = kInf;
#if VSENSOR_SIMD_SSE2
  __m128d vfloor = _mm_set1_pd(floor);
  __m128d vbest = _mm_set1_pd(kInf);
  __m128d vinf = _mm_set1_pd(kInf);
  for (; i + 2 <= n; i += 2) {
    __m128d x = _mm_loadu_pd(v + i);
    // Lanes below the floor (or NaN) are replaced by +inf before the min.
    __m128d ok = _mm_cmpge_pd(x, vfloor);
    __m128d masked = _mm_or_pd(_mm_and_pd(ok, x), _mm_andnot_pd(ok, vinf));
    vbest = _mm_min_pd(vbest, masked);
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, vbest);
  best = lanes[0] < lanes[1] ? lanes[0] : lanes[1];
#elif VSENSOR_SIMD_NEON
  float64x2_t vfloor = vdupq_n_f64(floor);
  float64x2_t vbest = vdupq_n_f64(kInf);
  float64x2_t vinf = vdupq_n_f64(kInf);
  for (; i + 2 <= n; i += 2) {
    float64x2_t x = vld1q_f64(v + i);
    uint64x2_t ok = vcgeq_f64(x, vfloor);
    float64x2_t masked = vbslq_f64(ok, x, vinf);
    vbest = vminq_f64(vbest, masked);
  }
  best = vgetq_lane_f64(vbest, 0) < vgetq_lane_f64(vbest, 1)
             ? vgetq_lane_f64(vbest, 0)
             : vgetq_lane_f64(vbest, 1);
#else
  // Two independent accumulators: min is commutative and associative (the
  // masked lanes are exact +inf), so the split is bit-identical.
  double b0 = kInf;
  double b1 = kInf;
  for (; i + 2 <= n; i += 2) {
    const double x0 = v[i];
    const double x1 = v[i + 1];
    if (x0 >= floor && x0 < b0) b0 = x0;
    if (x1 >= floor && x1 < b1) b1 = x1;
  }
  best = b0 < b1 ? b0 : b1;
#endif
  for (; i < n; ++i) {
    if (v[i] >= floor && v[i] < best) best = v[i];
  }
  return best;
}

/// out[i] = max(std_times[i], floor) / denom[i] for i in [0, n).
/// One exactly-rounded divide per element — identical to the scalar
/// normalization `std::max(standard, kMinStandardTime) / avg_duration`.
inline void normalize(const double* std_times, const double* denom, size_t n,
                      double floor, double* out) {
  size_t i = 0;
#if VSENSOR_SIMD_SSE2
  __m128d vfloor = _mm_set1_pd(floor);
  for (; i + 2 <= n; i += 2) {
    __m128d s = _mm_max_pd(_mm_loadu_pd(std_times + i), vfloor);
    __m128d d = _mm_loadu_pd(denom + i);
    _mm_storeu_pd(out + i, _mm_div_pd(s, d));
  }
#elif VSENSOR_SIMD_NEON
  float64x2_t vfloor = vdupq_n_f64(floor);
  for (; i + 2 <= n; i += 2) {
    float64x2_t s = vmaxq_f64(vld1q_f64(std_times + i), vfloor);
    float64x2_t d = vld1q_f64(denom + i);
    vst1q_f64(out + i, vdivq_f64(s, d));
  }
#endif
  for (; i < n; ++i) {
    const double s = std_times[i] > floor ? std_times[i] : floor;
    out[i] = s / denom[i];
  }
}

/// Same, with one shared standard time: out[i] = max(std, floor) / denom[i].
inline void normalize_uniform(double std_time, const double* denom, size_t n,
                              double floor, double* out) {
  const double s = std_time > floor ? std_time : floor;
  size_t i = 0;
#if VSENSOR_SIMD_SSE2
  __m128d vs = _mm_set1_pd(s);
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, _mm_div_pd(vs, _mm_loadu_pd(denom + i)));
  }
#elif VSENSOR_SIMD_NEON
  float64x2_t vs = vdupq_n_f64(s);
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vdivq_f64(vs, vld1q_f64(denom + i)));
  }
#endif
  for (; i < n; ++i) out[i] = s / denom[i];
}

/// Count of v[i] < threshold over [0, n) — the flag scan.
inline uint64_t count_below(const double* v, size_t n, double threshold) {
  uint64_t count = 0;
  size_t i = 0;
#if VSENSOR_SIMD_SSE2
  __m128d vt = _mm_set1_pd(threshold);
  for (; i + 2 <= n; i += 2) {
    const int mask = _mm_movemask_pd(_mm_cmplt_pd(_mm_loadu_pd(v + i), vt));
    count += static_cast<uint64_t>((mask & 1) + ((mask >> 1) & 1));
  }
#elif VSENSOR_SIMD_NEON
  float64x2_t vt = vdupq_n_f64(threshold);
  for (; i + 2 <= n; i += 2) {
    uint64x2_t lt = vcltq_f64(vld1q_f64(v + i), vt);
    count += (vgetq_lane_u64(lt, 0) & 1) + (vgetq_lane_u64(lt, 1) & 1);
  }
#endif
  for (; i < n; ++i) {
    if (v[i] < threshold) ++count;
  }
  return count;
}

}  // namespace vsensor::simd
