// AVX2 span kernels. Compiled with -mavx2 (see CMakeLists.txt); only ever
// entered after a runtime __builtin_cpu_supports("avx2") check.
//
// Bit-exactness contract with the scalar backend (likelihood_kernels.cpp):
// the two 4-double accumulators acc0/acc1 are lanes 0..3 / 4..7 of the
// fixed 8-lane bank, span element i lands in lane (i % 8), masked-out
// elements contribute +0.0 (identical to the scalar ternary's 0.0 arm),
// the float->double widening is exact, and the tail (<8 elements) plus the
// final lane combine run the very same scalar code. The span kernels have no
// multiplies, so FMA contraction cannot perturb the sums.
// spanTransitionDelta widens the coverage and delta counts to 32-bit lanes
// before cov - dOld + dNew, exactly as the scalar loop's int arithmetic, and
// builds -gain by flipping the float sign bit, which widens to the same
// double as the scalar negation.
// discRowSpans repeats img::discRowSpan's arithmetic operation for operation
// (see its body).

#include "model/likelihood_kernels_avx2.hpp"

#include <immintrin.h>

#include <cstddef>

// For RowRange and RowSpan only: calling one of its inline functions here
// would emit an AVX2 copy of it that other TUs may link.
#include "img/disc_raster.hpp"

namespace mcmcpar::model::kernels::avx2 {

namespace {

/// 8 x 32-bit lane mask (0 / 0xFFFFFFFF) from an 8 x 16-bit compare result.
inline __m256 expandMask16(__m128i mask16) noexcept {
  return _mm256_castsi256_ps(_mm256_cvtepi16_epi32(mask16));
}

inline double combineLanes(const double lanes[8]) noexcept {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

inline void accumulate(__m256d& acc0, __m256d& acc1, __m256 vals) noexcept {
  acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(vals)));
  acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(vals, 1)));
}

inline void deaccumulate(__m256d& acc0, __m256d& acc1, __m256 vals) noexcept {
  acc0 = _mm256_sub_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(vals)));
  acc1 = _mm256_sub_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(vals, 1)));
}

inline void storeLanes(double lanes[8], __m256d acc0, __m256d acc1) noexcept {
  _mm256_storeu_pd(lanes, acc0);
  _mm256_storeu_pd(lanes + 4, acc1);
}

}  // namespace

double spanDeltaAdd(const float* gain, const std::uint16_t* cov,
                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i cv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i));
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq0));
    accumulate(acc0, acc1, vals);
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    lanes[i & 7] += cov[i] == 0 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double spanDeltaRemove(const float* gain, const std::uint16_t* cov,
                       std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i cv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i));
    const __m128i eq1 = _mm_cmpeq_epi16(cv, _mm_set1_epi16(1));
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq1));
    deaccumulate(acc0, acc1, vals);
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    lanes[i & 7] -= cov[i] == 1 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double spanApplyAdd(const float* gain, std::uint16_t* cov,
                    std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i* covPtr = reinterpret_cast<__m128i*>(cov + i);
    const __m128i cv = _mm_loadu_si128(covPtr);
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq0));
    accumulate(acc0, acc1, vals);
    // Saturating increment == the scalar backend's 65535 clamp.
    _mm_storeu_si128(covPtr, _mm_adds_epu16(cv, _mm_set1_epi16(1)));
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    const std::uint16_t old = cov[i];
    lanes[i & 7] += old == 0 ? static_cast<double>(gain[i]) : 0.0;
    cov[i] = old == 65535 ? old : static_cast<std::uint16_t>(old + 1);
  }
  return combineLanes(lanes);
}

double spanApplyRemove(const float* gain, std::uint16_t* cov,
                       std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i* covPtr = reinterpret_cast<__m128i*>(cov + i);
    const __m128i cv = _mm_loadu_si128(covPtr);
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m128i eq1 = _mm_cmpeq_epi16(cv, _mm_set1_epi16(1));
    const __m256 vals =
        _mm256_and_ps(_mm256_loadu_ps(gain + i), expandMask16(eq1));
    deaccumulate(acc0, acc1, vals);
    // Decrement where cov > 0; already-zero pixels clamp at zero instead of
    // wrapping to 65535.
    const __m128i dec = _mm_andnot_si128(eq0, _mm_set1_epi16(1));
    _mm_storeu_si128(covPtr, _mm_sub_epi16(cv, dec));
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    const std::uint16_t old = cov[i];
    lanes[i & 7] -= old == 1 ? static_cast<double>(gain[i]) : 0.0;
    cov[i] = static_cast<std::uint16_t>(old - (old > 0 ? 1 : 0));
  }
  return combineLanes(lanes);
}

double spanSumCovered(const float* gain, const std::uint16_t* cov,
                      std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i cv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i));
    const __m128i eq0 = _mm_cmpeq_epi16(cv, _mm_setzero_si128());
    const __m256 vals =
        _mm256_andnot_ps(expandMask16(eq0), _mm256_loadu_ps(gain + i));
    accumulate(acc0, acc1, vals);
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    lanes[i & 7] += cov[i] > 0 ? static_cast<double>(gain[i]) : 0.0;
  }
  return combineLanes(lanes);
}

double spanTransitionDelta(const float* gain, const std::uint16_t* cov,
                           const std::int16_t* dOld, const std::int16_t* dNew,
                           std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const __m256i zero = _mm256_setzero_si256();
  const __m256 signBit = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i cur = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cov + i)));
    const __m256i lost = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dOld + i)));
    const __m256i gained = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dNew + i)));
    const __m256i after =
        _mm256_add_epi32(_mm256_sub_epi32(cur, lost), gained);
    const __m256i was = _mm256_cmpgt_epi32(cur, zero);
    const __m256i now = _mm256_cmpgt_epi32(after, zero);
    const __m256i flipped = _mm256_xor_si256(was, now);
    // Flipped pixels keep their gain (others become +0.0, the scalar 0.0
    // arm); the ones that were covered, i.e. become bare, get it negated.
    const __m256 magnitude = _mm256_and_ps(_mm256_loadu_ps(gain + i),
                                           _mm256_castsi256_ps(flipped));
    const __m256 sign = _mm256_and_ps(
        signBit, _mm256_castsi256_ps(_mm256_and_si256(flipped, was)));
    accumulate(acc0, acc1, _mm256_xor_ps(magnitude, sign));
  }
  double lanes[8];
  storeLanes(lanes, acc0, acc1);
  for (; i < n; ++i) {
    const int cur = cov[i];
    const bool was = cur > 0;
    const bool now = cur - dOld[i] + dNew[i] > 0;
    lanes[i & 7] += was == now ? 0.0
                    : now      ? static_cast<double>(gain[i])
                               : -static_cast<double>(gain[i]);
  }
  return combineLanes(lanes);
}

int discRowSpans(double cx, double cy, double r, int width,
                 img::RowRange rows, img::RowSpan* out) noexcept {
  static_assert(sizeof(img::RowSpan) == 2 * sizeof(int) &&
                    offsetof(img::RowSpan, x1) == sizeof(int),
                "the (x0, x1) pair stores assume RowSpan is two packed ints");
  // img::discRowSpan four rows at a time, operation for operation: the same
  // IEEE adds, multiplies, sqrt, ceil and floor in the same order, so every
  // intermediate carries the scalar bits. (This TU must never be built with
  // -mfma: a contracted r*r - dy*dy or slack term would round differently.)
  // Comparisons are the negated >= forms, true on NaN, so a NaN intermediate
  // always lands on the scalar fallback and is never converted to an int.
  const __m256d cxv = _mm256_set1_pd(cx);
  const __m256d cyv = _mm256_set1_pd(cy);
  const __m256d rr = _mm256_set1_pd(r * r);
  const __m256d absCx = _mm256_andnot_pd(_mm256_set1_pd(-0.0), cxv);
  const __m256d halfPixel = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d minusOne = _mm256_set1_pd(-1.0);
  const __m256d widthD = _mm256_set1_pd(static_cast<double>(width));
  const __m256d lastX = _mm256_set1_pd(static_cast<double>(width) - 1.0);
  const __m256d slackScale = _mm256_set1_pd(1e-12);
  const auto below = [](__m256d a, __m256d b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_NGE_UQ);
  };
  int fallbacks = 0;
  __m128i ys =
      _mm_add_epi32(_mm_set1_epi32(rows.y0), _mm_setr_epi32(0, 1, 2, 3));
  for (int y = rows.y0; y <= rows.y1; y += 4) {
    const __m256d dy =
        _mm256_sub_pd(_mm256_add_pd(_mm256_cvtepi32_pd(ys), halfPixel), cyv);
    const __m256d disc = _mm256_sub_pd(rr, _mm256_mul_pd(dy, dy));
    const __m256d half = _mm256_sqrt_pd(disc);
    const __m256d lo = _mm256_sub_pd(_mm256_sub_pd(cxv, half), halfPixel);
    const __m256d hi = _mm256_sub_pd(_mm256_add_pd(cxv, half), halfPixel);
    const __m256d cLo = _mm256_ceil_pd(lo);
    const __m256d fHi = _mm256_floor_pd(hi);
    const __m256d slackNum = _mm256_mul_pd(
        slackScale,
        _mm256_add_pd(
            _mm256_mul_pd(_mm256_add_pd(_mm256_add_pd(absCx, half), one), half),
            rr));
    const __m256d dLo = _mm256_mul_pd(_mm256_sub_pd(cLo, lo), half);
    const __m256d dHi = _mm256_mul_pd(_mm256_sub_pd(hi, fHi), half);
    // discRowSpan's early return (disc < 0) and its rim verification.
    __m256d fallback = _mm256_or_pd(below(disc, zero), below(half, one));
    fallback = _mm256_or_pd(fallback, below(dLo, slackNum));
    fallback =
        _mm256_or_pd(fallback, below(_mm256_sub_pd(half, dLo), slackNum));
    fallback = _mm256_or_pd(fallback, below(dHi, slackNum));
    fallback =
        _mm256_or_pd(fallback, below(_mm256_sub_pd(half, dHi), slackNum));
    // std::clamp as max-then-min (equal for the non-NaN lanes kept), then
    // x1 + 1, exact in double; fallback rows become (-1, 0).
    const __m256d x0 = _mm256_blendv_pd(
        _mm256_min_pd(_mm256_max_pd(cLo, zero), widthD), minusOne, fallback);
    const __m256d x1 = _mm256_blendv_pd(
        _mm256_add_pd(_mm256_min_pd(_mm256_max_pd(fHi, minusOne), lastX), one),
        zero, fallback);
    const __m128i x0i = _mm256_cvttpd_epi32(x0);
    const __m128i x1i = _mm256_cvttpd_epi32(x1);
    const __m128i pairsLo = _mm_unpacklo_epi32(x0i, x1i);
    const __m128i pairsHi = _mm_unpackhi_epi32(x0i, x1i);
    // __m128i stores may alias any object, RowSpan pairs included.
    img::RowSpan* block = out + (y - rows.y0);
    const int count = rows.y1 - y < 3 ? rows.y1 - y + 1 : 4;
    if (count == 4) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(block), pairsLo);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(block + 2), pairsHi);
    } else {
      img::RowSpan last[4] = {};
      _mm_storeu_si128(reinterpret_cast<__m128i*>(last), pairsLo);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(last + 2), pairsHi);
      for (int i = 0; i < count; ++i) block[i] = last[i];
    }
    const unsigned lanes = static_cast<unsigned>(_mm256_movemask_pd(fallback)) &
                           ((1u << count) - 1u);
    fallbacks += __builtin_popcount(lanes);
    ys = _mm_add_epi32(ys, _mm_set1_epi32(4));
  }
  return fallbacks;
}

}  // namespace mcmcpar::model::kernels::avx2
