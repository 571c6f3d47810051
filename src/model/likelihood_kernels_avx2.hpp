#pragma once

// Internal: AVX2 definitions of the span kernels, compiled separately with
// -mavx2 (CMake adds the TU and defines MCMCPAR_HAVE_AVX2_KERNELS only when
// the option is on and the compiler targets x86-64). Callers must check
// kernels::avx2Available() before dispatching here. Each function implements
// bit-for-bit the lane arithmetic documented in likelihood_kernels.hpp.

#include <cstddef>
#include <cstdint>

namespace mcmcpar::img {
struct RowRange;
struct RowSpan;
}  // namespace mcmcpar::img

namespace mcmcpar::model::kernels::avx2 {

double spanDeltaAdd(const float* gain, const std::uint16_t* cov,
                    std::size_t n) noexcept;
double spanDeltaRemove(const float* gain, const std::uint16_t* cov,
                       std::size_t n) noexcept;
double spanApplyAdd(const float* gain, std::uint16_t* cov,
                    std::size_t n) noexcept;
double spanApplyRemove(const float* gain, std::uint16_t* cov,
                       std::size_t n) noexcept;
double spanSumCovered(const float* gain, const std::uint16_t* cov,
                      std::size_t n) noexcept;
double spanTransitionDelta(const float* gain, const std::uint16_t* cov,
                           const std::int16_t* dOld, const std::int16_t* dNew,
                           std::size_t n) noexcept;

/// Row spans of the disc (cx, cy, r) on the rows of `rows` (non-empty),
/// out[y - rows.y0] as kernels::discRowSpans documents. A row the vector
/// arithmetic cannot settle gets x0 = -1 instead, for the caller to fill in
/// with img::discRowSpan; returns how many rows that is. The scalar fallback
/// lives with the caller so that this TU, compiled with -mavx2, emits none
/// of the inline functions that code built for any x86-64 links.
int discRowSpans(double cx, double cy, double r, int width,
                 img::RowRange rows, img::RowSpan* out) noexcept;

}  // namespace mcmcpar::model::kernels::avx2
