#include "model/likelihood.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "img/disc_raster.hpp"
#include "model/likelihood_kernels.hpp"
#include "rng/distributions.hpp"

namespace mcmcpar::model {

// Every delta/apply method walks the disc as contiguous row spans
// (img::forEachDiscSpan, or its spans precomputed in deltaReplace) and hands
// each span to the vectorised kernels in model/likelihood_kernels.*. Span results are folded in row order into a
// plain double (move deltas) or a KahanSum (whole-image totals), which —
// together with the kernels' fixed-lane accumulation — makes every value
// bit-reproducible across runs, backends and machines.

PixelLikelihood::PixelLikelihood(const img::ImageF& filtered,
                                 const LikelihoodParams& params, int originX,
                                 int originY)
    : params_(params),
      originX_(originX),
      originY_(originY),
      gain_(filtered.width(), filtered.height()),
      coverage_(filtered.width(), filtered.height(), 0) {
  // gain(p) = logN(I; fg, s) - logN(I; bg, s)
  //         = [ (I - bg)^2 - (I - fg)^2 ] / (2 s^2)
  const double inv2s2 = 1.0 / (2.0 * params_.sigma * params_.sigma);
  // Millions of pixels feed one total: compensated summation keeps the
  // constant term ~45x closer to the long-double reference than a naive
  // accumulator on a 2048^2 image (measured 1.2e-8 vs 5.7e-7 off).
  kernels::KahanSum constTerm;
  for (int y = 0; y < filtered.height(); ++y) {
    const float* src = filtered.row(y);
    float* dst = gain_.row(y);
    for (int x = 0; x < filtered.width(); ++x) {
      const double v = static_cast<double>(src[x]);
      const double dBg = v - params_.bgMean;
      const double dFg = v - params_.fgMean;
      dst[x] = static_cast<float>((dBg * dBg - dFg * dFg) * inv2s2);
      constTerm.add(rng::logNormalPdf(v, params_.bgMean, params_.sigma));
    }
  }
  constTerm_ = constTerm.value();
}

double PixelLikelihood::deltaAdd(const Circle& c) const noexcept {
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += kernels::spanDeltaAdd(
                             gain_.row(y) + x0, coverage_.row(y) + x0,
                             static_cast<std::size_t>(x1 - x0));
                       });
  return delta;
}

double PixelLikelihood::deltaRemove(const Circle& c) const noexcept {
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += kernels::spanDeltaRemove(
                             gain_.row(y) + x0, coverage_.row(y) + x0,
                             static_cast<std::size_t>(x1 - x0));
                       });
  return delta;
}

namespace {

/// One disc's row spans over the rows img::forEachDiscSpan walks for it,
/// computed once per deltaReplace: the disc's own enumeration reads them, and
/// so does the other disc's enumeration, which cuts each of its rows by this
/// disc's span on that row. `spans[y - rows.y0]` is exactly img::discRowSpan
/// (empty rows included). A row outside `rows` still asks discRowSpan,
/// because the row-range bound and the per-row sqrt can disagree at the rim.
struct DiscRows {
  double cx;
  double cy;
  double r;
  int width;
  img::RowRange rows;
  const img::RowSpan* spans;

  [[nodiscard]] img::RowSpan at(int y) const noexcept {
    if (y >= rows.y0 && y <= rows.y1) return spans[y - rows.y0];
    return img::discRowSpan(cx, cy, r, y, width);
  }
};

/// The rows img::forEachDiscSpan walks for a disc (same skip conditions);
/// empty (y0 > y1) when it walks none.
img::RowRange walkedRows(double cy, double r, int width, int height) noexcept {
  if (!(r > 0.0) || width <= 0 || height <= 0) return {0, -1};
  return img::discRowRange(cy, r, height);
}

std::size_t rowCount(img::RowRange rows) noexcept {
  return rows.y0 > rows.y1 ? 0 : static_cast<std::size_t>(rows.y1 - rows.y0 + 1);
}

DiscRows computeDiscRows(double cx, double cy, double r, int width,
                         img::RowRange rows, img::RowSpan* out) noexcept {
  for (int y = rows.y0; y <= rows.y1; ++y) {
    out[y - rows.y0] = img::discRowSpan(cx, cy, r, y, width);
  }
  return DiscRows{cx, cy, r, width, rows, out};
}

/// Apply the span kernel to the sub-spans of [x0, x1) lying OUTSIDE the cut
/// span (at most two contiguous segments), keeping the kernels on contiguous
/// slices. The cut uses the same span geometry as the enumeration, so the
/// excluded pixel set is exactly the other disc's raster footprint. Crescent
/// segments are often a few pixels wide: those shorter than kLanes take the
/// inline `shortKernel`, which is bit-identical to `kernel`.
template <typename Kernel, typename ShortKernel>
double spanOutsideCut(const float* gainRow, const std::uint16_t* covRow,
                      int x0, int x1, img::RowSpan cut, Kernel&& kernel,
                      ShortKernel&& shortKernel) noexcept {
  const bool haveCut = cut.x0 < cut.x1;
  const int leftEnd = haveCut ? std::clamp(cut.x0, x0, x1) : x1;
  const int rightBegin = haveCut ? std::clamp(cut.x1, x0, x1) : x1;
  const auto segment = [&](int begin, int end) noexcept {
    const auto n = static_cast<std::size_t>(end - begin);
    return n < kernels::kLanes
               ? shortKernel(gainRow + begin, covRow + begin, n)
               : kernel(gainRow + begin, covRow + begin, n);
  };
  double delta = 0.0;
  if (x0 < leftEnd) delta += segment(x0, leftEnd);
  if (rightBegin < x1) delta += segment(rightBegin, x1);
  return delta;
}

}  // namespace

double PixelLikelihood::deltaReplace(const Circle& oldC,
                                     const Circle& newC) const noexcept {
  // Pixels in new\old becoming covered, pixels in old\new becoming bare.
  // Subtracting the other disc's row span from each enumerated span keeps
  // the kernels on contiguous slices and reuses the exact span geometry of
  // the apply path, so the two discs' pixel sets can never disagree with an
  // applyRemove+applyAdd of the same circles. Each disc's spans are computed
  // once and serve both as its own enumeration and as the other disc's cut;
  // new-disc rows are summed before old-disc rows, in row order. The buffer
  // is thread_local because const delta evaluation may run concurrently on
  // the same likelihood (in-place executor).
  const int width = gain_.width();
  const int height = gain_.height();
  const double ox = oldC.x - originX_;
  const double oy = oldC.y - originY_;
  const double nx = newC.x - originX_;
  const double ny = newC.y - originY_;
  const img::RowRange oldRange = walkedRows(oy, oldC.r, width, height);
  const img::RowRange newRange = walkedRows(ny, newC.r, width, height);
  thread_local std::vector<img::RowSpan> spanBuffer;
  const std::size_t oldCount = rowCount(oldRange);
  const std::size_t need = oldCount + rowCount(newRange);
  if (spanBuffer.size() < need) spanBuffer.resize(need);
  const DiscRows oldRows = computeDiscRows(ox, oy, oldC.r, width, oldRange,
                                           spanBuffer.data());
  const DiscRows newRows = computeDiscRows(nx, ny, newC.r, width, newRange,
                                           spanBuffer.data() + oldCount);

  double delta = 0.0;
  for (int y = newRange.y0; y <= newRange.y1; ++y) {
    const img::RowSpan s = newRows.spans[y - newRange.y0];
    if (s.x0 >= s.x1) continue;
    delta += spanOutsideCut(gain_.row(y), coverage_.row(y), s.x0, s.x1,
                            oldRows.at(y), kernels::spanDeltaAdd,
                            kernels::shortSpanDeltaAdd);
  }
  for (int y = oldRange.y0; y <= oldRange.y1; ++y) {
    const img::RowSpan s = oldRows.spans[y - oldRange.y0];
    if (s.x0 >= s.x1) continue;
    delta += spanOutsideCut(gain_.row(y), coverage_.row(y), s.x0, s.x1,
                            newRows.at(y), kernels::spanDeltaRemove,
                            kernels::shortSpanDeltaRemove);
  }
  return delta;
}

double PixelLikelihood::deltaMultiple(std::span<const Circle> removed,
                                      std::span<const Circle> added) const noexcept {
  // Joint bounding box of every affected disc, in local coordinates.
  double bx0 = 1e30, by0 = 1e30, bx1 = -1e30, by1 = -1e30;
  const auto extend = [&](const Circle& c) noexcept {
    bx0 = std::min(bx0, c.x - c.r - originX_);
    by0 = std::min(by0, c.y - c.r - originY_);
    bx1 = std::max(bx1, c.x + c.r - originX_);
    by1 = std::max(by1, c.y + c.r - originY_);
  };
  for (const Circle& c : removed) extend(c);
  for (const Circle& c : added) extend(c);
  if (bx1 < bx0) return 0.0;

  const int x0 = std::max(0, static_cast<int>(std::floor(std::max(bx0, -1.0))));
  const int y0 = std::max(0, static_cast<int>(std::floor(std::max(by0, -1.0))));
  const int x1 = std::min(
      gain_.width() - 1,
      static_cast<int>(std::ceil(std::min(bx1, 1.0 + gain_.width()))));
  const int y1 = std::min(
      gain_.height() - 1,
      static_cast<int>(std::ceil(std::min(by1, 1.0 + gain_.height()))));
  if (x1 < x0 || y1 < y0) return 0.0;
  const int bboxWidth = x1 - x0 + 1;

  // Per-row coverage deltas, rebuilt from the circles' row spans (one sqrt
  // per circle per row; every disc span lies inside the bounding box). The
  // buffers are thread_local because const delta evaluation may run
  // concurrently on the same likelihood (in-place executor).
  thread_local std::vector<std::int16_t> scratch;
  if (scratch.size() < static_cast<std::size_t>(2 * bboxWidth)) {
    scratch.assign(static_cast<std::size_t>(2 * bboxWidth), 0);
  }
  std::int16_t* dOld = scratch.data();
  std::int16_t* dNew = scratch.data() + bboxWidth;

  double delta = 0.0;
  for (int y = y0; y <= y1; ++y) {
    int rowMin = x1 + 1;
    int rowMax = x0 - 1;
    const auto splat = [&](const Circle& c, std::int16_t* counts) noexcept {
      const img::RowSpan s = img::discRowSpan(
          c.x - originX_, c.y - originY_, c.r, y, gain_.width());
      if (s.x0 >= s.x1) return;
      assert(s.x0 >= x0 && s.x1 <= x1 + 1);
      rowMin = std::min(rowMin, s.x0);
      rowMax = std::max(rowMax, s.x1 - 1);
      for (int x = s.x0; x < s.x1; ++x) {
        counts[x - x0] = static_cast<std::int16_t>(counts[x - x0] + 1);
      }
    };
    for (const Circle& c : removed) splat(c, dOld);
    for (const Circle& c : added) splat(c, dNew);
    if (rowMin > rowMax) continue;
    const int off = rowMin - x0;
    const std::size_t n = static_cast<std::size_t>(rowMax - rowMin + 1);
    delta += kernels::spanTransitionDelta(gain_.row(y) + rowMin,
                                          coverage_.row(y) + rowMin,
                                          dOld + off, dNew + off, n);
    std::fill(dOld + off, dOld + off + n, std::int16_t{0});
    std::fill(dNew + off, dNew + off + n, std::int16_t{0});
  }
  return delta;
}

double PixelLikelihood::applyAdd(const Circle& c) noexcept {
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += kernels::spanApplyAdd(
                             gain_.row(y) + x0, coverage_.row(y) + x0,
                             static_cast<std::size_t>(x1 - x0));
                       });
  return delta;
}

double PixelLikelihood::applyRemove(const Circle& c) noexcept {
  double delta = 0.0;
  const double lx = c.x - originX_;
  const double ly = c.y - originY_;
  img::forEachDiscSpan(lx, ly, c.r, gain_.width(), gain_.height(),
                       [&](int y, int x0, int x1) noexcept {
                         delta += kernels::spanApplyRemove(
                             gain_.row(y) + x0, coverage_.row(y) + x0,
                             static_cast<std::size_t>(x1 - x0));
                       });
  return delta;
}

void PixelLikelihood::resynchronise() noexcept {
  kernels::KahanSum total;
  for (int y = 0; y < gain_.height(); ++y) {
    total.add(kernels::spanSumCovered(gain_.row(y), coverage_.row(y),
                                      static_cast<std::size_t>(gain_.width())));
  }
  coveredGain_ = total.value();
}

double PixelLikelihood::referenceCoveredGain(
    std::span<const Circle> circles) const {
  img::Image<std::uint16_t> cov(gain_.width(), gain_.height(), 0);
  for (const Circle& c : circles) {
    img::forEachDiscSpan(c.x - originX_, c.y - originY_, c.r, gain_.width(),
                         gain_.height(), [&](int y, int x0, int x1) {
                           std::uint16_t* row = cov.row(y);
                           for (int x = x0; x < x1; ++x) ++row[x];
                         });
  }
  // Same kernel + same row-ordered Kahan fold as resynchronise(), so a
  // resynchronised total bit-matches this reference.
  kernels::KahanSum total;
  for (int y = 0; y < gain_.height(); ++y) {
    total.add(kernels::spanSumCovered(gain_.row(y), cov.row(y),
                                      static_cast<std::size_t>(gain_.width())));
  }
  return total.value();
}

PixelLikelihood PixelLikelihood::crop(int gx0, int gy0, int w, int h) const {
  assert(gx0 >= originX_ && gy0 >= originY_);
  assert(gx0 + w <= originX_ + width() && gy0 + h <= originY_ + height());
  PixelLikelihood out;
  out.params_ = params_;
  out.originX_ = gx0;
  out.originY_ = gy0;
  out.gain_ = gain_.crop(gx0 - originX_, gy0 - originY_, w, h);
  out.coverage_ = coverage_.crop(gx0 - originX_, gy0 - originY_, w, h);
  out.constTerm_ = 0.0;  // crops track relative gain only
  out.resynchronise();
  out.initialCoveredGain_ = out.coveredGain_;
  return out;
}

void PixelLikelihood::absorbCrop(const PixelLikelihood& cropped) noexcept {
  const int lx0 = cropped.originX_ - originX_;
  const int ly0 = cropped.originY_ - originY_;
  assert(lx0 >= 0 && ly0 >= 0);
  assert(lx0 + cropped.width() <= width() && ly0 + cropped.height() <= height());
  for (int y = 0; y < cropped.height(); ++y) {
    const std::uint16_t* src = cropped.coverage_.row(y);
    std::uint16_t* dst = coverage_.row(ly0 + y) + lx0;
    std::copy(src, src + cropped.width(), dst);
  }
  coveredGain_ += cropped.coveredGainDeltaSinceCrop();
}

}  // namespace mcmcpar::model
