#include "model/likelihood.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "img/disc_raster.hpp"
#include "model/likelihood_kernels.hpp"
#include "rng/distributions.hpp"

namespace mcmcpar::model {

// Every delta/apply method computes each disc's row spans once
// (kernels::discRowSpans) and hands each span to the vectorised kernels in
// model/likelihood_kernels.*. Span results are folded in row order into a
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

namespace {

/// The rows img::forEachDiscSpan walks for a disc (same skip conditions);
/// empty (y0 > y1) when it walks none.
img::RowRange walkedRows(double cy, double r, int width, int height) noexcept {
  if (!(r > 0.0) || width <= 0 || height <= 0) return {0, -1};
  return img::discRowRange(cy, r, height);
}

std::size_t rowCount(img::RowRange rows) noexcept {
  return rows.y0 > rows.y1 ? 0 : static_cast<std::size_t>(rows.y1 - rows.y0 + 1);
}

/// One disc's row spans over the rows img::forEachDiscSpan walks for it, in
/// crop-local coordinates, computed once by kernels::discRowSpans: the
/// disc's own enumeration reads them, and so does any other disc of the same
/// move that cuts or splats against it. `spans[y - rows.y0]` is exactly
/// img::discRowSpan (empty rows included). A row outside `rows` still asks
/// discRowSpan, because the row-range bound and the per-row sqrt can
/// disagree at the rim.
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

/// `c` on a width x height crop at (originX, originY), spans not computed yet.
DiscRows discRowsOf(const Circle& c, int originX, int originY, int width,
                    int height) noexcept {
  const double cy = c.y - originY;
  return {c.x - originX, cy, c.r, width, walkedRows(cy, c.r, width, height),
          nullptr};
}

/// Compute the spans of every disc of one move into one per-thread buffer.
/// The buffer is thread_local because const delta evaluation may run
/// concurrently on the same likelihood (in-place executor); one buffer
/// serves every method, since none of them nests another.
void computeSpans(std::span<DiscRows> discs) noexcept {
  thread_local std::vector<img::RowSpan> buffer;
  std::size_t need = 0;
  for (const DiscRows& d : discs) need += rowCount(d.rows);
  if (buffer.size() < need) buffer.resize(need);
  img::RowSpan* out = buffer.data();
  for (DiscRows& d : discs) {
    kernels::discRowSpans(d.cx, d.cy, d.r, d.width, d.rows, out);
    d.spans = out;
    out += rowCount(d.rows);
  }
}

/// Invoke fn(y, x0, x1) for every non-empty span of the disc, in row order:
/// the spans img::forEachDiscSpan would visit.
template <typename Fn>
void forEachSpan(const DiscRows& disc, Fn&& fn) noexcept {
  for (int y = disc.rows.y0; y <= disc.rows.y1; ++y) {
    const img::RowSpan s = disc.spans[y - disc.rows.y0];
    if (s.x0 < s.x1) fn(y, s.x0, s.x1);
  }
}

/// One span kernel summed over every span of `c`, in row order (deltaAdd,
/// deltaRemove, applyAdd, applyRemove). `Coverage` is const for the deltas.
template <typename Coverage, typename Kernel>
double sumDiscSpans(const Circle& c, int originX, int originY,
                    const img::ImageF& gain, Coverage& coverage,
                    Kernel kernel) noexcept {
  DiscRows disc = discRowsOf(c, originX, originY, gain.width(), gain.height());
  computeSpans({&disc, 1});
  double delta = 0.0;
  forEachSpan(disc, [&](int y, int x0, int x1) noexcept {
    delta += kernel(gain.row(y) + x0, coverage.row(y) + x0,
                    static_cast<std::size_t>(x1 - x0));
  });
  return delta;
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

double PixelLikelihood::deltaAdd(const Circle& c) const noexcept {
  return sumDiscSpans(c, originX_, originY_, gain_, coverage_,
                      kernels::spanDeltaAdd);
}

double PixelLikelihood::deltaRemove(const Circle& c) const noexcept {
  return sumDiscSpans(c, originX_, originY_, gain_, coverage_,
                      kernels::spanDeltaRemove);
}

double PixelLikelihood::deltaReplace(const Circle& oldC,
                                     const Circle& newC) const noexcept {
  // Pixels in new\old becoming covered, pixels in old\new becoming bare.
  // Subtracting the other disc's row span from each enumerated span keeps
  // the kernels on contiguous slices and reuses the exact span geometry of
  // the apply path, so the two discs' pixel sets can never disagree with an
  // applyRemove+applyAdd of the same circles. Each disc's spans are computed
  // once and serve both as its own enumeration and as the other disc's cut;
  // new-disc rows are summed before old-disc rows, in row order.
  DiscRows discs[2] = {
      discRowsOf(oldC, originX_, originY_, gain_.width(), gain_.height()),
      discRowsOf(newC, originX_, originY_, gain_.width(), gain_.height())};
  computeSpans(discs);
  const DiscRows& oldRows = discs[0];
  const DiscRows& newRows = discs[1];

  double delta = 0.0;
  forEachSpan(newRows, [&](int y, int x0, int x1) noexcept {
    delta += spanOutsideCut(gain_.row(y), coverage_.row(y), x0, x1,
                            oldRows.at(y), kernels::spanDeltaAdd,
                            kernels::shortSpanDeltaAdd);
  });
  forEachSpan(oldRows, [&](int y, int x0, int x1) noexcept {
    delta += spanOutsideCut(gain_.row(y), coverage_.row(y), x0, x1,
                            newRows.at(y), kernels::spanDeltaRemove,
                            kernels::shortSpanDeltaRemove);
  });
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

  // Each disc's row spans, computed once; per row, its span is splatted
  // into the coverage deltas (every disc span lies inside the bounding box).
  // The buffers are thread_local because const delta evaluation may run
  // concurrently on the same likelihood (in-place executor).
  thread_local std::vector<DiscRows> discs;
  discs.clear();
  for (const Circle& c : removed) {
    discs.push_back(discRowsOf(c, originX_, originY_, gain_.width(),
                               gain_.height()));
  }
  for (const Circle& c : added) {
    discs.push_back(discRowsOf(c, originX_, originY_, gain_.width(),
                               gain_.height()));
  }
  computeSpans(discs);
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
    for (std::size_t i = 0; i < discs.size(); ++i) {
      const img::RowSpan s = discs[i].at(y);
      if (s.x0 >= s.x1) continue;
      assert(s.x0 >= x0 && s.x1 <= x1 + 1);
      rowMin = std::min(rowMin, s.x0);
      rowMax = std::max(rowMax, s.x1 - 1);
      std::int16_t* counts = i < removed.size() ? dOld : dNew;
      for (int x = s.x0; x < s.x1; ++x) {
        counts[x - x0] = static_cast<std::int16_t>(counts[x - x0] + 1);
      }
    }
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
  return sumDiscSpans(c, originX_, originY_, gain_, coverage_,
                      kernels::spanApplyAdd);
}

double PixelLikelihood::applyRemove(const Circle& c) noexcept {
  return sumDiscSpans(c, originX_, originY_, gain_, coverage_,
                      kernels::spanApplyRemove);
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

}  // namespace mcmcpar::model
