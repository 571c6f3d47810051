#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "disc_cases.hpp"
#include "img/disc_raster.hpp"
#include "img/synth.hpp"
#include "model/likelihood.hpp"
#include "model/likelihood_kernels.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::model {
namespace {

img::ImageF randomImage(int w, int h, std::uint64_t seed) {
  rng::Stream s(seed);
  img::ImageF im(w, h);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  return im;
}

LikelihoodParams testParams() {
  return LikelihoodParams{0.8, 0.1, 0.25};
}

/// Restore the dispatched backend on scope exit.
struct BackendGuard {
  kernels::Backend saved = kernels::activeBackend();
  ~BackendGuard() { kernels::setBackend(saved); }
};

constexpr kernels::Backend kBackends[] = {kernels::Backend::Scalar,
                                          kernels::Backend::Avx2};

TEST(PixelLikelihood, EmptyConfigurationMatchesBackgroundModel) {
  const img::ImageF im = randomImage(12, 9, 3);
  const PixelLikelihood lik(im, testParams());
  double expected = 0.0;
  for (float v : im.pixels()) {
    expected += rng::logNormalPdf(v, 0.1, 0.25);
  }
  EXPECT_NEAR(lik.logLikelihood(), expected, 1e-9);
  EXPECT_EQ(lik.coveredGain(), 0.0);
}

TEST(PixelLikelihood, ApplyAddMatchesDeltaAdd) {
  const img::ImageF im = randomImage(32, 32, 5);
  PixelLikelihood lik(im, testParams());
  const Circle c{16, 16, 6};
  const double predicted = lik.deltaAdd(c);
  const double applied = lik.applyAdd(c);
  EXPECT_NEAR(predicted, applied, 1e-12);
  lik.adjustCoveredGain(applied);
  EXPECT_NEAR(lik.coveredGain(), predicted, 1e-12);
}

TEST(PixelLikelihood, AddThenRemoveIsIdentity) {
  const img::ImageF im = randomImage(32, 32, 7);
  PixelLikelihood lik(im, testParams());
  const Circle c{10.5, 20.25, 5.5};
  const double add = lik.applyAdd(c);
  const double remove = lik.applyRemove(c);
  EXPECT_NEAR(add + remove, 0.0, 1e-12);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) EXPECT_EQ(lik.coverageAt(x, y), 0);
  }
}

TEST(PixelLikelihood, OverlappingCirclesCountPixelsOnce) {
  const img::ImageF im = randomImage(40, 40, 9);
  PixelLikelihood lik(im, testParams());
  const Circle a{20, 20, 6}, b{23, 20, 6};
  lik.adjustCoveredGain(lik.applyAdd(a));
  const double deltaB = lik.deltaAdd(b);
  // The delta for b must only include pixels not already covered by a.
  double manual = 0.0;
  img::forEachDiscPixel(b.x, b.y, b.r, 40, 40, [&](int x, int y) {
    if (!img::pixelInDisc(x, y, a.x, a.y, a.r)) {
      manual += ((im(x, y) - 0.1f) * (im(x, y) - 0.1f) -
                 (im(x, y) - 0.8f) * (im(x, y) - 0.8f)) /
                (2.0 * 0.25 * 0.25);
    }
  });
  // gain is stored as float; the manual reference accumulates in double.
  EXPECT_NEAR(deltaB, manual, 1e-4);
}

TEST(PixelLikelihood, DeltaReplaceExactForOverlappingMove) {
  const img::ImageF im = randomImage(48, 48, 11);
  PixelLikelihood lik(im, testParams());
  const Circle oldC{24, 24, 7};
  const Circle newC{26, 25, 6};  // overlaps oldC
  lik.adjustCoveredGain(lik.applyAdd(oldC));
  const double predicted = lik.deltaReplace(oldC, newC);
  const double applied = lik.applyRemove(oldC) + lik.applyAdd(newC);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

TEST(PixelLikelihood, DeltaReplaceWithThirdCircleCovering) {
  // A third circle keeps some pixels covered during the move; the delta
  // must account for coverage counts, not just membership.
  const img::ImageF im = randomImage(48, 48, 13);
  PixelLikelihood lik(im, testParams());
  const Circle other{24, 24, 8};
  const Circle oldC{20, 24, 5};
  const Circle newC{28, 24, 5};
  lik.adjustCoveredGain(lik.applyAdd(other));
  lik.adjustCoveredGain(lik.applyAdd(oldC));
  const double predicted = lik.deltaReplace(oldC, newC);
  const double applied = lik.applyRemove(oldC) + lik.applyAdd(newC);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

TEST(PixelLikelihood, DeltaMultipleMergeCase) {
  const img::ImageF im = randomImage(64, 64, 15);
  PixelLikelihood lik(im, testParams());
  const Circle a{30, 30, 6}, b{36, 30, 6};
  const Circle m{33, 30, 6};
  lik.adjustCoveredGain(lik.applyAdd(a));
  lik.adjustCoveredGain(lik.applyAdd(b));
  const std::array<Circle, 2> removed{a, b};
  const std::array<Circle, 1> added{m};
  const double predicted = lik.deltaMultiple(removed, added);
  const double applied =
      lik.applyRemove(a) + lik.applyRemove(b) + lik.applyAdd(m);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

TEST(PixelLikelihood, DeltaMultipleSplitCase) {
  const img::ImageF im = randomImage(64, 64, 17);
  PixelLikelihood lik(im, testParams());
  const Circle c{30, 30, 7};
  const Circle c1{27, 30, 5}, c2{33, 30, 5};
  lik.adjustCoveredGain(lik.applyAdd(c));
  const std::array<Circle, 1> removed{c};
  const std::array<Circle, 2> added{c1, c2};
  const double predicted = lik.deltaMultiple(removed, added);
  const double applied =
      lik.applyRemove(c) + lik.applyAdd(c1) + lik.applyAdd(c2);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

TEST(PixelLikelihood, IncrementalMatchesReferenceAfterRandomOps) {
  const img::ImageF im = randomImage(64, 64, 19);
  PixelLikelihood lik(im, testParams());
  rng::Stream s(21);
  std::vector<Circle> applied;
  for (int step = 0; step < 400; ++step) {
    if (applied.empty() || s.uniform() < 0.55) {
      const Circle c{s.uniform(5, 59), s.uniform(5, 59), s.uniform(2, 8)};
      lik.adjustCoveredGain(lik.applyAdd(c));
      applied.push_back(c);
    } else {
      const std::size_t k = static_cast<std::size_t>(s.below(applied.size()));
      lik.adjustCoveredGain(lik.applyRemove(applied[k]));
      applied[k] = applied.back();
      applied.pop_back();
    }
  }
  EXPECT_NEAR(lik.coveredGain(), lik.referenceCoveredGain(applied), 1e-6);
}

TEST(PixelLikelihood, ResynchroniseCancelsInjectedDrift) {
  const img::ImageF im = randomImage(32, 32, 23);
  PixelLikelihood lik(im, testParams());
  const Circle c{16, 16, 6};
  lik.adjustCoveredGain(lik.applyAdd(c));
  const double clean = lik.coveredGain();
  lik.adjustCoveredGain(1e-3);  // inject drift
  lik.resynchronise();
  EXPECT_NEAR(lik.coveredGain(), clean, 1e-9);
}

TEST(PixelLikelihood, ApplyRemoveOnUncoveredPixelsClampsInsteadOfWrapping) {
  // Regression: removing a circle that was never applied used to wrap the
  // uint16 coverage to 65535 in Release builds (the assert compiled out),
  // silently corrupting every subsequent delta. The guard is now real:
  // debug builds assert, release builds clamp at zero.
  const img::ImageF im = randomImage(32, 32, 41);
  PixelLikelihood lik(im, testParams());
  const Circle never{16, 16, 5};
#if defined(NDEBUG)
  const double delta = lik.applyRemove(never);
  EXPECT_EQ(delta, 0.0);  // nothing was covered, nothing became bare
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      ASSERT_EQ(lik.coverageAt(x, y), 0) << x << "," << y;  // no 65535 wrap
    }
  }
  // Subsequent deltas are uncorrupted: add/remove still round-trips and
  // matches the from-scratch reference.
  const Circle c{14, 17, 6};
  const double add = lik.applyAdd(c);
  lik.resynchronise();
  const std::array<Circle, 1> applied{c};
  EXPECT_EQ(lik.coveredGain(), lik.referenceCoveredGain(applied));
  EXPECT_EQ(lik.applyRemove(c), -add);
#else
  EXPECT_DEATH(lik.applyRemove(never), "applyRemove on an uncovered pixel");
#endif
}

TEST(PixelLikelihood, ConstTermMatchesLongDoubleReferenceOnLargeImage) {
  // 2048^2 pixels into one total of magnitude ~6.2e6. Measured on this
  // workload: the compensated constructor sum lands ~1.2e-8 from the
  // long-double reference, a naive double accumulator ~5.7e-7. The bound
  // sits ~12x above the former and ~4x below the latter, so reverting to
  // naive summation fails here.
  const int N = 2048;
  rng::Stream s(43);
  img::ImageF im(N, N);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  const LikelihoodParams params = testParams();
  const PixelLikelihood lik(im, params);

  long double reference = 0.0L;
  for (float v : im.pixels()) {
    reference += static_cast<long double>(
        rng::logNormalPdf(static_cast<double>(v), params.bgMean, params.sigma));
  }
  EXPECT_NEAR(static_cast<double>(static_cast<long double>(lik.logLikelihood()) -
                                  reference),
              0.0, 1.5e-7);
}

TEST(PixelLikelihood, ResynchroniseMatchesLongDoubleReferenceOnLargeImage) {
  const int N = 2048;
  rng::Stream s(47);
  img::ImageF im(N, N);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  PixelLikelihood lik(im, testParams());
  // Cover roughly half the raster with a handful of giant discs.
  std::vector<Circle> circles;
  for (int i = 0; i < 12; ++i) {
    circles.push_back(
        Circle{s.uniform(0, N), s.uniform(0, N), s.uniform(150, 450)});
  }
  for (const Circle& c : circles) lik.adjustCoveredGain(lik.applyAdd(c));
  lik.resynchronise();

  long double reference = 0.0L;
  for (int y = 0; y < N; ++y) {
    for (int x = 0; x < N; ++x) {
      if (lik.coverageAt(x, y) > 0) {
        // Exactly the constructor's gain expression (the /0.125 is an exact
        // power-of-two scaling, identical to its *8.0), rounded to float as
        // stored, then accumulated in long double.
        const double g =
            ((im(x, y) - 0.1) * (im(x, y) - 0.1) -
             (im(x, y) - 0.8) * (im(x, y) - 0.8)) /
            (2.0 * 0.25 * 0.25);
        reference += static_cast<long double>(static_cast<float>(g));
      }
    }
  }
  // ~2.1M covered pixels sum to ~1.2e6 with condition number ~5. Measured:
  // the lane-chunked span kernels + per-row Kahan fold land ~1.1e-10 from
  // the long-double reference; the bound leaves ~100x slack while staying
  // ~9 decimal digits tighter than the total itself.
  EXPECT_NEAR(
      static_cast<double>(static_cast<long double>(lik.coveredGain()) - reference),
      0.0, 1e-8);
}

TEST(PixelLikelihood, OriginOffsetKeepsGlobalCoordinates) {
  // A likelihood built directly over a crop with an origin must agree with
  // deltas of a full-image likelihood for circles inside the crop.
  const img::ImageF full = randomImage(48, 48, 31);
  const img::ImageF sub = full.crop(12, 8, 24, 24);
  const PixelLikelihood whole(full, testParams());
  const PixelLikelihood offset(sub, testParams(), 12, 8);
  const Circle c{22, 18, 4};  // global coordinates, inside crop
  EXPECT_NEAR(offset.deltaAdd(c), whole.deltaAdd(c), 1e-6);
}

// ---------------------------------------------------------------------------
// Bit-identity of the delta paths against the earlier algorithms
// ---------------------------------------------------------------------------

/// deltaReplace as it was before each disc's spans were computed once: two
/// passes through img::forEachDiscSpan, each row cut by a fresh
/// img::discRowSpan of the other disc, every segment through the dispatched
/// kernel.
double twoPassDeltaReplace(const PixelLikelihood& lik, const Circle& oldC,
                           const Circle& newC) {
  const img::ImageF& gain = lik.gainRaster();
  const img::Image<std::uint16_t>& cov = lik.coverageRaster();
  const auto outsideCut = [&](int y, int x0, int x1, img::RowSpan cut,
                              auto kernel) {
    const bool haveCut = cut.x0 < cut.x1;
    const int leftEnd = haveCut ? std::clamp(cut.x0, x0, x1) : x1;
    const int rightBegin = haveCut ? std::clamp(cut.x1, x0, x1) : x1;
    double delta = 0.0;
    if (x0 < leftEnd) {
      delta += kernel(gain.row(y) + x0, cov.row(y) + x0,
                      static_cast<std::size_t>(leftEnd - x0));
    }
    if (rightBegin < x1) {
      delta += kernel(gain.row(y) + rightBegin, cov.row(y) + rightBegin,
                      static_cast<std::size_t>(x1 - rightBegin));
    }
    return delta;
  };
  double delta = 0.0;
  const double ox = oldC.x - lik.originX();
  const double oy = oldC.y - lik.originY();
  const double nx = newC.x - lik.originX();
  const double ny = newC.y - lik.originY();
  const int width = gain.width();
  img::forEachDiscSpan(nx, ny, newC.r, width, gain.height(),
                       [&](int y, int x0, int x1) {
                         delta += outsideCut(
                             y, x0, x1,
                             img::discRowSpan(ox, oy, oldC.r, y, width),
                             kernels::spanDeltaAdd);
                       });
  img::forEachDiscSpan(ox, oy, oldC.r, width, gain.height(),
                       [&](int y, int x0, int x1) {
                         delta += outsideCut(
                             y, x0, x1,
                             img::discRowSpan(nx, ny, newC.r, y, width),
                             kernels::spanDeltaRemove);
                       });
  return delta;
}

/// The documented lane arithmetic of spanTransitionDelta, written plainly.
double transitionLanes(const float* gain, const std::uint16_t* cov,
                       const std::int16_t* dOld, const std::int16_t* dNew,
                       std::size_t n) {
  double lanes[kernels::kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const int cur = cov[i];
    const bool was = cur > 0;
    const bool now = cur - dOld[i] + dNew[i] > 0;
    lanes[i % kernels::kLanes] += was == now ? 0.0
                                  : now      ? static_cast<double>(gain[i])
                                             : -static_cast<double>(gain[i]);
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// deltaMultiple's splat algorithm: per-row coverage deltas over the joint
/// bounding box, each row summed over its touched columns.
double splatDeltaMultiple(const PixelLikelihood& lik,
                          const std::vector<Circle>& removed,
                          const std::vector<Circle>& added) {
  const img::ImageF& gain = lik.gainRaster();
  const img::Image<std::uint16_t>& cov = lik.coverageRaster();
  double bx0 = 1e30, by0 = 1e30, bx1 = -1e30, by1 = -1e30;
  for (const std::vector<Circle>* list : {&removed, &added}) {
    for (const Circle& c : *list) {
      bx0 = std::min(bx0, c.x - c.r - lik.originX());
      by0 = std::min(by0, c.y - c.r - lik.originY());
      bx1 = std::max(bx1, c.x + c.r - lik.originX());
      by1 = std::max(by1, c.y + c.r - lik.originY());
    }
  }
  if (bx1 < bx0) return 0.0;
  const int x0 = std::max(0, static_cast<int>(std::floor(std::max(bx0, -1.0))));
  const int y0 = std::max(0, static_cast<int>(std::floor(std::max(by0, -1.0))));
  const int x1 = std::min(
      gain.width() - 1,
      static_cast<int>(std::ceil(std::min(bx1, 1.0 + gain.width()))));
  const int y1 = std::min(
      gain.height() - 1,
      static_cast<int>(std::ceil(std::min(by1, 1.0 + gain.height()))));
  if (x1 < x0 || y1 < y0) return 0.0;
  const auto bboxWidth = static_cast<std::size_t>(x1 - x0 + 1);
  double delta = 0.0;
  for (int y = y0; y <= y1; ++y) {
    std::vector<std::int16_t> dOld(bboxWidth, 0), dNew(bboxWidth, 0);
    int rowMin = x1 + 1;
    int rowMax = x0 - 1;
    const auto splat = [&](const Circle& c, std::vector<std::int16_t>& counts) {
      const img::RowSpan s = img::discRowSpan(
          c.x - lik.originX(), c.y - lik.originY(), c.r, y, gain.width());
      if (s.x0 >= s.x1) return;
      rowMin = std::min(rowMin, s.x0);
      rowMax = std::max(rowMax, s.x1 - 1);
      for (int x = s.x0; x < s.x1; ++x) ++counts[static_cast<std::size_t>(x - x0)];
    };
    for (const Circle& c : removed) splat(c, dOld);
    for (const Circle& c : added) splat(c, dNew);
    if (rowMin > rowMax) continue;
    const auto off = static_cast<std::size_t>(rowMin - x0);
    delta += transitionLanes(gain.row(y) + rowMin, cov.row(y) + rowMin,
                             dOld.data() + off, dNew.data() + off,
                             static_cast<std::size_t>(rowMax - rowMin + 1));
  }
  return delta;
}

/// An image whose gains span about 45 binades: pixel values scatter around
/// the midpoint of the two class means, where the gain crosses zero, out to
/// a million. Same-magnitude gains sum exactly in double whatever the
/// order, so only a spread like this lets `==` see a changed summation
/// order as well as a changed pixel set.
img::ImageF wideGainImage(int w, int h, std::uint64_t seed) {
  rng::Stream s(seed);
  img::ImageF im(w, h);
  for (float& v : im.pixels()) {
    const double offset = std::pow(10.0, s.uniform(-7.0, 6.0));
    v = static_cast<float>(0.45 + (s.uniform() < 0.5 ? -offset : offset));
  }
  return im;
}

using testcases::proposeFrom;

/// A raster of `count` applied circles over a random image, some of them
/// knife-edge or sub-pixel, some overlapping the border.
std::vector<Circle> populate(PixelLikelihood& lik, int w, int h, int count,
                             rng::Stream& s) {
  std::vector<Circle> applied;
  for (int i = 0; i < count; ++i) {
    Circle c{s.uniform(-6.0, w + 6.0), s.uniform(-6.0, h + 6.0),
             s.uniform(0.4, 11.0)};
    if (i % 5 == 0) {
      c = {std::floor(c.x) + 0.5, std::floor(c.y) + 0.5, std::floor(c.r) + 1.0};
    }
    lik.adjustCoveredGain(lik.applyAdd(c));
    applied.push_back(c);
  }
  return applied;
}

/// A likelihood over the image window [x0, x0+w) x [y0, y0+h), kept in
/// global coordinates, with `circles` applied (clipped by its border).
PixelLikelihood cropWith(const img::ImageF& im, int x0, int y0, int w, int h,
                         const std::vector<Circle>& circles) {
  PixelLikelihood lik(im.crop(x0, y0, w, h), testParams(), x0, y0);
  for (const Circle& c : circles) lik.adjustCoveredGain(lik.applyAdd(c));
  return lik;
}

TEST(PixelLikelihood, DeltaReplaceBitMatchesTwoPassReference) {
  const img::ImageF im = wideGainImage(96, 80, 31);
  PixelLikelihood full(im, testParams());
  rng::Stream s(33);
  const std::vector<Circle> applied = populate(full, 96, 80, 40, s);
  // A crop with a non-zero origin sees the same circles in global
  // coordinates, most of them clipped by its border.
  const PixelLikelihood crop = cropWith(im, 17, 11, 53, 47, applied);
  BackendGuard guard;
  int cases = 0;
  // The reference cuts with img::discRowSpan, so under AVX2 this also checks
  // the batched spans against the scalar ones.
  for (const kernels::Backend backend : kBackends) {
    if (!kernels::setBackend(backend)) continue;  // AVX2 unavailable
    for (const PixelLikelihood* lik : {&std::as_const(full), &crop}) {
      for (int i = 0; i < 6000; ++i, ++cases) {
        Circle oldC = applied[s.below(applied.size())];
        Circle newC = proposeFrom(oldC, lik->originX(), lik->originY(),
                                  lik->width(), lik->height(), s,
                                  /*degenerate=*/true);
        // Reversed, the degenerate proposals become the cutting disc.
        if (s.below(4) == 0) std::swap(oldC, newC);
        ASSERT_EQ(lik->deltaReplace(oldC, newC),
                  twoPassDeltaReplace(*lik, oldC, newC))
            << "backend " << kernels::backendName() << " old (" << oldC.x
            << ", " << oldC.y << ", " << oldC.r << ") new (" << newC.x
            << ", " << newC.y << ", " << newC.r << ") origin ("
            << lik->originX() << ", " << lik->originY() << ")";
      }
    }
  }
  EXPECT_GE(cases, 10000);
}

TEST(PixelLikelihood, DeltaMultipleBitMatchesSplatReference) {
  const img::ImageF im = wideGainImage(96, 80, 35);
  PixelLikelihood full(im, testParams());
  rng::Stream s(37);
  const std::vector<Circle> applied = populate(full, 96, 80, 40, s);
  const PixelLikelihood crop = cropWith(im, 17, 11, 53, 47, applied);
  BackendGuard guard;
  int cases = 0;
  for (const kernels::Backend backend : kBackends) {
    if (!kernels::setBackend(backend)) continue;  // AVX2 unavailable
    for (const PixelLikelihood* lik : {&std::as_const(full), &crop}) {
      for (int i = 0; i < 5000; ++i, ++cases) {
        // Split (1 removed, 2 added) or merge (2 removed, 1 added).
        const bool split = s.below(2) == 0;
        std::vector<Circle> removed{applied[s.below(applied.size())]};
        if (!split) removed.push_back(applied[s.below(applied.size())]);
        std::vector<Circle> added;
        for (std::size_t k = 0; k < (split ? 2u : 1u); ++k) {
          // Split and merge reject radii outside the prior's support
          // before they ask for a delta, so no degenerate radii here.
          added.push_back(proposeFrom(removed[0], lik->originX(),
                                      lik->originY(), lik->width(),
                                      lik->height(), s,
                                      /*degenerate=*/false));
        }
        ASSERT_EQ(lik->deltaMultiple(removed, added),
                  splatDeltaMultiple(*lik, removed, added))
            << "backend " << kernels::backendName() << " case " << i;
      }
    }
  }
  EXPECT_GE(cases, 10000);
}

/// Every value one backend gives along a seeded walk of single-disc moves
/// (deltaAdd, deltaRemove, deltaReplace, applyAdd, applyRemove) over a
/// copy of `lik`, then the coverage raster the walk leaves.
struct SingleDiscWalk {
  std::vector<double> values;
  std::vector<std::uint16_t> coverage;
};

SingleDiscWalk walkSingleDiscMoves(PixelLikelihood lik,
                                   std::vector<Circle> applied,
                                   std::uint64_t seed) {
  rng::Stream s(seed);
  SingleDiscWalk walk;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t k = s.below(applied.size());
    const Circle c = proposeFrom(applied[k], lik.originX(), lik.originY(),
                                 lik.width(), lik.height(), s,
                                 /*degenerate=*/true);
    walk.values.push_back(lik.deltaAdd(c));
    walk.values.push_back(lik.deltaRemove(applied[k]));
    walk.values.push_back(lik.deltaReplace(applied[k], c));
    walk.values.push_back(lik.applyAdd(c));
    if (s.below(2) == 0) {
      applied.push_back(c);
    } else {
      walk.values.push_back(lik.applyRemove(c));
    }
    if (applied.size() > 30 || s.below(3) == 0) {
      const std::size_t j = s.below(applied.size());
      walk.values.push_back(lik.applyRemove(applied[j]));
      applied.erase(applied.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }
  walk.coverage = lik.coverageRaster().pixels();
  return walk;
}

TEST(PixelLikelihood, SingleDiscPathsBitMatchAcrossBackends) {
  if (!kernels::avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  const img::ImageF im = wideGainImage(96, 80, 41);
  PixelLikelihood full(im, testParams());
  rng::Stream s(43);
  const std::vector<Circle> applied = populate(full, 96, 80, 20, s);
  const PixelLikelihood crop = cropWith(im, 17, 11, 53, 47, applied);
  BackendGuard guard;
  for (const PixelLikelihood* lik : {&std::as_const(full), &crop}) {
    ASSERT_TRUE(kernels::setBackend(kernels::Backend::Scalar));
    const SingleDiscWalk scalar = walkSingleDiscMoves(*lik, applied, 47);
    ASSERT_TRUE(kernels::setBackend(kernels::Backend::Avx2));
    const SingleDiscWalk avx2 = walkSingleDiscMoves(*lik, applied, 47);
    ASSERT_EQ(scalar.values.size(), avx2.values.size());
    EXPECT_GE(scalar.values.size(), 16000u);
    for (std::size_t i = 0; i < scalar.values.size(); ++i) {
      ASSERT_EQ(scalar.values[i], avx2.values[i])
          << "value " << i << " origin (" << lik->originX() << ", "
          << lik->originY() << ")";
    }
    EXPECT_EQ(scalar.coverage, avx2.coverage);
  }
}

}  // namespace
}  // namespace mcmcpar::model
