// Property suite for the span-based likelihood hot path (see
// src/model/likelihood_kernels.hpp for the determinism policy these tests
// enforce): delta/apply consistency is bit-exact, the scalar and AVX2
// backends are bit-identical, resynchronise bit-matches the from-scratch
// reference, and the uint16 coverage guard rails (clamp at 0, saturate at
// 65535) hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "disc_cases.hpp"
#include "img/disc_raster.hpp"
#include "model/likelihood.hpp"
#include "model/likelihood_kernels.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::model {
namespace {

namespace k = kernels;

/// Restore the dispatched backend on scope exit so a failing test cannot
/// poison the rest of the binary.
struct BackendGuard {
  k::Backend saved = k::activeBackend();
  ~BackendGuard() { k::setBackend(saved); }
};

img::ImageF randomImage(int w, int h, std::uint64_t seed) {
  rng::Stream s(seed);
  img::ImageF im(w, h);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  return im;
}

LikelihoodParams testParams() { return LikelihoodParams{0.8, 0.1, 0.25}; }

/// Reference implementation of the documented lane semantics, written as
/// naively as possible.
double laneReference(const std::vector<float>& gain,
                     const std::vector<std::uint16_t>& cov, bool addWhenZero) {
  double lanes[k::kLanes] = {};
  for (std::size_t i = 0; i < gain.size(); ++i) {
    if (addWhenZero ? cov[i] == 0 : cov[i] == 1) {
      lanes[i % k::kLanes] += static_cast<double>(gain[i]);
    }
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

struct RandomSpan {
  std::vector<float> gain;
  std::vector<std::uint16_t> cov;
};

RandomSpan randomSpan(rng::Stream& s, std::size_t n) {
  RandomSpan out;
  out.gain.resize(n);
  out.cov.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.gain[i] = static_cast<float>(s.uniform(-8.0, 8.0));
    const double u = s.uniform();
    out.cov[i] = u < 0.45 ? 0 : u < 0.8 ? 1 : static_cast<std::uint16_t>(s.below(5) + 1);
  }
  return out;
}

TEST(LikelihoodKernels, ScalarMatchesDocumentedLaneSemantics) {
  BackendGuard guard;
  ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
  rng::Stream s(101);
  for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 31u, 64u, 200u}) {
    const RandomSpan span = randomSpan(s, n);
    EXPECT_EQ(k::spanDeltaAdd(span.gain.data(), span.cov.data(), n),
              laneReference(span.gain, span.cov, true));
    EXPECT_EQ(k::spanDeltaRemove(span.gain.data(), span.cov.data(), n),
              -laneReference(span.gain, span.cov, false));
  }
}

TEST(LikelihoodKernels, Avx2BitMatchesScalarOnRandomSpans) {
  if (!k::avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  BackendGuard guard;
  rng::Stream s(202);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = s.below(70);
    const RandomSpan span = randomSpan(s, n);

    ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
    const double addS = k::spanDeltaAdd(span.gain.data(), span.cov.data(), n);
    const double remS =
        k::spanDeltaRemove(span.gain.data(), span.cov.data(), n);
    const double sumS =
        k::spanSumCovered(span.gain.data(), span.cov.data(), n);
    std::vector<std::uint16_t> covApplyS = span.cov;
    const double applyAddS =
        k::spanApplyAdd(span.gain.data(), covApplyS.data(), n);
    const double applyRemS =
        k::spanApplyRemove(span.gain.data(), covApplyS.data(), n);

    ASSERT_TRUE(k::setBackend(k::Backend::Avx2));
    EXPECT_EQ(addS, k::spanDeltaAdd(span.gain.data(), span.cov.data(), n));
    EXPECT_EQ(remS, k::spanDeltaRemove(span.gain.data(), span.cov.data(), n));
    EXPECT_EQ(sumS, k::spanSumCovered(span.gain.data(), span.cov.data(), n));
    std::vector<std::uint16_t> covApplyV = span.cov;
    EXPECT_EQ(applyAddS, k::spanApplyAdd(span.gain.data(), covApplyV.data(), n));
    EXPECT_EQ(applyRemS,
              k::spanApplyRemove(span.gain.data(), covApplyV.data(), n));
    EXPECT_EQ(covApplyS, covApplyV);
  }
}

TEST(LikelihoodKernels, ApplyAddSaturatesInsteadOfWrapping) {
  BackendGuard guard;
  std::vector<float> gain(20, 1.0f);
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (b == k::Backend::Avx2 && !k::avx2Available()) continue;
    ASSERT_TRUE(k::setBackend(b));
    std::vector<std::uint16_t> cov(20, 65535);
    const double delta = k::spanApplyAdd(gain.data(), cov.data(), cov.size());
    EXPECT_EQ(delta, 0.0);  // nothing newly covered
    for (std::uint16_t c : cov) EXPECT_EQ(c, 65535);
  }
}

TEST(LikelihoodKernels, ApplyRemoveClampsAtZeroInsteadOfWrapping) {
  BackendGuard guard;
  std::vector<float> gain(20, 1.0f);
#if defined(NDEBUG)
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (b == k::Backend::Avx2 && !k::avx2Available()) continue;
    ASSERT_TRUE(k::setBackend(b));
    std::vector<std::uint16_t> cov(20, 0);
    cov[3] = 1;  // one genuinely covered pixel among bare ones
    const double delta =
        k::spanApplyRemove(gain.data(), cov.data(), cov.size());
    EXPECT_EQ(delta, -1.0);  // only the covered pixel contributes
    for (std::uint16_t c : cov) EXPECT_EQ(c, 0);  // clamped, no 65535 wrap
  }
#else
  std::vector<std::uint16_t> cov(20, 0);
  EXPECT_DEATH(k::spanApplyRemove(gain.data(), cov.data(), cov.size()),
               "applyRemove on an uncovered pixel");
#endif
}

TEST(LikelihoodKernels, DeltaAddBitMatchesApplyAdd) {
  const img::ImageF im = randomImage(96, 96, 303);
  rng::Stream s(304);
  PixelLikelihood lik(im, testParams());
  // Pre-cover part of the raster so spans mix covered/uncovered pixels.
  lik.adjustCoveredGain(lik.applyAdd(Circle{40, 40, 18}));
  for (int trial = 0; trial < 50; ++trial) {
    const Circle c{s.uniform(-5, 101), s.uniform(-5, 101), s.uniform(1, 20)};
    const double predicted = lik.deltaAdd(c);
    const double applied = lik.applyAdd(c);
    EXPECT_EQ(predicted, applied) << "trial " << trial;
    const double removed = lik.applyRemove(c);
    EXPECT_EQ(removed, -applied) << "trial " << trial;
  }
}

TEST(LikelihoodKernels, DeltaRemoveBitMatchesApplyRemove) {
  const img::ImageF im = randomImage(96, 96, 305);
  rng::Stream s(306);
  PixelLikelihood lik(im, testParams());
  std::vector<Circle> applied;
  for (int i = 0; i < 30; ++i) {
    const Circle c{s.uniform(0, 96), s.uniform(0, 96), s.uniform(2, 14)};
    lik.adjustCoveredGain(lik.applyAdd(c));
    applied.push_back(c);
  }
  for (const Circle& c : applied) {
    const double predicted = lik.deltaRemove(c);
    const double removed = lik.applyRemove(c);
    EXPECT_EQ(predicted, removed);
    lik.adjustCoveredGain(removed);
  }
}

TEST(LikelihoodKernels, ApplyRoundTripRestoresCoveredGain) {
  const img::ImageF im = randomImage(80, 80, 307);
  rng::Stream s(308);
  PixelLikelihood lik(im, testParams());
  lik.adjustCoveredGain(lik.applyAdd(Circle{30, 30, 12}));
  const double before = lik.coveredGain();
  for (int trial = 0; trial < 40; ++trial) {
    const Circle c{s.uniform(0, 80), s.uniform(0, 80), s.uniform(1, 16)};
    const double add = lik.applyAdd(c);
    const double rem = lik.applyRemove(c);
    // The remove delta is the exact negation (same lanes, same order), so
    // the round trip cancels exactly.
    ASSERT_EQ(rem, -add) << "trial " << trial;
    lik.adjustCoveredGain(add);
    lik.adjustCoveredGain(rem);
  }
  // Each (v + d) + (-d) round trip can leave an ulp of drift on the running
  // total; 40 trips stay comfortably under 1e-9.
  EXPECT_NEAR(lik.coveredGain(), before, 1e-9);
}

TEST(LikelihoodKernels, ResynchroniseBitMatchesReferenceCoveredGain) {
  const img::ImageF im = randomImage(128, 128, 309);
  rng::Stream s(310);
  PixelLikelihood lik(im, testParams());
  std::vector<Circle> applied;
  for (int step = 0; step < 300; ++step) {
    if (applied.empty() || s.uniform() < 0.6) {
      const Circle c{s.uniform(0, 128), s.uniform(0, 128), s.uniform(2, 12)};
      lik.adjustCoveredGain(lik.applyAdd(c));
      applied.push_back(c);
    } else {
      const std::size_t i = static_cast<std::size_t>(s.below(applied.size()));
      lik.adjustCoveredGain(lik.applyRemove(applied[i]));
      applied[i] = applied.back();
      applied.pop_back();
    }
  }
  lik.resynchronise();
  EXPECT_EQ(lik.coveredGain(), lik.referenceCoveredGain(applied));
}

TEST(LikelihoodKernels, WholeLikelihoodIsBackendInvariant) {
  if (!k::avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  BackendGuard guard;
  const img::ImageF im = randomImage(100, 100, 311);

  const auto runScript = [&im]() {
    PixelLikelihood lik(im, testParams());
    rng::Stream s(312);
    std::vector<double> out;
    std::vector<Circle> applied;
    for (int step = 0; step < 120; ++step) {
      const Circle c{s.uniform(0, 100), s.uniform(0, 100), s.uniform(2, 15)};
      out.push_back(lik.deltaAdd(c));
      lik.adjustCoveredGain(lik.applyAdd(c));
      applied.push_back(c);
      if (applied.size() > 3 && s.uniform() < 0.4) {
        const Circle old = applied.back();
        applied.pop_back();
        const Circle moved{old.x + s.normal(0, 2), old.y + s.normal(0, 2),
                           old.r};
        out.push_back(lik.deltaReplace(old, moved));
        lik.adjustCoveredGain(lik.applyRemove(old));
        lik.adjustCoveredGain(lik.applyAdd(moved));
        applied.push_back(moved);
      }
    }
    lik.resynchronise();
    out.push_back(lik.coveredGain());
    out.push_back(lik.logLikelihood());
    return out;
  };

  ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
  const std::vector<double> scalar = runScript();
  ASSERT_TRUE(k::setBackend(k::Backend::Avx2));
  const std::vector<double> avx2 = runScript();
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i], avx2[i]) << "value " << i;
  }
}

TEST(LikelihoodKernels, BackendForcingRoundTrips) {
  BackendGuard guard;
  EXPECT_TRUE(k::setBackend(k::Backend::Scalar));
  EXPECT_EQ(k::activeBackend(), k::Backend::Scalar);
  EXPECT_STREQ(k::backendName(), "scalar");
  if (k::avx2Available()) {
    EXPECT_TRUE(k::setBackend(k::Backend::Avx2));
    EXPECT_EQ(k::activeBackend(), k::Backend::Avx2);
    EXPECT_STREQ(k::backendName(), "avx2");
  } else {
    EXPECT_FALSE(k::setBackend(k::Backend::Avx2));
    EXPECT_EQ(k::activeBackend(), k::Backend::Scalar);
  }
}

TEST(LikelihoodKernels, KahanSumBeatsNaiveOnAdversarialSequence) {
  // 1 followed by many tiny values that a naive double sum drops entirely.
  k::KahanSum kahan;
  double naive = 0.0;
  kahan.add(1.0);
  naive += 1.0;
  const double tiny = 1e-16;
  for (int i = 0; i < 10000; ++i) {
    kahan.add(tiny);
    naive += tiny;
  }
  const double exact = 1.0 + 1e-12;
  EXPECT_EQ(naive, 1.0);  // every tiny add rounds away
  EXPECT_NEAR(kahan.value(), exact, 1e-15);
}

/// The documented lane semantics of spanTransitionDelta, written naively.
double transitionReference(const float* gain, const std::uint16_t* cov,
                           const std::int16_t* dOld, const std::int16_t* dNew,
                           std::size_t n) {
  double lanes[k::kLanes] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const long after = static_cast<long>(cov[i]) - dOld[i] + dNew[i];
    if ((cov[i] > 0) == (after > 0)) continue;
    lanes[i % k::kLanes] += after > 0 ? static_cast<double>(gain[i])
                                      : -static_cast<double>(gain[i]);
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// A gain whose exponent spans +-60 binades: sums of a few same-magnitude
/// floats are exact in double whatever the order, so only gains this far
/// apart make a wrong lane assignment or combine order change the bits.
float wideGain(rng::Stream& s) {
  return static_cast<float>(
      std::ldexp(s.uniform(-1.0, 1.0), static_cast<int>(s.below(121)) - 60));
}

TEST(LikelihoodKernels, TransitionDeltaBackendsBitMatchForEveryLength) {
  BackendGuard guard;
  rng::Stream s(303);
  for (std::size_t n = 0; n <= 64; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<float> gain(n);
      std::vector<std::uint16_t> cov(n);
      std::vector<std::int16_t> dOld(n), dNew(n);
      for (std::size_t i = 0; i < n; ++i) {
        gain[i] = wideGain(s);
        // Counts near 65535 are where 16-bit arithmetic would wrap
        // (65535 + 1 -> 0 reads as "becomes bare").
        const double u = s.uniform();
        cov[i] = u < 0.3   ? 0
                 : u < 0.6 ? 1
                 : u < 0.8 ? static_cast<std::uint16_t>(s.below(4) + 2)
                           : static_cast<std::uint16_t>(65535 - s.below(3));
        dOld[i] = static_cast<std::int16_t>(
            std::min<std::uint64_t>(s.below(3), cov[i]));
        dNew[i] = static_cast<std::int16_t>(s.below(3));
      }
      const double expected = transitionReference(
          gain.data(), cov.data(), dOld.data(), dNew.data(), n);
      ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
      EXPECT_EQ(k::spanTransitionDelta(gain.data(), cov.data(), dOld.data(),
                                       dNew.data(), n),
                expected)
          << "scalar, n = " << n;
      if (!k::avx2Available()) continue;
      ASSERT_TRUE(k::setBackend(k::Backend::Avx2));
      EXPECT_EQ(k::spanTransitionDelta(gain.data(), cov.data(), dOld.data(),
                                       dNew.data(), n),
                expected)
          << "avx2, n = " << n;
    }
  }
}

TEST(LikelihoodKernels, TransitionDeltaDoesNotWrapAtFullCoverage) {
  BackendGuard guard;
  // Eight pixels at the count ceiling gaining one disc stay covered: no
  // transition, so the delta is zero on every backend.
  const std::vector<float> gain(8, 1.5f);
  const std::vector<std::uint16_t> cov(8, 65535);
  const std::vector<std::int16_t> none(8, 0), one(8, 1);
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (!k::setBackend(b)) continue;
    EXPECT_EQ(k::spanTransitionDelta(gain.data(), cov.data(), none.data(),
                                     one.data(), 8),
              0.0)
        << k::backendName();
  }
}

TEST(LikelihoodKernels, ShortPathBitMatchesDispatchedKernels) {
  BackendGuard guard;
  rng::Stream s(404);
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (!k::setBackend(b)) continue;
    for (std::size_t n = 0; n < k::kLanes; ++n) {
      for (int trial = 0; trial < 200; ++trial) {
        RandomSpan span = randomSpan(s, n);
        for (float& g : span.gain) g = wideGain(s);
        // Zero gains exercise the signed-zero corner of the lane sums.
        if (n > 0 && trial % 7 == 0) span.gain[s.below(n)] = -0.0f;
        EXPECT_EQ(k::shortSpanDeltaAdd(span.gain.data(), span.cov.data(), n),
                  k::spanDeltaAdd(span.gain.data(), span.cov.data(), n))
            << k::backendName() << ", n = " << n;
        EXPECT_EQ(
            k::shortSpanDeltaRemove(span.gain.data(), span.cov.data(), n),
            k::spanDeltaRemove(span.gain.data(), span.cov.data(), n))
            << k::backendName() << ", n = " << n;
      }
    }
  }
}

// --- discRowSpans -----------------------------------------------------------

/// discRowSpans on the active backend must give img::discRowSpan on every
/// row of `rows` and write nothing outside them.
void expectRowSpansExact(double cx, double cy, double r, int width,
                         img::RowRange rows) {
  const std::size_t n =
      rows.y0 > rows.y1 ? 0 : static_cast<std::size_t>(rows.y1 - rows.y0 + 1);
  constexpr img::RowSpan kUntouched{-7, -7};
  std::vector<img::RowSpan> out(n + 1, kUntouched);
  k::discRowSpans(cx, cy, r, width, rows, out.data());
  for (std::size_t i = 0; i < n; ++i) {
    const int y = rows.y0 + static_cast<int>(i);
    const img::RowSpan want = img::discRowSpan(cx, cy, r, y, width);
    ASSERT_TRUE(out[i].x0 == want.x0 && out[i].x1 == want.x1)
        << k::backendName() << " disc (" << cx << ", " << cy << ", " << r
        << ") width " << width << " row " << y << ": got [" << out[i].x0
        << ", " << out[i].x1 << ") want [" << want.x0 << ", " << want.x1
        << ")";
  }
  EXPECT_EQ(out[n].x0, kUntouched.x0) << "wrote past the last row";
}

/// Cases for one backend; the stream fixes them, so both backends see the
/// same discs.
void sweepRowSpans(std::uint64_t seed) {
  // Rows the AVX2 step hands back to discRowSpan: disc < 0 (rows outside
  // the disc), half < 1 (the poles) and endpoints on the rim (a 3-4-5 disc
  // centred on a pixel centre has pixel centres exactly on its rim).
  expectRowSpansExact(20.5, 20.5, 5.0, 64, {10, 31});
  expectRowSpansExact(20.5, 20.5, 0.5, 64, {18, 23});
  expectRowSpansExact(-3.0, 20.5, 5.0, 64, {14, 27});
  expectRowSpansExact(66.5, 20.5, 5.0, 64, {14, 27});
  if (testing::Test::HasFatalFailure()) return;
  rng::Stream s(seed);
  for (int i = 0; i < 20000; ++i) {
    const int width = 1 + static_cast<int>(s.below(160));
    const int height = 1 + static_cast<int>(s.below(160));
    // Random discs, often off-image or clipped by the border.
    Circle c{s.uniform(-30.0, width + 30.0), s.uniform(-30.0, height + 30.0),
             s.uniform(0.05, 30.0)};
    switch (i % 5) {
      case 1:  // sub-pixel radii: every row takes the rim verification
        c.r = s.uniform(0.01, 1.2);
        break;
      case 2:  // knife edges, sub-pixel and degenerate radii
        c = model::testcases::proposeFrom(c, 0, 0, width, height, s,
                                          /*degenerate=*/true);
        break;
      case 3:  // pixel centres exactly on the rim: r^2 a sum of two squares
        c = {std::floor(c.x) + (s.below(2) == 0 ? 0.5 : 0.0),
             std::floor(c.y) + 0.5,
             std::sqrt(static_cast<double>(s.below(400)))};
        break;
      case 4: {  // a rim through one pixel centre, on one side of the row
        // Offsets in tenths make the rim pass through the pixel centre
        // in real arithmetic (0.6/0.8/1.0), so the rounded sqrt can land
        // on either side of that endpoint.
        const double dx = std::round(s.uniform(-150.0, 150.0)) / 10.0;
        const double dy = std::round(s.uniform(-150.0, 150.0)) / 10.0;
        const double px = std::floor(s.uniform(0.0, width)) + 0.5;
        const double py = std::floor(s.uniform(0.0, height)) + 0.5;
        c = {px + dx, py + dy, std::sqrt(dx * dx + dy * dy)};
        break;
      }
      default:
        break;
    }
    expectRowSpansExact(c.x, c.y, c.r, width,
                        img::discRowRange(c.y, c.r, height));
    if (testing::Test::HasFatalFailure()) return;
    // Arbitrary ranges: rows outside the disc (the rim disagreement rows),
    // negative rows, every tail length, and empty ranges (y0 > y1).
    const int y0 =
        static_cast<int>(s.below(static_cast<std::uint64_t>(height) + 20)) - 10;
    const int y1 = y0 + static_cast<int>(s.below(14)) - 2;
    expectRowSpansExact(c.x, c.y, c.r, width, {y0, y1});
    if (testing::Test::HasFatalFailure()) return;
  }
  // Huge radii and centres hit the double clamps (and r * r overflows).
  for (const double r : {1e8, 1e150, 1e155, 1e300}) {
    for (const double cx : {-1e300, -1e9, 0.5, 31.25, 1e9, 1e300}) {
      for (const double cy : {-1e12, 3.5, 40.0, 1e12}) {
        expectRowSpansExact(cx, cy, r, 64, {0, 63});
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(LikelihoodKernels, DiscRowSpansEqualDiscRowSpanOnEveryBackend) {
  BackendGuard guard;
  for (const k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (!k::setBackend(b)) continue;  // AVX2 unavailable
    SCOPED_TRACE(k::backendName());
    sweepRowSpans(71);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mcmcpar::model
