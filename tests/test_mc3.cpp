#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "img/synth.hpp"
#include "mcmc/mc3.hpp"
#include "mcmc/sampler.hpp"

namespace mcmcpar::mcmc {
namespace {

model::PriorParams priorParams() {
  model::PriorParams p;
  p.expectedCount = 10.0;
  p.radiusMean = 6.0;
  p.radiusStd = 1.0;
  p.radiusMin = 2.0;
  p.radiusMax = 12.0;
  return p;
}

img::Scene testScene(std::uint64_t seed) {
  img::SceneSpec spec = img::cellScene(128, 128, 10, 6.0, seed);
  spec.radiusStd = 0.5;
  return img::generateScene(spec);
}

TEST(TemperedStep, BetaOneMatchesPlainAcceptanceBehaviour) {
  const img::Scene scene = testScene(1);
  model::ModelState a(scene.image, priorParams(), model::LikelihoodParams{});
  model::ModelState b(scene.image, priorParams(), model::LikelihoodParams{});
  rng::Stream sa(2), sb(2);
  a.initialiseRandom(8, sa);
  b.initialiseRandom(8, sb);
  const MoveRegistry registry = MoveRegistry::caseStudy();

  // beta = 1 tempering must be the identity transformation: identical
  // stream, identical trajectory vs the plain sampler's step.
  Sampler plain(a, registry, rng::Stream(7));
  rng::Stream temperedStream(7);
  for (int i = 0; i < 2000; ++i) {
    plain.step();
    temperedStep(b, registry, 1.0, temperedStream);
  }
  EXPECT_EQ(a.config().size(), b.config().size());
  EXPECT_NEAR(a.logPosterior(), b.logPosterior(), 1e-9);
}

TEST(TemperedStep, KeepsPosteriorCacheConsistent) {
  const img::Scene scene = testScene(3);
  model::ModelState state(scene.image, priorParams(),
                          model::LikelihoodParams{});
  rng::Stream s(4);
  state.initialiseRandom(8, s);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  for (int i = 0; i < 5000; ++i) {
    temperedStep(state, registry, 0.5, s);
  }
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-5);
}

TEST(TemperedStep, HeatedChainsAcceptMore) {
  const img::Scene scene = testScene(5);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  const auto acceptanceAt = [&](double beta) {
    model::ModelState state(scene.image, priorParams(),
                            model::LikelihoodParams{});
    rng::Stream s(6);
    state.initialiseRandom(8, s);
    // Burn in at the target temperature first so both measurements are
    // post-convergence.
    for (int i = 0; i < 4000; ++i) temperedStep(state, registry, beta, s);
    Diagnostics diag;
    for (int i = 0; i < 8000; ++i) temperedStep(state, registry, beta, s, &diag);
    return diag.aggregate().acceptanceRate();
  };
  EXPECT_GT(acceptanceAt(0.2), acceptanceAt(1.0));
}

TEST(Mc3Sampler, BetaLadderIsIncrementalHeating) {
  const img::Scene scene = testScene(7);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  Mc3Params params;
  params.chains = 4;
  params.heatStep = 0.25;
  Mc3Sampler mc3(scene.image, priorParams(), model::LikelihoodParams{},
                 registry, params, 8, 9);
  EXPECT_EQ(mc3.chainCount(), 4u);
  EXPECT_NEAR(mc3.beta(0), 1.0, 1e-12);
  EXPECT_NEAR(mc3.beta(1), 1.0 / 1.25, 1e-12);
  EXPECT_NEAR(mc3.beta(3), 1.0 / 1.75, 1e-12);
}

TEST(Mc3Sampler, RunsAndKeepsColdChainConsistent) {
  const img::Scene scene = testScene(9);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  Mc3Params params;
  params.chains = 3;
  params.swapInterval = 50;
  Mc3Sampler mc3(scene.image, priorParams(), model::LikelihoodParams{},
                 registry, params, 8, 11);
  mc3.run(6000, 500);
  EXPECT_EQ(mc3.stats().iterationsPerChain, 6000u);
  EXPECT_GT(mc3.stats().swapProposed, 0u);
  EXPECT_NEAR(mc3.coldChain().logPosterior(),
              mc3.coldChain().recomputeLogPosterior(), 1e-5);
  EXPECT_GT(mc3.coldDiagnostics().trace().size(), 3u);
}

TEST(Mc3Sampler, SwapsActuallyHappen) {
  const img::Scene scene = testScene(11);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  Mc3Params params;
  params.chains = 4;
  params.heatStep = 0.1;  // close temperatures swap often
  params.swapInterval = 20;
  Mc3Sampler mc3(scene.image, priorParams(), model::LikelihoodParams{},
                 registry, params, 8, 13);
  mc3.run(8000);
  EXPECT_GT(mc3.stats().swapAccepted, 0u);
  EXPECT_GT(mc3.stats().swapRate(), 0.02);
}

TEST(Mc3Sampler, SingleChainDegeneratesToPlainChain) {
  const img::Scene scene = testScene(13);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  Mc3Params params;
  params.chains = 1;
  Mc3Sampler mc3(scene.image, priorParams(), model::LikelihoodParams{},
                 registry, params, 8, 15);
  mc3.run(3000);
  EXPECT_EQ(mc3.stats().swapProposed, 0u);
  EXPECT_NEAR(mc3.coldChain().logPosterior(),
              mc3.coldChain().recomputeLogPosterior(), 1e-5);
}

TEST(Mc3Sampler, ParallelChainsMatchSerialChains) {
  const img::Scene scene = testScene(15);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  Mc3Params params;
  params.chains = 3;
  params.swapInterval = 100;
  par::ThreadPool pool(2);

  Mc3Sampler a(scene.image, priorParams(), model::LikelihoodParams{},
               registry, params, 8, 17);
  Mc3Sampler b(scene.image, priorParams(), model::LikelihoodParams{},
               registry, params, 8, 17, &pool);
  a.run(4000);
  b.run(4000);
  // Chains advance on their own substreams and swaps use a dedicated
  // stream, so parallel execution is bit-identical.
  EXPECT_EQ(a.stats().swapAccepted, b.stats().swapAccepted);
  EXPECT_NEAR(a.coldChain().logPosterior(), b.coldChain().logPosterior(),
              1e-9);
}

TEST(Mc3Sampler, ColdChainQualityOnCellScene) {
  const img::Scene scene = testScene(17);
  const MoveRegistry registry = MoveRegistry::caseStudy();
  Mc3Params params;
  params.chains = 4;
  params.swapInterval = 100;
  Mc3Sampler mc3(scene.image, priorParams(), model::LikelihoodParams{},
                 registry, params, 10, 19);
  mc3.run(25000);
  std::vector<model::Circle> truth;
  for (const auto& t : scene.truth) truth.push_back({t.x, t.y, t.r});
  const auto q =
      analysis::scoreCircles(mc3.coldChain().config().snapshot(), truth, 6.0);
  EXPECT_GE(q.f1, 0.8);
}

}  // namespace
}  // namespace mcmcpar::mcmc
