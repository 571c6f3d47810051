#include <gtest/gtest.h>

#include <cmath>

#include "analysis/anomaly.hpp"
#include "analysis/metrics.hpp"
#include "core/periodic_sampler.hpp"
#include "core/pipeline.hpp"
#include "img/synth.hpp"
#include "mcmc/convergence.hpp"
#include "mcmc/sampler.hpp"
#include "spec/speculative.hpp"

namespace mcmcpar {
namespace {

model::PriorParams scenePrior() {
  model::PriorParams p;
  p.radiusMean = 8.0;
  p.radiusStd = 0.8;
  p.radiusMin = 3.0;
  p.radiusMax = 14.0;
  p.overlapPenalty = 10.0;
  return p;
}

std::vector<model::Circle> truthToCircles(const img::Scene& scene) {
  std::vector<model::Circle> out;
  for (const auto& t : scene.truth) out.push_back(model::Circle{t.x, t.y, t.r});
  return out;
}

/// End-to-end: the sequential reference chain recovers a 25-cell scene.
TEST(Integration, SequentialChainRecoversScene) {
  img::SceneSpec spec = img::cellScene(256, 256, 25, 8.0, 71);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);

  model::PriorParams prior = scenePrior();
  prior.expectedCount = 25.0;
  model::ModelState state(scene.image, prior, model::LikelihoodParams{});
  rng::Stream s(72);
  state.initialiseRandom(25, s);

  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  mcmc::Sampler sampler(state, registry, s);
  sampler.run(60000, 500);

  const auto q = analysis::scoreCircles(state.config().snapshot(),
                                        truthToCircles(scene), 6.0);
  EXPECT_GE(q.f1, 0.8);
  EXPECT_LT(q.centreRmse, 2.5);
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-5);

  // The trace converges by the plateau rule.
  const auto plateau = mcmc::iterationsToPlateau(sampler.diagnostics().trace());
  ASSERT_TRUE(plateau.has_value());
  EXPECT_LT(plateau->iteration, 60000u);
}

/// The headline statistical claim of §V: periodic partitioning reaches the
/// same quality as the sequential chain.
TEST(Integration, PeriodicMatchesSequentialQuality) {
  img::SceneSpec spec = img::cellScene(256, 256, 25, 8.0, 73);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);
  const auto truth = truthToCircles(scene);

  const auto runSequential = [&](std::uint64_t seed) {
    model::PriorParams prior = scenePrior();
    prior.expectedCount = 25.0;
    model::ModelState state(scene.image, prior, model::LikelihoodParams{});
    rng::Stream s(seed);
    state.initialiseRandom(25, s);
    const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
    mcmc::Sampler sampler(state, registry, s);
    sampler.run(50000);
    return analysis::scoreCircles(state.config().snapshot(), truth, 6.0);
  };

  const auto runPeriodic = [&](std::uint64_t seed) {
    model::PriorParams prior = scenePrior();
    prior.expectedCount = 25.0;
    model::ModelState state(scene.image, prior, model::LikelihoodParams{});
    rng::Stream s(seed);
    state.initialiseRandom(25, s);
    const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
    core::PeriodicParams params;
    params.totalIterations = 50000;
    params.globalPhaseIterations = 52;  // ~130 total per cycle at qg=0.4
    params.executor = core::LocalExecutor::SplitMerge;
    core::PeriodicSampler sampler(state, registry, params, seed);
    sampler.run();
    return analysis::scoreCircles(state.config().snapshot(), truth, 6.0);
  };

  const auto seqQ = runSequential(81);
  const auto perQ = runPeriodic(81);
  EXPECT_GE(seqQ.f1, 0.8);
  EXPECT_GE(perQ.f1, 0.8);
  EXPECT_NEAR(perQ.f1, seqQ.f1, 0.15);
}

/// §V's bias safeguard: random per-phase grid offsets leave no persistent
/// boundary anomalies in the periodic result.
TEST(Integration, PeriodicLeavesNoBoundaryAnomalyExcess) {
  img::SceneSpec spec = img::cellScene(256, 256, 25, 8.0, 75);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);

  model::PriorParams prior = scenePrior();
  prior.expectedCount = 25.0;
  model::ModelState state(scene.image, prior, model::LikelihoodParams{});
  rng::Stream s(76);
  state.initialiseRandom(25, s);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  core::PeriodicParams params;
  params.totalIterations = 50000;
  params.globalPhaseIterations = 52;
  params.executor = core::LocalExecutor::SplitMerge;
  core::PeriodicSampler sampler(state, registry, params, 77);
  sampler.run();

  // Audit against the *average* cross position (centre lines).
  const auto report = analysis::auditBoundaryAnomalies(
      state.config().snapshot(), truthToCircles(scene), {128.0}, {128.0}, 6.0,
      16.0, 5.0);
  // Misses/duplicates near the (hypothetical) boundary shouldn't dominate;
  // a few duplicate pairs are ordinary MCMC noise (overlapping detections),
  // what matters is that they don't concentrate at partition lines.
  EXPECT_LE(report.duplicatePairs, 5u);
  EXPECT_LE(report.missesNearBoundary, 3u);
}

/// Blind partitioning's merge heuristics leave no duplicated artifacts at
/// partition boundaries on a well-behaved scene (§IX "no apparent
/// anomalies").
TEST(Integration, BlindPartitioningNoBoundaryDuplicates) {
  img::SceneSpec spec = img::cellScene(192, 192, 14, 8.0, 79);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);

  core::PipelineParams params;
  params.prior = scenePrior();
  params.iterationsBase = 2000;
  params.iterationsPerCircle = 500;
  params.seed = 80;
  const core::PipelineReport report =
      core::runBlindPipeline(scene.image, params);

  const auto anomalies = analysis::auditBoundaryAnomalies(
      report.merged, truthToCircles(scene), {96.0}, {96.0}, 6.0, 12.0, 5.0);
  EXPECT_EQ(anomalies.duplicatePairsNearBoundary, 0u);
  const auto q =
      analysis::scoreCircles(report.merged, truthToCircles(scene), 6.0);
  EXPECT_GE(q.f1, 0.7);
}

/// Determinism of the full periodic stack: same seeds, same result.
TEST(Integration, PeriodicFullyDeterministic) {
  img::SceneSpec spec = img::cellScene(192, 192, 12, 8.0, 83);
  const img::Scene scene = img::generateScene(spec);

  const auto run = [&] {
    model::PriorParams prior = scenePrior();
    prior.expectedCount = 12.0;
    model::ModelState state(scene.image, prior, model::LikelihoodParams{});
    rng::Stream s(84);
    state.initialiseRandom(12, s);
    const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
    core::PeriodicParams params;
    params.totalIterations = 12000;
    params.globalPhaseIterations = 40;
    core::PeriodicSampler sampler(state, registry, params, 85);
    sampler.run();
    return state.config().snapshot();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

/// Speculative chains sample the same posterior: quality parity with the
/// plain sequential sampler on the same scene and budget.
TEST(Integration, SpeculativeQualityParity) {
  img::SceneSpec sceneSpec = img::cellScene(192, 192, 12, 8.0, 87);
  sceneSpec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(sceneSpec);
  const auto truth = truthToCircles(scene);

  model::PriorParams prior = scenePrior();
  prior.expectedCount = 12.0;

  model::ModelState seq(scene.image, prior, model::LikelihoodParams{});
  model::ModelState specState(scene.image, prior, model::LikelihoodParams{});
  rng::Stream s1(88), s2(88);
  seq.initialiseRandom(12, s1);
  specState.initialiseRandom(12, s2);

  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  mcmc::Sampler sampler(seq, registry, 89);
  sampler.run(30000);

  spec::SpeculativeExecutor exec(specState, registry, 4, 90);
  exec.run(30000);

  const auto qSeq = analysis::scoreCircles(seq.config().snapshot(), truth, 6.0);
  const auto qSpec =
      analysis::scoreCircles(specState.config().snapshot(), truth, 6.0);
  EXPECT_GE(qSeq.f1, 0.75);
  EXPECT_GE(qSpec.f1, 0.75);
}

}  // namespace
}  // namespace mcmcpar
