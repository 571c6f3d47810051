#include <gtest/gtest.h>

#include "img/synth.hpp"
#include "model/posterior.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::model {
namespace {

PriorParams prior() {
  PriorParams p;
  p.expectedCount = 12.0;
  p.radiusMean = 6.0;
  p.radiusStd = 1.0;
  p.radiusMin = 2.0;
  p.radiusMax = 12.0;
  return p;
}

ModelState makeState(std::uint64_t seed = 1, int size = 96) {
  img::SceneSpec spec = img::cellScene(size, size, 12, 6.0, seed);
  const img::Scene scene = img::generateScene(spec);
  return ModelState(scene.image, prior(), LikelihoodParams{});
}

TEST(ModelState, FreshStateCachedPosteriorMatchesRecompute) {
  const ModelState state = makeState();
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-7);
}

TEST(ModelState, InitialiseRandomAddsRequestedCircles) {
  ModelState state = makeState(2);
  rng::Stream s(5);
  state.initialiseRandom(10, s);
  EXPECT_EQ(state.config().size(), 10u);
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-6);
  // Every inserted disc lies fully inside the domain.
  state.config().forEach([&](CircleId, const Circle& c) {
    EXPECT_TRUE(state.discInDomain(c));
  });
}

TEST(ModelState, CommitAddDeleteKeepCacheSynchronised) {
  ModelState state = makeState(3);
  rng::Stream s(7);
  state.initialiseRandom(6, s);
  const CircleId id = state.commitAdd(Circle{40, 40, 5});
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-6);
  state.commitDelete(id);
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-6);
}

TEST(ModelState, CommitReplaceKeepsCacheSynchronised) {
  ModelState state = makeState(4);
  rng::Stream s(9);
  state.initialiseRandom(6, s);
  const CircleId id = state.config().aliveIds().front();
  state.commitReplace(id, Circle{30, 35, 4.5});
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-6);
}

TEST(ModelState, CommitMergeSplitKeepCacheSynchronised) {
  ModelState state = makeState(5);
  state.commitAdd(Circle{40, 40, 5});
  state.commitAdd(Circle{46, 40, 5});
  const auto ids = state.config().aliveIds();
  const CircleId merged = state.commitMerge(ids[0], ids[1], Circle{43, 40, 5});
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-6);
  EXPECT_EQ(state.config().size(), 1u);
  state.commitSplit(merged, Circle{41, 40, 4}, Circle{45, 40, 4});
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-6);
  EXPECT_EQ(state.config().size(), 2u);
}

TEST(ModelState, DeltasPredictCommitEffects) {
  ModelState state = makeState(6);
  rng::Stream s(11);
  state.initialiseRandom(8, s);
  const Circle c{50, 50, 5};
  const double before = state.logPosterior();
  const double delta = state.deltaAdd(c);
  state.commitAdd(c);
  EXPECT_NEAR(state.logPosterior() - before, delta, 1e-9);
}

TEST(ModelState, ExecutorPathEqualsCommitReplace) {
  // The periodic local session's path (manual likelihood ops +
  // configMutable().replace + adjustLogPosterior) must land in exactly the
  // same state as commitReplace.
  ModelState a = makeState(7);
  ModelState b = makeState(7);
  rng::Stream sa(13), sb(13);
  a.initialiseRandom(6, sa);
  b.initialiseRandom(6, sb);
  const CircleId id = a.config().aliveIds().front();
  const Circle to{55, 52, 6};

  a.commitReplace(id, to);

  const double delta = b.deltaReplace(id, to);
  auto& lik = b.likelihoodMutable();
  lik.adjustCoveredGain(lik.applyRemove(b.config().get(id)));
  lik.adjustCoveredGain(lik.applyAdd(to));
  b.configMutable().replace(id, to);
  b.adjustLogPosterior(delta);

  EXPECT_NEAR(a.logPosterior(), b.logPosterior(), 1e-9);
  EXPECT_EQ(a.config().get(id), b.config().get(id));
}

TEST(ModelState, ResynchroniseRestoresCache) {
  ModelState state = makeState(8);
  rng::Stream s(15);
  state.initialiseRandom(5, s);
  state.adjustLogPosterior(0.123);  // inject drift
  state.resynchronise();
  EXPECT_NEAR(state.logPosterior(), state.recomputeLogPosterior(), 1e-7);
}

TEST(ModelState, CroppedStateUsesGlobalCoordinates) {
  img::SceneSpec spec = img::cellScene(96, 96, 8, 6.0, 9);
  const img::Scene scene = img::generateScene(spec);
  const img::ImageF sub = scene.image.crop(32, 16, 48, 64);
  const ModelState state(sub, prior(), LikelihoodParams{}, 32, 16);
  EXPECT_EQ(state.bounds().x0, 32.0);
  EXPECT_EQ(state.bounds().y1, 80.0);
  EXPECT_TRUE(state.discInDomain(Circle{50, 50, 5}));
  EXPECT_FALSE(state.discInDomain(Circle{34, 50, 5}));  // pokes out left
}

TEST(Bounds, ContainsDiscWithMargin) {
  const Bounds b{0, 0, 100, 100};
  EXPECT_TRUE(b.containsDisc(Circle{50, 50, 10}));
  EXPECT_TRUE(b.containsDisc(Circle{10, 10, 10}));
  EXPECT_FALSE(b.containsDisc(Circle{10, 10, 10}, 1.0));
  EXPECT_FALSE(b.containsDisc(Circle{5, 50, 10}));
}

}  // namespace
}  // namespace mcmcpar::model
