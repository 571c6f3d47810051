#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "img/synth.hpp"
#include "mcmc/convergence.hpp"
#include "mcmc/diagnostics.hpp"
#include "mcmc/sampler.hpp"
#include "model/posterior.hpp"

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

struct Fixture {
  img::Scene scene;
  model::ModelState state;
  MoveRegistry registry;

  explicit Fixture(std::uint64_t seed)
      : scene(img::generateScene(img::cellScene(96, 96, 10, 6.0, seed))),
        state(scene.image, priorParams(), model::LikelihoodParams{}),
        registry(MoveRegistry::caseStudy()) {
    rng::Stream s(seed + 7);
    state.initialiseRandom(8, s);
  }
};

TEST(Sampler, RunsRequestedIterations) {
  Fixture f(1);
  Sampler sampler(f.state, f.registry, 42);
  sampler.run(500);
  EXPECT_EQ(sampler.iterationsDone(), 500u);
  EXPECT_EQ(sampler.diagnostics().totalProposed(), 500u);
}

TEST(Sampler, CacheStaysSynchronisedOverLongRun) {
  Fixture f(2);
  Sampler sampler(f.state, f.registry, 43);
  sampler.run(5000);
  EXPECT_NEAR(f.state.logPosterior(), f.state.recomputeLogPosterior(), 1e-5);
}

TEST(Sampler, PosteriorImprovesFromRandomInitialisation) {
  Fixture f(3);
  const double before = f.state.logPosterior();
  Sampler sampler(f.state, f.registry, 44);
  sampler.run(8000);
  EXPECT_GT(f.state.logPosterior(), before);
}

TEST(Sampler, TraceRecordedAtRequestedCadence) {
  Fixture f(4);
  Sampler sampler(f.state, f.registry, 45);
  sampler.run(1000, 100);
  EXPECT_EQ(sampler.diagnostics().trace().size(), 10u);
  EXPECT_EQ(sampler.diagnostics().trace().front().iteration, 100u);
  EXPECT_EQ(sampler.diagnostics().trace().back().iteration, 1000u);
}

TEST(Sampler, SeededRunsAreBitIdentical) {
  Fixture a(5), b(5);
  Sampler sa(a.state, a.registry, 46), sb(b.state, b.registry, 46);
  sa.run(2000, 100);
  sb.run(2000, 100);
  ASSERT_EQ(sa.diagnostics().trace().size(), sb.diagnostics().trace().size());
  for (std::size_t i = 0; i < sa.diagnostics().trace().size(); ++i) {
    EXPECT_EQ(sa.diagnostics().trace()[i].logPosterior,
              sb.diagnostics().trace()[i].logPosterior);
  }
  EXPECT_EQ(a.state.config().size(), b.state.config().size());
}

TEST(Sampler, DifferentSeedsDiverge) {
  Fixture a(6), b(6);
  Sampler sa(a.state, a.registry, 47), sb(b.state, b.registry, 48);
  sa.run(2000);
  sb.run(2000);
  EXPECT_NE(a.state.logPosterior(), b.state.logPosterior());
}

TEST(Diagnostics, RecordsAndAggregates) {
  Diagnostics d;
  d.record("add", true);
  d.record("add", false);
  d.record("resize", true);
  EXPECT_EQ(d.perMove().at("add").proposed, 2u);
  EXPECT_EQ(d.perMove().at("add").accepted, 1u);
  EXPECT_NEAR(d.perMove().at("add").acceptanceRate(), 0.5, 1e-12);
  const auto all = d.aggregate();
  EXPECT_EQ(all.proposed, 3u);
  EXPECT_EQ(all.accepted, 2u);
  const auto some = d.aggregate({"resize"});
  EXPECT_EQ(some.proposed, 1u);
}

TEST(Diagnostics, MergeCombinesCountsAndSortsTraces) {
  Diagnostics a, b;
  a.record("add", true);
  a.tracePoint(10, -5.0, 3);
  b.record("add", false);
  b.record("delete", true);
  b.tracePoint(5, -6.0, 2);
  a.merge(b);
  EXPECT_EQ(a.perMove().at("add").proposed, 2u);
  EXPECT_EQ(a.perMove().at("delete").accepted, 1u);
  ASSERT_EQ(a.trace().size(), 2u);
  EXPECT_EQ(a.trace()[0].iteration, 5u);
  EXPECT_EQ(a.trace()[1].iteration, 10u);
}

TEST(Diagnostics, MergeIsAStableSortOfTheConcatenatedTraces) {
  // Sorted traces (the sampler case, merged in linear time) and an unsorted
  // one must both come out as std::stable_sort of the concatenation: equal
  // iterations keep this object's points first, each side in its order.
  const std::vector<std::vector<std::uint64_t>> cases = {
      {10, 20, 20, 30}, {5, 20, 20, 40}, {30, 10, 20}};
  Diagnostics merged;
  std::vector<TracePoint> expected;
  double tag = 0.0;
  for (const auto& iterations : cases) {
    Diagnostics part;
    for (const std::uint64_t it : iterations) {
      part.tracePoint(it, tag, 0);
      expected.push_back(TracePoint{it, tag, 0});
      tag += 1.0;
    }
    merged.merge(part);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const TracePoint& a, const TracePoint& b) {
                       return a.iteration < b.iteration;
                     });
    ASSERT_EQ(merged.trace().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(merged.trace()[i].iteration, expected[i].iteration) << i;
      EXPECT_EQ(merged.trace()[i].logPosterior, expected[i].logPosterior) << i;
    }
  }
}

TEST(Diagnostics, PerMoveIsOrderedByNameWhateverTheRecordOrder) {
  Diagnostics d;
  for (const char* name : {"split", "add", "resize", "add", "merge"}) {
    d.record(name, false);
  }
  std::vector<std::string> names;
  for (const auto& [name, stats] : d.perMove()) names.push_back(name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"add", "merge", "resize", "split"}));
  EXPECT_EQ(d.perMove().at("add").proposed, 2u);
}

TEST(Convergence, DetectsPlateauOnSyntheticRise) {
  std::vector<TracePoint> trace;
  for (int i = 0; i <= 100; ++i) {
    const double v = -100.0 + 100.0 * (1.0 - std::exp(-i / 10.0));
    trace.push_back(TracePoint{static_cast<std::uint64_t>(i * 10), v, 5});
  }
  const auto result = iterationsToPlateau(trace);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->iteration, 300u);
  EXPECT_LT(result->iteration, 600u);
}

TEST(Convergence, ImmediateWhenAlreadyFlat) {
  std::vector<TracePoint> trace;
  for (int i = 0; i < 20; ++i) {
    trace.push_back(TracePoint{static_cast<std::uint64_t>(i), -3.0, 5});
  }
  const auto result = iterationsToPlateau(trace);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->iteration, 0u);
}

TEST(Convergence, NulloptOnTinyTrace) {
  std::vector<TracePoint> trace{{0, -1.0, 1}, {1, -0.5, 1}};
  EXPECT_FALSE(iterationsToPlateau(trace).has_value());
}

TEST(Convergence, HasFlattenedWindowedCheck) {
  std::vector<TracePoint> rising, flat;
  for (int i = 0; i < 40; ++i) {
    rising.push_back(TracePoint{static_cast<std::uint64_t>(i),
                                static_cast<double>(i), 0});
    flat.push_back(TracePoint{static_cast<std::uint64_t>(i), 7.0, 0});
  }
  EXPECT_FALSE(hasFlattened(rising, 10, 0.5));
  EXPECT_TRUE(hasFlattened(flat, 10, 0.5));
  EXPECT_FALSE(hasFlattened(flat, 0, 0.5));
  EXPECT_FALSE(hasFlattened(flat, 30, 0.5));  // not enough points
}

TEST(Sampler, AcceptanceRatesAreMcmcTypical) {
  Fixture f(7);
  Sampler sampler(f.state, f.registry, 49);
  sampler.run(20000);
  const auto all = sampler.diagnostics().aggregate();
  // The paper quotes ~75% rejection as typical; accept anything sane here.
  EXPECT_GT(all.rejectionRate(), 0.3);
  EXPECT_LT(all.rejectionRate(), 0.999);
}

}  // namespace
}  // namespace mcmcpar::mcmc
