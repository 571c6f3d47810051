#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "analysis/metrics.hpp"
#include "core/pipeline.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"
#include "par/concurrency.hpp"
#include "par/thread_pool.hpp"

namespace mcmcpar::core {
namespace {

PipelineParams smallParams() {
  PipelineParams p;
  p.prior.radiusMean = 8.0;
  p.prior.radiusStd = 0.8;
  p.prior.radiusMin = 3.0;
  p.prior.radiusMax = 14.0;
  p.iterationsBase = 1500;
  p.iterationsPerCircle = 400;
  p.seed = 5;
  return p;
}

std::vector<model::Circle> truthToCircles(const img::Scene& scene) {
  std::vector<model::Circle> out;
  for (const auto& t : scene.truth) out.push_back(model::Circle{t.x, t.y, t.r});
  return out;
}

TEST(RunPartitionMcmc, RecoversIsolatedDiscs) {
  img::SceneSpec spec = img::cellScene(96, 96, 5, 8.0, 31);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);
  const PartitionRun run = runPartitionMcmc(
      scene.image, partition::IRect{0, 0, 96, 96}, smallParams(), 7);
  EXPECT_GT(run.iterations, 0u);
  EXPECT_GT(run.seconds, 0.0);
  EXPECT_GT(run.timePerIteration, 0.0);
  const auto q = analysis::scoreCircles(run.circles, truthToCircles(scene), 6.0);
  EXPECT_GE(q.recall, 0.6);
}

TEST(RunPartitionMcmc, CirclesStayInsideRect) {
  const img::Scene scene = img::generateScene(img::beadsScene(33));
  const partition::IRect rect{95, 0, 320, 416};
  const PartitionRun run =
      runPartitionMcmc(scene.image, rect, smallParams(), 9);
  for (const model::Circle& c : run.circles) {
    EXPECT_GE(c.x - c.r, rect.x0 - 1e-9);
    EXPECT_LE(c.x + c.r, rect.x0 + rect.w + 1e-9);
  }
  EXPECT_NEAR(run.relativeArea,
              static_cast<double>(rect.area()) / (512.0 * 416.0), 1e-9);
}

TEST(RunWholeImage, PopulatesEstimates) {
  const img::Scene scene = img::generateScene(img::beadsScene(35));
  PipelineParams params = smallParams();
  params.iterationsBase = 1000;
  params.iterationsPerCircle = 150;
  const PartitionRun run = runWholeImage(scene.image, params);
  EXPECT_GT(run.estimatedCount, 30.0);
  EXPECT_LT(run.estimatedCount, 60.0);
  EXPECT_EQ(run.rect.w, 512);
}

TEST(IntelligentPipeline, EndToEndOnBeads) {
  const img::Scene scene = img::generateScene(img::beadsScene(37));
  PipelineParams params = smallParams();
  const PipelineReport report = runIntelligentPipeline(scene.image, params);
  EXPECT_GE(report.partitions.size(), 3u);
  EXPECT_GT(report.partitionerSeconds, 0.0);
  EXPECT_FALSE(report.merged.empty());
  // Quality: most beads recovered after trivial recombination.
  const auto q =
      analysis::scoreCircles(report.merged, truthToCircles(scene), 6.0);
  EXPECT_GE(q.recall, 0.7);
  EXPECT_GE(q.precision, 0.6);
  // Runtime summaries populated.
  EXPECT_GT(report.parallelRuntime, 0.0);
  EXPECT_GE(report.loadBalancedRuntime, report.parallelRuntime - 1e-9);
}

TEST(IntelligentPipeline, IterationBudgetFollowsEstimatedCount) {
  const img::Scene scene = img::generateScene(img::beadsScene(39));
  const PipelineReport report =
      runIntelligentPipeline(scene.image, smallParams());
  // The iteration budget is base + perCircle * round(estimate), so the
  // densest partition must receive the largest budget.
  double largestEstimate = -1.0;
  std::size_t denseIdx = 0;
  for (std::size_t i = 0; i < report.partitions.size(); ++i) {
    if (report.partitions[i].estimatedCount > largestEstimate) {
      largestEstimate = report.partitions[i].estimatedCount;
      denseIdx = i;
    }
  }
  for (std::size_t i = 0; i < report.partitions.size(); ++i) {
    EXPECT_LE(report.partitions[i].iterations,
              report.partitions[denseIdx].iterations);
  }
}

TEST(BlindPipeline, EndToEndOnCells) {
  img::SceneSpec spec = img::cellScene(160, 160, 12, 8.0, 41);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);
  PipelineParams params = smallParams();
  params.blind.gridX = 2;
  params.blind.gridY = 2;
  params.blind.overlapMargin = 0.0;  // auto: 1.1 * radiusMean
  const PipelineReport report = runBlindPipeline(scene.image, params);
  ASSERT_EQ(report.partitions.size(), 4u);
  const auto q =
      analysis::scoreCircles(report.merged, truthToCircles(scene), 6.0);
  EXPECT_GE(q.recall, 0.6);
  // No gross duplication: found count within 2x truth.
  EXPECT_LE(report.merged.size(), 2 * scene.truth.size());
}

TEST(BlindPipeline, ExpandedRectsAreUsed) {
  const img::Scene scene =
      img::generateScene(img::cellScene(128, 128, 8, 8.0, 43));
  PipelineParams params = smallParams();
  params.blind.overlapMargin = 9.0;
  const PipelineReport report = runBlindPipeline(scene.image, params);
  for (const PartitionRun& run : report.partitions) {
    // Expanded partitions are larger than the 64x64 cores.
    EXPECT_GT(run.rect.w, 64);
    EXPECT_GT(run.rect.h, 64);
  }
}

TEST(BlindPipeline, MergeStatsAccountForAllResults) {
  const img::Scene scene =
      img::generateScene(img::cellScene(128, 128, 10, 8.0, 45));
  const PipelineReport report = runBlindPipeline(scene.image, smallParams());
  std::size_t produced = 0;
  for (const PartitionRun& run : report.partitions) produced += run.circles.size();
  const auto& s = report.mergeStats;
  // Every per-partition circle is dropped, auto-accepted, merged or disputed.
  EXPECT_EQ(produced, s.droppedOutsideCore + s.autoAccepted +
                          2 * s.mergedPairs + s.disputedAccepted +
                          s.disputedDiscarded);
}

// ---------------------------------------------------------------------------
// The shared partition executor: concurrent partitions on the job's leased
// threads, bit-identical to the sequential run.
// ---------------------------------------------------------------------------

engine::Problem pipelineProblem(const img::Scene& scene) {
  engine::Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 0.8;
  problem.prior.radiusMin = 3.0;
  problem.prior.radiusMax = 14.0;
  return problem;
}

/// Small per-partition budgets (200 + 100 per estimated bead, capped) keep
/// every case quick under TSan, and still differ between partitions so the
/// executor's longest-first order is not the index order.
constexpr std::uint64_t kPartitionCap = 1000;

engine::RunReport runPipeline(const std::string& strategy,
                              const img::Scene& scene, unsigned threads,
                              const engine::RunHooks& hooks = {},
                              par::PoolBudget* budget = nullptr) {
  engine::ExecResources resources{threads, false, 23};
  resources.poolBudget = budget;
  std::vector<std::string> options = {"iters-base=200", "iters-per-circle=100"};
  if (strategy == "blind") {
    options.insert(options.end(), {"grid-x=3", "grid-y=2"});
  }
  return engine::Engine(resources).run(strategy, pipelineProblem(scene),
                                       engine::RunBudget{kPartitionCap, 0},
                                       hooks, options);
}

const core::PipelineReport& pipelineOf(const engine::RunReport& report) {
  return std::get<core::PipelineReport>(report.extras);
}

class PipelineThreads : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineThreads, ResultsAreBitIdenticalAcrossThreadCounts) {
  const img::Scene scene = img::generateScene(img::beadsScene(37));
  const engine::RunReport one = runPipeline(GetParam(), scene, 1);
  const core::PipelineReport& reference = pipelineOf(one);
  ASSERT_GE(reference.partitions.size(), 3u);
  EXPECT_NE(reference.partitions.front().iterations,
            reference.partitions.back().iterations);
  EXPECT_EQ(one.threadsUsed, 1u);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const engine::RunReport many = runPipeline(GetParam(), scene, threads);
    const core::PipelineReport& pipeline = pipelineOf(many);
    EXPECT_EQ(many.threadsUsed, threads);
    EXPECT_EQ(pipeline.loadBalancedThreads, threads);
    EXPECT_EQ(many.circles, one.circles);
    EXPECT_EQ(many.logPosterior, one.logPosterior);
    EXPECT_EQ(many.iterations, one.iterations);
    EXPECT_EQ(pipeline.merged, reference.merged);
    ASSERT_EQ(pipeline.partitions.size(), reference.partitions.size());
    for (std::size_t i = 0; i < pipeline.partitions.size(); ++i) {
      const PartitionRun& got = pipeline.partitions[i];
      const PartitionRun& want = reference.partitions[i];
      EXPECT_TRUE(got.rect == want.rect) << i;
      EXPECT_EQ(got.iterations, want.iterations) << i;
      EXPECT_EQ(got.circles, want.circles) << i;
      EXPECT_EQ(got.finalLogPosterior, want.finalLogPosterior) << i;
    }
  }
}

TEST_P(PipelineThreads, CancelAfterKPartitionsKeepsFinishedOnesInIndexOrder) {
  const img::Scene scene = img::generateScene(img::beadsScene(37));
  const core::PipelineReport full =
      pipelineOf(runPipeline(GetParam(), scene, 1));
  const std::size_t n = full.partitions.size();
  ASSERT_GE(n, 4u);
  constexpr std::size_t k = 2;

  for (const unsigned threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::atomic<std::size_t> partitionsDone{0};
    engine::RunHooks hooks;
    hooks.onProgress = [&](const mcmc::RunProgress& p) {
      if (std::string(p.phase) == "partition") ++partitionsDone;
    };
    hooks.cancelRequested = [&] { return partitionsDone >= k; };
    const engine::RunReport report =
        runPipeline(GetParam(), scene, threads, hooks);
    const core::PipelineReport& pipeline = pipelineOf(report);

    EXPECT_TRUE(report.cancelled);
    EXPECT_TRUE(pipeline.cancelled);
    // Every partition started before the cancel fired is kept (at most one
    // per thread was still running); none after it is.
    EXPECT_GE(pipeline.partitions.size(), k);
    EXPECT_LE(pipeline.partitions.size(), k + threads - 1);
    EXPECT_LT(pipeline.partitions.size(), n);

    // Kept partitions are a subsequence of the full run, in index order,
    // and the ones that ran to completion equal the uncancelled run.
    std::size_t next = 0;
    std::vector<model::Circle> concatenated;
    for (const PartitionRun& run : pipeline.partitions) {
      while (next < n && !(full.partitions[next].rect == run.rect)) ++next;
      ASSERT_LT(next, n) << "partition out of index order";
      if (run.iterations == full.partitions[next].iterations) {
        EXPECT_EQ(run.circles, full.partitions[next].circles);
      }
      ++next;
      concatenated.insert(concatenated.end(), run.circles.begin(),
                          run.circles.end());
    }
    if (std::string(GetParam()) == "intelligent") {
      EXPECT_EQ(pipeline.merged, concatenated);
    }
  }
}

TEST_P(PipelineThreads, HooksNeverOverlapAndPartitionProgressReachesTotal) {
  const img::Scene scene = img::generateScene(img::beadsScene(37));
  std::atomic<bool> inside{false};
  std::atomic<int> overlaps{0};
  std::atomic<std::uint64_t> partitionBeats{0}, lastDone{0}, lastTotal{0};
  const auto enter = [&] {
    if (inside.exchange(true)) ++overlaps;
  };
  const auto leave = [&] { inside = false; };

  engine::RunHooks hooks;
  hooks.onProgress = [&](const mcmc::RunProgress& p) {
    enter();
    if (std::string(p.phase) == "partition") ++partitionBeats;
    EXPECT_GE(p.done, lastDone);  // serialised, so monotonic
    lastDone = p.done;
    lastTotal = p.total;
    std::this_thread::yield();
    leave();
  };
  hooks.onTrace = [&](const mcmc::TracePoint&) {
    enter();
    std::this_thread::yield();
    leave();
  };
  hooks.cancelRequested = [&] {
    enter();
    std::this_thread::yield();
    leave();
    return false;
  };

  const engine::RunReport report = runPipeline(GetParam(), scene, 4, hooks);
  const core::PipelineReport& pipeline = pipelineOf(report);
  std::uint64_t planned = 0;
  for (const PartitionRun& run : pipeline.partitions) planned += run.iterations;
  EXPECT_FALSE(report.cancelled);
  EXPECT_EQ(overlaps, 0);
  EXPECT_EQ(partitionBeats, pipeline.partitions.size());
  EXPECT_EQ(lastTotal, planned);
  EXPECT_EQ(lastDone, planned);
}

TEST_P(PipelineThreads, ProgressIsOneMonotoneScale) {
  // Sampler beats of concurrent partitions and the finished-partition beats
  // all report iterations done over the whole run's planned iterations.
  const img::Scene scene = img::generateScene(img::beadsScene(37));
  std::vector<mcmc::RunProgress> beats;
  engine::RunHooks hooks;
  hooks.onProgress = [&](const mcmc::RunProgress& p) { beats.push_back(p); };
  const engine::RunReport report = runPipeline(GetParam(), scene, 2, hooks);
  const core::PipelineReport& pipeline = pipelineOf(report);
  ASSERT_GE(pipeline.partitions.size(), 3u);
  std::uint64_t planned = 0;
  for (const PartitionRun& run : pipeline.partitions) planned += run.iterations;

  ASSERT_FALSE(beats.empty());
  std::size_t partitionBeats = 0;
  for (std::size_t i = 0; i < beats.size(); ++i) {
    SCOPED_TRACE("beat " + std::to_string(i) + " phase " + beats[i].phase);
    EXPECT_EQ(beats[i].total, planned);
    if (i > 0) {
      EXPECT_GE(beats[i].done, beats[i - 1].done);
    }
    if (std::string(beats[i].phase) == "partition") ++partitionBeats;
  }
  EXPECT_EQ(partitionBeats, pipeline.partitions.size());
  EXPECT_EQ(beats.back().done, planned);
}

TEST_P(PipelineThreads, RunsOnTheLeaseAndReturnsTheBudgetIntact) {
  const img::Scene scene = img::generateScene(img::beadsScene(37));
  par::PoolBudget budget(2);
  // The budget owner pays for the job's own thread; another job holds the
  // only other one.
  ASSERT_EQ(budget.tryAcquire(1), 1u);
  {
    const par::PoolLease elsewhere = par::PoolLease::acquire(&budget, 2);
    ASSERT_EQ(elsewhere.threads(), 2u);
    ASSERT_EQ(budget.available(), 0u);

    const engine::RunReport report =
        runPipeline(GetParam(), scene, 4, {}, &budget);
    EXPECT_EQ(report.threadsUsed, 1u);
    EXPECT_EQ(pipelineOf(report).loadBalancedThreads, 1u);
    EXPECT_EQ(budget.available(), 0u);
  }
  budget.release(1);
  EXPECT_EQ(budget.available(), 2u);

  // With the budget free again the job leases the spare thread, and still
  // gives it back.
  ASSERT_EQ(budget.tryAcquire(1), 1u);
  const engine::RunReport report =
      runPipeline(GetParam(), scene, 4, {}, &budget);
  EXPECT_EQ(report.threadsUsed, 2u);
  EXPECT_EQ(budget.available(), 1u);
  budget.release(1);
  EXPECT_EQ(budget.available(), 2u);
}

INSTANTIATE_TEST_SUITE_P(IntelligentAndBlind, PipelineThreads,
                         ::testing::Values("intelligent", "blind"));

TEST(PartitionExecutor, PartitionIRunsCutIWithItsOwnSeedOnAnyPool) {
  const img::Scene scene = img::generateScene(img::beadsScene(39));
  PipelineParams params = smallParams();
  params.iterationsBase = 200;
  params.iterationsPerCircle = 100;
  const auto cuts =
      partition::intelligentPartition(scene.image, params.intelligent);
  const PipelineReport sequential = runIntelligentPipeline(scene.image, params);
  par::ThreadPool pool(2);
  const PipelineReport pooled =
      runIntelligentPipeline(scene.image, params, {}, &pool);
  EXPECT_EQ(pooled.merged, sequential.merged);
  ASSERT_EQ(pooled.partitions.size(), cuts.partitions.size());
  ASSERT_EQ(sequential.partitions.size(), cuts.partitions.size());
  for (std::size_t i = 0; i < cuts.partitions.size(); ++i) {
    // Slot i holds cut i, sampled with seed + 101 * (i + 1), whatever
    // order the executor dispatched the partitions in.
    const PartitionRun alone = runPartitionMcmc(
        scene.image, cuts.partitions[i], params, params.seed + 101 * (i + 1));
    EXPECT_TRUE(pooled.partitions[i].rect == cuts.partitions[i]) << i;
    EXPECT_EQ(pooled.partitions[i].circles, alone.circles) << i;
    EXPECT_EQ(sequential.partitions[i].circles, alone.circles) << i;
  }
}

}  // namespace
}  // namespace mcmcpar::core
