#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <thread>

#include "engine/registry.hpp"
#include "img/synth.hpp"

namespace mcmcpar::engine {
namespace {

img::Scene tinyScene(std::uint64_t seed) {
  img::SceneSpec spec = img::cellScene(80, 80, 4, 8.0, seed);
  spec.radiusStd = 0.5;
  return img::generateScene(spec);
}

Problem tinyProblem(const img::Scene& scene) {
  Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 1.0;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 13.0;
  return problem;
}

// ---------------------------------------------------------------------------
// OptionMap
// ---------------------------------------------------------------------------

TEST(OptionMap, ParsesTypedValuesAndTracksConsumption) {
  const OptionMap opts =
      OptionMap::parse({"chains=6", "heat-step=0.25", "parallel=on", "tag=x"});
  EXPECT_EQ(opts.uns("chains", 1), 6u);
  EXPECT_DOUBLE_EQ(opts.dbl("heat-step", 0.0), 0.25);
  EXPECT_TRUE(opts.flag("parallel", false));
  EXPECT_THROW(opts.requireConsumed("test"), EngineError);  // 'tag' unread
  EXPECT_EQ(opts.str("tag", ""), "x");
  EXPECT_NO_THROW(opts.requireConsumed("test"));
}

TEST(OptionMap, DefaultsApplyWhenKeyAbsent) {
  const OptionMap opts = OptionMap::parse({});
  EXPECT_EQ(opts.u64("iterations", 42), 42u);
  EXPECT_DOUBLE_EQ(opts.dbl("x", 1.5), 1.5);
  EXPECT_FALSE(opts.flag("y", false));
  EXPECT_EQ(opts.str("z", "fallback"), "fallback");
}

TEST(OptionMap, RejectsMalformedPairs) {
  EXPECT_THROW(OptionMap::parse({"novalue"}), EngineError);
  EXPECT_THROW(OptionMap::parse({"=5"}), EngineError);
  EXPECT_THROW(OptionMap::parse({"a=1", "a=2"}), EngineError);
}

TEST(OptionMap, DuplicateKeyErrorNamesBothConflictingValues) {
  // `--opt chains=4 --opt chains=8` must fail loudly with both values, not
  // silently keep one of them.
  try {
    (void)OptionMap::parse({"chains=4", "heat-step=0.2", "chains=8"});
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("chains"), std::string::npos) << message;
    EXPECT_NE(message.find("chains=4"), std::string::npos) << message;
    EXPECT_NE(message.find("chains=8"), std::string::npos) << message;
  }
  // The same guard through the registry's option channel.
  EXPECT_THROW((void)StrategyRegistry::builtin().create(
                   "mc3", {}, {"chains=4", "chains=8"}),
               EngineError);
}

TEST(OptionMap, RejectsIllTypedValues) {
  const OptionMap opts =
      OptionMap::parse({"n=abc", "x=1.5zzz", "b=maybe", "big=99999999999"});
  EXPECT_THROW((void)opts.u64("n", 0), EngineError);
  EXPECT_THROW((void)opts.dbl("x", 0.0), EngineError);
  EXPECT_THROW((void)opts.flag("b", false), EngineError);
  EXPECT_THROW((void)opts.uns("big", 0), EngineError);  // > 32 bits
}

// ---------------------------------------------------------------------------
// StrategyRegistry
// ---------------------------------------------------------------------------

TEST(StrategyRegistry, BuiltinContainsEveryArchitecture) {
  const StrategyRegistry& registry = StrategyRegistry::builtin();
  // The paper's six, plus the sharding coordinator built on top of them.
  for (const char* name : {"serial", "speculative", "mc3", "periodic", "blind",
                           "intelligent", "sharded"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_TRUE(registry.info(name).factory != nullptr) << name;
  }
  EXPECT_EQ(registry.names().size(), 7u);
}

TEST(StrategyRegistry, UnknownNameErrorListsRegisteredStrategies) {
  const StrategyRegistry& registry = StrategyRegistry::builtin();
  try {
    (void)registry.create("sequental");  // typo on purpose
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("sequental"), std::string::npos) << message;
    EXPECT_NE(message.find("'serial'"), std::string::npos) << message;
    EXPECT_NE(message.find("'periodic'"), std::string::npos) << message;
  }
}

TEST(StrategyRegistry, UnknownAndMalformedOptionsAreDescriptiveErrors) {
  const StrategyRegistry& registry = StrategyRegistry::builtin();
  // Unknown key for this strategy.
  try {
    (void)registry.create("serial", {}, {"lanes=4"});
    FAIL() << "expected EngineError";
  } catch (const EngineError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("serial"), std::string::npos) << message;
    EXPECT_NE(message.find("lanes"), std::string::npos) << message;
  }
  // Malformed pair.
  EXPECT_THROW((void)registry.create("mc3", {}, {"chains"}), EngineError);
  // Well-formed key with a value of the wrong type.
  EXPECT_THROW((void)registry.create("mc3", {}, {"chains=lots"}), EngineError);
  // Domain validation inside the factory.
  EXPECT_THROW((void)registry.create("speculative", {}, {"lanes=0"}),
               EngineError);
  EXPECT_THROW((void)registry.create("mc3", {}, {"swap-interval=0"}),
               EngineError);
  EXPECT_THROW((void)registry.create("periodic", {}, {"executor=warp"}),
               EngineError);
  // Threads come from the lease, not from strategy options: periodic has
  // only the in-place and split-merge executors, and mc3 no parallel= knob.
  for (const char* executor : {"executor=auto", "executor=serial",
                               "executor=pool", "executor=omp",
                               "executor=split-serial",
                               "executor=split-pool"}) {
    EXPECT_THROW((void)registry.create("periodic", {}, {executor}),
                 EngineError)
        << executor;
  }
  EXPECT_THROW((void)registry.create("mc3", {}, {"parallel=1"}), EngineError);
}

TEST(StrategyRegistry, RunBeforePrepareIsAnError) {
  const auto strategy = StrategyRegistry::builtin().create("serial");
  auto run = [&] { (void)strategy->run(RunBudget{100, 0}); };
  EXPECT_THROW(run(), EngineError);
}

TEST(StrategyRegistry, NullImageIsAnError) {
  const auto strategy = StrategyRegistry::builtin().create("serial");
  EXPECT_THROW(strategy->prepare(Problem{}), EngineError);
}

// ---------------------------------------------------------------------------
// Round-trip: every registered strategy runs through the uniform interface
// and yields a populated RunReport.
// ---------------------------------------------------------------------------

TEST(EngineRoundTrip, EveryRegisteredStrategyProducesAPopulatedRunReport) {
  const img::Scene scene = tinyScene(11);
  const Problem problem = tinyProblem(scene);
  ExecResources resources;
  resources.threads = 1;
  resources.seed = 5;
  const Engine engine(resources);

  for (const std::string& name : engine.registry().names()) {
    SCOPED_TRACE(name);
    const RunReport report = engine.run(name, problem, RunBudget{1200, 0});

    EXPECT_EQ(report.strategy, name);
    EXPECT_FALSE(report.cancelled);
    EXPECT_GT(report.iterations, 0u);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_GE(report.threadsUsed, 1u);
    // The chain proposed moves and recorded them.
    EXPECT_GT(report.diagnostics.totalProposed(), 0u);
    EXPECT_GT(report.acceptanceRate, 0.0);
    EXPECT_LT(report.acceptanceRate, 1.0);
    // A 4-artifact scene must end with a non-empty, sane model.
    EXPECT_GT(report.circles.size(), 0u);
    EXPECT_LT(report.circles.size(), 40u);
    EXPECT_TRUE(std::isfinite(report.logPosterior));
    EXPECT_NE(report.logPosterior, 0.0);
  }
}

TEST(EngineRoundTrip, ExtrasVariantMatchesTheRegistryContract) {
  const img::Scene scene = tinyScene(12);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 7});

  const auto holds = [&](const std::string& name, auto tag) {
    const RunReport report = engine.run(name, problem, RunBudget{800, 0});
    return std::holds_alternative<decltype(tag)>(report.extras);
  };
  EXPECT_TRUE(holds("serial", std::monostate{}));
  EXPECT_TRUE(holds("speculative", spec::SpeculativeStats{}));
  EXPECT_TRUE(holds("mc3", mcmc::Mc3Stats{}));
  EXPECT_TRUE(holds("periodic", core::PeriodicReport{}));
  EXPECT_TRUE(holds("blind", core::PipelineReport{}));
  EXPECT_TRUE(holds("intelligent", core::PipelineReport{}));
}

TEST(EngineRoundTrip, StrategyOptionsReachTheDriver) {
  const img::Scene scene = tinyScene(13);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 7});

  const RunReport report = engine.run("mc3", problem, RunBudget{600, 0}, {},
                                      {"chains=2", "swap-interval=50"});
  const auto& stats = std::get<mcmc::Mc3Stats>(report.extras);
  EXPECT_EQ(stats.iterationsPerChain, 600u);
  EXPECT_EQ(stats.swapProposed, 600u / 50u);
}

TEST(EngineRoundTrip, SameSeedIsReproducibleAcrossEngineCalls) {
  const img::Scene scene = tinyScene(14);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 21});

  const RunReport a = engine.run("serial", problem, RunBudget{2000, 0});
  const RunReport b = engine.run("serial", problem, RunBudget{2000, 0});
  EXPECT_EQ(a.circles.size(), b.circles.size());
  EXPECT_DOUBLE_EQ(a.logPosterior, b.logPosterior);
}

// ---------------------------------------------------------------------------
// RunHooks: progress/trace observers and cancellation.
// ---------------------------------------------------------------------------

TEST(RunHooks, ProgressAndTraceObserversFire) {
  const img::Scene scene = tinyScene(15);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 3});

  std::uint64_t progressBeats = 0;
  std::uint64_t tracePoints = 0;
  RunHooks hooks;
  hooks.onProgress = [&](const RunProgress& p) {
    EXPECT_LE(p.done, p.total);
    ++progressBeats;
  };
  hooks.onTrace = [&](const mcmc::TracePoint&) { ++tracePoints; };

  const RunReport report =
      engine.run("serial", problem, RunBudget{2000, 500}, hooks);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(progressBeats, 0u);
  EXPECT_EQ(tracePoints, 4u);  // 2000 iterations / 500 cadence
}

// Cancellation must stop within one polling quantum and still return a
// consistent partial report — for the serial baseline and for a parallel
// strategy (periodic partitioning on its leased pool).
class CancellationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CancellationTest, MidRunCancellationYieldsConsistentPartialReport) {
  const img::Scene scene = tinyScene(16);
  const Problem problem = tinyProblem(scene);
  // threads=2 runs the partition sessions of "periodic" on a pool.
  const Engine engine(ExecResources{2, false, 9});

  // Allow a handful of polls, then request cancellation forever after.
  std::atomic<int> polls{0};
  RunHooks hooks;
  hooks.cancelRequested = [&polls] { return ++polls > 3; };

  const RunBudget budget{200000, 0};
  const RunReport report = engine.run(GetParam(), problem, budget, hooks);

  EXPECT_TRUE(report.cancelled);
  EXPECT_LT(report.iterations, budget.iterations);
  // The partial report is still populated and internally consistent.
  EXPECT_GT(report.iterations, 0u);
  EXPECT_GT(report.diagnostics.totalProposed(), 0u);
  EXPECT_FALSE(report.circles.empty());
  EXPECT_TRUE(std::isfinite(report.logPosterior));
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, CancellationTest,
                         ::testing::Values("serial", "periodic", "mc3",
                                           "blind"));

// ---------------------------------------------------------------------------
// One executor per run: every parallel strategy runs on one pool built from
// its lease.
// ---------------------------------------------------------------------------

struct LeasedRun {
  const char* strategy;
  std::vector<std::string> options;
};

const std::vector<LeasedRun>& parallelStrategies() {
  static const std::vector<LeasedRun> runs = {
      {"speculative", {}},
      {"mc3", {}},
      {"periodic", {"executor=in-place"}},
      {"periodic", {"executor=split-merge"}},
      {"intelligent", {}},
      {"blind", {}},
  };
  return runs;
}

/// Threads of this process (one entry per task), or 0 when the platform
/// has no /proc/self/task.
std::size_t liveThreads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  std::size_t count = 0;
  for (; !error && it != std::filesystem::directory_iterator();
       it.increment(error)) {
    ++count;
  }
  return error ? 0 : count;
}

TEST(OneExecutorPerRun, NoStrategyRunsMoreThreadsThanItLeased) {
  if (liveThreads() == 0) GTEST_SKIP() << "/proc/self/task is unavailable";
  // Runtimes may start a helper thread with the process's first thread
  // (ThreadSanitizer does); start one now so the baseline already counts it.
  std::thread([] {}).join();
  const img::Scene scene = tinyScene(18);
  const Problem problem = tinyProblem(scene);

  for (const unsigned threads : {1u, 2u}) {
    for (const LeasedRun& run : parallelStrategies()) {
      SCOPED_TRACE(std::string(run.strategy) + " " +
                   (run.options.empty() ? "" : run.options[0]) +
                   " threads=" + std::to_string(threads));
      const std::size_t baseline = liveThreads();
      std::atomic<std::size_t> peak{baseline};
      std::atomic<int> beats{0};
      RunHooks hooks;
      // Pool workers live for the whole run, so every beat sees them all.
      hooks.onProgress = [&](const RunProgress&) {
        ++beats;
        const std::size_t now = liveThreads();
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
      };
      const Engine engine(ExecResources{.threads = threads, .seed = 5});
      const RunReport report = engine.run(run.strategy, problem,
                                          RunBudget{3000, 0}, hooks,
                                          run.options);
      ASSERT_GT(beats.load(), 0);
      // The calling thread is one of the leased threads: workers = lease-1.
      EXPECT_LE(peak.load() - baseline, threads - 1);
      EXPECT_LE(report.threadsUsed, threads);
      EXPECT_GE(report.threadsUsed, 1u);
    }
  }
}

TEST(OneExecutorPerRun, ResultsDoNotDependOnTheThreadCount) {
  img::SceneSpec spec = img::cellScene(192, 192, 10, 8.0, 19);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);
  const Problem problem = tinyProblem(scene);

  std::vector<std::pair<LeasedRun, std::vector<unsigned>>> cases;
  for (const LeasedRun& run : parallelStrategies()) {
    // The 1-thread in-place run uses margin 0 by design: its sessions run
    // one at a time, so it needs no safety margin and samples differently.
    const bool inPlace = !run.options.empty() &&
                         run.options[0] == "executor=in-place";
    cases.push_back(
        {run, inPlace ? std::vector<unsigned>{2, 4}
                      : std::vector<unsigned>{1, 2, 4}});
  }
  for (const auto& [run, threadCounts] : cases) {
    const auto runAt = [&, &run = run](unsigned threads) {
      const Engine engine(ExecResources{.threads = threads, .seed = 23});
      return engine.run(run.strategy, problem, RunBudget{6000, 0}, {},
                        run.options);
    };
    const RunReport reference = runAt(threadCounts.front());
    for (std::size_t k = 1; k < threadCounts.size(); ++k) {
      SCOPED_TRACE(std::string(run.strategy) + " " +
                   (run.options.empty() ? "" : run.options[0]) +
                   " threads=" + std::to_string(threadCounts[k]));
      const RunReport report = runAt(threadCounts[k]);
      EXPECT_EQ(report.circles, reference.circles);
      EXPECT_EQ(report.logPosterior, reference.logPosterior);
      EXPECT_EQ(report.iterations, reference.iterations);
    }
  }
}

TEST(RunHooks, ImmediateCancellationStillReturnsAReport) {
  const img::Scene scene = tinyScene(17);
  const Problem problem = tinyProblem(scene);
  const Engine engine(ExecResources{1, false, 9});

  RunHooks hooks;
  hooks.cancelRequested = [] { return true; };
  const RunReport report =
      engine.run("serial", problem, RunBudget{50000, 0}, hooks);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.iterations, 0u);
}

}  // namespace
}  // namespace mcmcpar::engine
