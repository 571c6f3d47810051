#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <thread>

#include "analysis/metrics.hpp"
#include "engine/registry.hpp"
#include "img/filters.hpp"
#include "img/synth.hpp"
#include "model/likelihood_kernels.hpp"

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
  // The paper's six, plus the two wrappers built on top of them: the
  // sharding coordinator and the frame sequence.
  for (const char* name : {"serial", "speculative", "mc3", "periodic", "blind",
                           "intelligent", "sharded", "sequence"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_TRUE(registry.info(name).factory != nullptr) << name;
  }
  EXPECT_EQ(registry.names().size(), 8u);
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
  // Threads come from the lease, not from strategy options: periodic has
  // one local-phase executor and no executor= option, and mc3 no parallel=
  // knob.
  for (const char* executor : {"executor=warp", "executor=auto",
                               "executor=serial", "executor=pool",
                               "executor=omp", "executor=split-serial",
                               "executor=split-pool", "executor=in-place",
                               "executor=split-merge"}) {
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
    if (name == "serial") {
      EXPECT_EQ(report.diagnostics.totalProposed(), report.iterations);
    }
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
  EXPECT_TRUE(holds("sharded", shard::ShardReport{}));
  EXPECT_TRUE(holds("sequence", stream::StreamReport{}));
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
// Detection quality: the paper's four methods find the artifacts of a
// 128x128 scene, with the eq. 5 count estimate on, through the engine.
// ---------------------------------------------------------------------------

img::Scene detectionScene(std::uint64_t seed) {
  img::SceneSpec spec = img::cellScene(128, 128, 8, 8.0, seed);
  spec.radiusStd = 0.5;
  return img::generateScene(spec);
}

std::vector<model::Circle> truthOf(const img::Scene& scene) {
  std::vector<model::Circle> out;
  for (const auto& t : scene.truth) out.push_back({t.x, t.y, t.r});
  return out;
}

RunReport detect(const img::ImageF& image, const std::string& strategy,
                 const std::vector<std::string>& options = {}) {
  Problem problem;
  problem.filtered = &image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 0.8;
  problem.prior.radiusMin = 3.0;
  problem.prior.radiusMax = 14.0;
  return Engine(ExecResources{1, false, 3})
      .run(strategy, problem, RunBudget{12000, 0}, {}, options);
}

enum class Method : std::uint8_t { Sequential, Periodic, Intelligent, Blind };

class MethodSweep : public ::testing::TestWithParam<Method> {};

TEST_P(MethodSweep, FindsMostArtifacts) {
  const std::vector<std::string> pipeline{"iters-base=1500",
                                          "iters-per-circle=400"};
  const img::Scene scene = detectionScene(51);
  RunReport report;
  switch (GetParam()) {
    case Method::Sequential:
      report = detect(scene.image, "serial");
      break;
    case Method::Periodic:
      report = detect(scene.image, "periodic", {"phase=40"});
      break;
    case Method::Intelligent:
      report = detect(scene.image, "intelligent", pipeline);
      break;
    case Method::Blind:
      report = detect(scene.image, "blind", pipeline);
      break;
  }
  EXPECT_GT(report.wallSeconds, 0.0);
  const auto q = analysis::scoreCircles(report.circles, truthOf(scene), 6.0);
  EXPECT_GE(q.recall, 0.6) << report.strategy;
  EXPECT_GE(q.precision, 0.5) << report.strategy;
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodSweep,
                         ::testing::Values(Method::Sequential,
                                           Method::Periodic,
                                           Method::Intelligent,
                                           Method::Blind));

TEST(Detection, Eq5CountEstimateTracksTheImage) {
  const img::Scene scene = detectionScene(53);
  const RunReport report = detect(scene.image, "serial");
  EXPECT_NEAR(static_cast<double>(report.circles.size()), 8.0, 4.0);
}

TEST(Detection, StainEmphasisedRgbFeedsTheChain) {
  // A fake "stained" micrograph: intensity in the blue channel, filtered
  // to emphasise it (§III) before sampling.
  const img::Scene scene = detectionScene(55);
  img::ImageRgb rgb(scene.image.width(), scene.image.height());
  for (std::size_t i = 0; i < rgb.pixelCount(); ++i) {
    const auto v = static_cast<std::uint8_t>(
        std::min(1.0f, scene.image.pixels()[i]) * 255.0f);
    rgb.pixels()[i] = img::Rgb{30, 30, v};
  }
  const RunReport report = detect(img::stainEmphasis(rgb), "serial");
  const auto q = analysis::scoreCircles(report.circles, truthOf(scene), 6.0);
  EXPECT_GE(q.recall, 0.5);
}

// The sequential nuclei finder is the engine's serial strategy.
TEST(NucleiFinder, SequentialDiagnosticsPopulated) {
  const img::Scene scene = detectionScene(57);
  const RunReport report = detect(scene.image, "serial");
  EXPECT_EQ(report.diagnostics.totalProposed(), 12000u);
  EXPECT_NE(report.logPosterior, 0.0);
}

TEST(NucleiFinder, DeterministicForSeed) {
  const img::Scene scene = detectionScene(59);
  const RunReport a = detect(scene.image, "serial");
  const RunReport b = detect(scene.image, "serial");
  ASSERT_EQ(a.circles.size(), b.circles.size());
  EXPECT_EQ(a.logPosterior, b.logPosterior);
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
      {"periodic", {}},
      {"intelligent", {}},
      {"blind", {}},
      // The wrapper hands its lease to the inner strategy, frame by frame.
      {"sequence", {"strategy=speculative"}},
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
    // The 1-thread periodic run uses margin 0 by design: its sessions run
    // one at a time, so it needs no safety margin and samples differently.
    const bool periodic = std::string(run.strategy) == "periodic";
    cases.push_back(
        {run, periodic ? std::vector<unsigned>{2, 4}
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

TEST(OneExecutorPerRun, PeriodicRunsExactlyItsBudget) {
  // On this scene the safety margin leaves no circle modifiable, so the
  // local phases forfeit their iterations and the chain advances in global
  // phases alone. The last of them must stop at the budget, with real
  // threads and with virtual ones.
  const img::Scene scene =
      img::generateScene(img::cellScene(256, 256, 20, 10.0, 1));
  Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 10.0;
  problem.prior.radiusStd = 10.0 / 8.0;
  problem.prior.radiusMin = 5.0;
  problem.prior.radiusMax = 18.0;
  constexpr std::uint64_t kBudget = 20000;
  const auto iterationsAt = [&](const std::string& strategy, unsigned threads,
                                std::uint64_t budget,
                                const std::vector<std::string>& options) {
    const Engine engine(ExecResources{.threads = threads, .seed = 1});
    return engine.run(strategy, problem, RunBudget{budget, 0}, {}, options)
        .iterations;
  };
  for (const unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(iterationsAt("periodic", threads, kBudget, {}), kBudget)
        << "threads=" << threads;
  }
  EXPECT_EQ(iterationsAt("periodic", 1, kBudget, {"virtual-threads=4"}),
            kBudget);
  // Speculative rounds stop at the budget too: the last one evaluates no
  // more lanes than iterations remain, in periodic's global phases and in
  // the speculative strategy, at an odd budget as well.
  EXPECT_EQ(iterationsAt("periodic", 1, kBudget + 1, {"spec-lanes=4"}),
            kBudget + 1);
  for (const std::uint64_t budget : {kBudget, kBudget + 1}) {
    EXPECT_EQ(iterationsAt("speculative", 2, budget, {"lanes=4"}), budget)
        << "budget=" << budget;
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

// ---------------------------------------------------------------------------
// Scalar and AVX2 kernels are bit-identical, so whole chains are too.
// ---------------------------------------------------------------------------

TEST(BackendInvariance, SerialAndPeriodicChainsAreBitIdenticalAcrossBackends) {
  if (!model::kernels::avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  struct BackendGuard {
    model::kernels::Backend saved = model::kernels::activeBackend();
    ~BackendGuard() { model::kernels::setBackend(saved); }
  } guard;
  img::SceneSpec spec = img::cellScene(256, 256, 20, 8.0, 29);
  spec.radiusStd = 0.5;
  const img::Scene scene = img::generateScene(spec);
  const Problem problem = tinyProblem(scene);
  const auto runOn = [&](model::kernels::Backend backend, const char* strategy,
                         unsigned threads) {
    EXPECT_TRUE(model::kernels::setBackend(backend));
    const Engine engine(ExecResources{.threads = threads, .seed = 31});
    return engine.run(strategy, problem, RunBudget{15000, 0});
  };
  for (const auto& [strategy, threads] :
       {std::pair{"serial", 1u}, std::pair{"periodic", 2u}}) {
    SCOPED_TRACE(strategy);
    const RunReport scalar =
        runOn(model::kernels::Backend::Scalar, strategy, threads);
    const RunReport avx2 =
        runOn(model::kernels::Backend::Avx2, strategy, threads);
    EXPECT_FALSE(scalar.circles.empty());
    EXPECT_EQ(scalar.circles, avx2.circles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar.logPosterior),
              std::bit_cast<std::uint64_t>(avx2.logPosterior));
    EXPECT_EQ(scalar.iterations, avx2.iterations);
  }
}

}  // namespace
}  // namespace mcmcpar::engine
