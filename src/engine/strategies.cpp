// The six built-in strategies of StrategyRegistry::builtin(): thin adapters
// that put the existing drivers (mcmc::Sampler, spec::SpeculativeExecutor,
// mcmc::Mc3Sampler, core::PeriodicSampler, core::run*Pipeline) behind the
// uniform Strategy protocol. The concrete driver classes stay public and
// directly usable; these adapters only own the wiring that every caller
// used to repeat: prior estimation, state/registry construction, seed and
// thread handling, and report normalisation.

#include <algorithm>
#include <cmath>

#include "engine/registry.hpp"
#include "mcmc/convergence.hpp"
#include "mcmc/sampler.hpp"
#include "par/concurrency.hpp"
#include "par/virtual_clock.hpp"
#include "partition/prior_estimation.hpp"
#include "shard/strategy.hpp"

namespace mcmcpar::engine {

namespace {

/// Shared prepare() plumbing: problem validation, eq. 5 count estimation,
/// move-registry construction, and the common RunReport fields.
class StrategyBase : public Strategy {
 public:
  StrategyBase(std::string name, const ExecResources& resources)
      : name_(std::move(name)), resources_(resources) {}

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }

  void prepare(const Problem& problem) override {
    if (problem.filtered == nullptr) {
      throw EngineError("strategy '" + name_ +
                        "': Problem.filtered image is null");
    }
    problem_ = problem;
    prior_ = problem.prior;
    if (problem.estimateCount) {
      const auto estimate = partition::estimateCount(
          *problem.filtered, problem.theta, prior_.radiusMean);
      prior_.expectedCount = std::max(estimate.expectedCount, 0.5);
    }
    registry_ = mcmc::MoveRegistry::caseStudy(problem.moves);
    prepared_ = true;
  }

 protected:
  void requirePrepared() const {
    if (!prepared_) {
      throw EngineError("strategy '" + name_ +
                        "': run() called before prepare()");
    }
  }

  /// The threads one run may use. `lease` resolves the `threads` knob
  /// against the whole machine when standalone, against the shared budget
  /// inside a batch, and is held for the whole run so concurrent jobs see
  /// the reduced availability. `pool` has `lease - 1` workers, because
  /// parallelFor also runs tasks on the calling (already leased) thread;
  /// it is null for a single-thread lease. The default value is the
  /// single-thread executor.
  struct Executor {
    par::PoolLease lease;
    std::unique_ptr<par::ThreadPool> pool;
  };

  /// Every parallel strategy gets its threads here and nowhere else.
  [[nodiscard]] Executor leaseExecutor() const {
    Executor executor{
        par::PoolLease::acquire(resources_.poolBudget, resources_.threads),
        nullptr};
    if (executor.lease.threads() > 1) {
      executor.pool = par::makeThreadPool(executor.lease.threads() - 1);
    }
    return executor;
  }

  [[nodiscard]] std::size_t initialCircleCount() const {
    return static_cast<std::size_t>(std::llround(prior_.expectedCount));
  }

  /// Whole-image chain state seeded from `stream`. With a warm start the
  /// carried circles are committed first — re-scoring them against *this*
  /// problem's image — and only a fraction of the usual random circles are
  /// added on top, so the chain starts near the previous posterior mode
  /// while birth moves can still discover new objects.
  [[nodiscard]] model::ModelState makeState(rng::Stream& stream) const {
    model::ModelState state(*problem_.filtered, prior_, problem_.likelihood);
    if (problem_.warmStart.empty()) {
      state.initialiseRandom(initialCircleCount(), stream);
      return state;
    }
    const model::PriorParams& p = prior_;
    for (model::Circle c : problem_.warmStart) {
      c.r = std::clamp(c.r, p.radiusMin, p.radiusMax);
      if (!state.discInDomain(c)) continue;
      (void)state.commitAdd(c);
    }
    const double fraction = std::clamp(problem_.warmFreshFraction, 0.0, 1.0);
    const auto fresh = static_cast<std::size_t>(std::llround(
        fraction * static_cast<double>(initialCircleCount())));
    state.initialiseRandom(fresh, stream);
    return state;
  }

  /// Trace cadence: explicit budget value, or ~200 points per run.
  [[nodiscard]] static std::uint64_t traceEvery(const RunBudget& budget) {
    if (budget.traceInterval != 0) return budget.traceInterval;
    return std::max<std::uint64_t>(1, budget.iterations / 200);
  }

  [[nodiscard]] RunReport baseReport() const {
    RunReport report;
    report.strategy = name_;
    return report;
  }

  /// Run the plain sequential chain (the §II-III baseline) and fill every
  /// common report field. Shared by SerialStrategy and the lanes=1
  /// speculative path, which is documented to be bit-for-bit identical to
  /// the serial run under the same seed.
  [[nodiscard]] RunReport runSerialChain(const RunBudget& budget,
                                         const RunHooks& hooks) const {
    rng::Stream stream(resources_.seed);
    model::ModelState state = makeState(stream);
    mcmc::Sampler sampler(state, registry_, stream);

    const par::WallTimer timer;
    const std::uint64_t done =
        sampler.run(budget.iterations, traceEvery(budget), hooks);

    RunReport report = baseReport();
    report.iterations = done;
    report.wallSeconds = timer.seconds();
    report.cancelled = done < budget.iterations;
    report.circles = state.config().snapshot();
    report.logPosterior = state.logPosterior();
    report.diagnostics = sampler.diagnostics();
    finaliseCommon(report);
    return report;
  }

  /// Derive acceptance and convergence from the report's own diagnostics.
  static void finaliseCommon(RunReport& report) {
    report.acceptanceRate = report.diagnostics.aggregate().acceptanceRate();
    if (const auto plateau =
            mcmc::iterationsToPlateau(report.diagnostics.trace())) {
      report.iterationsToConverge = plateau->iteration;
    }
  }

  std::string name_;
  ExecResources resources_;
  Problem problem_;
  model::PriorParams prior_;
  mcmc::MoveRegistry registry_;
  bool prepared_ = false;
};

// --------------------------------------------------------------------------
// "serial" — §II-III conventional RJ-MCMC baseline.
// --------------------------------------------------------------------------
class SerialStrategy final : public StrategyBase {
 public:
  using StrategyBase::StrategyBase;

  RunReport run(const RunBudget& budget, const RunHooks& hooks) override {
    requirePrepared();
    return runSerialChain(budget, hooks);
  }
};

// --------------------------------------------------------------------------
// "speculative" — §IV speculative moves: n lanes per round.
// --------------------------------------------------------------------------
class SpeculativeStrategy final : public StrategyBase {
 public:
  SpeculativeStrategy(std::string name, const ExecResources& resources,
                      const OptionMap& options)
      : StrategyBase(std::move(name), resources),
        lanes_(options.uns("lanes", 4)) {
    if (lanes_ == 0) {
      throw EngineError("strategy '" + name_ + "': lanes must be >= 1");
    }
  }

  RunReport run(const RunBudget& budget, const RunHooks& hooks) override {
    requirePrepared();
    // One lane means no speculation at all: every round is a single plain
    // MH iteration. Route it through the exact serial driver so
    // `speculative lanes=1` reproduces the `serial` chain bit for bit
    // (tests/test_statistical_equivalence.cpp anchors on this).
    if (lanes_ == 1) return runSerialDegenerate(budget, hooks);
    rng::Stream stream(resources_.seed);
    model::ModelState state = makeState(stream);

    const Executor threads = leaseExecutor();
    spec::SpeculativeExecutor executor(state, registry_, lanes_,
                                       stream.derive(0x5BEC).bits(),
                                       threads.pool.get());

    // The executor has no internal trace; run in trace-sized chunks and
    // record the posterior between them.
    const std::uint64_t every = traceEvery(budget);
    const par::WallTimer timer;
    std::uint64_t done = 0;
    bool cancelled = false;
    // The executor reports progress relative to each run() call; remap it
    // to the overall budget so RunProgress keeps its documented meaning.
    RunHooks inner;
    inner.cancelRequested = hooks.cancelRequested;
    inner.onTrace = hooks.onTrace;
    if (hooks.onProgress) {
      inner.onProgress = [&](const RunProgress& p) {
        hooks.progress(std::min(done + p.done, budget.iterations),
                       budget.iterations, p.phase);
      };
    }
    while (done < budget.iterations) {
      const std::uint64_t chunk =
          std::min(every, budget.iterations - done);
      const std::uint64_t advanced =
          executor.run(chunk, spec::MovePhase::Any, inner);
      if (advanced == 0) {  // cancellation before the first round
        cancelled = true;
        break;
      }
      done += advanced;
      executor.diagnostics().tracePoint(done, state.logPosterior(),
                                        state.config().size());
      hooks.trace(executor.diagnostics().trace().back());
    }

    RunReport report = baseReport();
    report.iterations = done;
    report.wallSeconds = timer.seconds();
    report.cancelled = cancelled || done < budget.iterations;
    report.circles = state.config().snapshot();
    report.logPosterior = state.logPosterior();
    report.diagnostics = executor.diagnostics();
    report.threadsUsed = std::min(threads.lease.threads(), lanes_);
    report.extras = executor.stats();
    finaliseCommon(report);
    return report;
  }

 private:
  /// The lanes=1 path: the shared serial chain, reported with degenerate
  /// speculation stats (one proposal per round, zero waste).
  RunReport runSerialDegenerate(const RunBudget& budget,
                                const RunHooks& hooks) const {
    RunReport report = runSerialChain(budget, hooks);
    spec::SpeculativeStats stats;
    stats.rounds = report.iterations;
    stats.logicalIterations = report.iterations;
    stats.proposalsEvaluated = report.iterations;
    stats.roundsWithAcceptance = report.diagnostics.aggregate().accepted;
    report.extras = stats;
    return report;
  }

  unsigned lanes_;
};

// --------------------------------------------------------------------------
// "mc3" — §IV Metropolis-coupled MCMC, the convergence-rate baseline.
// --------------------------------------------------------------------------
class Mc3Strategy final : public StrategyBase {
 public:
  Mc3Strategy(std::string name, const ExecResources& resources,
              const OptionMap& options)
      : StrategyBase(std::move(name), resources) {
    params_.chains = options.uns("chains", 4);
    params_.heatStep = options.dbl("heat-step", 0.2);
    params_.swapInterval = options.u64("swap-interval", 100);
    if (params_.chains == 0) {
      throw EngineError("strategy '" + name_ + "': chains must be >= 1");
    }
    if (params_.swapInterval == 0) {
      throw EngineError("strategy '" + name_ +
                        "': swap-interval must be >= 1");
    }
  }

  RunReport run(const RunBudget& budget, const RunHooks& hooks) override {
    requirePrepared();
    const Executor threads = leaseExecutor();
    mcmc::Mc3Sampler sampler(*problem_.filtered, prior_, problem_.likelihood,
                             registry_, params_, initialCircleCount(),
                             resources_.seed, threads.pool.get());

    const par::WallTimer timer;
    const std::uint64_t done =
        sampler.run(budget.iterations, traceEvery(budget), hooks);

    RunReport report = baseReport();
    report.iterations = done;
    report.wallSeconds = timer.seconds();
    report.cancelled = done < budget.iterations;
    report.circles = sampler.coldChain().config().snapshot();
    report.logPosterior = sampler.coldChain().logPosterior();
    report.diagnostics = sampler.coldDiagnostics();
    report.threadsUsed = std::min(threads.lease.threads(), params_.chains);
    report.extras = sampler.stats();
    finaliseCommon(report);
    return report;
  }

 private:
  mcmc::Mc3Params params_;
};

// --------------------------------------------------------------------------
// "periodic" — §V-VII periodic partitioning.
// --------------------------------------------------------------------------
class PeriodicStrategy final : public StrategyBase {
 public:
  PeriodicStrategy(std::string name, const ExecResources& resources,
                   const OptionMap& options)
      : StrategyBase(std::move(name), resources) {
    params_.globalPhaseIterations = options.u64("phase", 130);
    params_.margin = options.dbl("margin", -1.0);
    params_.specLanesGlobal = options.uns("spec-lanes", 1);
    params_.virtualThreads = options.uns("virtual-threads", 0);
    params_.resyncPhaseInterval = options.u64("resync", 64);

    const std::string layout = options.str("layout", "cross");
    if (layout == "cross") {
      params_.layout = core::PartitionLayout::RandomCross;
    } else if (layout == "grid") {
      params_.layout = core::PartitionLayout::UniformGrid;
      params_.gridSpacingX = options.dbl("grid-x", 0.0);
      params_.gridSpacingY = options.dbl("grid-y", 0.0);
    } else {
      throw EngineError("strategy '" + name_ + "': layout must be " +
                        "'cross' or 'grid', got '" + layout + "'");
    }

    const std::string executor = options.str("executor", "in-place");
    if (executor == "in-place") {
      params_.executor = core::LocalExecutor::InPlace;
    } else if (executor == "split-merge") {
      params_.executor = core::LocalExecutor::SplitMerge;
    } else {
      throw EngineError("strategy '" + name_ + "': executor must be " +
                        "'in-place' or 'split-merge', got '" + executor +
                        "'");
    }
  }

  RunReport run(const RunBudget& budget, const RunHooks& hooks) override {
    requirePrepared();
    rng::Stream stream(resources_.seed);
    model::ModelState state = makeState(stream);

    // Virtual-time accounting measures each partition's cost undisturbed,
    // so it runs the sessions one at a time on this thread.
    const Executor threads =
        params_.virtualThreads > 0 ? Executor{} : leaseExecutor();
    core::PeriodicParams params = params_;
    params.totalIterations = budget.iterations;
    params.traceInterval = traceEvery(budget);

    const par::WallTimer timer;
    core::PeriodicSampler sampler(state, registry_, params, resources_.seed,
                                  threads.pool.get());
    core::PeriodicReport periodic = sampler.run(hooks);

    RunReport report = baseReport();
    report.iterations = periodic.globalIterations + periodic.localIterations;
    report.wallSeconds = timer.seconds();
    report.cancelled = periodic.cancelled;
    report.circles = state.config().snapshot();
    report.logPosterior = state.logPosterior();
    report.diagnostics = periodic.diagnostics;
    report.threadsUsed = threads.lease.threads();
    // Last read of `periodic` above — avoid copying its trace/diagnostics.
    report.extras = std::move(periodic);
    finaliseCommon(report);
    return report;
  }

 private:
  core::PeriodicParams params_;
};

// --------------------------------------------------------------------------
// "blind" / "intelligent" — §VIII-IX image-partitioning pipelines.
// --------------------------------------------------------------------------
class PipelineStrategy final : public StrategyBase {
 public:
  PipelineStrategy(std::string name, const ExecResources& resources,
                   const OptionMap& options, bool blind)
      : StrategyBase(std::move(name), resources), blind_(blind) {
    params_.iterationsBase = options.u64("iters-base", 2000);
    params_.iterationsPerCircle = options.u64("iters-per-circle", 600);
    params_.tracePoints = options.u64("trace-points", 200);
    if (blind_) {
      params_.blind.gridX = static_cast<int>(options.uns("grid-x", 2));
      params_.blind.gridY = static_cast<int>(options.uns("grid-y", 2));
      params_.blind.overlapMargin = options.dbl("overlap", 0.0);
      params_.blind.mergeRadius = options.dbl("merge-radius", 5.0);
    } else {
      params_.intelligent.minGapWidth =
          static_cast<int>(options.uns("min-gap", 3));
      params_.intelligent.minPartitionSize =
          static_cast<int>(options.uns("min-partition", 24));
    }
  }

  RunReport run(const RunBudget& budget, const RunHooks& hooks) override {
    requirePrepared();
    core::PipelineParams params = params_;
    params.prior = prior_;
    params.likelihood = problem_.likelihood;
    params.moves = problem_.moves;
    params.theta = problem_.theta;
    params.intelligent.theta = problem_.theta;
    params.seed = resources_.seed;
    params.iterationsCap = budget.iterations;
    const Executor threads = leaseExecutor();
    params.loadBalancedThreads = threads.lease.threads();

    const par::WallTimer timer;
    core::PipelineReport pipeline =
        blind_ ? core::runBlindPipeline(*problem_.filtered, params, hooks,
                                        threads.pool.get())
               : core::runIntelligentPipeline(*problem_.filtered, params,
                                              hooks, threads.pool.get());

    RunReport report = baseReport();
    report.wallSeconds = timer.seconds();
    report.cancelled = pipeline.cancelled;
    report.circles = pipeline.merged;
    report.threadsUsed = threads.lease.threads();
    for (const core::PartitionRun& partition : pipeline.partitions) {
      report.iterations += partition.iterations;
      report.diagnostics.merge(partition.diagnostics);
      // §IX: the parallel scheme converges when its slowest partition does.
      if (partition.itersToConverge) {
        report.iterationsToConverge =
            std::max(report.iterationsToConverge.value_or(0),
                     *partition.itersToConverge);
      }
    }
    report.acceptanceRate = report.diagnostics.aggregate().acceptanceRate();
    report.logPosterior = mergedLogPosterior(pipeline.merged);
    // Last read of `pipeline` above — avoid copying the partition runs.
    report.extras = std::move(pipeline);
    return report;
  }

 private:
  /// Whole-image log posterior of the recombined model (the per-partition
  /// values are not comparable across strategies).
  [[nodiscard]] double mergedLogPosterior(
      const std::vector<model::Circle>& merged) const {
    model::ModelState state(*problem_.filtered, prior_, problem_.likelihood);
    for (const model::Circle& circle : merged) state.commitAdd(circle);
    return state.logPosterior();
  }

  core::PipelineParams params_;
  bool blind_;
};

}  // namespace

const StrategyRegistry& StrategyRegistry::builtin() {
  static const StrategyRegistry* registry = [] {
    auto* r = new StrategyRegistry;
    r->add({"serial", "§II-III", "conventional sequential RJ-MCMC baseline",
            "-", "",
            [](const ExecResources& res, const OptionMap&) {
              return std::make_unique<SerialStrategy>("serial", res);
            }});
    r->add({"speculative", "§IV", "speculative moves: n proposal lanes/round",
            "SpeculativeStats", "lanes=N",
            [](const ExecResources& res, const OptionMap& opts) {
              return std::make_unique<SpeculativeStrategy>("speculative", res,
                                                           opts);
            }});
    r->add({"mc3", "§IV", "Metropolis-coupled MCMC (heated chains + swaps)",
            "Mc3Stats", "chains=N heat-step=X swap-interval=N",
            [](const ExecResources& res, const OptionMap& opts) {
              return std::make_unique<Mc3Strategy>("mc3", res, opts);
            }});
    r->add({"periodic", "§V-VII",
            "periodic partitioning (global/local phases)", "PeriodicReport",
            "phase=N executor=in-place|split-merge layout=cross|grid "
            "margin=X spec-lanes=N virtual-threads=N resync=N grid-x=X "
            "grid-y=X",
            [](const ExecResources& res, const OptionMap& opts) {
              return std::make_unique<PeriodicStrategy>("periodic", res, opts);
            }});
    r->add({"blind", "§VIII-IX", "blind image partitioning + merge heuristics",
            "PipelineReport",
            "grid-x=N grid-y=N overlap=X merge-radius=X iters-base=N "
            "iters-per-circle=N trace-points=N",
            [](const ExecResources& res, const OptionMap& opts) {
              return std::make_unique<PipelineStrategy>("blind", res, opts,
                                                        /*blind=*/true);
            }});
    r->add({"intelligent", "§VIII-IX",
            "intelligent image partitioning (empty-gap cuts)",
            "PipelineReport",
            "min-gap=N min-partition=N iters-base=N iters-per-circle=N "
            "trace-points=N",
            [](const ExecResources& res, const OptionMap& opts) {
              return std::make_unique<PipelineStrategy>("intelligent", res,
                                                        opts,
                                                        /*blind=*/false);
            }});
    // The sharding coordinator lives one layer up (src/shard: it composes
    // BatchRunner and the serve client), so it registers itself.
    shard::registerShardedStrategy(*r);
    return r;
  }();
  return *registry;
}

}  // namespace mcmcpar::engine
