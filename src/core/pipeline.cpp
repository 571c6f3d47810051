#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "mcmc/convergence.hpp"
#include "mcmc/sampler.hpp"
#include "par/task_scheduler.hpp"
#include "par/thread_pool.hpp"
#include "par/virtual_clock.hpp"
#include "partition/prior_estimation.hpp"

namespace mcmcpar::core {

namespace {

/// Compute the §IX runtime summaries: unlimited processors (max over
/// partitions) and LPT load balancing onto `threads`.
void finaliseRuntimes(PipelineReport& report, unsigned threads) {
  std::vector<double> costs;
  costs.reserve(report.partitions.size());
  double longest = 0.0;
  for (const PartitionRun& p : report.partitions) {
    costs.push_back(p.runtimeToConverge);
    longest = std::max(longest, p.runtimeToConverge);
  }
  report.loadBalancedThreads = threads;
  report.parallelRuntime =
      report.partitionerSeconds + longest + report.mergeSeconds;
  const auto schedule = par::lptSchedule(costs, threads);
  report.loadBalancedRuntime = report.partitionerSeconds +
                               schedule.makespan(costs) + report.mergeSeconds;
}

/// A (sub)image's work order: its eq. 5 count estimate and the iteration
/// budget that follows from it, known before any sampling starts.
struct PartitionPlan {
  partition::IRect rect;
  double estimatedCount = 0.0;
  double expectedCount = 0.5;  ///< the prior's count (estimate, floored)
  std::uint64_t iterations = 0;
};

PartitionPlan planPartition(const img::ImageF& filtered,
                            const partition::IRect& rect,
                            const PipelineParams& params) {
  PartitionPlan plan;
  plan.rect = rect;
  // Eq. 5 prior re-estimation on this partition's own pixels.
  const auto estimate = partition::estimateCount(
      filtered, params.theta, params.prior.radiusMean, rect);
  plan.estimatedCount = estimate.expectedCount;
  plan.expectedCount = std::max(plan.estimatedCount, 0.5);
  plan.iterations =
      params.iterationsBase +
      params.iterationsPerCircle *
          static_cast<std::uint64_t>(std::llround(plan.expectedCount));
  if (params.iterationsCap != 0) {
    plan.iterations = std::min(plan.iterations, params.iterationsCap);
  }
  return plan;
}

PartitionRun runPlanned(const img::ImageF& filtered, const PartitionPlan& plan,
                        const PipelineParams& params, std::uint64_t seed,
                        const mcmc::RunHooks& hooks) {
  const partition::IRect& rect = plan.rect;
  PartitionRun run;
  run.rect = rect;
  run.relativeArea =
      static_cast<double>(rect.area()) /
      (static_cast<double>(filtered.width()) * filtered.height());
  run.estimatedCount = plan.estimatedCount;

  model::PriorParams prior = params.prior;
  prior.expectedCount = plan.expectedCount;

  const img::ImageF crop = filtered.crop(rect.x0, rect.y0, rect.w, rect.h);
  model::ModelState state(crop, prior, params.likelihood, rect.x0, rect.y0);

  rng::Stream stream(seed);
  state.initialiseRandom(
      static_cast<std::size_t>(std::llround(prior.expectedCount)), stream);

  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy(params.moves);

  const std::uint64_t traceEvery = std::max<std::uint64_t>(
      1, plan.iterations / std::max<std::size_t>(params.tracePoints, 2));

  mcmc::Sampler sampler(state, registry, stream);
  const par::WallTimer timer;
  run.iterations = sampler.run(plan.iterations, traceEvery, hooks);
  run.seconds = timer.seconds();
  run.timePerIteration =
      run.seconds / static_cast<double>(std::max<std::uint64_t>(run.iterations, 1));

  if (const auto plateau =
          mcmc::iterationsToPlateau(sampler.diagnostics().trace())) {
    run.itersToConverge = plateau->iteration;
    run.runtimeToConverge =
        static_cast<double>(plateau->iteration) * run.timePerIteration;
  } else {
    run.runtimeToConverge = run.seconds;
  }

  run.circles = state.config().snapshot();
  run.finalLogPosterior = state.logPosterior();
  run.diagnostics = sampler.diagnostics();
  return run;
}

/// The partition executor both pipelines share (see pipeline.hpp): partition
/// i samples rects[i] with seed `params.seed + seedStride * (i + 1)`. Runs
/// land in `report.partitions` in index order; the returned per-index circle
/// lists stay empty for partitions a cancellation kept from starting.
std::vector<std::vector<model::Circle>> runPartitions(
    const img::ImageF& filtered, const std::vector<partition::IRect>& rects,
    const PipelineParams& params, std::uint64_t seedStride,
    const mcmc::RunHooks& hooks, par::ThreadPool* pool,
    PipelineReport& report) {
  const std::size_t n = rects.size();
  std::vector<PartitionPlan> plans;
  std::vector<double> budgets;
  plans.reserve(n);
  budgets.reserve(n);
  for (const partition::IRect& rect : rects) {
    plans.push_back(planPartition(filtered, rect, params));
    budgets.push_back(static_cast<double>(plans.back().iterations));
  }
  const std::vector<std::size_t> order = par::lptOrder(budgets);

  // Concurrent partitions share the caller's hooks: one mutex serialises
  // them, so no callback ever runs concurrently with another.
  std::mutex hookMutex;
  const auto serialised = [&hookMutex](auto& wrapped, const auto& callback) {
    if (!callback) return;
    wrapped = [&hookMutex, &callback](const auto&... args) {
      const std::lock_guard lock(hookMutex);
      return callback(args...);
    };
  };
  mcmc::RunHooks shared;
  serialised(shared.onTrace, hooks.onTrace);
  serialised(shared.cancelRequested, hooks.cancelRequested);

  // Progress runs on one monotone scale: iterations done, summed over the
  // partitions, of the summed planned iterations. Each partition sampler's
  // beat moves its own share; a finished partition beats once more as
  // "partition". Sums are taken and delivered under the hook mutex, so the
  // beats arrive in order.
  std::uint64_t planned = 0;
  for (const PartitionPlan& plan : plans) planned += plan.iterations;
  std::vector<std::uint64_t> doneOf(n, 0);
  std::uint64_t done = 0;

  std::vector<std::optional<PartitionRun>> slots(n);
  const auto body = [&](std::size_t k) {
    const std::size_t i = order[k];
    if (shared.cancelled()) return;
    mcmc::RunHooks own = shared;
    if (hooks.onProgress) {
      own.onProgress = [&, i](const mcmc::RunProgress& p) {
        const std::lock_guard lock(hookMutex);
        done += p.done - doneOf[i];
        doneOf[i] = p.done;
        hooks.progress(done, planned, p.phase);
      };
    }
    slots[i] = runPlanned(filtered, plans[i], params,
                          params.seed + seedStride * (i + 1), own);
    const std::lock_guard lock(hookMutex);
    hooks.progress(done, planned, "partition");
  };
  par::forEachIndex(pool, n, body);
  // Cancellation is sticky, so one poll also catches a run that truncated
  // the last partition's sampler.
  report.cancelled = shared.cancelled();

  std::vector<std::vector<model::Circle>> perPartition(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots[i]) continue;
    perPartition[i] = slots[i]->circles;
    report.partitions.push_back(std::move(*slots[i]));
  }
  return perPartition;
}

}  // namespace

PartitionRun runPartitionMcmc(const img::ImageF& filtered,
                              const partition::IRect& rect,
                              const PipelineParams& params, std::uint64_t seed,
                              const mcmc::RunHooks& hooks) {
  return runPlanned(filtered, planPartition(filtered, rect, params), params,
                    seed, hooks);
}

PartitionRun runWholeImage(const img::ImageF& filtered,
                           const PipelineParams& params) {
  return runPartitionMcmc(
      filtered, partition::IRect{0, 0, filtered.width(), filtered.height()},
      params, params.seed);
}

PipelineReport runIntelligentPipeline(const img::ImageF& filtered,
                                      const PipelineParams& params,
                                      const mcmc::RunHooks& hooks,
                                      par::ThreadPool* pool) {
  PipelineReport report;

  const par::WallTimer cutTimer;
  const auto cuts = partition::intelligentPartition(filtered, params.intelligent);
  report.partitionerSeconds = cutTimer.seconds();

  const auto perPartition = runPartitions(filtered, cuts.partitions, params,
                                          101, hooks, pool, report);

  // Intelligent cuts cross no artifact, so recombination is concatenation.
  const par::WallTimer mergeTimer;
  for (const auto& circles : perPartition) {
    report.merged.insert(report.merged.end(), circles.begin(), circles.end());
  }
  report.mergeSeconds = mergeTimer.seconds();

  finaliseRuntimes(report, params.loadBalancedThreads);
  return report;
}

PipelineReport runBlindPipeline(const img::ImageF& filtered,
                                const PipelineParams& params,
                                const mcmc::RunHooks& hooks,
                                par::ThreadPool* pool) {
  PipelineReport report;

  partition::BlindParams blind = params.blind;
  if (blind.overlapMargin <= 0.0) {
    blind.overlapMargin = 1.1 * params.prior.radiusMean;  // the §IX choice
  }
  const par::WallTimer setupTimer;
  const auto parts =
      partition::makeBlindPartitions(filtered.width(), filtered.height(), blind);
  report.partitionerSeconds = setupTimer.seconds();

  // MCMC sees the expanded rectangle so boundary artifacts can be fully
  // examined (fig. 4 top-left).
  std::vector<partition::IRect> expanded;
  expanded.reserve(parts.size());
  for (const auto& part : parts) expanded.push_back(part.expanded);
  // A cancelled run leaves empty lists for partitions never started, which
  // the merge treats as partitions that found nothing.
  const auto perPartition =
      runPartitions(filtered, expanded, params, 211, hooks, pool, report);

  const par::WallTimer mergeTimer;
  report.merged =
      partition::mergeBlindResults(parts, perPartition, blind, &report.mergeStats);
  report.mergeSeconds = mergeTimer.seconds();

  finaliseRuntimes(report, params.loadBalancedThreads);
  return report;
}

}  // namespace mcmcpar::core
