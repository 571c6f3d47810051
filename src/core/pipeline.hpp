#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "img/image.hpp"
#include "mcmc/diagnostics.hpp"
#include "mcmc/move_registry.hpp"
#include "mcmc/run_hooks.hpp"
#include "model/posterior.hpp"
#include "partition/blind.hpp"
#include "partition/intelligent.hpp"

namespace mcmcpar::par {
class ThreadPool;
}  // namespace mcmcpar::par

namespace mcmcpar::core {

/// Parameters shared by the image-partitioning pipelines (§VIII): the model
/// (prior/likelihood/moves), the eq. 5 threshold, and the iteration budget
/// rule. Per-partition expected counts are always re-estimated from the
/// partition's own pixels (the paper's recommended mechanism).
struct PipelineParams {
  model::PriorParams prior;
  model::LikelihoodParams likelihood;
  mcmc::MoveSetParams moves;

  float theta = 0.5f;  ///< eq. 5 threshold

  /// Iteration budget for a (sub)image: base + perCircle * estimatedCount.
  /// Partitions with fewer artifacts and less area converge in fewer
  /// iterations — this is where the §VIII speedup comes from.
  std::uint64_t iterationsBase = 2000;
  std::uint64_t iterationsPerCircle = 600;

  /// Hard ceiling on any single (sub)image budget (0 = none); lets a caller
  /// bound pipeline cost with one knob regardless of estimated counts.
  std::uint64_t iterationsCap = 0;

  /// Processor count for the LPT load-balanced runtime model (§IX).
  unsigned loadBalancedThreads = 2;

  /// Trace cadence for convergence detection (points per run).
  std::size_t tracePoints = 200;

  std::uint64_t seed = 1;

  partition::IntelligentParams intelligent;
  partition::BlindParams blind;
};

/// Outcome of MCMC on one partition (one row of Table I).
struct PartitionRun {
  partition::IRect rect;            ///< region handed to MCMC
  double relativeArea = 0.0;        ///< rect area / image area
  double estimatedCount = 0.0;      ///< eq. 5 on this rect
  double uniformShareCount = 0.0;   ///< naive area-proportional share
  std::uint64_t iterations = 0;
  double seconds = 0.0;             ///< measured sampling time
  double timePerIteration = 0.0;
  std::optional<std::uint64_t> itersToConverge;
  double runtimeToConverge = 0.0;   ///< itersToConverge * timePerIteration
  std::vector<model::Circle> circles;  ///< final model, global coordinates
  double finalLogPosterior = 0.0;
  mcmc::Diagnostics diagnostics;    ///< per-partition move stats + trace
};

/// End-to-end result of a partitioning pipeline.
struct PipelineReport {
  std::vector<PartitionRun> partitions;
  std::vector<model::Circle> merged;    ///< recombined whole-image model
  partition::BlindMergeStats mergeStats;  ///< blind only
  double partitionerSeconds = 0.0;  ///< pre-processor time (cuts/estimates)
  double mergeSeconds = 0.0;        ///< recombination time
  /// Wall time if every partition ran on its own processor: the longest
  /// single-partition runtime (§IX: "the longest time taken to process any
  /// of the partitions") plus partitioner and merge costs.
  double parallelRuntime = 0.0;
  /// Wall time with `loadBalancedThreads` processors and LPT scheduling.
  /// Like parallelRuntime this is the §IX *model*, built from each
  /// partition's time-to-plateau, not the measured wall time of the run.
  double loadBalancedRuntime = 0.0;
  unsigned loadBalancedThreads = 2;
  bool cancelled = false;           ///< stopped early via RunHooks
};

/// Run MCMC on one rectangular (sub)image with a re-estimated count prior;
/// the building block of both pipelines and of the whole-image baseline.
[[nodiscard]] PartitionRun runPartitionMcmc(const img::ImageF& filtered,
                                            const partition::IRect& rect,
                                            const PipelineParams& params,
                                            std::uint64_t seed,
                                            const mcmc::RunHooks& hooks = {});

/// Whole-image baseline (the Table I "whole" column).
[[nodiscard]] PartitionRun runWholeImage(const img::ImageF& filtered,
                                         const PipelineParams& params);

/// Both pipelines run their partitions through one executor. Each
/// partition's budget (base + perCircle * eq. 5 estimate, capped) is known
/// up front, and partitions are dispatched longest budget first (LPT, §IX's
/// task scheduler): on `pool` plus the calling thread when a pool is given,
/// else one after another on the calling thread. Partition i always runs
/// with the same seed and lands in report slot i, so circles, per-partition
/// runs and `merged` are bit-identical whatever the thread count. Hook
/// callbacks from concurrent partitions are serialised. Cancellation is
/// polled before each partition (and inside each partition's sampler);
/// partitions that had started stay in the report, in index order.

/// Intelligent partitioning (§VIII-IX): threshold-scan pre-processor cuts
/// the image along empty rows/columns, each partition runs independent
/// MCMC with its own estimated prior, and results are concatenated
/// (boundaries cross no artifact, so recombination is trivial).
[[nodiscard]] PipelineReport runIntelligentPipeline(
    const img::ImageF& filtered, const PipelineParams& params,
    const mcmc::RunHooks& hooks = {}, par::ThreadPool* pool = nullptr);

/// Blind partitioning (§VIII-IX): a simple grid with overlap margin, MCMC
/// on each expanded partition, heuristic merge (fig. 4).
[[nodiscard]] PipelineReport runBlindPipeline(const img::ImageF& filtered,
                                              const PipelineParams& params,
                                              const mcmc::RunHooks& hooks = {},
                                              par::ThreadPool* pool = nullptr);

}  // namespace mcmcpar::core
