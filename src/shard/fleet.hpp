#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "shard/endpoints.hpp"
#include "shard/report.hpp"

namespace mcmcpar::engine {
class StrategyRegistry;
}  // namespace mcmcpar::engine

/// The shard coordinator's two tile executors, one signature: the same
/// tasks in, the same results out. A tile's job line is the only definition
/// of what it solves, so it gives the same result wherever it runs. Both
/// throw engine::EngineError for a line that does not parse; a tile that
/// fails while running reports it in its row's `error`.
namespace mcmcpar::shard {

/// One tile job.
struct TileTask {
  /// The tile's job line (engine::parseManifestLine grammar). Its image
  /// token names `crop`; on the fleet, its `@image=inline` upload.
  std::string line;
  std::shared_ptr<const img::ImageF> crop;  ///< the tile's halo crop
  double predictedSeconds = 0.0;  ///< §IX estimate; first hedging reference
};

/// What an executor returns, index-aligned with the tasks: the run's
/// ShardReport as far as an executor knows it — a row per tile and the
/// fleet's requeue, dead-endpoint and hedge counts (zero in process); the
/// coordinator adds the layout and stitch fields — plus each tile's
/// detections in crop-local coordinates and its iterations to convergence.
struct TileResults {
  ShardReport report;
  std::vector<std::vector<model::Circle>> circles;
  std::vector<std::optional<std::uint64_t>> itersToConverge;
};

/// Where tiles run. In process: `registry`, and `resources` (threads, and
/// the PoolBudget tiles share with the coordinator's job). On the fleet:
/// `endpoints`, `hedgeFactor` (shard/hedge.hpp; 0 disables hedging) and
/// the per-reply `timeoutSeconds`.
struct TileExecution {
  const engine::StrategyRegistry* registry = nullptr;
  engine::ExecResources resources;
  std::vector<Endpoint> endpoints;
  double hedgeFactor = 0.0;
  double timeoutSeconds = 600.0;
};

/// Run the tile jobs in this process as one engine::BatchRunner batch,
/// their progress folded into one monotone beat.
[[nodiscard]] TileResults runTilesInProcess(
    const std::vector<TileTask>& tasks, const TileExecution& execution,
    const engine::RunHooks& hooks);

/// Run the tile jobs on the fleet: each crop goes up as a one-shot float32
/// frame and its line is submitted on the same connection, on the weighted
/// least-loaded endpoint that answers PING. A transport failure marks the
/// endpoint dead and requeues the tile; a deterministic rejection fails it
/// and cancels every other flight; a straggler may get one hedge replica
/// on an idle endpoint, and the first result wins. Throws
/// engine::EngineError when no endpoint answers PING.
[[nodiscard]] TileResults runTilesOnFleet(const std::vector<TileTask>& tasks,
                                          const TileExecution& execution,
                                          const engine::RunHooks& hooks);

}  // namespace mcmcpar::shard
