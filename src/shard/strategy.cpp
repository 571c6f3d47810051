// The "sharded" strategy: a coordinator that decomposes one Problem image
// into K x L overlapping tiles (shard/tiling), writes each tile as one job
// line, runs the lines through a tile executor (shard/fleet: in process
// under the shared PoolBudget, or on a fleet of mcmcpar_serve endpoints)
// and stitches the per-tile results back into one RunReport
// (shard/stitcher), carrying the tile layout and reconciliation accounting
// as a ShardReport. This is the first subsystem that composes the serving
// layer with itself: a served job whose line carries @shard becomes a
// coordinator fanning out to the very queue that runs it.

#include "shard/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime_predictor.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/concurrency.hpp"
#include "par/virtual_clock.hpp"
#include "partition/prior_estimation.hpp"
#include "shard/endpoints.hpp"
#include "shard/fleet.hpp"
#include "shard/report.hpp"
#include "shard/stitcher.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar::shard {

namespace {

/// Exact round-trip formatting for prior directives: parsing the line
/// recovers the coordinator's double bit-for-bit, so every tile samples
/// under the coordinator's exact prior, in process or on the fleet.
std::string fmtExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

class ShardStrategy final : public engine::Strategy {
 public:
  ShardStrategy(std::string name, const engine::StrategyRegistry* registry,
                const engine::ExecResources& resources,
                const engine::OptionMap& options)
      : name_(std::move(name)) {
    execution_.registry = registry;
    execution_.resources = resources;
    const std::string tiles = options.str("tiles", "2x2");
    if (tiles == "auto") {
      // Predictor-driven decomposition: the grid is chosen per image from
      // its content-density scan instead of a fixed KxL.
      autoTiles_ = true;
    } else {
      try {
        parseTileCount(tiles, gridX_, gridY_);
      } catch (const std::invalid_argument& e) {
        throw error(e.what());
      }
    }
    maxTiles_ = static_cast<int>(bounded(options, "max-tiles", 0, 0, 4096));
    minTileSize_ =
        static_cast<int>(bounded(options, "min-tile-size", 32, 1, 1000000));
    // No real image axis approaches the halo bound, and makeTileGrid clamps
    // to the image anyway; bounding it keeps the int cast from wrapping.
    halo_ = static_cast<int>(bounded(options, "halo", 16, 0, 1000000));
    // Tile budgets become @iters directives, so they are held to @iters'
    // bounds here rather than failing as tile jobs at run time.
    tileIters_ =
        bounded(options, "tile-iters", 0, 0, engine::kMaxJobIterations);
    minTileIters_ =
        bounded(options, "min-tile-iters", 2000, 1, engine::kMaxJobIterations);
    execution_.hedgeFactor = options.dbl("hedge-factor", 0.0);
    if (execution_.hedgeFactor < 0.0) {
      throw error("hedge-factor must be >= 0 (0 disables hedging)");
    }
    stitch_.iouThreshold = options.dbl("iou", 0.3);
    execution_.timeoutSeconds = options.dbl("timeout", 600.0);

    const std::string backend = options.str("backend", "local");
    if (backend == "local") {
      socketBackend_ = false;
    } else if (backend == "socket") {
      socketBackend_ = true;
    } else {
      throw error("backend must be 'local' or 'socket', got '" + backend +
                  "'");
    }
    std::vector<Endpoint>& endpoints = execution_.endpoints;
    try {
      endpoints = parseEndpointList(options.str("endpoints", ""));
      const std::string endpointsFile = options.str("endpoints-file", "");
      if (!endpointsFile.empty()) {
        std::vector<Endpoint> fromFile = loadEndpointsFile(endpointsFile);
        endpoints.insert(endpoints.end(),
                          std::make_move_iterator(fromFile.begin()),
                          std::make_move_iterator(fromFile.end()));
      }
    } catch (const engine::EngineError& e) {
      throw error(e.what());
    }
    if (socketBackend_ && endpoints.empty()) {
      throw error(
          "backend=socket requires endpoints=host:port[*weight][,...] or "
          "endpoints-file=PATH");
    }

    inner_ = engine::innerStrategy(*registry, name_, options);
    options.requireConsumed(name_);
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }

  void prepare(const engine::Problem& problem) override {
    if (problem.filtered == nullptr) {
      throw error("Problem.filtered image is null");
    }
    problem_ = problem;
    prior_ = problem.prior;
    // Whole-image count estimate: only used to score the *merged* model, so
    // the reported logPosterior is comparable with an unsharded run of the
    // same problem. Tiles re-estimate on their own crops.
    if (problem.estimateCount) {
      const auto estimate = partition::estimateCount(
          *problem.filtered, problem.theta, prior_.radiusMean);
      prior_.expectedCount = std::max(estimate.expectedCount, 0.5);
    }
    prepared_ = true;
  }

  [[nodiscard]] engine::RunReport run(
      const engine::RunBudget& budget,
      const engine::RunHooks& hooks) override {
    if (!prepared_) throw error("run() called before prepare()");
    const img::ImageF& image = *problem_.filtered;
    // Content-density scan: one cheap pass over coarse blocks feeds the §IX
    // runtime predictor with per-region activity, which drives adaptive
    // grids, workload-proportional budgets and the hedging reference.
    const DensityMap density = scanDensity(image);
    TileGrid grid;
    try {
      grid = autoTiles_
                 ? makeAdaptiveTileGrid(
                       density, resolveAutoMaxTiles(), halo_, minTileSize_,
                       core::defaultCostCalibration().densityWeight)
                 : makeTileGrid(image.width(), image.height(), gridX_,
                                gridY_, halo_);
    } catch (const std::invalid_argument& e) {
      throw error(e.what());
    }

    const par::WallTimer timer;
    obs::Span runSpan("shard", "shard-run");
    runSpan.arg("backend", socketBackend_ ? "socket" : "local");
    runSpan.arg("tiles", std::to_string(grid.tiles.size()));
    TileResults results = runTiles(grid, density, budget, hooks);

    if (const std::size_t failures = results.report.tileFailures()) {
      // A missing tile is a missing image region: the merged model would
      // silently under-count, so a failed tile fails the shard run.
      std::size_t first = 0;
      while (results.report.tiles[first].error.empty()) ++first;
      throw error(std::to_string(failures) + " tile job(s) failed; first: " +
                  tileLabel(grid.tiles[first]) + ": " +
                  results.report.tiles[first].error);
    }

    return mergeOutcomes(grid, std::move(results), timer);
  }

 private:
  [[nodiscard]] engine::EngineError error(const std::string& what) const {
    return engine::EngineError("strategy '" + name_ + "': " + what);
  }

  /// An integer option held to [lo, hi] when the strategy is created, so a
  /// bad value fails at admission, not on a worker mid-run.
  [[nodiscard]] std::uint64_t bounded(const engine::OptionMap& options,
                                      const std::string& key,
                                      std::uint64_t fallback, std::uint64_t lo,
                                      std::uint64_t hi) const {
    const std::uint64_t value = options.u64(key, fallback);
    if (value < lo || value > hi) {
      throw error(key + " must be in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "], got " + std::to_string(value));
    }
    return value;
  }

  /// Write every tile's job line and crop, and run them on the backend.
  /// The crops are freed on return, before the merge builds its
  /// whole-image model, so the two never add up in memory.
  [[nodiscard]] TileResults runTiles(const TileGrid& grid,
                                     const DensityMap& density,
                                     const engine::RunBudget& budget,
                                     const engine::RunHooks& hooks) const {
    const std::vector<std::uint64_t> budgets =
        tileBudgets(grid, budget, density);
    // Crops are float32 copies of the coordinator's pixels: on the fleet
    // they travel as binary frames, so no filesystem is shared and no
    // 8-bit quantisation happens.
    std::vector<TileTask> tasks;
    tasks.reserve(grid.tiles.size());
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const partition::IRect& halo = grid.tiles[i].halo;
      tasks.push_back(TileTask{
          tileJobLine(grid, i, budgets[i], budget),
          std::make_shared<const img::ImageF>(
              problem_.filtered->crop(halo.x0, halo.y0, halo.w, halo.h)),
          core::predictCostSeconds(
              budgets[i], regionMeanActivity(density, grid.tiles[i].core))});
    }
    const auto execute = socketBackend_ ? runTilesOnFleet : runTilesInProcess;
    try {
      return execute(tasks, execution_, hooks);
    } catch (const engine::EngineError& e) {
      throw error(e.what());
    }
  }

  [[nodiscard]] static std::string tileLabel(const TileSpec& tile) {
    return "tile-" + std::to_string(tile.ix) + "x" + std::to_string(tile.iy);
  }

  /// The tile cap for tiles=auto when max-tiles is not given: aim for a
  /// couple of tiles per worker (endpoint or core) so the decomposition
  /// has slack to load-balance, bounded to a sane range.
  [[nodiscard]] int resolveAutoMaxTiles() const {
    if (maxTiles_ != 0) return maxTiles_;
    const unsigned workers =
        socketBackend_
            ? static_cast<unsigned>(execution_.endpoints.size()) * 2u
            : par::resolveThreadCount(execution_.resources.threads);
    return static_cast<int>(std::clamp(workers, 2u, 64u));
  }

  /// Split the whole-image iteration budget across tiles proportional to
  /// each core's predicted workload — area plus density-weighted content
  /// (shard/tiling regionWorkload) — so busy regions get the sampling
  /// effort the §IX predictor says they need (a uniform image degenerates
  /// to the old area-proportional split). A floor keeps sparse tiles from
  /// starving; tile-iters=N overrides with a flat count.
  [[nodiscard]] std::vector<std::uint64_t> tileBudgets(
      const TileGrid& grid, const engine::RunBudget& budget,
      const DensityMap& density) const {
    std::vector<std::uint64_t> budgets;
    budgets.reserve(grid.tiles.size());
    if (tileIters_ != 0) {
      budgets.assign(grid.tiles.size(), tileIters_);
      return budgets;
    }
    const double densityWeight = core::defaultCostCalibration().densityWeight;
    std::vector<double> work;
    work.reserve(grid.tiles.size());
    double totalWork = 0.0;
    for (const TileSpec& tile : grid.tiles) {
      const double w =
          regionWorkload(density, tile.core, densityWeight);
      work.push_back(w);
      totalWork += w;
    }
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const double share =
          totalWork > 0.0
              ? work[i] / totalWork
              : 1.0 / static_cast<double>(grid.tiles.size());
      const auto scaled = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(budget.iterations) * share));
      budgets.push_back(std::max(scaled, minTileIters_));
    }
    return budgets;
  }

  /// The job line for tile `i`, the one definition of what a tile solves
  /// on either backend: its crop (the image token, an @image=inline upload
  /// on the fleet), the inner strategy and options, its budget and seed,
  /// and the coordinator's exact prior (%.17g round-trips every double
  /// bit-for-bit). Likelihood, moves, theta and the overlap penalty are the
  /// job-line defaults.
  [[nodiscard]] std::string tileJobLine(const TileGrid& grid, std::size_t i,
                                        std::uint64_t iters,
                                        const engine::RunBudget& budget)
      const {
    const TileSpec& tile = grid.tiles[i];
    std::string line =
        tileLabel(tile) + " " + inner_.name +
        " @image=inline @iters=" + std::to_string(iters) + " @seed=" +
        std::to_string(engine::deriveJobSeed(execution_.resources.seed, i)) +
        " @label=" + tileLabel(tile) +
        " @radius=" + fmtExact(problem_.prior.radiusMean) +
        " @radius-std=" + fmtExact(problem_.prior.radiusStd) +
        " @radius-min=" + fmtExact(problem_.prior.radiusMin) +
        " @radius-max=" + fmtExact(problem_.prior.radiusMax);
    if (!problem_.estimateCount) {
      // A caller-fixed whole-image count is split by the tile's share of
      // the image area; copied verbatim, every tile would expect all of
      // the image's circles. Estimated counts are re-estimated per crop.
      const double share =
          static_cast<double>(tile.core.area()) /
          static_cast<double>(problem_.filtered->pixelCount());
      line += " @count=" +
              fmtExact(std::max(problem_.prior.expectedCount * share, 0.5));
    }
    if (budget.traceInterval != 0) {
      line += " @trace=" + std::to_string(budget.traceInterval);
    }
    for (const std::string& option : inner_.options) line += " " + option;
    return line;
  }

  // ---- stitch + aggregate ----

  [[nodiscard]] engine::RunReport mergeOutcomes(
      const TileGrid& grid, TileResults results,
      const par::WallTimer& timer) const {
    const par::WallTimer mergeTimer;
    obs::Span stitchSpan("shard", "stitch");
    stitchSpan.arg("tiles", std::to_string(grid.tiles.size()));

    // Translate crop-local detections into full-image coordinates.
    std::vector<std::vector<model::Circle>> perTile(grid.tiles.size());
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const partition::IRect& halo = grid.tiles[i].halo;
      perTile[i].reserve(results.circles[i].size());
      for (const model::Circle& c : results.circles[i]) {
        perTile[i].push_back(
            model::Circle{c.x + halo.x0, c.y + halo.y0, c.r});
      }
    }
    const StitchResult stitched = stitchCircles(grid, perTile, stitch_);

    ShardReport shardReport = std::move(results.report);
    shardReport.gridX = grid.gridX;
    shardReport.gridY = grid.gridY;
    shardReport.halo = grid.halo;
    shardReport.adaptive = grid.adaptive;
    shardReport.backend = socketBackend_ ? "socket" : "local";
    shardReport.innerStrategy = inner_.name;
    shardReport.haloDropped = stitched.haloDropped;
    shardReport.duplicatesRemoved = stitched.duplicatesRemoved;

    engine::RunReport report;
    report.strategy = name_;
    bool cancelled = false;
    double weightedAcceptance = 0.0;
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      TileRun& tile = shardReport.tiles[i];
      tile.spec = grid.tiles[i];
      tile.label = tileLabel(grid.tiles[i]);
      tile.circlesFound = perTile[i].size();
      tile.circlesKept = stitched.keptPerTile[i];

      report.iterations += tile.iterations;
      weightedAcceptance +=
          tile.acceptanceRate * static_cast<double>(tile.iterations);
      // The inner report's own flag is authoritative: pipeline strategies
      // report iteration counts unrelated to the budget, so inferring
      // cancellation from a shortfall would mis-flag completed runs.
      cancelled = cancelled || tile.cancelled;
      report.diagnostics.merge(tile.diagnostics);
      // Like the §IX pipelines: the shard converges when its slowest tile
      // does (local backend only; remote reports carry no trace).
      if (results.itersToConverge[i]) {
        report.iterationsToConverge =
            std::max(report.iterationsToConverge.value_or(0),
                     *results.itersToConverge[i]);
      }
      shardReport.maxTileSeconds =
          std::max(shardReport.maxTileSeconds, tile.wallSeconds);
      shardReport.sumTileSeconds += tile.wallSeconds;
    }

    report.cancelled = cancelled;
    report.acceptanceRate =
        report.iterations == 0
            ? 0.0
            : weightedAcceptance / static_cast<double>(report.iterations);
    report.circles = stitched.circles;
    report.logPosterior =
        engine::mergedLogPosterior(problem_, prior_, stitched.circles);
    report.threadsUsed =
        socketBackend_ ? static_cast<unsigned>(execution_.endpoints.size())
                       : par::resolveThreadCount(execution_.resources.threads);

    shardReport.mergeSeconds = mergeTimer.seconds();
    obs::Registry::global()
        .histogram("mcmcpar_shard_stitch_seconds",
                   "Coordinate translation + IoU stitch + report assembly "
                   "per run; _sum is the run's recombination share.",
                   obs::latencyBuckets())
        .observe(shardReport.mergeSeconds);
    report.wallSeconds = timer.seconds();
    report.extras = std::move(shardReport);
    return report;
  }

  std::string name_;
  TileExecution execution_;  ///< registry, resources, fleet, hedging
  int gridX_ = 2;
  int gridY_ = 2;
  bool autoTiles_ = false;  ///< tiles=auto: density-driven adaptive grid
  int maxTiles_ = 0;        ///< max-tiles option; 0 = derive from workers
  int minTileSize_ = 32;    ///< min-tile-size option (adaptive grids only)
  int halo_ = 16;
  std::uint64_t tileIters_ = 0;
  std::uint64_t minTileIters_ = 2000;
  StitchOptions stitch_;
  bool socketBackend_ = false;
  engine::InnerStrategy inner_;
  engine::Problem problem_;
  model::PriorParams prior_;
  bool prepared_ = false;
};

}  // namespace

void registerShardedStrategy(engine::StrategyRegistry& registry) {
  const engine::StrategyRegistry* reg = &registry;
  registry.add(
      {"sharded", "§VIII-IX + serving",
       "shard coordinator: tile + halo fan-out, IoU-stitched merge",
       "ShardReport",
       "tiles=KxL|auto max-tiles=N min-tile-size=N halo=N hedge-factor=X "
       "backend=local|socket endpoints=host:port[*W],... "
       "endpoints-file=PATH strategy=NAME inner.K=V tile-iters=N "
       "min-tile-iters=N iou=X timeout=X",
       [reg](const engine::ExecResources& res,
             const engine::OptionMap& opts) {
         return std::make_unique<ShardStrategy>("sharded", reg, res, opts);
       }});
}

}  // namespace mcmcpar::shard
