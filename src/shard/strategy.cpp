// The "sharded" strategy: a coordinator that decomposes one Problem image
// into K x L overlapping tiles (shard/tiling), runs each tile as an
// independent job — locally through engine::BatchRunner under the shared
// PoolBudget, or remotely through serve::Client against one or more
// mcmcpar_serve endpoints — and stitches the per-tile results back into one
// RunReport (shard/stitcher), carrying the tile layout and reconciliation
// accounting as a ShardReport. This is the first subsystem that composes
// the serving layer with itself: a served job whose line carries @shard
// becomes a coordinator fanning out to the very queue that runs it.

#include "shard/strategy.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/runtime_predictor.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "model/posterior.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/concurrency.hpp"
#include "par/virtual_clock.hpp"
#include "partition/prior_estimation.hpp"
#include "serve/socket.hpp"
#include "shard/endpoints.hpp"
#include "shard/hedge.hpp"
#include "shard/remote.hpp"
#include "shard/report.hpp"
#include "shard/stitcher.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar::shard {

namespace {

/// Exact round-trip formatting for prior directives: the remote server's
/// strtod recovers the coordinator's double bit-for-bit, so the socket
/// backend samples under the identical prior the local backend would.
std::string fmtExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Shard-layer metric handles. Get-or-create on every call is fine here:
/// these sites fire per tile or per run, never per iteration.
obs::Counter& shardCounter(const char* name, const char* help) {
  return obs::Registry::global().counter(name, help);
}

obs::Histogram& shardSeconds(const char* name, const char* help) {
  return obs::Registry::global().histogram(name, help, obs::latencyBuckets());
}

/// Trace rows for tile flights: the coordinator observes them from a poll
/// loop, not a call stack, so each tile gets its own synthetic timeline row
/// (fan-out and stitch spans stay on the coordinator's real thread row).
constexpr std::int64_t kTileTrackBase = 100;

/// One tile's outcome in coordinator-neutral form, before stitching.
struct TileOutcome {
  std::uint64_t iterations = 0;
  double wallSeconds = 0.0;
  double acceptanceRate = 0.0;
  double logPosterior = 0.0;
  bool cancelled = false;
  std::string error;
  std::vector<model::Circle> circles;  ///< crop-local coordinates
  mcmc::Diagnostics diagnostics;       ///< local backend only
  std::optional<std::uint64_t> itersToConverge;
  std::string endpoint;   ///< socket backend: "host:port" that ran it
  unsigned attempts = 0;  ///< socket backend: submissions incl. requeues
  bool hedged = false;    ///< this result came from a hedge replica
};

class ShardStrategy final : public engine::Strategy {
 public:
  ShardStrategy(std::string name, const engine::StrategyRegistry* registry,
                const engine::ExecResources& resources,
                const engine::OptionMap& options)
      : name_(std::move(name)), registry_(registry), resources_(resources) {
    const std::string tiles = options.str("tiles", "2x2");
    if (tiles == "auto") {
      // Predictor-driven decomposition: the grid is chosen per image from
      // its content-density scan instead of a fixed KxL.
      autoTiles_ = true;
    } else {
      try {
        parseTileCount(tiles, gridX_, gridY_);
      } catch (const std::invalid_argument& e) {
        throw engine::EngineError("strategy '" + name_ + "': " + e.what());
      }
    }
    const std::uint64_t maxTiles = options.u64("max-tiles", 0);
    if (maxTiles > 4096) {
      throw engine::EngineError("strategy '" + name_ +
                                "': max-tiles must be <= 4096, got " +
                                std::to_string(maxTiles));
    }
    maxTiles_ = static_cast<int>(maxTiles);
    const std::uint64_t minTileSize = options.u64("min-tile-size", 32);
    if (minTileSize == 0 || minTileSize > 1000000) {
      throw engine::EngineError(
          "strategy '" + name_ +
          "': min-tile-size must be in [1, 1000000], got " +
          std::to_string(minTileSize));
    }
    minTileSize_ = static_cast<int>(minTileSize);
    hedgeFactor_ = options.dbl("hedge-factor", 0.0);
    if (hedgeFactor_ < 0.0) {
      throw engine::EngineError("strategy '" + name_ +
                                "': hedge-factor must be >= 0 (0 disables "
                                "hedging)");
    }
    // Bound before the int cast so halo=3000000000 is rejected right here
    // at admission with a clear message, not at run time on a worker after
    // the cast wrapped negative. No real image axis approaches the bound,
    // and makeTileGrid clamps to the image anyway.
    const std::uint64_t halo = options.u64("halo", 16);
    if (halo > 1000000) {
      throw engine::EngineError("strategy '" + name_ +
                                "': halo must be <= 1000000 pixels, got " +
                                std::to_string(halo));
    }
    halo_ = static_cast<int>(halo);
    tileIters_ = options.u64("tile-iters", 0);
    minTileIters_ = options.u64("min-tile-iters", 2000);
    stitch_.iouThreshold = options.dbl("iou", 0.3);
    timeoutSeconds_ = options.dbl("timeout", 600.0);

    const std::string backend = options.str("backend", "local");
    if (backend == "local") {
      socketBackend_ = false;
    } else if (backend == "socket") {
      socketBackend_ = true;
    } else {
      throw engine::EngineError("strategy '" + name_ +
                                "': backend must be 'local' or 'socket', "
                                "got '" +
                                backend + "'");
    }
    try {
      endpoints_ = parseEndpointList(options.str("endpoints", ""));
      const std::string endpointsFile = options.str("endpoints-file", "");
      if (!endpointsFile.empty()) {
        std::vector<Endpoint> fromFile = loadEndpointsFile(endpointsFile);
        endpoints_.insert(endpoints_.end(),
                          std::make_move_iterator(fromFile.begin()),
                          std::make_move_iterator(fromFile.end()));
      }
    } catch (const engine::EngineError& e) {
      throw engine::EngineError("strategy '" + name_ + "': " + e.what());
    }
    if (socketBackend_ && endpoints_.empty()) {
      throw engine::EngineError(
          "strategy '" + name_ +
          "': backend=socket requires endpoints=host:port[*weight][,...] "
          "or endpoints-file=PATH");
    }
    pingTimeout_ = options.dbl("ping-timeout", 5.0);
    pingInterval_ = options.dbl("ping-interval", 30.0);

    inner_ = engine::innerStrategy(*registry_, name_, options);
    options.requireConsumed(name_);
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }

  void prepare(const engine::Problem& problem) override {
    if (problem.filtered == nullptr) {
      throw engine::EngineError("strategy '" + name_ +
                                "': Problem.filtered image is null");
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
    if (!prepared_) {
      throw engine::EngineError("strategy '" + name_ +
                                "': run() called before prepare()");
    }
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
      throw engine::EngineError("strategy '" + name_ + "': " + e.what());
    }

    const std::vector<std::uint64_t> budgets =
        tileBudgets(grid, budget, density);
    std::vector<double> predicted;
    predicted.reserve(grid.tiles.size());
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      predicted.push_back(core::predictCostSeconds(
          budgets[i], regionMeanActivity(density, grid.tiles[i].core)));
    }
    const par::WallTimer timer;
    obs::Span runSpan("shard", "shard-run");
    runSpan.arg("backend", socketBackend_ ? "socket" : "local");
    runSpan.arg("tiles", std::to_string(grid.tiles.size()));
    const std::vector<TileOutcome> outcomes =
        socketBackend_ ? runSocket(grid, budgets, predicted, budget, hooks)
                       : runLocal(grid, budgets, budget, hooks);

    std::size_t failures = 0;
    std::string firstError;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].error.empty()) continue;
      ++failures;
      if (firstError.empty()) {
        firstError = tileLabel(grid.tiles[i]) + ": " + outcomes[i].error;
      }
    }
    if (failures > 0) {
      // A missing tile is a missing image region: the merged model would
      // silently under-count, so a failed tile fails the shard run.
      throw engine::EngineError("strategy '" + name_ + "': " +
                                std::to_string(failures) +
                                " tile job(s) failed; first: " + firstError);
    }

    return mergeOutcomes(grid, outcomes, timer);
  }

 private:
  [[nodiscard]] static std::string tileLabel(const TileSpec& tile) {
    return "tile-" + std::to_string(tile.ix) + "x" + std::to_string(tile.iy);
  }

  /// The tile cap for tiles=auto when max-tiles is not given: aim for a
  /// couple of tiles per worker (endpoint or core) so the decomposition
  /// has slack to load-balance, bounded to a sane range.
  [[nodiscard]] int resolveAutoMaxTiles() const {
    if (maxTiles_ != 0) return maxTiles_;
    const unsigned workers =
        socketBackend_ ? static_cast<unsigned>(endpoints_.size()) * 2u
                       : par::resolveThreadCount(resources_.threads);
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

  [[nodiscard]] engine::Problem tileProblem(const img::ImageF& crop,
                                            const TileSpec& tile) const {
    engine::Problem problem = problem_;
    problem.filtered = &crop;
    // Tiles start cold, as remote tiles do: warm-start circles are in
    // whole-image coordinates, and the socket backend never ships them.
    problem.warmStart.clear();
    problem.frames.clear();
    // With estimateCount on, each tile re-estimates its own expected count
    // from its crop (eq. 5). With it off, the caller's fixed whole-image
    // count must be scaled to the tile's area share — copying it verbatim
    // would make every tile expect the whole image's circles.
    if (!problem_.estimateCount) {
      const double share =
          static_cast<double>(tile.core.area()) /
          static_cast<double>(problem_.filtered->pixelCount());
      problem.prior.expectedCount =
          std::max(problem_.prior.expectedCount * share, 0.5);
    }
    return problem;
  }

  // ---- local backend: a BatchRunner fan-out under the shared budget ----

  [[nodiscard]] std::vector<TileOutcome> runLocal(
      const TileGrid& grid, const std::vector<std::uint64_t>& budgets,
      const engine::RunBudget& budget, const engine::RunHooks& hooks) const {
    std::vector<img::ImageF> crops;
    crops.reserve(grid.tiles.size());
    for (const TileSpec& tile : grid.tiles) {
      crops.push_back(problem_.filtered->crop(tile.halo.x0, tile.halo.y0,
                                              tile.halo.w, tile.halo.h));
    }

    std::vector<engine::BatchJob> jobs;
    jobs.reserve(grid.tiles.size());
    std::uint64_t totalIters = 0;
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      engine::BatchJob job;
      job.strategy = inner_.name;
      job.options = inner_.options;
      job.problem = tileProblem(crops[i], grid.tiles[i]);
      job.budget = engine::RunBudget{budgets[i], budget.traceInterval};
      job.label = tileLabel(grid.tiles[i]);
      jobs.push_back(std::move(job));
      totalIters += budgets[i];
    }

    engine::BatchOptions options;
    options.resources = resources_;
    options.resources.poolBudget = nullptr;
    options.sharedBudget = resources_.poolBudget;

    // Per-tile progress folded into one monotone whole-shard beat.
    std::mutex progressMutex;
    std::vector<std::uint64_t> done(jobs.size(), 0);
    engine::BatchHooks batchHooks;
    batchHooks.cancelRequested = hooks.cancelRequested;
    if (hooks.onProgress) {
      batchHooks.onJobProgress = [&](std::size_t index,
                                     const engine::RunProgress& p) {
        // Deliver while still holding the lock: emitting after release
        // would let concurrently computed sums arrive out of order, making
        // the whole-shard beat go backwards.
        const std::scoped_lock lock(progressMutex);
        done[index] = std::min(p.done, budgets[index]);
        std::uint64_t sum = 0;
        for (const std::uint64_t d : done) sum += d;
        hooks.progress(sum, totalIters, "shard");
      };
    }

    const engine::BatchResult result =
        engine::BatchRunner(registry_).run(jobs, options, batchHooks);

    std::vector<TileOutcome> outcomes(grid.tiles.size());
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      TileOutcome& outcome = outcomes[i];
      const engine::RunReport& report = result.reports[i];
      outcome.iterations = report.iterations;
      outcome.wallSeconds = report.wallSeconds;
      outcome.acceptanceRate = report.acceptanceRate;
      outcome.logPosterior = report.logPosterior;
      outcome.cancelled = report.cancelled;
      outcome.error = result.batch.errors[i];
      outcome.circles = report.circles;
      outcome.diagnostics = report.diagnostics;
      outcome.itersToConverge = report.iterationsToConverge;
    }
    return outcomes;
  }

  // ---- socket backend: serve::Client fan-out over an endpoint fleet ----

  /// The job line for tile `i`: an @image=inline reference to the one-shot
  /// upload that precedes it, plus the coordinator's exact prior (%.17g
  /// round-trips every double bit-for-bit), so the remote tile runs the
  /// identical problem the local backend would build in tileProblem().
  [[nodiscard]] std::string tileJobLine(const TileGrid& grid, std::size_t i,
                                        std::uint64_t iters,
                                        const engine::RunBudget& budget)
      const {
    const TileSpec& tile = grid.tiles[i];
    std::string line =
        tileLabel(tile) + " " + inner_.name +
        " @image=inline @iters=" + std::to_string(iters) + " @seed=" +
        std::to_string(engine::deriveJobSeed(resources_.seed, i)) +
        " @label=" + tileLabel(tile) +
        " @radius=" + fmtExact(problem_.prior.radiusMean) +
        " @radius-std=" + fmtExact(problem_.prior.radiusStd) +
        " @radius-min=" + fmtExact(problem_.prior.radiusMin) +
        " @radius-max=" + fmtExact(problem_.prior.radiusMax);
    if (!problem_.estimateCount) {
      // Mirror tileProblem's area-share scaling of a caller-fixed count.
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

  [[nodiscard]] std::vector<TileOutcome> runSocket(
      const TileGrid& grid, const std::vector<std::uint64_t>& budgets,
      const std::vector<double>& predicted, const engine::RunBudget& budget,
      const engine::RunHooks& hooks) {
    requeues_ = 0;
    endpointsDead_ = 0;
    hedgesIssued_ = 0;
    hedgesWon_ = 0;

    obs::Span fanoutSpan("shard", "fanout");
    fanoutSpan.arg("tiles", std::to_string(grid.tiles.size()));
    fanoutSpan.arg("endpoints", std::to_string(endpoints_.size()));

    // Tile crops travel as float32 binary frames inside the protocol — no
    // temp files, no shared filesystem, no 8-bit quantisation: the remote
    // tile sees the coordinator's pixels bit-for-bit.
    std::vector<img::ImageF> crops;
    crops.reserve(grid.tiles.size());
    for (const TileSpec& tile : grid.tiles) {
      crops.push_back(problem_.filtered->crop(tile.halo.x0, tile.halo.y0,
                                              tile.halo.w, tile.halo.h));
    }

    EndpointPool pool(endpoints_, pingTimeout_, pingInterval_);
    if (pool.checkAll() == 0) {
      throw engine::EngineError(
          "strategy '" + name_ + "': no endpoint answered PING (fleet: " +
          formatEndpointList(endpoints_) + ")");
    }

    // One replica of a tile on one endpoint. A tile has a primary flight
    // and, when the hedging policy fires, at most one hedge flight running
    // the bit-identical job line; whichever reaches a terminal state first
    // resolves the tile. Flights are polled with STATUS (no blocking WAIT),
    // so the coordinator connection stays available for CANCEL.
    struct Flight {
      serve::Client client;
      std::size_t endpoint = 0;  ///< pool index currently running the tile
      std::uint64_t jobId = 0;
      bool active = false;
      std::chrono::steady_clock::time_point started{};
    };
    struct TileState {
      Flight primary;
      Flight hedge;
      std::vector<char> tried;  ///< pool indices already tried for the
                                ///< current placement round
      bool hedged = false;      ///< a hedge replica was ever issued
      bool resolved = false;
    };
    const std::size_t n = grid.tiles.size();
    std::vector<TileOutcome> outcomes(n);
    std::vector<TileState> tiles(n);
    for (TileState& tile : tiles) tile.tried.assign(pool.size(), 0);

    const auto elapsedSeconds = [](const Flight& flight) {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - flight.started)
          .count();
    };

    // Per-iteration cost observed on resolved, successful tiles; its
    // median scaled by a tile's budget is the hedging reference once real
    // measurements exist (shard/hedge.hpp prefers it over the prediction).
    std::vector<double> observedPerIter;
    const auto observedMedianSeconds = [&](std::size_t i) -> double {
      if (observedPerIter.empty() || budgets[i] == 0) return 0.0;
      std::vector<double> sorted = observedPerIter;
      std::sort(sorted.begin(), sorted.end());
      return sorted[sorted.size() / 2] * static_cast<double>(budgets[i]);
    };

    std::size_t tilesDone = 0;
    bool doomed = false;
    const auto markResolved = [&](std::size_t i) {
      tiles[i].resolved = true;
      ++tilesDone;
      hooks.progress(tilesDone, n, "shard");
      if (!doomed && !outcomes[i].error.empty()) doomed = true;
    };

    // Place tile i on the least-loaded surviving endpoint it has not tried
    // this round: upload the crop one-shot, submit @image=inline on the
    // same connection. Transport failures mark the endpoint dead; ERR
    // QUEUE_FULL / SHUTTING_DOWN skip it without marking. Returns false
    // (outcome.error set) on a deterministic rejection or when no endpoint
    // remains.
    const auto submitTile = [&](std::size_t i) -> bool {
      TileOutcome& outcome = outcomes[i];
      Flight& flight = tiles[i].primary;
      flight.active = false;
      while (true) {
        pool.refresh();
        const std::optional<std::size_t> picked =
            pool.pick(tiles[i].tried);
        if (!picked) {
          outcome.error =
              "no usable endpoint left (fleet: " +
              formatEndpointList(endpoints_) + ", " +
              std::to_string(pool.deadCount()) + " marked dead)";
          return false;
        }
        flight.endpoint = *picked;
        tiles[i].tried[*picked] = 1;
        const Endpoint& endpoint = pool.endpoint(*picked);
        ++outcome.attempts;
        const auto submitStart = std::chrono::steady_clock::now();
        try {
          flight.client.connect(endpoint.host, endpoint.port,
                                timeoutSeconds_);
          (void)flight.client.upload(tileLabel(grid.tiles[i]), crops[i],
                                     /*oneshot=*/true);
          flight.jobId = flight.client.submit(
              tileJobLine(grid, i, budgets[i], budget));
          flight.active = true;
          flight.started = std::chrono::steady_clock::now();
          outcome.endpoint = endpoint.label();
          shardSeconds("mcmcpar_shard_network_seconds",
                       "Coordinator-side transfer time (tile upload+submit, "
                       "report fetch); _sum is the run's network share.")
              .observe(std::chrono::duration<double>(flight.started -
                                                     submitStart)
                           .count());
          return true;
        } catch (const std::exception& e) {
          flight.client.close();
          pool.release(*picked);
          const remote::FailureKind kind = remote::classifyFailure(e.what());
          if (kind == remote::FailureKind::Fatal) {
            outcome.error = e.what();
            return false;
          }
          if (kind == remote::FailureKind::EndpointDown) {
            pool.markDead(*picked);
            shardCounter("mcmcpar_shard_endpoints_marked_dead_total",
                         "Endpoints removed from a fan-out after a "
                         "transport failure.")
                .add();
          }
          ++requeues_;
          shardCounter("mcmcpar_shard_requeues_total",
                       "Tile re-submissions after an endpoint failure.")
              .add();
        }
      }
    };

    // Issue a hedge replica of tile i on an idle endpoint. Strictly
    // best-effort and non-destructive: the identical job line goes out (so
    // the result is bit-identical to the primary's), and any failure just
    // leaves the primary standing — a hedge must never doom a healthy run.
    const auto submitHedge = [&](std::size_t i) -> bool {
      TileState& tile = tiles[i];
      std::vector<char> exclude(pool.size(), 0);
      for (std::size_t e = 0; e < pool.size(); ++e) {
        if (e == tile.primary.endpoint || pool.load(e) > 0) exclude[e] = 1;
      }
      const std::optional<std::size_t> picked = pool.pick(exclude);
      if (!picked) return false;
      Flight& flight = tile.hedge;
      flight.endpoint = *picked;
      const Endpoint& endpoint = pool.endpoint(*picked);
      ++outcomes[i].attempts;
      try {
        flight.client.connect(endpoint.host, endpoint.port,
                              timeoutSeconds_);
        (void)flight.client.upload(tileLabel(grid.tiles[i]), crops[i],
                                   /*oneshot=*/true);
        flight.jobId = flight.client.submit(
            tileJobLine(grid, i, budgets[i], budget));
        flight.active = true;
        flight.started = std::chrono::steady_clock::now();
        return true;
      } catch (const std::exception&) {
        flight.client.close();
        pool.release(*picked);
        return false;
      }
    };

    // Drop a still-active replica whose sibling already resolved the tile:
    // cancel the remote job on the same (idle-between-polls) connection so
    // the fleet stops burning its budget, then return the endpoint's load.
    const auto abandonFlight = [&](Flight& flight) {
      if (!flight.active) return;
      try {
        (void)flight.client.request("CANCEL " +
                                    std::to_string(flight.jobId));
      } catch (const std::exception&) {
        // Best effort; the server reaps the connection either way.
      }
      flight.client.close();
      pool.release(flight.endpoint);
      flight.active = false;
    };

    // One STATUS round-trip for an active flight. Terminal states fetch
    // the report and fill the outcome; a flight outstanding longer than
    // the run timeout is treated as a transport failure so a wedged server
    // cannot stall the poll loop forever.
    enum class Poll { Running, Finished, Failed };
    const auto pollFlight = [&](std::size_t i, Flight& flight,
                                std::string& failure) -> Poll {
      try {
        if (elapsedSeconds(flight) > timeoutSeconds_) {
          throw serve::ProtocolError(
              "tile exceeded the " + std::to_string(timeoutSeconds_) +
              " s timeout");
        }
        const std::string reply = flight.client.request(
            "STATUS " + std::to_string(flight.jobId));
        std::istringstream words(reply);
        std::string ok, idText, state;
        words >> ok >> idText >> state;
        if (ok != "OK") throw serve::ProtocolError(reply);
        if (state != "done" && state != "failed" && state != "cancelled") {
          return Poll::Running;
        }
        const auto reportStart = std::chrono::steady_clock::now();
        const remote::TileReportJson remote =
            remote::parseReportJson(flight.client.report(flight.jobId));
        shardSeconds("mcmcpar_shard_network_seconds",
                     "Coordinator-side transfer time (tile upload+submit, "
                     "report fetch); _sum is the run's network share.")
            .observe(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - reportStart)
                         .count());
        TileOutcome& outcome = outcomes[i];
        outcome.iterations = remote.iterations;
        outcome.wallSeconds = remote.wallSeconds;
        outcome.acceptanceRate = remote.acceptance;
        outcome.logPosterior = remote.logPosterior;
        outcome.cancelled = remote.cancelled || remote.state == "cancelled";
        outcome.error = remote.state == "failed"
                            ? (remote.error.empty() ? "remote job failed"
                                                    : remote.error)
                            : "";
        outcome.circles = remote.circles;
        return Poll::Finished;
      } catch (const std::exception& e) {
        failure = e.what();
        return Poll::Failed;
      }
    };

    // Tile i finished on `viaHedge ? hedge : primary`: adopt that replica's
    // result, abandon the other one, and record the observed per-iteration
    // cost for future hedging references.
    const auto resolveTile = [&](std::size_t i, bool viaHedge) {
      TileState& tile = tiles[i];
      TileOutcome& outcome = outcomes[i];
      Flight& winner = viaHedge ? tile.hedge : tile.primary;
      Flight& loser = viaHedge ? tile.primary : tile.hedge;
      outcome.endpoint = pool.endpoint(winner.endpoint).label();
      outcome.hedged = viaHedge;
      if (viaHedge) {
        ++hedgesWon_;
        shardCounter("mcmcpar_shard_hedges_won_total",
                     "Hedge replicas that beat their primary.")
            .add();
      }
      const auto resolvedAt = std::chrono::steady_clock::now();
      const double rtt =
          std::chrono::duration<double>(resolvedAt - winner.started).count();
      obs::Registry::global()
          .histogram("mcmcpar_shard_tile_rtt_seconds",
                     "Tile submit-to-report round trip per endpoint.",
                     obs::latencyBuckets(), {{"endpoint", outcome.endpoint}})
          .observe(rtt);
      shardSeconds("mcmcpar_shard_sample_seconds",
                   "Remote sampler wall time per resolved tile; _sum is "
                   "the run's sampling share.")
          .observe(outcome.wallSeconds);
      shardCounter("mcmcpar_shard_tiles_resolved_total",
                   "Tiles that reached a terminal result.")
          .add();
      obs::Tracer& tracer = obs::Tracer::global();
      if (tracer.enabled()) {
        const std::int64_t track =
            kTileTrackBase + static_cast<std::int64_t>(i);
        const std::string label = tileLabel(grid.tiles[i]);
        tracer.record("shard",
                      (viaHedge ? "tile-hedge:" : "tile:") + label,
                      winner.started, resolvedAt,
                      {{"endpoint", outcome.endpoint},
                       {"hedged", viaHedge ? "true" : "false"},
                       {"job", std::to_string(winner.jobId)}},
                      track);
        if (loser.active) {
          tracer.record("shard",
                        (viaHedge ? "tile:" : "tile-hedge:") + label,
                        loser.started, resolvedAt,
                        {{"endpoint", pool.endpoint(loser.endpoint).label()},
                         {"hedged", viaHedge ? "false" : "true"},
                         {"outcome", "abandoned"}},
                        track);
        }
      }
      if (outcome.error.empty() && !outcome.cancelled && budgets[i] > 0) {
        observedPerIter.push_back(elapsedSeconds(winner) /
                                  static_cast<double>(budgets[i]));
      }
      winner.client.close();
      pool.release(winner.endpoint);
      winner.active = false;
      abandonFlight(loser);
      markResolved(i);
    };

    // A flight failed (transport error, ERR reply or timeout). If its
    // sibling replica is still running, the tile stays covered and the
    // failure costs nothing; otherwise requeue the tile on a fresh
    // placement round — unless the failure is deterministic or the run is
    // already doomed/cancelled, which resolves the tile with the error.
    const auto failFlight = [&](std::size_t i, bool isHedge,
                                const std::string& failure) {
      TileState& tile = tiles[i];
      TileOutcome& outcome = outcomes[i];
      Flight& flight = isHedge ? tile.hedge : tile.primary;
      const std::size_t endpointIndex = flight.endpoint;
      flight.client.close();
      pool.release(endpointIndex);
      flight.active = false;
      const remote::FailureKind kind = remote::classifyFailure(failure);
      if (kind == remote::FailureKind::EndpointDown) {
        pool.markDead(endpointIndex);
        shardCounter("mcmcpar_shard_endpoints_marked_dead_total",
                     "Endpoints removed from a fan-out after a transport "
                     "failure.")
            .add();
      }
      const Flight& other = isHedge ? tile.primary : tile.hedge;
      if (other.active) return;
      if (kind == remote::FailureKind::Fatal || doomed ||
          hooks.cancelled()) {
        outcome.error = failure;
        markResolved(i);
        return;
      }
      // The job may still be running on a live-but-unreachable host;
      // best-effort cancel so the fleet doesn't burn an abandoned budget.
      // Safe to retry regardless: the Stitcher is deterministic, so the
      // requeued tile reproduces the same result.
      try {
        serve::Client canceller;
        const Endpoint& endpoint = pool.endpoint(endpointIndex);
        canceller.connect(endpoint.host, endpoint.port, 5.0);
        (void)canceller.request("CANCEL " + std::to_string(flight.jobId));
      } catch (const std::exception&) {
      }
      // Fresh placement round: only the endpoint that just failed is
      // excluded up front (a still-alive host that merely refused an
      // earlier round deserves another chance).
      tile.tried.assign(pool.size(), 0);
      tile.tried[endpointIndex] = 1;
      ++requeues_;
      shardCounter("mcmcpar_shard_requeues_total",
                   "Tile re-submissions after an endpoint failure.")
          .add();
      if (!submitTile(i)) markResolved(i);  // outcome.error already set
    };

    // Fan out: submit every tile before polling any, so the fleet runs
    // them concurrently; one connection per flight keeps reply streams
    // apart. A deterministic rejection dooms the run, so stop submitting
    // on first fatal error rather than hand the fleet work about to be
    // cancelled.
    for (std::size_t i = 0; i < n; ++i) {
      if (doomed) {
        outcomes[i].error = "not submitted: an earlier tile already failed";
        markResolved(i);
        continue;
      }
      if (!submitTile(i)) markResolved(i);  // sets doomed via the error
    }

    // Poll loop: one STATUS pass over every outstanding flight per tick.
    // Any tile failure dooms the whole run (a missing region cannot be
    // stitched), so the moment one is recorded — or the caller cancels —
    // every outstanding flight gets a CANCEL broadcast; polling continues
    // until the remotes acknowledge with a terminal state, which bounds
    // the wind-down at one remote cancel quantum instead of the tiles'
    // full budgets.
    bool cancelBroadcast = false;
    while (tilesDone < n) {
      if ((doomed || hooks.cancelled()) && !cancelBroadcast) {
        cancelBroadcast = true;
        for (TileState& tile : tiles) {
          if (tile.resolved) continue;
          for (Flight* flight : {&tile.primary, &tile.hedge}) {
            if (!flight->active) continue;
            try {
              (void)flight->client.request(
                  "CANCEL " + std::to_string(flight->jobId));
            } catch (const std::exception&) {
              // Best effort; the poll timeout still bounds the wait.
            }
          }
        }
      }
      for (std::size_t i = 0; i < n && tilesDone < n; ++i) {
        TileState& tile = tiles[i];
        if (tile.resolved) continue;
        if (!tile.primary.active && !tile.hedge.active) {
          // Defensive: requeue paths resolve on failure, so a tile without
          // flights should not exist — never spin on it if one does.
          if (outcomes[i].error.empty()) {
            outcomes[i].error = "tile lost both flights";
          }
          markResolved(i);
          continue;
        }
        if (tile.primary.active) {
          std::string failure;
          const Poll r = pollFlight(i, tile.primary, failure);
          if (r == Poll::Finished) {
            resolveTile(i, /*viaHedge=*/false);
          } else if (r == Poll::Failed) {
            failFlight(i, /*isHedge=*/false, failure);
          }
        }
        if (tile.resolved) continue;
        if (tile.hedge.active) {
          std::string failure;
          const Poll r = pollFlight(i, tile.hedge, failure);
          if (r == Poll::Finished) {
            resolveTile(i, /*viaHedge=*/true);
          } else if (r == Poll::Failed) {
            failFlight(i, /*isHedge=*/true, failure);
          }
        }
        if (tile.resolved) continue;
        // Straggler hedging: when the slowest-looking tile has been
        // outstanding longer than hedge-factor x the reference time and an
        // endpoint sits idle, re-issue it there and take the first result.
        if (!tile.hedged && tile.primary.active && !doomed &&
            !hooks.cancelled()) {
          HedgeInputs inputs;
          inputs.elapsedSeconds = elapsedSeconds(tile.primary);
          inputs.predictedSeconds = predicted[i];
          inputs.observedSeconds = observedMedianSeconds(i);
          inputs.hedgeFactor = hedgeFactor_;
          inputs.idleEndpointAvailable =
              pool.hasIdle(tile.primary.endpoint);
          inputs.alreadyHedged = tile.hedged;
          if (shouldHedge(inputs) && submitHedge(i)) {
            tile.hedged = true;
            ++hedgesIssued_;
            shardCounter("mcmcpar_shard_hedges_issued_total",
                         "Hedge replicas issued for straggling tiles.")
                .add();
          }
        }
      }
      if (tilesDone < n) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    endpointsDead_ = pool.deadCount();
    return outcomes;
  }

  // ---- stitch + aggregate ----

  [[nodiscard]] engine::RunReport mergeOutcomes(
      const TileGrid& grid, const std::vector<TileOutcome>& outcomes,
      const par::WallTimer& timer) const {
    const par::WallTimer mergeTimer;
    obs::Span stitchSpan("shard", "stitch");
    stitchSpan.arg("tiles", std::to_string(grid.tiles.size()));

    // Translate crop-local detections into full-image coordinates.
    std::vector<std::vector<model::Circle>> perTile(grid.tiles.size());
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const partition::IRect& halo = grid.tiles[i].halo;
      perTile[i].reserve(outcomes[i].circles.size());
      for (const model::Circle& c : outcomes[i].circles) {
        perTile[i].push_back(
            model::Circle{c.x + halo.x0, c.y + halo.y0, c.r});
      }
    }
    const StitchResult stitched = stitchCircles(grid, perTile, stitch_);

    ShardReport shardReport;
    shardReport.gridX = grid.gridX;
    shardReport.gridY = grid.gridY;
    shardReport.halo = grid.halo;
    shardReport.adaptive = grid.adaptive;
    shardReport.backend = socketBackend_ ? "socket" : "local";
    shardReport.innerStrategy = inner_.name;
    shardReport.haloDropped = stitched.haloDropped;
    shardReport.duplicatesRemoved = stitched.duplicatesRemoved;
    shardReport.requeues = requeues_;
    shardReport.endpointsDead = endpointsDead_;
    shardReport.hedgesIssued = hedgesIssued_;
    shardReport.hedgesWon = hedgesWon_;

    engine::RunReport report;
    report.strategy = name_;
    bool cancelled = false;
    double weightedAcceptance = 0.0;
    for (std::size_t i = 0; i < grid.tiles.size(); ++i) {
      const TileOutcome& outcome = outcomes[i];
      TileRun tile;
      tile.spec = grid.tiles[i];
      tile.label = tileLabel(grid.tiles[i]);
      tile.iterations = outcome.iterations;
      tile.wallSeconds = outcome.wallSeconds;
      tile.acceptanceRate = outcome.acceptanceRate;
      tile.logPosterior = outcome.logPosterior;
      tile.circlesFound = perTile[i].size();
      tile.circlesKept = stitched.keptPerTile[i];
      tile.cancelled = outcome.cancelled;
      tile.error = outcome.error;
      tile.diagnostics = outcome.diagnostics;
      tile.endpoint = outcome.endpoint;
      tile.attempts = std::max(outcome.attempts, 1u);
      tile.hedged = outcome.hedged;
      shardReport.tiles.push_back(std::move(tile));

      report.iterations += outcome.iterations;
      weightedAcceptance += outcome.acceptanceRate *
                            static_cast<double>(outcome.iterations);
      // The inner report's own flag is authoritative: pipeline strategies
      // report iteration counts unrelated to the budget, so inferring
      // cancellation from a shortfall would mis-flag completed runs.
      cancelled = cancelled || outcome.cancelled;
      report.diagnostics.merge(outcome.diagnostics);
      // Like the §IX pipelines: the shard converges when its slowest tile
      // does (local backend only; remote reports carry no trace).
      if (outcome.itersToConverge) {
        report.iterationsToConverge =
            std::max(report.iterationsToConverge.value_or(0),
                     *outcome.itersToConverge);
      }
      shardReport.maxTileSeconds =
          std::max(shardReport.maxTileSeconds, outcome.wallSeconds);
      shardReport.sumTileSeconds += outcome.wallSeconds;
    }

    report.cancelled = cancelled;
    report.acceptanceRate =
        report.iterations == 0
            ? 0.0
            : weightedAcceptance / static_cast<double>(report.iterations);
    report.circles = stitched.circles;
    report.logPosterior = mergedLogPosterior(stitched.circles);
    report.threadsUsed =
        socketBackend_ ? static_cast<unsigned>(endpoints_.size())
                       : par::resolveThreadCount(resources_.threads);

    shardReport.mergeSeconds = mergeTimer.seconds();
    shardSeconds("mcmcpar_shard_stitch_seconds",
                 "Coordinate translation + IoU stitch + report assembly "
                 "per run; _sum is the run's recombination share.")
        .observe(shardReport.mergeSeconds);
    report.wallSeconds = timer.seconds();
    report.extras = std::move(shardReport);
    return report;
  }

  /// Whole-image log posterior of the stitched model, comparable with an
  /// unsharded run of the same problem (tile-local values are not).
  [[nodiscard]] double mergedLogPosterior(
      const std::vector<model::Circle>& merged) const {
    model::ModelState state(*problem_.filtered, prior_, problem_.likelihood);
    for (const model::Circle& circle : merged) state.commitAdd(circle);
    return state.logPosterior();
  }

  std::string name_;
  const engine::StrategyRegistry* registry_;
  engine::ExecResources resources_;
  int gridX_ = 2;
  int gridY_ = 2;
  bool autoTiles_ = false;  ///< tiles=auto: density-driven adaptive grid
  int maxTiles_ = 0;        ///< max-tiles option; 0 = derive from workers
  int minTileSize_ = 32;    ///< min-tile-size option (adaptive grids only)
  double hedgeFactor_ = 0.0;  ///< hedge-factor option; 0 disables hedging
  int halo_ = 16;
  std::uint64_t tileIters_ = 0;
  std::uint64_t minTileIters_ = 2000;
  StitchOptions stitch_;
  double timeoutSeconds_ = 600.0;
  bool socketBackend_ = false;
  std::vector<Endpoint> endpoints_;
  double pingTimeout_ = 5.0;
  double pingInterval_ = 30.0;
  std::size_t requeues_ = 0;       ///< last runSocket's re-submissions
  std::size_t endpointsDead_ = 0;  ///< dead endpoints at end of last run
  std::size_t hedgesIssued_ = 0;   ///< hedge replicas issued last run
  std::size_t hedgesWon_ = 0;      ///< hedge replicas that beat primaries
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
       "endpoints-file=PATH ping-timeout=X ping-interval=X strategy=NAME "
       "inner.K=V tile-iters=N min-tile-iters=N iou=X timeout=X",
       [reg](const engine::ExecResources& res,
             const engine::OptionMap& opts) {
         return std::make_unique<ShardStrategy>("sharded", reg, res, opts);
       }});
}

}  // namespace mcmcpar::shard
