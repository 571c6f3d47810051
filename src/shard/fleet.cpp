#include "shard/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/batch.hpp"
#include "engine/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/socket.hpp"
#include "shard/hedge.hpp"
#include "shard/remote.hpp"

namespace mcmcpar::shard {

namespace {

/// Trace rows for tile flights: the coordinator observes them from a poll
/// loop, not a call stack, so each tile gets its own synthetic timeline row
/// (fan-out and stitch spans stay on the coordinator's real thread row).
constexpr std::int64_t kTileTrackBase = 100;

/// Shard-layer metric handles. Get-or-create on every call is fine here:
/// these sites fire per tile or per run, never per iteration.
obs::Counter& shardCounter(const char* name, const char* help) {
  return obs::Registry::global().counter(name, help);
}

obs::Histogram& shardSeconds(const char* name, const char* help) {
  return obs::Registry::global().histogram(name, help, obs::latencyBuckets());
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void observeNetworkSeconds(std::chrono::steady_clock::time_point since) {
  shardSeconds("mcmcpar_shard_network_seconds",
               "Coordinator-side transfer time (tile upload+submit, "
               "report fetch); _sum is the run's network share.")
      .observe(secondsSince(since));
}

/// The socket fan-out of one run. Each tile has a primary flight and, when
/// the hedging policy fires, at most one hedge flight running the identical
/// job line; whichever reaches a terminal state first resolves the tile.
/// Flights are polled with STATUS (no blocking WAIT), so each connection
/// stays available for CANCEL. Driven from one thread.
class Fanout {
 public:
  Fanout(const std::vector<TileTask>& tasks, const TileExecution& execution,
         const engine::RunHooks& hooks)
      : execution_(execution),
        hooks_(hooks),
        pool_(execution.endpoints),
        tiles_(tasks.size()) {
    results_.report.tiles.resize(tasks.size());
    results_.circles.resize(tasks.size());
    results_.itersToConverge.resize(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      row(i).attempts = 0;  // counted per launch below
      const engine::ManifestEntry entry =
          engine::parseManifestLine(tasks[i].line);
      Tile& tile = tiles_[i];
      tile.task = &tasks[i];
      tile.uploadId = entry.image;
      tile.label = entry.label;
      tile.iterations = entry.iterations.value_or(0);
      tile.tried.assign(pool_.size(), 0);
    }
  }

  [[nodiscard]] TileResults run() {
    if (pool_.checkAll() == 0) {
      throw engine::EngineError("no endpoint answered PING (fleet: " +
                                formatEndpointList(execution_.endpoints) +
                                ")");
    }
    // Submit every tile before polling any, so the fleet runs them
    // concurrently; one connection per flight keeps reply streams apart. A
    // deterministic rejection dooms the run, so stop submitting on the
    // first one rather than hand the fleet work about to be cancelled.
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
      if (doomed_) {
        row(i).error = "not submitted: an earlier tile already failed";
        markResolved(i);
      } else if (!place(i)) {
        markResolved(i);  // sets doomed_ via the error
      }
    }

    // One STATUS pass over every outstanding flight per tick. Any tile
    // failure dooms the whole run (a missing region cannot be stitched),
    // so the moment one is recorded — or the caller cancels — every
    // outstanding flight gets a CANCEL; polling continues until the
    // remotes acknowledge with a terminal state, which bounds the
    // wind-down at one remote cancel quantum instead of the tiles' full
    // budgets.
    bool cancelBroadcast = false;
    while (tilesDone_ < tiles_.size()) {
      if ((doomed_ || hooks_.cancelled()) && !cancelBroadcast) {
        cancelBroadcast = true;
        for (Tile& tile : tiles_) {
          if (tile.resolved) continue;
          for (Flight* flight : {&tile.primary, &tile.hedge}) {
            // Best effort; the poll timeout still bounds the wait.
            if (flight->active) sendCancel(*flight);
          }
        }
      }
      for (std::size_t i = 0; i < tiles_.size() && tilesDone_ < tiles_.size();
           ++i) {
        pollTile(i);
      }
      if (tilesDone_ < tiles_.size()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    results_.report.endpointsDead = pool_.deadCount();
    return std::move(results_);
  }

 private:
  /// One replica of a tile on one endpoint.
  struct Flight {
    serve::Client client;
    std::size_t endpoint = 0;  ///< pool index running the replica
    std::uint64_t jobId = 0;
    bool active = false;
    std::chrono::steady_clock::time_point started{};
  };
  struct Tile {
    const TileTask* task = nullptr;
    std::string uploadId;  ///< the line's image token
    std::string label;     ///< the line's @label
    std::uint64_t iterations = 0;  ///< the line's @iters
    Flight primary;
    Flight hedge;
    std::vector<char> tried;  ///< pool indices tried this placement round
    bool hedged = false;      ///< a hedge replica was ever issued
    bool resolved = false;
  };

  [[nodiscard]] TileRun& row(std::size_t i) {
    return results_.report.tiles[i];
  }

  /// Per-iteration cost observed on resolved, successful tiles; its median
  /// scaled by a tile's budget is the hedging reference once real
  /// measurements exist (shard/hedge.hpp prefers it over the prediction).
  [[nodiscard]] double observedMedianSeconds(std::size_t i) const {
    if (observedPerIter_.empty() || tiles_[i].iterations == 0) return 0.0;
    std::vector<double> sorted = observedPerIter_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2] *
           static_cast<double>(tiles_[i].iterations);
  }

  void markResolved(std::size_t i) {
    tiles_[i].resolved = true;
    ++tilesDone_;
    hooks_.progress(tilesDone_, tiles_.size(), "shard");
    if (!row(i).error.empty()) doomed_ = true;
  }

  void markDead(std::size_t endpoint) {
    pool_.markDead(endpoint);
    shardCounter("mcmcpar_shard_endpoints_marked_dead_total",
                 "Endpoints removed from a fan-out after a transport "
                 "failure.")
        .add();
  }

  void countRequeue() {
    ++results_.report.requeues;
    shardCounter("mcmcpar_shard_requeues_total",
                 "Tile re-submissions after an endpoint failure.")
        .add();
  }

  static void sendCancel(Flight& flight) {
    try {
      (void)flight.client.request("CANCEL " + std::to_string(flight.jobId));
    } catch (const std::exception&) {
    }
  }

  /// Start tile i on pool endpoint `endpoint` as `flight`: connect, upload
  /// the crop one-shot, submit the line on the same connection. On failure
  /// the connection is closed, the endpoint's load returned, and the
  /// error text returned for the caller to classify.
  [[nodiscard]] std::optional<std::string> launch(std::size_t i,
                                                  Flight& flight,
                                                  std::size_t endpoint) {
    const Tile& tile = tiles_[i];
    const Endpoint& target = pool_.endpoint(endpoint);
    flight.endpoint = endpoint;
    ++row(i).attempts;
    const auto submitStart = std::chrono::steady_clock::now();
    try {
      flight.client.connect(target.host, target.port,
                            execution_.timeoutSeconds);
      (void)flight.client.upload(tile.uploadId, *tile.task->crop,
                                 /*oneshot=*/true);
      flight.jobId = flight.client.submit(tile.task->line);
    } catch (const std::exception& e) {
      flight.client.close();
      pool_.release(endpoint);
      return e.what();
    }
    flight.active = true;
    flight.started = std::chrono::steady_clock::now();
    observeNetworkSeconds(submitStart);
    return std::nullopt;
  }

  /// Place tile i's primary on the least-loaded surviving endpoint it has
  /// not tried this round. Transport failures mark the endpoint dead; ERR
  /// QUEUE_FULL / SHUTTING_DOWN skip it without marking. Returns false
  /// (row error set) on a deterministic rejection or when no endpoint
  /// remains.
  bool place(std::size_t i) {
    Tile& tile = tiles_[i];
    TileRun& outcome = row(i);
    tile.primary.active = false;
    while (true) {
      pool_.refresh();
      const std::optional<std::size_t> picked = pool_.pick(tile.tried);
      if (!picked) {
        outcome.error = "no usable endpoint left (fleet: " +
                        formatEndpointList(execution_.endpoints) + ", " +
                        std::to_string(pool_.deadCount()) + " marked dead)";
        return false;
      }
      tile.tried[*picked] = 1;
      const std::optional<std::string> failure =
          launch(i, tile.primary, *picked);
      if (!failure) {
        outcome.endpoint = pool_.endpoint(*picked).label();
        return true;
      }
      const remote::FailureKind kind = remote::classifyFailure(*failure);
      if (kind == remote::FailureKind::Fatal) {
        outcome.error = *failure;
        return false;
      }
      if (kind == remote::FailureKind::EndpointDown) markDead(*picked);
      countRequeue();
    }
  }

  /// Issue a hedge replica of tile i on an idle endpoint. Strictly
  /// best-effort: the identical job line goes out (so the result is
  /// bit-identical to the primary's), and any failure just leaves the
  /// primary standing — a hedge must never doom a healthy run.
  bool issueHedge(std::size_t i) {
    Tile& tile = tiles_[i];
    std::vector<char> exclude(pool_.size(), 0);
    for (std::size_t e = 0; e < pool_.size(); ++e) {
      if (e == tile.primary.endpoint || pool_.load(e) > 0) exclude[e] = 1;
    }
    const std::optional<std::size_t> picked = pool_.pick(exclude);
    return picked && !launch(i, tile.hedge, *picked);
  }

  /// Drop a still-active replica whose sibling already resolved the tile:
  /// cancel the remote job so the fleet stops burning its budget, then
  /// return the endpoint's load.
  void abandon(Flight& flight) {
    if (!flight.active) return;
    sendCancel(flight);
    flight.client.close();
    pool_.release(flight.endpoint);
    flight.active = false;
  }

  /// One STATUS round-trip for tile i's primary or hedge flight. A
  /// terminal state fetches the report and resolves the tile with it; a
  /// flight outstanding longer than the reply timeout counts as a transport
  /// failure, so a wedged server cannot stall the poll loop forever.
  void poll(std::size_t i, bool viaHedge) {
    Flight& flight = viaHedge ? tiles_[i].hedge : tiles_[i].primary;
    try {
      if (secondsSince(flight.started) > execution_.timeoutSeconds) {
        throw serve::ProtocolError(
            "tile exceeded the " + std::to_string(execution_.timeoutSeconds) +
            " s timeout");
      }
      const std::string reply =
          flight.client.request("STATUS " + std::to_string(flight.jobId));
      std::istringstream words(reply);
      std::string ok, idText, state;
      words >> ok >> idText >> state;
      if (ok != "OK") throw serve::ProtocolError(reply);
      if (state != "done" && state != "failed" && state != "cancelled") {
        return;
      }
      const auto reportStart = std::chrono::steady_clock::now();
      const remote::TileReportJson report =
          remote::parseReportJson(flight.client.report(flight.jobId));
      observeNetworkSeconds(reportStart);
      TileRun& outcome = row(i);
      outcome.iterations = report.iterations;
      outcome.wallSeconds = report.wallSeconds;
      outcome.acceptanceRate = report.acceptance;
      outcome.logPosterior = report.logPosterior;
      outcome.cancelled = report.cancelled || report.state == "cancelled";
      outcome.error = report.state == "failed"
                          ? (report.error.empty() ? "remote job failed"
                                                  : report.error)
                          : "";
      results_.circles[i] = report.circles;
    } catch (const std::exception& e) {
      fail(i, viaHedge, e.what());
      return;
    }
    resolve(i, viaHedge);
  }

  /// Tile i finished on `viaHedge ? hedge : primary`: adopt that replica's
  /// result, abandon the other one, and record the observed per-iteration
  /// cost for later hedging references.
  void resolve(std::size_t i, bool viaHedge) {
    Tile& tile = tiles_[i];
    TileRun& outcome = row(i);
    Flight& winner = viaHedge ? tile.hedge : tile.primary;
    Flight& loser = viaHedge ? tile.primary : tile.hedge;
    outcome.endpoint = pool_.endpoint(winner.endpoint).label();
    outcome.hedged = viaHedge;
    if (viaHedge) {
      ++results_.report.hedgesWon;
      shardCounter("mcmcpar_shard_hedges_won_total",
                   "Hedge replicas that beat their primary.")
          .add();
    }
    const auto resolvedAt = std::chrono::steady_clock::now();
    obs::Registry::global()
        .histogram("mcmcpar_shard_tile_rtt_seconds",
                   "Tile submit-to-report round trip per endpoint.",
                   obs::latencyBuckets(), {{"endpoint", outcome.endpoint}})
        .observe(std::chrono::duration<double>(resolvedAt - winner.started)
                     .count());
    shardSeconds("mcmcpar_shard_sample_seconds",
                 "Remote sampler wall time per resolved tile; _sum is "
                 "the run's sampling share.")
        .observe(outcome.wallSeconds);
    shardCounter("mcmcpar_shard_tiles_resolved_total",
                 "Tiles that reached a terminal result.")
        .add();
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      const std::int64_t track = kTileTrackBase + static_cast<std::int64_t>(i);
      tracer.record("shard", (viaHedge ? "tile-hedge:" : "tile:") + tile.label,
                    winner.started, resolvedAt,
                    {{"endpoint", outcome.endpoint},
                     {"hedged", viaHedge ? "true" : "false"},
                     {"job", std::to_string(winner.jobId)}},
                    track);
      if (loser.active) {
        tracer.record("shard",
                      (viaHedge ? "tile:" : "tile-hedge:") + tile.label,
                      loser.started, resolvedAt,
                      {{"endpoint", pool_.endpoint(loser.endpoint).label()},
                       {"hedged", viaHedge ? "false" : "true"},
                       {"outcome", "abandoned"}},
                      track);
      }
    }
    if (outcome.error.empty() && !outcome.cancelled && tile.iterations > 0) {
      observedPerIter_.push_back(secondsSince(winner.started) /
                                 static_cast<double>(tile.iterations));
    }
    winner.client.close();
    pool_.release(winner.endpoint);
    winner.active = false;
    abandon(loser);
    markResolved(i);
  }

  /// A flight failed (transport error, ERR reply or timeout). If its
  /// sibling replica is still running, the tile stays covered and the
  /// failure costs nothing; otherwise requeue the tile on a fresh placement
  /// round — unless the failure is deterministic or the run is already
  /// doomed or cancelled, which resolves the tile with the error.
  void fail(std::size_t i, bool viaHedge, const std::string& failure) {
    Tile& tile = tiles_[i];
    Flight& flight = viaHedge ? tile.hedge : tile.primary;
    const std::size_t endpoint = flight.endpoint;
    flight.client.close();
    pool_.release(endpoint);
    flight.active = false;
    const remote::FailureKind kind = remote::classifyFailure(failure);
    if (kind == remote::FailureKind::EndpointDown) markDead(endpoint);
    if ((viaHedge ? tile.primary : tile.hedge).active) return;
    if (kind == remote::FailureKind::Fatal || doomed_ || hooks_.cancelled()) {
      row(i).error = failure;
      markResolved(i);
      return;
    }
    // The job may still be running on a live-but-unreachable host;
    // best-effort cancel so the fleet doesn't burn an abandoned budget.
    // Safe to retry regardless: the requeued tile reproduces the same
    // result, and the Stitcher is deterministic.
    try {
      serve::Client canceller;
      const Endpoint& target = pool_.endpoint(endpoint);
      canceller.connect(target.host, target.port, 5.0);
      (void)canceller.request("CANCEL " + std::to_string(flight.jobId));
    } catch (const std::exception&) {
    }
    // Fresh placement round: only the endpoint that just failed is
    // excluded up front (a still-alive host that merely refused an
    // earlier round deserves another chance).
    tile.tried.assign(pool_.size(), 0);
    tile.tried[endpoint] = 1;
    countRequeue();
    if (!place(i)) markResolved(i);  // row error already set
  }

  /// One poll pass over tile i: both replicas, then the hedging policy.
  void pollTile(std::size_t i) {
    Tile& tile = tiles_[i];
    if (tile.resolved) return;
    if (!tile.primary.active && !tile.hedge.active) {
      // Defensive: requeue paths resolve on failure, so a tile without
      // flights should not exist — never spin on it if one does.
      if (row(i).error.empty()) row(i).error = "tile lost both flights";
      markResolved(i);
      return;
    }
    for (const bool viaHedge : {false, true}) {
      const Flight& flight = viaHedge ? tile.hedge : tile.primary;
      if (!tile.resolved && flight.active) poll(i, viaHedge);
    }
    if (tile.resolved || tile.hedged || !tile.primary.active || doomed_ ||
        hooks_.cancelled()) {
      return;
    }
    // Straggler hedging: when the tile has been outstanding longer than
    // hedge-factor x the reference time and an endpoint sits idle,
    // re-issue it there and take the first result.
    HedgeInputs inputs;
    inputs.elapsedSeconds = secondsSince(tile.primary.started);
    inputs.predictedSeconds = tile.task->predictedSeconds;
    inputs.observedSeconds = observedMedianSeconds(i);
    inputs.hedgeFactor = execution_.hedgeFactor;
    inputs.idleEndpointAvailable = pool_.hasIdle(tile.primary.endpoint);
    inputs.alreadyHedged = tile.hedged;
    if (shouldHedge(inputs) && issueHedge(i)) {
      tile.hedged = true;
      ++results_.report.hedgesIssued;
      shardCounter("mcmcpar_shard_hedges_issued_total",
                   "Hedge replicas issued for straggling tiles.")
          .add();
    }
  }

  const TileExecution& execution_;
  const engine::RunHooks& hooks_;
  EndpointPool pool_;
  std::vector<Tile> tiles_;
  TileResults results_;
  std::vector<double> observedPerIter_;
  std::size_t tilesDone_ = 0;
  bool doomed_ = false;
};

}  // namespace

TileResults runTilesInProcess(const std::vector<TileTask>& tasks,
                              const TileExecution& execution,
                              const engine::RunHooks& hooks) {
  std::vector<engine::BatchJob> jobs;
  jobs.reserve(tasks.size());
  std::uint64_t totalIters = 0;
  for (const TileTask& task : tasks) {
    const engine::ManifestEntry entry = engine::parseManifestLine(task.line);
    // A tile line carries its whole prior, so buildJob's default radius is
    // never read.
    jobs.push_back(engine::buildJob(
        entry, engine::RunBudget{0, 0}, model::PriorParams{}.radiusMean,
        {stream::FrameImage{task.crop, entry.image}}));
    totalIters += jobs.back().budget.iterations;
  }

  engine::BatchOptions options;
  options.resources = execution.resources;
  options.resources.poolBudget = nullptr;
  options.sharedBudget = execution.resources.poolBudget;

  // Per-tile progress folded into one monotone whole-shard beat.
  std::mutex progressMutex;
  std::vector<std::uint64_t> done(jobs.size(), 0);
  engine::BatchHooks batchHooks;
  batchHooks.cancelRequested = hooks.cancelRequested;
  if (hooks.onProgress) {
    batchHooks.onJobProgress = [&](std::size_t index,
                                   const engine::RunProgress& p) {
      // Deliver while still holding the lock: emitting after release would
      // let concurrently computed sums arrive out of order, making the
      // whole-shard beat go backwards.
      const std::scoped_lock lock(progressMutex);
      done[index] = std::min(p.done, jobs[index].budget.iterations);
      std::uint64_t sum = 0;
      for (const std::uint64_t d : done) sum += d;
      hooks.progress(sum, totalIters, "shard");
    };
  }

  const engine::BatchResult batch =
      engine::BatchRunner(execution.registry).run(jobs, options, batchHooks);

  TileResults results;
  results.report.tiles.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const engine::RunReport& report = batch.reports[i];
    TileRun& row = results.report.tiles[i];
    row.iterations = report.iterations;
    row.wallSeconds = report.wallSeconds;
    row.acceptanceRate = report.acceptanceRate;
    row.logPosterior = report.logPosterior;
    row.cancelled = report.cancelled;
    row.error = batch.batch.errors[i];
    row.diagnostics = report.diagnostics;
    results.circles.push_back(report.circles);
    results.itersToConverge.push_back(report.iterationsToConverge);
  }
  return results;
}

TileResults runTilesOnFleet(const std::vector<TileTask>& tasks,
                            const TileExecution& execution,
                            const engine::RunHooks& hooks) {
  obs::Span fanoutSpan("shard", "fanout");
  fanoutSpan.arg("tiles", std::to_string(tasks.size()));
  fanoutSpan.arg("endpoints", std::to_string(execution.endpoints.size()));
  return Fanout(tasks, execution, hooks).run();
}

}  // namespace mcmcpar::shard
