// `fanout`: a closed loop of sharded socket jobs. One coordinator runs
// `sharded backend=socket` on a 2048x2048 scene at the chain workload's
// cell density, with a fixed 2x2 grid (more tiles than endpoints) and
// straggler hedging on, fanning out to three in-process endpoint servers
// with one thread each on loopback. The time is shard work: tiling, float32
// crops sent as one-shot uploads that bypass the cache, placement, hedging,
// remote REPORT parsing and the stitch.
//
// Load limits: 3 endpoint worker threads plus the coordinator's one polling
// thread (4 compute threads in all); 4 tiles in flight hold at most 4
// connections, and a hedge only opens once an endpoint has released its
// tile. Each endpoint's acceptor thread and its one thread per connection
// are blocked on socket I/O most of the time and are not counted.

#include <algorithm>
#include <map>
#include <memory>

#include "engine/batch.hpp"
#include "par/virtual_clock.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "shard/report.hpp"
#include "shard/stitcher.hpp"
#include "shard/tiling.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

namespace mm = mcmcpar;

namespace {

constexpr int kSize = 2048;
constexpr int kCells = 600;  ///< the chain scene's density, 4x the area
constexpr double kRadius = 10.0;
constexpr int kEndpoints = 3;
constexpr int kGrid = 2;
constexpr int kHalo = 16;
constexpr std::uint64_t kIterations = 300000;
constexpr std::uint64_t kJobSeeds = 2;  ///< jobs cycle over this many seeds
/// ~20 jobs a run: the median is the highest percentile with ten samples
/// beyond it, so the tail reported is the median.
constexpr double kTail = 50.0;
constexpr double kLimitSeconds = 5.0;
constexpr double kF1Floor = 0.6;
constexpr std::uint64_t kJobsPerSetup = 4;  ///< jobs between two timed set-ups
constexpr std::size_t kSetups = 6;  ///< a fixed count: every run holds >= 21 jobs

struct Fleet {
  std::vector<std::unique_ptr<mm::serve::Server>> servers;
  std::vector<std::unique_ptr<mm::serve::SocketFrontend>> frontends;
  std::string endpoints;  ///< the endpoints= option value

  explicit Fleet(std::uint64_t seed) {
    for (int k = 0; k < kEndpoints; ++k) {
      mm::serve::ServerOptions options;
      options.threads = 1;
      options.maxConcurrentJobs = 1;
      options.seed = seed;
      options.radius = kRadius;
      servers.push_back(std::make_unique<mm::serve::Server>(options));
      frontends.push_back(
          std::make_unique<mm::serve::SocketFrontend>(*servers.back(), 0));
      if (k > 0) endpoints += ',';
      endpoints += "127.0.0.1:" + std::to_string(frontends.back()->port());
    }
  }
  ~Fleet() {
    for (auto& frontend : frontends) frontend->stop();
    for (auto& server : servers) server->shutdown(5.0);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
};

std::vector<std::string> shardOptions(const std::string& backend,
                                      const std::string& endpoints) {
  std::vector<std::string> options = {
      "tiles=" + std::to_string(kGrid) + "x" + std::to_string(kGrid),
      "halo=" + std::to_string(kHalo), "hedge-factor=1.5", "backend=" + backend};
  if (!endpoints.empty()) options.push_back("endpoints=" + endpoints);
  return options;
}

struct Job {
  std::uint64_t seed = 0;
  double latency = 0.0;
  double run = 0.0;
  mm::engine::RunReport report;
};

double uploadBytes(const mm::shard::ShardReport& shard) {
  double bytes = 0.0;
  for (const mm::shard::TileRun& tile : shard.tiles) {
    bytes += 4.0 * tile.attempts * tile.spec.halo.w * tile.spec.halo.h;
  }
  return bytes;
}

/// Re-run every tile of `shard` locally, exactly as the coordinator's local
/// backend would (same crop, problem and derived seed), giving the per-tile
/// detections in full-image coordinates that the stitch consumed.
std::vector<std::vector<mm::model::Circle>> perTileDetections(
    const mm::engine::Problem& problem, std::uint64_t seed,
    const mm::shard::ShardReport& shard) {
  std::vector<std::vector<mm::model::Circle>> perTile;
  for (std::size_t i = 0; i < shard.tiles.size(); ++i) {
    const mm::shard::TileRun& tile = shard.tiles[i];
    const mm::partition::IRect& h = tile.spec.halo;
    const mm::img::ImageF crop = problem.filtered->crop(h.x0, h.y0, h.w, h.h);
    mm::engine::Problem tileProblem = problem;
    tileProblem.filtered = &crop;
    const mm::engine::Engine engine(mm::engine::ExecResources{
        1, false, mm::engine::deriveJobSeed(seed, i)});
    const mm::engine::RunReport report = engine.run(
        shard.innerStrategy, tileProblem, mm::engine::RunBudget{tile.iterations, 0});
    std::vector<mm::model::Circle> circles;
    for (const mm::model::Circle& c : report.circles) {
      circles.push_back(mm::model::Circle{c.x + h.x0, c.y + h.y0, c.r});
    }
    perTile.push_back(std::move(circles));
  }
  return perTile;
}

}  // namespace

WorkloadResult runFanout(const RunOptions& options, SpanLog& spans) {
  WorkloadResult result;

  // Set-up: scene generation, endpoint start-up and one small warm-up
  // fan-out. It is timed before the first job and again, with a new fleet,
  // after every kJobsPerSetup jobs (outside the job timers) up to kSetups
  // times, so setup_s, the median, samples the whole run rather than one
  // moment of the host.
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  const auto setUp = [&] {
    fleet.reset();
    const mm::par::WallTimer timer;
    mm::img::Scene made = mm::img::generateScene(
        mm::img::cellScene(kSize, kSize, kCells, kRadius, options.seed));
    fleet = std::make_unique<Fleet>(options.seed);
    const mm::engine::Problem warm = cellProblem(made.image, kRadius);
    (void)mm::engine::Engine(mm::engine::ExecResources{1, false, options.seed})
        .run("sharded", warm, mm::engine::RunBudget{8000, 0}, {},
             shardOptions("socket", fleet->endpoints));
    setups.push_back(timer.seconds());
    return made;
  };
  const mm::img::Scene scene = setUp();
  const std::vector<mm::model::Circle> truth = truthCircles(scene.truth);
  const mm::engine::Problem problem = cellProblem(scene.image, kRadius);
  const mm::engine::RunBudget budget{kIterations, 0};
  std::vector<std::string> socket = shardOptions("socket", fleet->endpoints);

  std::vector<Job> jobs;
  SloTally slo;
  slo.setLimit("job", kLimitSeconds);
  const std::size_t minJobs = minSamplesFor(kTail);
  const mm::par::WallTimer wall;
  for (std::uint64_t j = 0; wall.seconds() < options.seconds || j < minJobs; ++j) {
    if (j > 0 && j % kJobsPerSetup == 0 && setups.size() < kSetups) {
      (void)setUp();
      socket = shardOptions("socket", fleet->endpoints);
    }
    Job job;
    job.seed = mixSeed(options.seed, 1000 + j % kJobSeeds);
    ++result.attempted;
    const mm::par::WallTimer timer;
    ScopedSpan jobSpan(spans, "bench.job.sharded", "bench", j);
    try {
      const mm::engine::Engine engine(mm::engine::ExecResources{1, false, job.seed});
      std::unique_ptr<mm::engine::Strategy> strategy = engine.make("sharded", socket);
      {
        ScopedSpan span(spans, "engine.prepare", "engine", j, jobSpan.id());
        strategy->prepare(problem);
      }
      const double prepared = timer.seconds();
      {
        ScopedSpan span(spans, "shard.run.socket", "shard", j, jobSpan.id());
        job.report = strategy->run(budget);
      }
      job.latency = timer.seconds();
      job.run = job.latency - prepared;
      jobs.push_back(std::move(job));
    } catch (const std::exception& e) {
      slo.record("job", timer.seconds(), false);
      result.fail(std::string("sharded socket job failed: ") + e.what());
    }
  }
  result.wallSeconds = wall.seconds();

  // Output checks, outside the timed loop: the local backend's result for
  // every seed used, which remote tiles must reproduce bit for bit.
  std::map<std::uint64_t, mm::engine::RunReport> reference;
  for (const Job& job : jobs) {
    if (reference.count(job.seed) != 0) continue;
    reference[job.seed] =
        mm::engine::Engine(mm::engine::ExecResources{kEndpoints, false, job.seed})
            .run("sharded", problem, budget, {}, shardOptions("local", ""));
  }

  std::vector<double> latencies, iterations, tileMax, imbalance, overhead, bytes, dropped,
      dups;
  std::uint64_t hedgesIssued = 0, hedgesWon = 0, requeues = 0;
  double f1Min = 1.0;
  for (const Job& job : jobs) {
    const auto& shard = std::get<mm::shard::ShardReport>(job.report.extras);
    latencies.push_back(job.latency);
    iterations.push_back(static_cast<double>(job.report.iterations));
    const double f1 = detectionF1(job.report.circles, truth, kRadius);
    f1Min = std::min(f1Min, f1);
    const bool matches = job.report.circles == reference[job.seed].circles;
    if (f1 < kF1Floor) {
      result.fail("fanout job F1 " + std::to_string(f1) + " below floor");
    } else if (!matches) {
      result.fail("fanout job differs from the backend=local run of its seed");
    }
    // A job meets its limit only once its output checks have passed.
    slo.record("job", job.latency, f1 >= kF1Floor && matches);
    double sum = 0.0, slowest = 0.0;
    for (const mm::shard::TileRun& tile : shard.tiles) {
      sum += tile.wallSeconds;
      slowest = std::max(slowest, tile.wallSeconds);
    }
    const double mean = shard.tiles.empty() ? 0.0 : sum / static_cast<double>(shard.tiles.size());
    tileMax.push_back(shard.maxTileSeconds);
    imbalance.push_back(mean > 0.0 ? slowest / mean : 0.0);
    overhead.push_back(job.run - shard.maxTileSeconds);
    bytes.push_back(uploadBytes(shard));
    dropped.push_back(static_cast<double>(shard.haloDropped));
    dups.push_back(static_cast<double>(shard.duplicatesRemoved));
    hedgesIssued += shard.hedgesIssued;
    hedgesWon += shard.hedgesWon;
    requeues += shard.requeues;
  }

  result.tailPercentile = kTail;
  result.latencySamples = latencies.size();
  result.e2e("setup_s", median(setups), "s");
  result.e2e("latency_p50_s", median(latencies), "s");
  result.e2e("latency_tail_s", median(latencies), "s");  // kTail is the median
  result.e2e("slo_share", slo.share(), "ratio");
  // Every job runs the same budget; medians keep one job caught by host
  // contention from moving the rate.
  const double typical = median(latencies);
  result.e2e("iters_per_s", typical > 0.0 ? median(iterations) / typical : 0.0, "1/s");
  result.e2e("f1_min", f1Min, "ratio");

  result.layer("shard.tile_max_s", median(tileMax), "s");
  result.layer("shard.imbalance", median(imbalance), "ratio");
  result.layer("shard.overhead_s", median(overhead), "s");
  result.layer("shard.upload_bytes", median(bytes), "bytes");
  result.layer("shard.hedges_issued", static_cast<double>(hedgesIssued), "count");
  result.layer("shard.hedges_won", static_cast<double>(hedgesWon), "count");
  result.layer("shard.requeues", static_cast<double>(requeues), "count");
  result.layer("shard.halo_dropped", median(dropped), "count");
  result.layer("shard.duplicates_removed", median(dups), "count");

  if (options.trace && !jobs.empty()) {
    // The tiling and the stitch, timed directly on this workload's grid and
    // on the per-tile detections of the first job.
    std::vector<double> tiling, stitch;
    mm::shard::TileGrid grid;
    {
      ScopedSpan span(spans, "shard.tiling", "shard", 0);
      for (int k = 0; k < 200; ++k) {
        const mm::par::WallTimer timer;
        grid = mm::shard::makeTileGrid(kSize, kSize, kGrid, kGrid, kHalo);
        tiling.push_back(1e3 * timer.seconds());
      }
    }
    const Job& first = jobs.front();
    const auto& shard = std::get<mm::shard::ShardReport>(first.report.extras);
    const std::vector<std::vector<mm::model::Circle>> perTile =
        perTileDetections(problem, first.seed, shard);
    mm::shard::StitchResult stitched;
    {
      ScopedSpan span(spans, "shard.stitch", "shard", 0);
      for (int k = 0; k < 50; ++k) {
        const mm::par::WallTimer timer;
        stitched = mm::shard::stitchCircles(grid, perTile);
        stitch.push_back(1e3 * timer.seconds());
      }
    }
    ++result.attempted;
    if (stitched.circles != first.report.circles) {
      result.fail("stitching the per-tile replays does not give the job's circles");
    }
    result.layer("shard.tiling_ms", median(tiling), "ms");
    result.layer("shard.stitch_ms", median(stitch), "ms");
  }

  fleet.reset();
  result.e2e("rss_peak_mb", peakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
