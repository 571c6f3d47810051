// `chain`: the paper's equal-budget architecture comparison (§VII). A closed
// loop runs one job at a time through the in-process Engine
// (Strategy::prepare + run) on the §VII-scale scene, in a fixed rotation of
// strategies. Every rotation repeats the same six jobs, so the per-strategy
// medians compare identical work. Almost all time is model, mcmc, core,
// spec, par and partition work; serve is not used at all.

#include <algorithm>
#include <map>
#include <memory>

#include "engine/engine.hpp"
#include "par/virtual_clock.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

namespace mm = mcmcpar;

namespace {

constexpr int kSize = 1024;
constexpr int kCells = 150;
constexpr double kRadius = 10.0;
constexpr std::uint64_t kIterations = 100000;  ///< the equal budget
/// Threads of the parallel strategies. On a 4-vCPU host whose other tenants
/// take cores minute to minute, 4-thread speculative and mc3 jobs, which
/// synchronise every round, swung 2-4x between runs; 2 threads keep the
/// executors parallel and the runs comparable. For the same reason mc3
/// swaps every 1000 iterations instead of 100: ten times fewer barriers.
constexpr unsigned kThreads = 2;
/// The latency of one request here is a whole rotation: the equal-budget
/// comparison of all six strategies. A run holds only a few, so no
/// percentile above the median has ten samples beyond it, and the tail
/// reported is the median.
constexpr double kTail = 50.0;
constexpr std::size_t kMinRotations = 3;
constexpr double kLimitSeconds = 20.0;  ///< per-rotation latency limit
constexpr double kF1Floor = 0.6;
constexpr double kRotationSeconds = 5.0;  ///< one rotation takes about 4.4 s here
constexpr int kSetupsEach = 2;  ///< set-ups timed before the loop and after each rotation

struct Entry {
  const char* strategy;
  unsigned threads;
  std::vector<std::string> options;
  const char* layer;  ///< the layer that Strategy::run() enters
};

const std::vector<Entry>& rotation() {
  static const std::vector<Entry> entries = {
      {"serial", 1, {}, "mcmc"},
      {"periodic", kThreads, {}, "core"},
      {"speculative", kThreads, {}, "spec"},
      {"mc3", kThreads, {"swap-interval=1000"}, "mcmc"},
      {"sharded", kThreads, {"backend=local"}, "shard"},
      {"intelligent", kThreads, {}, "core"},
  };
  return entries;
}

struct PerStrategy {
  std::vector<double> prepare, total, cpuUtil, iterations;
  std::vector<double> localShare, overheadShare, globalShare, waste, swap;
};

}  // namespace

WorkloadResult runChain(const RunOptions& options, SpanLog& spans) {
  WorkloadResult result;

  // Set-up: scene generation plus a short warm-up job. It takes ~60 ms, so
  // one burst of host contention would cover every sample taken back to
  // back; it is timed kSetupsEach times before the first rotation and again
  // after every rotation (outside its timer), and setup_s is the median.
  std::vector<double> setups;
  const auto setUp = [&] {
    const mm::par::WallTimer timer;
    mm::img::Scene made = mm::img::generateScene(
        mm::img::cellScene(kSize, kSize, kCells, kRadius, options.seed));
    const mm::engine::Problem warm = cellProblem(made.image, kRadius);
    (void)mm::engine::Engine(mm::engine::ExecResources{1, false, options.seed})
        .run("serial", warm, mm::engine::RunBudget{2000, 0});
    setups.push_back(timer.seconds());
    return made;
  };
  const mm::img::Scene scene = setUp();
  for (int s = 1; s < kSetupsEach; ++s) (void)setUp();
  const std::vector<mm::model::Circle> truth = truthCircles(scene.truth);
  const mm::engine::Problem problem = cellProblem(scene.image, kRadius);
  const mm::engine::RunBudget budget{kIterations, 0};

  std::map<std::string, PerStrategy> per;
  std::vector<double> latencies;
  SloTally slo;
  slo.setLimit("rotation", kLimitSeconds);
  double f1Min = 1.0;
  std::uint64_t serialSeed = 0;
  mm::engine::RunReport serialReport;

  // A rotation count fixed by --seconds, not by how fast the host runs, so
  // every run holds the same work.
  const std::size_t rotations = std::max(
      kMinRotations, static_cast<std::size_t>(options.seconds / kRotationSeconds + 0.5));
  const mm::par::WallTimer wall;
  std::uint64_t job = 0;
  for (std::size_t r = 0; r < rotations; ++r) {
    const mm::par::WallTimer rotationTimer;
    const std::uint64_t failedBefore = result.failed;
    for (std::size_t k = 0; k < rotation().size(); ++k, ++job) {
      const Entry& entry = rotation()[k];
      const std::uint64_t seed = mixSeed(options.seed, k);
      ++result.attempted;
      PerStrategy& stats = per[entry.strategy];
      const mm::par::WallTimer timer;
      ScopedSpan jobSpan(spans, std::string("bench.job.") + entry.strategy,
                         "bench", job);
      try {
        const mm::engine::Engine engine(
            mm::engine::ExecResources{entry.threads, false, seed});
        std::unique_ptr<mm::engine::Strategy> strategy =
            engine.make(entry.strategy, entry.options);
        {
          ScopedSpan span(spans, "engine.prepare", "engine", job, jobSpan.id());
          strategy->prepare(problem);
        }
        const double prepared = timer.seconds();
        const double cpu0 = processCpuSeconds();
        mm::engine::RunReport report;
        {
          ScopedSpan span(spans, std::string(entry.layer) + ".run." + entry.strategy,
                          entry.layer, job, jobSpan.id());
          report = strategy->run(budget);
        }
        const double total = timer.seconds();
        const double runSeconds = total - prepared;
        const double cpu = processCpuSeconds() - cpu0;

        stats.prepare.push_back(prepared);
        stats.total.push_back(total);
        stats.cpuUtil.push_back(cpu / (runSeconds * entry.threads));
        stats.iterations.push_back(static_cast<double>(report.iterations));

        if (const auto* p = std::get_if<mm::core::PeriodicReport>(&report.extras)) {
          const double w = std::max(p->wallSeconds, 1e-9);
          stats.localShare.push_back(p->localSeconds / w);
          stats.overheadShare.push_back(p->overheadSeconds / w);
          stats.globalShare.push_back(p->globalSeconds / w);
        }
        if (const auto* s = std::get_if<mm::spec::SpeculativeStats>(&report.extras)) {
          stats.waste.push_back(s->wasteFraction());
        }
        if (const auto* m = std::get_if<mm::mcmc::Mc3Stats>(&report.extras)) {
          stats.swap.push_back(m->swapRate());
        }

        const double f1 = detectionF1(report.circles, truth, kRadius);
        f1Min = std::min(f1Min, f1);
        if (f1 < kF1Floor) {
          result.fail(std::string(entry.strategy) + " job F1 " +
                      std::to_string(f1) + " below floor");
        } else if (report.cancelled || report.iterations == 0) {
          result.fail(std::string(entry.strategy) + " job did not run its budget");
        }
        if (k == 0) {
          if (job > 0 && (report.logPosterior != serialReport.logPosterior ||
                          report.circles != serialReport.circles)) {
            result.fail("serial job is not deterministic across rotations");
          }
          serialSeed = seed;
          serialReport = std::move(report);
        }
      } catch (const std::exception& e) {
        result.fail(std::string(entry.strategy) + " job failed: " + e.what());
      }
    }
    latencies.push_back(rotationTimer.seconds());
    slo.record("rotation", latencies.back(), result.failed == failedBefore);
    for (int s = 0; s < kSetupsEach; ++s) (void)setUp();
  }
  result.wallSeconds = wall.seconds();

  result.tailPercentile = kTail;
  result.latencySamples = latencies.size();
  result.e2e("setup_s", median(setups), "s");
  result.e2e("latency_p50_s", median(latencies), "s");
  result.e2e("latency_tail_s", median(latencies), "s");
  result.e2e("slo_share", slo.share(), "ratio");
  // Iterations per second of a typical rotation: per-strategy medians, so
  // one job caught by a burst of host contention does not move it.
  double rotationIterations = 0.0;
  double rotationSeconds = 0.0;
  for (const auto& [name, s] : per) {
    rotationIterations += median(s.iterations);
    rotationSeconds += median(s.total);
  }
  result.e2e("iters_per_s",
             rotationSeconds > 0.0 ? rotationIterations / rotationSeconds : 0.0, "1/s");
  result.e2e("f1_min", f1Min, "ratio");
  for (const Entry& entry : rotation()) {
    result.e2e(std::string("run_s.") + entry.strategy,
               median(per[entry.strategy].total), "s");
  }

  for (const Entry& entry : rotation()) {
    const PerStrategy& s = per[entry.strategy];
    const std::string name = entry.strategy;
    result.layer("engine.prepare_s." + name, median(s.prepare), "s");
    result.layer("par.cpu_util." + name, median(s.cpuUtil), "ratio");
  }
  const PerStrategy& periodic = per["periodic"];
  result.layer("core.local_share", median(periodic.localShare), "ratio");
  result.layer("core.overhead_share", median(periodic.overheadShare), "ratio");
  result.layer("core.global_share", median(periodic.globalShare), "ratio");
  result.layer("spec.waste_ratio", median(per["speculative"].waste), "ratio");
  result.layer("mc3.swap_rate", median(per["mc3"].swap), "ratio");

  if (options.trace) {
    const ReplayOutcome replay = replaySerial(problem, serialSeed, kIterations,
                                              &serialReport, spans, job, result);
    ++result.attempted;
    if (!replay.identical) result.fail(replay.detail);
  }
  result.e2e("rss_peak_mb", peakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
