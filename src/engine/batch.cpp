#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/concurrency.hpp"
#include "par/thread_pool.hpp"
#include "par/virtual_clock.hpp"
#include "rng/splitmix64.hpp"
#include "shard/tiling.hpp"

namespace mcmcpar::engine {

namespace {

/// Nearest-rank percentile of an ascending-sorted latency list.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

}  // namespace

std::uint64_t deriveJobSeed(std::uint64_t batchSeed,
                            std::size_t jobIndex) noexcept {
  // Chained SplitMix64 absorption: the batch seed is mixed through one
  // bijection, the index through a second, so no (seed, index) pair can
  // collide with another index under the same seed.
  rng::SplitMix64 root(batchSeed);
  rng::SplitMix64 mixed(root.next() +
                        0x9E3779B97F4A7C15ULL *
                            (static_cast<std::uint64_t>(jobIndex) + 1));
  return mixed.next();
}

BatchRunner::BatchRunner(const StrategyRegistry* registry)
    : registry_(registry != nullptr ? registry
                                    : &StrategyRegistry::builtin()) {}

BatchResult BatchRunner::run(const std::vector<BatchJob>& jobs,
                             const BatchOptions& options,
                             const BatchHooks& hooks) const {
  const std::size_t n = jobs.size();
  BatchResult result;
  result.reports.resize(n);
  result.batch.jobs = n;
  result.batch.errors.assign(n, "");

  // Either a private budget for this one call, or the caller's long-lived
  // one (serve::Server runs batch after batch against a single budget).
  std::optional<par::PoolBudget> ownedBudget;
  par::PoolBudget* budgetPtr = options.sharedBudget;
  if (budgetPtr == nullptr) {
    ownedBudget.emplace(options.resources.threads);
    budgetPtr = &*ownedBudget;
  }
  par::PoolBudget& budget = *budgetPtr;

  const unsigned totalThreads = budget.total();
  unsigned concurrency = options.maxConcurrentJobs != 0
                             ? options.maxConcurrentJobs
                             : totalThreads;
  concurrency = std::min(concurrency, totalThreads);
  // Never more runners than jobs (an empty batch keeps one nominal runner
  // and the serial path below spawns no pool at all).
  const std::size_t jobCap = std::max<std::size_t>(n, 1);
  if (jobCap < concurrency) concurrency = static_cast<unsigned>(jobCap);
  concurrency = std::max(concurrency, 1u);

  // The shared budget: job-runner threads are charged up front, strategies
  // lease their internal workers from the remainder. A shared budget already
  // paid for the calling thread and may be partially drained by concurrent
  // holders — run with what it grants on top of the caller and return it on
  // every exit path.
  const bool shared = options.sharedBudget != nullptr;
  const unsigned charged = budget.tryAcquire(concurrency - (shared ? 1 : 0));
  if (shared) concurrency = charged + 1;
  struct BudgetReturn {
    par::PoolBudget& budget;
    unsigned charged;
    ~BudgetReturn() { budget.release(charged); }
  } budgetReturn{budget, charged};

  result.batch.threadBudget = totalThreads;
  result.batch.concurrentJobs = concurrency;

  // Job i's resources; runOne replaces the derived seed with job.seed.
  const auto jobResources = [&](std::size_t i) {
    ExecResources resources = options.resources;
    resources.poolBudget = &budget;
    resources.seed = deriveJobSeed(options.resources.seed, i);
    return resources;
  };
  // Validate every job before any work starts: an unknown name or bad
  // option fails the batch as one EngineError instead of surfacing halfway
  // through a long run.
  for (std::size_t i = 0; i < n; ++i) {
    try {
      (void)registry_->create(jobs[i].strategy, jobResources(i),
                              jobs[i].options);
    } catch (const EngineError& e) {
      const std::string label =
          jobs[i].label.empty() ? "" : " (" + jobs[i].label + ")";
      throw EngineError("batch job #" + std::to_string(i) + label + ": " +
                        e.what());
    }
  }

  const par::WallTimer batchTimer;
  std::atomic<bool> batchCancelled{false};
  const auto shouldStop = [&]() -> bool {
    if (batchCancelled.load(std::memory_order_relaxed)) return true;
    const bool stop =
        (hooks.cancelRequested && hooks.cancelRequested()) ||
        (options.deadlineSeconds > 0.0 &&
         batchTimer.seconds() >= options.deadlineSeconds);
    if (stop) batchCancelled.store(true, std::memory_order_relaxed);
    return stop;
  };

  std::mutex doneMutex;
  std::vector<double> latencies(n, 0.0);
  // char, not bool: concurrent jobs write distinct elements, and
  // vector<bool>'s bit packing would make that a data race.
  std::vector<char> executed(n, 0);

  const auto runJob = [&](std::size_t i) {
    RunReport& report = result.reports[i];
    if (shouldStop()) {
      // Never started: an empty cancelled report keeps the output vector
      // index-aligned without inventing chain results.
      report.strategy = jobs[i].strategy;
      report.cancelled = true;
      report.threadsUsed = 0;
      if (hooks.onJobDone) {
        const std::scoped_lock lock(doneMutex);
        hooks.onJobDone(i, report);
      }
      return;
    }

    RunHooks jobHooks;
    jobHooks.cancelRequested = shouldStop;
    if (hooks.onJobProgress) {
      jobHooks.onProgress = [&hooks, i](const RunProgress& p) {
        hooks.onJobProgress(i, p);
      };
    }

    const par::WallTimer jobTimer;
    try {
      report = runOne(jobs[i], jobResources(i), jobHooks);
    } catch (const std::exception& e) {  // EngineError and anything else:
      report = RunReport{};              // one bad job must not sink the batch
      report.strategy = jobs[i].strategy;
      report.threadsUsed = 0;
      result.batch.errors[i] = e.what();
    }
    latencies[i] = jobTimer.seconds();
    executed[i] = true;
    if (hooks.onJobDone) {
      const std::scoped_lock lock(doneMutex);
      hooks.onJobDone(i, report);
    }
  };

  if (concurrency <= 1) {
    for (std::size_t i = 0; i < n; ++i) runJob(i);
  } else {
    // concurrency-1 workers plus the calling thread: parallelFor's caller
    // helps drain the queue, so exactly `concurrency` jobs run at once.
    par::ThreadPool pool(concurrency - 1);
    pool.parallelFor(n, runJob);
  }

  // Aggregate.
  BatchReport& batch = result.batch;
  batch.wallSeconds = batchTimer.seconds();
  std::vector<double> executedLatencies;
  executedLatencies.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RunReport& report = result.reports[i];
    if (!batch.errors[i].empty()) {
      ++batch.failed;
    } else if (report.cancelled) {
      ++batch.cancelled;
    } else {
      ++batch.completed;
    }
    if (!executed[i]) continue;
    executedLatencies.push_back(latencies[i]);
    StrategyTotals& totals = batch.perStrategy[jobs[i].strategy];
    ++totals.jobs;
    totals.iterations += report.iterations;
    totals.wallSeconds += latencies[i];
  }
  std::sort(executedLatencies.begin(), executedLatencies.end());
  batch.p50Seconds = percentile(executedLatencies, 0.50);
  batch.p95Seconds = percentile(executedLatencies, 0.95);
  if (batch.wallSeconds > 0.0) {
    batch.jobsPerSecond =
        static_cast<double>(executedLatencies.size()) / batch.wallSeconds;
  }
  return result;
}

RunReport BatchRunner::runOne(const BatchJob& job,
                              const ExecResources& resources,
                              const RunHooks& hooks) const {
  ExecResources jobResources = resources;
  if (job.seed) jobResources.seed = *job.seed;
  const std::unique_ptr<Strategy> strategy =
      registry_->create(job.strategy, jobResources, job.options);
  obs::Span jobSpan("engine", "job:" + job.strategy);
  jobSpan.arg("label", job.label);
  {
    obs::Span prepareSpan("engine", "prepare:" + job.strategy);
    strategy->prepare(job.problem);
  }
  RunReport report = strategy->run(job.budget, hooks);
  obs::Registry::global()
      .counter("mcmcpar_engine_runs_total", "Strategy runs completed.",
               {{"strategy", job.strategy}})
      .add();
  return report;
}

namespace {

/// Parse the value of a job directive token `@key=value`; errors name the
/// directive exactly as written ("option '@iters': expected ...").
std::uint64_t directiveU64(const std::string& key, const std::string& value) {
  const OptionMap parsed = OptionMap::parse({key + "=" + value});
  return parsed.u64(key, 0);
}

double directiveDbl(const std::string& key, const std::string& value) {
  const OptionMap parsed = OptionMap::parse({key + "=" + value});
  return parsed.dbl(key, 0.0);
}

/// Desugar a wrapper directive (@shard, @sequence): the job's strategy
/// becomes the `wrapper` strategy's `strategy=` option, after the
/// wrapper's own `options`, and every bare option is forwarded to it as
/// `inner.<key>=<value>`.
void wrapStrategy(ManifestEntry& entry, const std::string& directive,
                  const std::string& wrapper,
                  std::vector<std::string> options) {
  if (entry.strategy == wrapper) {
    throw EngineError("directive '" + directive +
                      "' cannot be combined with the '" + wrapper +
                      "' strategy; pass its options directly instead");
  }
  options.push_back("strategy=" + entry.strategy);
  for (const std::string& option : entry.options) {
    options.push_back("inner." + option);
  }
  entry.strategy = wrapper;
  entry.options = std::move(options);
}

}  // namespace

ManifestEntry parseManifestLine(const std::string& line) {
  std::istringstream tokens(line);
  ManifestEntry entry;
  if (!(tokens >> entry.image) || !(tokens >> entry.strategy)) {
    throw EngineError(
        "expected '<image.pgm|synth> <strategy> [@directive=value ...] "
        "[key=value ...]', got '" +
        line + "'");
  }
  std::string shardTiles;
  std::optional<std::uint64_t> shardHalo;
  std::vector<std::string> sequenceOptions;  ///< @warm-start, @track
  std::string token;
  while (tokens >> token) {
    if (token.front() != '@') {
      entry.options.push_back(token);
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq < 2) {
      throw EngineError("malformed job directive '" + token +
                        "': expected @directive=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "@iters") {
      const std::uint64_t iters = directiveU64(key, value);
      // Reject the degenerate and the absurd at parse time: @iters=0 would
      // "succeed" with an empty model, and values beyond kMaxJobIterations
      // overflow downstream budget arithmetic (frames x budget, tile
      // splits) long after admission.
      if (iters == 0 || iters > kMaxJobIterations) {
        throw EngineError("directive '@iters': expected a value in [1, " +
                          std::to_string(kMaxJobIterations) + "], got '" +
                          value + "'");
      }
      entry.iterations = iters;
    } else if (key == "@seed") {
      entry.seed = directiveU64(key, value);
    } else if (key == "@trace") {
      entry.trace = directiveU64(key, value);
    } else if (key == "@label") {
      entry.label = value;
    } else if (key == "@radius" || key == "@radius-std" ||
               key == "@radius-min" || key == "@radius-max" ||
               key == "@count") {
      const double parsed = directiveDbl(key, value);
      if (parsed <= 0.0) {
        throw EngineError("directive '" + key +
                          "': expected a value > 0, got '" + value + "'");
      }
      if (key == "@radius") {
        entry.radius = parsed;
      } else if (key == "@radius-std") {
        entry.radiusStd = parsed;
      } else if (key == "@radius-min") {
        entry.radiusMin = parsed;
      } else if (key == "@radius-max") {
        entry.radiusMax = parsed;
      } else {
        entry.expectedCount = parsed;
      }
    } else if (key == "@image") {
      if (value != "inline") {
        throw EngineError("directive '@image': the only supported value is "
                          "'inline', got '" +
                          value + "'");
      }
      entry.inlineImage = true;
    } else if (key == "@oneshot") {
      entry.oneshot = directiveU64(key, value) != 0;
    } else if (key == "@shard") {
      // "auto" flows through to the sharded strategy's adaptive grid; a
      // fixed KxL is validated right here like the tiles= option would.
      if (value != "auto") {
        int gx = 0;
        int gy = 0;
        try {
          shard::parseTileCount(value, gx, gy);
        } catch (const std::invalid_argument& e) {
          throw EngineError(std::string("directive '@shard': ") + e.what());
        }
      }
      shardTiles = value;
    } else if (key == "@halo") {
      shardHalo = directiveU64(key, value);
    } else if (key == "@sequence") {
      if (value.empty()) {
        throw EngineError(
            "directive '@sequence': expected a frame count or glob pattern");
      }
      entry.sequence = value;
    } else if (key == "@warm-start" || key == "@track") {
      sequenceOptions.push_back(key.substr(1) + "=" +
                                (directiveU64(key, value) != 0 ? "1" : "0"));
    } else if (key == "@client") {
      std::string name = value;
      const std::size_t star = name.find('*');
      if (star != std::string::npos) {
        const std::string weightText = name.substr(star + 1);
        name = name.substr(0, star);
        const std::uint64_t weight = directiveU64(key, weightText);
        if (weight == 0 || weight > 1000) {
          throw EngineError(
              "directive '@client': weight must be in [1, 1000], got '" +
              weightText + "'");
        }
        entry.clientWeight = static_cast<unsigned>(weight);
      }
      if (name.empty() || name.size() > 64 ||
          name.find_first_not_of(
              "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
              "abcdefghijklmnopqrstuvwxyz0123456789._-") !=
              std::string::npos) {
        throw EngineError(
            "directive '@client': expected NAME[*W] with NAME of 1-64 "
            "chars from [A-Za-z0-9._-], got '" +
            value + "'");
      }
      entry.client = name;
    } else {
      throw EngineError("unknown job directive '" + key +
                        "' (expected @iters, @seed, @trace, @label, "
                        "@radius, @radius-std, @radius-min, @radius-max, "
                        "@count, @image, @oneshot, @shard, @halo, "
                        "@sequence, @warm-start, @track or @client)");
    }
  }
  // Validate option tokens through the same parser --opt uses, so a stray
  // trailing token fails right here with the identical descriptive message
  // instead of being deferred (strategy-unknown keys still surface at
  // creation via OptionMap::requireConsumed).
  (void)OptionMap::parse(entry.options);

  if (shardHalo && shardTiles.empty()) {
    throw EngineError("directive '@halo' requires '@shard=KxL'");
  }
  if (entry.sequence.empty() && !sequenceOptions.empty()) {
    throw EngineError(
        "directives '@warm-start' and '@track' require '@sequence'");
  }
  // Wrapper directives nest shard inside sequence: every frame of a
  // `@sequence @shard` job is one sharded run (docs/PROTOCOL.md).
  if (!shardTiles.empty()) {
    std::vector<std::string> options{"tiles=" + shardTiles};
    if (shardHalo) options.push_back("halo=" + std::to_string(*shardHalo));
    wrapStrategy(entry, "@shard", "sharded", std::move(options));
  }
  if (!entry.sequence.empty()) {
    wrapStrategy(entry, "@sequence", "sequence", std::move(sequenceOptions));
  }
  return entry;
}

std::vector<ManifestEntry> parseBatchManifest(std::istream& in) {
  std::vector<ManifestEntry> entries;
  std::string line;
  std::size_t lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first) || first.front() == '#') continue;
    try {
      entries.push_back(parseManifestLine(line));
    } catch (const EngineError& e) {
      throw EngineError("manifest line " + std::to_string(lineNumber) + ": " +
                        e.what());
    }
  }
  return entries;
}

BatchJob buildJob(const ManifestEntry& entry, const RunBudget& budget,
                  double radius,
                  const std::vector<stream::FrameImage>& frames) {
  if (frames.empty()) {
    throw EngineError("job '" + entry.image + "' resolved to no frames");
  }
  BatchJob job;
  job.strategy = entry.strategy;
  job.options = entry.options;
  job.problem.filtered = frames.front().image.get();
  for (const stream::FrameImage& frame : frames) {
    job.problem.frames.push_back({frame.image.get(), frame.label});
  }
  model::PriorParams& prior = job.problem.prior;
  const double r = entry.radius.value_or(radius);
  prior.radiusMean = r;
  prior.radiusStd = entry.radiusStd.value_or(r / 8.0);
  prior.radiusMin = entry.radiusMin.value_or(r / 2.0);
  prior.radiusMax = entry.radiusMax.value_or(r * 1.8);
  if (entry.expectedCount) {
    job.problem.estimateCount = false;
    prior.expectedCount = *entry.expectedCount;
  }
  job.budget = budget;
  if (entry.iterations) job.budget.iterations = *entry.iterations;
  if (entry.trace) job.budget.traceInterval = *entry.trace;
  job.seed = entry.seed;
  job.label = entry.label.empty() ? entry.image : entry.label;
  return job;
}

}  // namespace mcmcpar::engine
