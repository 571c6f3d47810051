// mcmcpar_run — the uniform CLI front-end of the engine façade: execute any
// registered strategy (or all of them) on a synthetic scene or a PGM image
// and print one comparable RunReport row per strategy. No strategy-specific
// setup code lives here; everything flows through the string-keyed registry.
//
//   mcmcpar_run --list
//   mcmcpar_run --strategy serial --iterations 20000
//   mcmcpar_run --strategy all --iterations 5000 --width 192 --cells 10
//   mcmcpar_run --strategy mc3 --opt chains=6 --opt swap-interval=50
//   mcmcpar_run --strategy periodic --opt executor=split-merge --progress
//   mcmcpar_run --batch jobs.txt --threads 8 --iterations 10000
//   mcmcpar_run --shard 2x2 --strategy serial --image big.pgm --opt halo=16

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <fstream>
#include <map>

#include "analysis/metrics.hpp"
#include "analysis/table_writer.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "img/pnm_io.hpp"
#include "img/synth.hpp"
#include "obs/trace.hpp"
#include "stream/sequence.hpp"

using namespace mcmcpar;

namespace {

struct CliOptions {
  std::string strategy = "serial";
  std::vector<std::string> strategyOptions;
  engine::ExecResources resources;
  engine::RunBudget budget{20000, 0};
  int width = 192;
  int height = 192;
  int cells = 10;
  double radius = 9.0;
  std::string imagePath;  // when set, run on this PGM instead of a scene
  std::string batchPath;  // when set, run the manifest through BatchRunner
  std::string shardTiles;  // --shard KxL: run through the shard coordinator
  std::string sequence;   // --sequence N|GLOB: streaming frame-sequence run
  bool noWarmStart = false;    // --no-warm-start: cold-start every frame
  bool noTrack = false;        // --no-track: skip the cross-frame tracker
  double freshFraction = 0.25; // --fresh-fraction: births on warm frames
  unsigned maxJobs = 0;   // --jobs: concurrent-job cap (0 = thread budget)
  double deadline = 0.0;  // --deadline: whole-batch wall limit in seconds
  std::string traceOut;   // --trace-out: Chrome trace JSON destination
  bool list = false;
  bool progress = false;
  bool help = false;
};

void printUsage() {
  std::printf(
      "usage: mcmcpar_run [options]\n"
      "  --list              print the strategy registry and exit\n"
      "  --strategy NAME     strategy to run, or 'all' (default: serial)\n"
      "  --opt key=value     strategy-specific option (repeatable)\n"
      "  --iterations N      iteration budget (default: 20000)\n"
      "  --trace N           trace cadence (default: ~200 points)\n"
      "  --seed N            master seed (default: 1)\n"
      "  --threads N         worker threads, 0 = hardware (default: 0)\n"
      "  --width N/--height N/--cells N/--radius X  synthetic scene shape\n"
      "  --image FILE.pgm    run on a PGM image instead of a synthetic scene\n"
      "  --shard KxL|auto    run through the 'sharded' coordinator: split the\n"
      "                      image into KxL tiles ('auto' = density-adaptive\n"
      "                      grid) with --strategy on each tile; shard knobs\n"
      "                      (halo=N backend=local|socket hedge-factor=X\n"
      "                      endpoints=h:p[*W],... endpoints-file=PATH iou=X)\n"
      "                      and inner.key=value options go through --opt\n"
      "  --sequence N|GLOB   streaming run over an ordered frame sequence:\n"
      "                      a decimal N generates N synthetic drifting\n"
      "                      frames from the scene knobs; anything else is\n"
      "                      a PGM glob (sorted). Frame K warm-starts from\n"
      "                      frame K-1 and objects are tracked across frames\n"
      "  --no-warm-start     sequence: cold-start every frame\n"
      "  --no-track          sequence: skip the cross-frame tracker\n"
      "  --fresh-fraction X  sequence: fresh births on warm frames as a\n"
      "                      fraction of the expected count (default 0.25)\n"
      "  --progress          print progress beats from RunHooks\n"
      "  --batch FILE        run a job manifest through BatchRunner; each\n"
      "                      line is '<image.pgm|synth> <strategy>\n"
      "                      [@iters=N @seed=N @trace=N @label=S] [k=v ...]'\n"
      "                      (grammar: docs/PROTOCOL.md)\n"
      "  --jobs N            batch: concurrent-job cap (0 = thread budget)\n"
      "  --deadline X        batch: wall-clock deadline in seconds\n"
      "  --trace-out FILE    write a Chrome trace-event JSON timeline of the\n"
      "                      run (open in chrome://tracing or Perfetto);\n"
      "                      sharded runs show fan-out, per-tile flights,\n"
      "                      hedges and the stitch as nested spans\n");
}

/// Strict numeric parsing: the whole token must convert, mirroring the
/// engine's key=value validation (no silent "20k" -> 20 truncation).
bool parseU64(const char* flag, const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n", flag,
                 text);
    return false;
  }
  out = value;
  return true;
}

bool parseInt(const char* flag, const char* text, int& out) {
  std::uint64_t value = 0;
  if (!parseU64(flag, text, value) || value > 0x7FFFFFFFull) {
    std::fprintf(stderr, "%s: expected a positive int, got '%s'\n", flag,
                 text);
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

bool parseDouble(const char* flag, const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", flag, text);
    return false;
  }
  out = value;
  return true;
}

std::optional<CliOptions> parseArgs(int argc, char** argv) {
  CliOptions cli;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value after %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--list") == 0) {
      cli.list = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      cli.progress = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      cli.help = true;
      return cli;
    } else if (std::strcmp(arg, "--strategy") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.strategy = v;
    } else if (std::strcmp(arg, "--opt") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.strategyOptions.emplace_back(v);
    } else if (std::strcmp(arg, "--iterations") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseU64(arg, v, cli.budget.iterations)) return std::nullopt;
    } else if (std::strcmp(arg, "--trace") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseU64(arg, v, cli.budget.traceInterval)) return std::nullopt;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseU64(arg, v, cli.resources.seed)) return std::nullopt;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      int threads = 0;
      if (!parseInt(arg, v, threads)) return std::nullopt;
      cli.resources.threads = static_cast<unsigned>(threads);
    } else if (std::strcmp(arg, "--width") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseInt(arg, v, cli.width)) return std::nullopt;
    } else if (std::strcmp(arg, "--height") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseInt(arg, v, cli.height)) return std::nullopt;
    } else if (std::strcmp(arg, "--cells") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseInt(arg, v, cli.cells)) return std::nullopt;
    } else if (std::strcmp(arg, "--radius") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseDouble(arg, v, cli.radius)) return std::nullopt;
    } else if (std::strcmp(arg, "--image") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.imagePath = v;
    } else if (std::strcmp(arg, "--batch") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.batchPath = v;
    } else if (std::strcmp(arg, "--shard") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.shardTiles = v;
    } else if (std::strcmp(arg, "--sequence") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.sequence = v;
    } else if (std::strcmp(arg, "--no-warm-start") == 0) {
      cli.noWarmStart = true;
    } else if (std::strcmp(arg, "--no-track") == 0) {
      cli.noTrack = true;
    } else if (std::strcmp(arg, "--fresh-fraction") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseDouble(arg, v, cli.freshFraction)) return std::nullopt;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      int jobs = 0;
      if (!parseInt(arg, v, jobs)) return std::nullopt;
      cli.maxJobs = static_cast<unsigned>(jobs);
    } else if (std::strcmp(arg, "--deadline") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseDouble(arg, v, cli.deadline)) return std::nullopt;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.traceOut = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", arg);
      printUsage();
      return std::nullopt;
    }
  }
  return cli;
}

void printRegistry(const engine::StrategyRegistry& registry) {
  analysis::Table table({"name", "paper", "extras", "summary"});
  for (const std::string& name : registry.names()) {
    const engine::StrategyInfo& info = registry.info(name);
    table.addRow({info.name, info.paperSection, info.extrasType, info.summary});
  }
  table.print(std::cout);
  std::printf("\nper-strategy options (--opt key=value):\n");
  for (const std::string& name : registry.names()) {
    const engine::StrategyInfo& info = registry.info(name);
    std::printf("  %-12s %s\n", info.name.c_str(),
                info.optionsHelp.empty() ? "-" : info.optionsHelp.c_str());
  }
}

/// One line summarising the strategy-specific extras of a report.
void printExtras(const engine::RunReport& report) {
  if (const auto* spec =
          std::get_if<spec::SpeculativeStats>(&report.extras)) {
    std::printf("  [%s] %llu rounds, %.2f iters/round, %.0f%% waste\n",
                report.strategy.c_str(),
                static_cast<unsigned long long>(spec->rounds),
                spec->meanConsumedPerRound(), 100.0 * spec->wasteFraction());
  } else if (const auto* mc3 = std::get_if<mcmc::Mc3Stats>(&report.extras)) {
    std::printf("  [%s] swap rate %.2f (%llu/%llu)\n", report.strategy.c_str(),
                mc3->swapRate(),
                static_cast<unsigned long long>(mc3->swapAccepted),
                static_cast<unsigned long long>(mc3->swapProposed));
  } else if (const auto* periodic =
                 std::get_if<core::PeriodicReport>(&report.extras)) {
    std::printf(
        "  [%s] %llu phases, %llu global + %llu local iters, "
        "overhead %.3f s\n",
        report.strategy.c_str(),
        static_cast<unsigned long long>(periodic->phases),
        static_cast<unsigned long long>(periodic->globalIterations),
        static_cast<unsigned long long>(periodic->localIterations),
        periodic->overheadSeconds);
  } else if (const auto* pipeline =
                 std::get_if<core::PipelineReport>(&report.extras)) {
    // Both runtimes are the §IX model (time-to-plateau), not wall time.
    std::printf(
        "  [%s] %zu partitions on %u threads, modelled runtime %.3f s "
        "(1 cpu/partition), %.3f s (LPT on %u)\n",
        report.strategy.c_str(), pipeline->partitions.size(),
        pipeline->loadBalancedThreads, pipeline->parallelRuntime,
        pipeline->loadBalancedRuntime, pipeline->loadBalancedThreads);
  } else if (const auto* sharded =
                 std::get_if<shard::ShardReport>(&report.extras)) {
    char gridLabel[32];
    if (sharded->adaptive) {
      std::snprintf(gridLabel, sizeof(gridLabel), "auto(%d)",
                    sharded->gridX);
    } else {
      std::snprintf(gridLabel, sizeof(gridLabel), "%dx%d", sharded->gridX,
                    sharded->gridY);
    }
    std::printf(
        "  [%s] %s tiles (halo %d, %s/%s), slowest tile %.3f s of "
        "%.3f s total, stitch dropped %zu halo + %zu duplicate(s) in "
        "%.3f s\n",
        report.strategy.c_str(), gridLabel, sharded->halo,
        sharded->backend.c_str(), sharded->innerStrategy.c_str(),
        sharded->maxTileSeconds, sharded->sumTileSeconds,
        sharded->haloDropped, sharded->duplicatesRemoved,
        sharded->mergeSeconds);
    if (sharded->requeues > 0 || sharded->endpointsDead > 0) {
      std::printf("  [%s] %zu requeue(s), %zu dead endpoint(s)\n",
                  report.strategy.c_str(), sharded->requeues,
                  sharded->endpointsDead);
    }
    if (sharded->hedgesIssued > 0) {
      std::printf("  [%s] %zu hedge(s) issued, %zu hedge(s) won\n",
                  report.strategy.c_str(), sharded->hedgesIssued,
                  sharded->hedgesWon);
    }
    for (const shard::TileRun& tile : sharded->tiles) {
      std::printf("    %-10s %llu iters, %zu found -> %zu kept, logP %.1f",
                  tile.label.c_str(),
                  static_cast<unsigned long long>(tile.iterations),
                  tile.circlesFound, tile.circlesKept, tile.logPosterior);
      if (!tile.endpoint.empty()) {
        std::printf(" @%s", tile.endpoint.c_str());
        if (tile.attempts > 1) std::printf(" (attempt %u)", tile.attempts);
        if (tile.hedged) std::printf(" (hedged)");
      }
      std::printf("\n");
    }
  } else if (const auto* seq =
                 std::get_if<stream::StreamReport>(&report.extras)) {
    std::printf(
        "  [%s] %zu/%zu frame(s), warm-start %s, p50 frame %.3f s, "
        "%zu track(s)\n",
        seq->innerStrategy.c_str(), seq->perFrame.size(), seq->frameCount,
        seq->warmStart ? "on" : "off", seq->p50FrameSeconds,
        seq->tracks.size());
    for (const stream::TrackSummary& track : seq->tracks) {
      std::printf("    track %llu: frames %zu..%zu (%zu frame(s))\n",
                  static_cast<unsigned long long>(track.id), track.firstFrame,
                  track.lastFrame, track.length());
    }
  }
}

/// --trace-out guard: arms the global tracer for the whole run and writes
/// the collected spans as Chrome trace-event JSON on every exit path.
class TraceOutput {
 public:
  explicit TraceOutput(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) obs::Tracer::global().setEnabled(true);
  }
  ~TraceOutput() {
    if (path_.empty()) return;
    obs::Tracer::global().setEnabled(false);
    std::string error;
    if (obs::Tracer::global().writeJson(path_, &error)) {
      std::fprintf(stderr, "trace written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "--trace-out: %s\n", error.c_str());
    }
  }
  TraceOutput(const TraceOutput&) = delete;
  TraceOutput& operator=(const TraceOutput&) = delete;

 private:
  std::string path_;
};

/// The circle prior every run shares, sized from the CLI radius knob.
engine::Problem makeProblem(const img::ImageF& image, const CliOptions& cli) {
  engine::Problem problem;
  problem.filtered = &image;
  problem.prior.radiusMean = cli.radius;
  problem.prior.radiusStd = cli.radius / 8.0;
  problem.prior.radiusMin = cli.radius / 2.0;
  problem.prior.radiusMax = cli.radius * 1.8;
  return problem;
}

/// --batch: parse the manifest, load each distinct image once, run every
/// job through BatchRunner under one shared thread budget, and print the
/// per-job table plus the aggregate BatchReport.
int runBatch(const CliOptions& cli) {
  std::ifstream manifest(cli.batchPath);
  if (!manifest) {
    std::fprintf(stderr, "cannot open manifest %s\n", cli.batchPath.c_str());
    return 2;
  }
  std::vector<engine::ManifestEntry> entries;
  try {
    entries = engine::parseBatchManifest(manifest);
  } catch (const engine::EngineError& e) {
    std::fprintf(stderr, "%s: %s\n", cli.batchPath.c_str(), e.what());
    return 2;
  }

  // One image per distinct manifest path ("synth" = the CLI scene); the map
  // is node-based, so Problem's borrowed pointers stay stable.
  std::map<std::string, img::ImageF> images;
  for (const engine::ManifestEntry& entry : entries) {
    if (entry.inlineImage) {
      // There is no connection to have UPLOADed on: inline frames are a
      // socket-front-end feature (docs/PROTOCOL.md Binary frames).
      std::fprintf(stderr,
                   "%s: @image=inline is only valid on the socket "
                   "front-end, not in --batch manifests (job '%s')\n",
                   cli.batchPath.c_str(), entry.image.c_str());
      return 2;
    }
    if (!entry.sequence.empty()) {
      // BatchRunner runs single-image jobs; dropping the directive would
      // silently run a one-frame job in place of the sequence.
      std::fprintf(stderr,
                   "%s: @sequence jobs are not supported in --batch "
                   "manifests (job '%s'); use --sequence or mcmcpar_serve\n",
                   cli.batchPath.c_str(), entry.image.c_str());
      return 2;
    }
    if (images.count(entry.image) != 0) continue;
    if (entry.image == "synth") {
      img::Scene scene = img::generateScene(img::cellScene(
          cli.width, cli.height, cli.cells, cli.radius, cli.resources.seed));
      images.emplace(entry.image, std::move(scene.image));
    } else {
      try {
        images.emplace(entry.image, img::toF(img::readPgm(entry.image)));
      } catch (const img::PnmError& e) {
        std::fprintf(stderr, "cannot read %s: %s\n", entry.image.c_str(),
                     e.what());
        return 2;
      }
    }
  }

  std::vector<engine::BatchJob> jobs;
  jobs.reserve(entries.size());
  for (const engine::ManifestEntry& entry : entries) {
    engine::BatchJob job;
    job.strategy = entry.strategy;
    job.options = entry.options;
    CliOptions jobCli = cli;
    if (entry.radius) jobCli.radius = *entry.radius;
    job.problem = makeProblem(images.at(entry.image), jobCli);
    if (entry.radiusStd) job.problem.prior.radiusStd = *entry.radiusStd;
    if (entry.radiusMin) job.problem.prior.radiusMin = *entry.radiusMin;
    if (entry.radiusMax) job.problem.prior.radiusMax = *entry.radiusMax;
    if (entry.expectedCount) {
      job.problem.estimateCount = false;
      job.problem.prior.expectedCount = *entry.expectedCount;
    }
    job.budget = cli.budget;
    // @directives on the manifest line override the CLI-wide defaults.
    if (entry.iterations) job.budget.iterations = *entry.iterations;
    if (entry.trace) job.budget.traceInterval = *entry.trace;
    job.seed = entry.seed;
    job.label = entry.label.empty() ? entry.image : entry.label;
    jobs.push_back(std::move(job));
  }

  engine::BatchOptions options;
  options.resources = cli.resources;
  options.maxConcurrentJobs = cli.maxJobs;
  options.deadlineSeconds = cli.deadline;

  engine::BatchHooks hooks;
  if (cli.progress) {
    hooks.onJobDone = [](std::size_t index, const engine::RunReport& report) {
      std::fprintf(stderr, "  job %zu (%s) %s\n", index,
                   report.strategy.c_str(),
                   report.cancelled ? "cancelled" : "done");
    };
  }

  engine::BatchResult result;
  try {
    result = engine::BatchRunner().run(jobs, options, hooks);
  } catch (const engine::EngineError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  analysis::Table table(
      {"#", "image", "strategy", "status", "seconds", "iters", "circles",
       "logP"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const engine::RunReport& report = result.reports[i];
    const char* status = !result.batch.errors[i].empty() ? "failed"
                         : report.cancelled              ? "cancelled"
                                                         : "ok";
    const auto circles = static_cast<long long>(report.circles.size());
    table.addRow(
        {analysis::Table::integer(static_cast<long long>(i)), jobs[i].label,
         report.strategy, status, analysis::Table::num(report.wallSeconds, 3),
         analysis::Table::integer(static_cast<long long>(report.iterations)),
         analysis::Table::integer(circles),
         analysis::Table::num(report.logPosterior, 1)});
  }
  table.print(std::cout);

  const engine::BatchReport& batch = result.batch;
  std::printf(
      "\nbatch: %zu jobs (%zu ok, %zu cancelled, %zu failed) in %.3f s\n"
      "       %.2f jobs/s, latency p50 %.3f s / p95 %.3f s, "
      "%u threads budgeted, %u jobs in flight\n",
      batch.jobs, batch.completed, batch.cancelled, batch.failed,
      batch.wallSeconds, batch.jobsPerSecond, batch.p50Seconds,
      batch.p95Seconds, batch.threadBudget, batch.concurrentJobs);
  for (const auto& [name, totals] : batch.perStrategy) {
    std::printf("       %-12s %zu job(s), %llu iters, %.3f s\n", name.c_str(),
                totals.jobs,
                static_cast<unsigned long long>(totals.iterations),
                totals.wallSeconds);
  }
  for (std::size_t i = 0; i < batch.errors.size(); ++i) {
    if (!batch.errors[i].empty()) {
      std::fprintf(stderr, "job %zu failed: %s\n", i,
                   batch.errors[i].c_str());
    }
  }
  return batch.failed == 0 ? 0 : 1;
}

/// --sequence: build the frame list (synthetic drifting scene or PGM glob),
/// run it through stream::SequenceRunner with warm-started chains and the
/// cross-frame tracker, and print the per-frame table plus track lifetimes.
int runSequence(const CliOptions& cli) {
  if (cli.strategy == "all") {
    std::fprintf(stderr, "--sequence cannot be combined with --strategy all\n");
    return 2;
  }

  stream::SequenceSpec spec;
  spec.strategy = cli.strategy;
  spec.options = cli.strategyOptions;
  spec.budget = cli.budget;
  spec.warmStart = !cli.noWarmStart;
  spec.track = !cli.noTrack;
  spec.freshFraction = cli.freshFraction;

  if (const auto count = stream::parseFrameCount(cli.sequence)) {
    constexpr std::uint64_t kMaxSynthFrames = 4096;
    if (*count > kMaxSynthFrames) {
      std::fprintf(stderr, "--sequence: at most %llu synthetic frames\n",
                   static_cast<unsigned long long>(kMaxSynthFrames));
      return 2;
    }
    img::DriftSpec drift;
    drift.scene = img::cellScene(cli.width, cli.height, cli.cells, cli.radius,
                                 cli.resources.seed);
    drift.frames = static_cast<int>(*count);
    std::vector<img::Scene> scenes = img::generateDriftingSequence(drift);
    for (std::size_t k = 0; k < scenes.size(); ++k) {
      spec.frames.push_back(
          {std::make_shared<img::ImageF>(std::move(scenes[k].image)),
           "synth." + std::to_string(k)});
    }
    std::printf("sequence: %zu synthetic drifting frames (%dx%d, %d cells)\n\n",
                spec.frames.size(), cli.width, cli.height, cli.cells);
  } else {
    const std::vector<std::string> paths = stream::expandFrameGlob(cli.sequence);
    if (paths.empty()) {
      std::fprintf(stderr, "--sequence: no frames match '%s'\n",
                   cli.sequence.c_str());
      return 2;
    }
    for (const std::string& path : paths) {
      try {
        spec.frames.push_back(
            {std::make_shared<img::ImageF>(img::toF(img::readPgm(path))),
             path});
      } catch (const img::PnmError& e) {
        std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(), e.what());
        return 2;
      }
    }
    std::printf("sequence: %zu frames matching %s\n\n", spec.frames.size(),
                cli.sequence.c_str());
  }

  spec.problem = makeProblem(*spec.frames.front().image, cli);

  stream::SequenceHooks hooks;
  if (cli.progress) {
    hooks.onFrame = [](const stream::FrameResult& frame,
                       const engine::RunReport&) {
      std::fprintf(stderr,
                   "  frame %zu (%s): %zu circle(s), %zu carried, logP %.1f\n",
                   frame.index, frame.label.c_str(), frame.circles,
                   frame.carried, frame.logPosterior);
    };
  }

  engine::RunReport report;
  try {
    report = stream::SequenceRunner().run(spec, cli.resources, hooks);
  } catch (const engine::EngineError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const auto* seq = std::get_if<stream::StreamReport>(&report.extras);
  analysis::Table table({"frame", "label", "seconds", "iters", "accept",
                         "circles", "carried", "born", "ended", "logP"});
  if (seq != nullptr) {
    for (const stream::FrameResult& frame : seq->perFrame) {
      table.addRow(
          {analysis::Table::integer(static_cast<long long>(frame.index)),
           frame.label, analysis::Table::num(frame.wallSeconds, 3),
           analysis::Table::integer(
               static_cast<long long>(frame.iterations)),
           analysis::Table::num(frame.acceptanceRate, 3),
           analysis::Table::integer(static_cast<long long>(frame.circles)),
           analysis::Table::integer(static_cast<long long>(frame.carried)),
           analysis::Table::integer(static_cast<long long>(frame.tracksBorn)),
           analysis::Table::integer(
               static_cast<long long>(frame.tracksEnded)),
           analysis::Table::num(frame.logPosterior, 1)});
    }
  }
  table.print(std::cout);
  std::printf("\n");
  printExtras(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parseArgs(argc, argv);
  if (!parsed) return 2;
  const CliOptions& cli = *parsed;
  if (cli.help) {
    printUsage();
    return 0;
  }

  const engine::StrategyRegistry& registry = engine::StrategyRegistry::builtin();
  if (cli.list) {
    printRegistry(registry);
    return 0;
  }
  const TraceOutput traceOutput(cli.traceOut);
  if (!cli.sequence.empty()) {
    if (!cli.batchPath.empty() || !cli.shardTiles.empty()) {
      std::fprintf(stderr,
                   "--sequence cannot be combined with --batch or --shard\n");
      return 2;
    }
    return runSequence(cli);
  }
  if (!cli.batchPath.empty()) {
    if (!cli.shardTiles.empty()) {
      // Silently running the manifest unsharded would be worse than an
      // error; shard batch jobs per line via the @shard directive instead.
      std::fprintf(stderr,
                   "--shard cannot be combined with --batch; put "
                   "'@shard=%s' on the manifest lines to shard\n",
                   cli.shardTiles.c_str());
      return 2;
    }
    return runBatch(cli);
  }

  // The problem: a PGM from disk, or a synthetic scene with known truth.
  img::ImageF image;
  std::vector<model::Circle> truth;
  if (!cli.imagePath.empty()) {
    try {
      image = img::toF(img::readPgm(cli.imagePath));
    } catch (const img::PnmError& e) {
      std::fprintf(stderr, "cannot read %s: %s\n", cli.imagePath.c_str(),
                   e.what());
      return 2;
    }
    std::printf("image: %s (%dx%d)\n\n", cli.imagePath.c_str(), image.width(),
                image.height());
  } else {
    const img::SceneSpec spec = img::cellScene(
        cli.width, cli.height, cli.cells, cli.radius, cli.resources.seed);
    img::Scene scene = img::generateScene(spec);
    image = std::move(scene.image);
    for (const auto& t : scene.truth) truth.push_back({t.x, t.y, t.r});
    std::printf("scene: %dx%d with %zu artifacts of radius ~%.1f\n\n",
                cli.width, cli.height, truth.size(), cli.radius);
  }

  const engine::Problem problem = makeProblem(image, cli);

  // Report progress once per decile; reset before each strategy.
  auto lastDecile = std::make_shared<int>(-1);
  engine::RunHooks hooks;
  if (cli.progress) {
    hooks.onProgress = [lastDecile](const engine::RunProgress& p) {
      if (p.total == 0) return;
      const int decile = static_cast<int>(10 * p.done / p.total);
      if (decile != *lastDecile) {
        *lastDecile = decile;
        std::fprintf(stderr, "  ... %s %d%%\n", p.phase, decile * 10);
      }
    };
  }

  // --shard KxL: route the run through the shard coordinator, with the
  // requested --strategy as the per-tile inner strategy.
  std::string strategyName = cli.strategy;
  std::vector<std::string> strategyOptions = cli.strategyOptions;
  if (!cli.shardTiles.empty()) {
    if (cli.strategy == "all") {
      std::fprintf(stderr, "--shard cannot be combined with --strategy all\n");
      return 2;
    }
    std::vector<std::string> options{"tiles=" + cli.shardTiles};
    if (cli.strategy != "sharded") {
      options.push_back("strategy=" + cli.strategy);
    }
    options.insert(options.end(), strategyOptions.begin(),
                   strategyOptions.end());
    strategyName = "sharded";
    strategyOptions = std::move(options);
  }

  std::vector<std::string> toRun;
  if (cli.strategy == "all") {
    toRun = registry.names();
    if (!cli.strategyOptions.empty()) {
      std::fprintf(stderr,
                   "--opt is strategy-specific and cannot be combined with "
                   "--strategy all\n");
      return 2;
    }
  } else {
    toRun.push_back(strategyName);
  }

  const engine::Engine eng(cli.resources);
  analysis::Table table({"strategy", "seconds", "iters", "accept", "circles",
                         "logP", "converge@", truth.empty() ? "-" : "F1"});
  std::vector<engine::RunReport> reports;
  for (const std::string& name : toRun) {
    *lastDecile = -1;
    try {
      engine::RunReport report =
          eng.run(name, problem, cli.budget, hooks, strategyOptions);
      std::string f1 = "-";
      if (!truth.empty()) {
        f1 = analysis::Table::num(
            analysis::scoreCircles(report.circles, truth, cli.radius * 0.75)
                .f1,
            3);
      }
      table.addRow(
          {report.strategy, analysis::Table::num(report.wallSeconds, 3),
           analysis::Table::integer(static_cast<long long>(report.iterations)),
           analysis::Table::num(report.acceptanceRate, 3),
           analysis::Table::integer(
               static_cast<long long>(report.circles.size())),
           analysis::Table::num(report.logPosterior, 1),
           report.iterationsToConverge
               ? analysis::Table::integer(
                     static_cast<long long>(*report.iterationsToConverge))
               : "-",
           f1});
      reports.push_back(std::move(report));
    } catch (const engine::EngineError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  table.print(std::cout);
  std::printf("\n");
  for (const engine::RunReport& report : reports) printExtras(report);
  return 0;
}
