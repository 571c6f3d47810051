// mcmcpar_run — the uniform CLI front-end of the engine façade: execute any
// registered strategy (or all of them) on a synthetic scene or a PGM image
// and print one comparable RunReport row per job. The flags are sugar for
// job lines (docs/PROTOCOL.md), so a flag-built run and a --batch manifest
// take one path: parse the line, resolve its frames, engine::buildJob, and
// engine::BatchRunner.
//
//   mcmcpar_run --list
//   mcmcpar_run --strategy serial --iterations 20000
//   mcmcpar_run --strategy all --iterations 5000 --width 192 --cells 10
//   mcmcpar_run --strategy mc3 --opt chains=6 --opt swap-interval=50
//   mcmcpar_run --strategy periodic --opt phase=260 --progress
//   mcmcpar_run --batch jobs.txt --threads 8 --iterations 10000
//   mcmcpar_run --shard 2x2 --strategy serial --image big.pgm --opt halo=16
//   mcmcpar_run --sequence 'frames/*.pgm' --strategy serial --opt track=0

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/table_writer.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "img/pnm_io.hpp"
#include "img/synth.hpp"
#include "obs/trace.hpp"
#include "stream/sequence.hpp"

#include "cli_args.hpp"

using namespace mcmcpar;
using cli::parseDouble;
using cli::parseU64;
using cli::parseUnsigned;

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
  std::string sequence;   // --sequence N|GLOB: run over these frames
  unsigned maxJobs = 0;   // --jobs: concurrent-job cap (0 = default)
  double deadline = 0.0;  // --deadline: whole-run wall limit in seconds
  std::string traceOut;   // --trace-out: Chrome trace JSON destination
  bool list = false;
  bool progress = false;
  bool help = false;
};

void printUsage() {
  std::printf(
      "usage: mcmcpar_run [options]\n"
      "Without --batch the flags build one job line per strategy,\n"
      "'<FILE.pgm|synth> <strategy> @seed=N [@shard=KxL] [@sequence=..]'\n"
      "plus the --opt options, and run it like a --batch manifest line.\n"
      "  --help              print this help and exit\n"
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
      "  --sequence N|GLOB   run through the 'sequence' wrapper over frames\n"
      "                      instead of one image: a decimal N generates N\n"
      "                      drifting frames from the scene knobs, anything\n"
      "                      else is a PGM glob (sorted). --strategy runs on\n"
      "                      each frame, warm-started from the previous one;\n"
      "                      sequence knobs (warm-start=0|1 track=0|1) and\n"
      "                      inner.key=value options go through --opt\n"
      "  --progress          print progress beats from RunHooks\n"
      "  --batch FILE        run a job manifest through BatchRunner; each\n"
      "                      line is '<image.pgm|synth> <strategy>\n"
      "                      [@iters=N @seed=N @trace=N @label=S\n"
      "                      @shard=KxL @sequence=N|GLOB ...] [k=v ...]'\n"
      "                      (grammar: docs/PROTOCOL.md)\n"
      "  --jobs N            concurrent-job cap (default: 1 without --batch,\n"
      "                      the thread budget with it)\n"
      "  --deadline X        wall-clock deadline of the whole run in seconds\n"
      "  --trace-out FILE    write a Chrome trace-event JSON timeline of the\n"
      "                      run (open in chrome://tracing or Perfetto);\n"
      "                      sharded runs show fan-out, per-tile flights,\n"
      "                      hedges and the stitch as nested spans\n");
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
      if (!parseUnsigned(arg, v, cli.resources.threads)) return std::nullopt;
    } else if (std::strcmp(arg, "--width") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseUnsigned(arg, v, cli.width)) return std::nullopt;
    } else if (std::strcmp(arg, "--height") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseUnsigned(arg, v, cli.height)) return std::nullopt;
    } else if (std::strcmp(arg, "--cells") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseUnsigned(arg, v, cli.cells)) return std::nullopt;
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
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      if (!parseUnsigned(arg, v, cli.maxJobs)) return std::nullopt;
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
        "  [%s] %zu/%zu frame(s) of %s, warm-start %s, p50 frame %.3f s, "
        "%zu track(s)\n",
        report.strategy.c_str(), seq->perFrame.size(), seq->frameCount,
        seq->innerStrategy.c_str(), seq->warmStart ? "on" : "off",
        seq->p50FrameSeconds, seq->tracks.size());
    analysis::Table table({"frame", "label", "seconds", "iters", "accept",
                           "circles", "carried", "born", "ended", "logP"});
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
    table.print(std::cout);
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

/// Read a PGM frame; the error names the path.
std::shared_ptr<const img::ImageF> loadPgm(const std::string& path) {
  try {
    return std::make_shared<const img::ImageF>(img::toF(img::readPgm(path)));
  } catch (const img::PnmError& e) {
    throw img::PnmError("cannot read " + path + ": " + e.what());
  }
}

/// The flags as job lines, `<image|synth> <strategy> @seed=S [@shard=T]
/// [@sequence=S]` (one per registry name for --strategy all), with the
/// --opt tokens appended to the outermost strategy's options. Throws
/// engine::EngineError on contradictory flags.
std::vector<engine::ManifestEntry> flagJobs(
    const CliOptions& cli, const engine::StrategyRegistry& registry) {
  if (!cli.sequence.empty() && !cli.imagePath.empty()) {
    throw engine::EngineError(
        "--sequence and --image are alternative frame sources; pass one");
  }
  std::vector<std::string> names{cli.strategy};
  if (cli.strategy == "all") {
    if (!cli.shardTiles.empty() || !cli.sequence.empty()) {
      throw engine::EngineError(
          "--shard and --sequence cannot be combined with --strategy all");
    }
    if (!cli.strategyOptions.empty()) {
      throw engine::EngineError(
          "--opt is strategy-specific and cannot be combined with "
          "--strategy all");
    }
    names = registry.names();
  }
  std::vector<engine::ManifestEntry> entries;
  for (const std::string& name : names) {
    std::string line =
        "image " + name + " @seed=" + std::to_string(cli.resources.seed);
    if (!cli.shardTiles.empty()) line += " @shard=" + cli.shardTiles;
    if (!cli.sequence.empty()) line += " @sequence=" + cli.sequence;
    engine::ManifestEntry entry = engine::parseManifestLine(line);
    // Set after parsing, so an image path may contain whitespace.
    entry.image = cli.imagePath.empty() ? "synth" : cli.imagePath;
    entry.options.insert(entry.options.end(), cli.strategyOptions.begin(),
                         cli.strategyOptions.end());
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// Run parsed job lines through one BatchRunner under the shared thread
/// budget, at most `maxJobs` at once (0 = the budget), and print one row
/// per job, each job's extras and the batch summary. `source` prefixes
/// frame-resolution errors.
int runJobs(const CliOptions& cli,
            const std::vector<engine::ManifestEntry>& entries,
            const std::string& source, unsigned maxJobs) {
  // One image per distinct path, shared by every job and frame naming it.
  // "synth" is the scene the size knobs describe; its truth scores F1.
  const img::SceneSpec synth = img::cellScene(
      cli.width, cli.height, cli.cells, cli.radius, cli.resources.seed);
  std::vector<model::Circle> truth;
  std::map<std::string, std::shared_ptr<const img::ImageF>> images;
  const stream::FrameLoader load =
      [&](const std::string& path) -> std::shared_ptr<const img::ImageF> {
    std::shared_ptr<const img::ImageF>& image = images[path];
    if (image != nullptr) return image;
    if (path != "synth") return image = loadPgm(path);
    img::Scene scene = img::generateScene(synth);
    for (const auto& t : scene.truth) truth.push_back({t.x, t.y, t.r});
    return image =
               std::make_shared<const img::ImageF>(std::move(scene.image));
  };
  std::vector<std::vector<stream::FrameImage>> frames;  // jobs borrow these
  std::vector<engine::BatchJob> jobs;
  frames.reserve(entries.size());
  jobs.reserve(entries.size());
  for (const engine::ManifestEntry& entry : entries) {
    try {
      frames.push_back(stream::resolveJobFrames(entry, synth, load));
      jobs.push_back(
          engine::buildJob(entry, cli.budget, cli.radius, frames.back()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: job '%s': %s\n", source.c_str(),
                   entry.image.c_str(), e.what());
      return 2;
    }
  }

  engine::BatchOptions options;
  options.resources = cli.resources;
  options.maxConcurrentJobs = maxJobs;
  options.deadlineSeconds = cli.deadline;

  // Progress once per decile of each job, then one line per finished job.
  std::vector<int> lastDecile(jobs.size(), -1);
  engine::BatchHooks hooks;
  if (cli.progress) {
    hooks.onJobProgress = [&lastDecile](std::size_t index,
                                        const engine::RunProgress& p) {
      if (p.total == 0) return;
      const int decile = static_cast<int>(10 * p.done / p.total);
      if (decile == lastDecile[index]) return;
      lastDecile[index] = decile;
      std::fprintf(stderr, "  ... job %zu %s %d%%\n", index, p.phase,
                   decile * 10);
    };
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

  analysis::Table table({"strategy", "seconds", "iters", "accept", "circles",
                         "logP", "converge@", "F1", "status", "job"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const engine::RunReport& report = result.reports[i];
    const char* status = !result.batch.errors[i].empty() ? "failed"
                         : report.cancelled              ? "cancelled"
                                                         : "ok";
    std::string f1 = "-";
    if (!truth.empty() && entries[i].image == "synth" &&
        entries[i].sequence.empty()) {
      f1 = analysis::Table::num(
          analysis::scoreCircles(report.circles, truth, cli.radius * 0.75).f1,
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
         f1, status, jobs[i].label});
  }
  table.print(std::cout);
  std::printf("\n");
  for (const engine::RunReport& report : result.reports) printExtras(report);

  const engine::BatchReport& batch = result.batch;
  std::printf(
      "\nbatch: %zu jobs (%zu ok, %zu cancelled, %zu failed) in %.3f s\n"
      "       %.2f jobs/s, latency p50 %.3f s / p95 %.3f s, "
      "%u threads budgeted, %u jobs in flight\n",
      batch.jobs, batch.completed, batch.cancelled, batch.failed,
      batch.wallSeconds, batch.jobsPerSecond, batch.p50Seconds,
      batch.p95Seconds, batch.threadBudget, batch.concurrentJobs);
  for (const auto& [name, totals] : batch.perStrategy) {
    std::printf("       %-13s %zu job(s), %llu iters, %.3f s\n",
                (name + ":").c_str(), totals.jobs,
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
  if (cli.batchPath.empty()) {
    std::vector<engine::ManifestEntry> entries;
    try {
      entries = flagJobs(cli, registry);
    } catch (const engine::EngineError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    // One at a time unless --jobs says otherwise, so each job leases the
    // whole thread budget.
    return runJobs(cli, entries, "mcmcpar_run",
                   cli.maxJobs != 0 ? cli.maxJobs : 1);
  }

  if (!cli.shardTiles.empty() || !cli.sequence.empty()) {
    // Silently running the manifest unwrapped would be worse than an
    // error; wrap batch jobs per line via the directives instead.
    std::fprintf(stderr,
                 "--shard and --sequence cannot be combined with --batch; "
                 "put '@shard=KxL' or '@sequence=N|GLOB' on the manifest "
                 "lines instead\n");
    return 2;
  }
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
  return runJobs(cli, entries, cli.batchPath, cli.maxJobs);
}
