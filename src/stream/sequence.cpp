#include "stream/sequence.hpp"

#include <fnmatch.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <utility>

#include "analysis/stats.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/virtual_clock.hpp"
#include "stream/tracker.hpp"

namespace mcmcpar::stream {

namespace {

class SequenceStrategy final : public engine::Strategy {
 public:
  SequenceStrategy(const engine::StrategyRegistry* registry,
                   const engine::ExecResources& resources,
                   const engine::OptionMap& options)
      : registry_(registry),
        resources_(resources),
        inner_(engine::innerStrategy(*registry, name_, options)),
        warmStart_(options.flag("warm-start", true)),
        track_(options.flag("track", true)) {
    options.requireConsumed(name_);
  }

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }

  void prepare(const engine::Problem& problem) override {
    problem_ = problem;
    frames_ = problem.frames.empty()
                  ? std::vector<engine::Frame>{{problem.filtered, "filtered"}}
                  : problem.frames;
    problem_.frames.clear();
    problem_.warmStart.clear();
    for (const engine::Frame& frame : frames_) {
      if (frame.image == nullptr) {
        throw engine::EngineError("strategy '" + name_ + "': frame '" +
                                  frame.label + "' has no image");
      }
    }
    prepared_ = true;
  }

  [[nodiscard]] engine::RunReport run(const engine::RunBudget& budget,
                                      const engine::RunHooks& hooks) override {
    if (!prepared_) {
      throw engine::EngineError("strategy '" + name_ +
                                "': run() called before prepare()");
    }
    const par::WallTimer total;
    StreamReport streamReport;
    streamReport.innerStrategy = inner_.name;
    streamReport.warmStart = warmStart_;
    streamReport.tracking = track_;
    streamReport.frameCount = frames_.size();

    Tracker tracker;
    engine::RunReport report;
    report.strategy = name_;
    report.threadsUsed = 0;

    std::vector<model::Circle> carried;
    std::vector<double> frameSeconds;
    bool cancelled = false;

    for (std::size_t k = 0; k < frames_.size(); ++k) {
      if (hooks.cancelled()) {
        cancelled = true;
        break;
      }
      const engine::Frame& frame = frames_[k];

      engine::Problem problem = problem_;
      problem.filtered = frame.image;
      if (warmStart_) problem.warmStart = carried;
      const std::size_t carriedCount = problem.warmStart.size();

      engine::ExecResources frameResources = resources_;
      frameResources.seed = engine::deriveJobSeed(resources_.seed, k);

      auto strategy =
          registry_->create(inner_.name, frameResources, inner_.options);
      strategy->prepare(problem);

      engine::RunHooks frameHooks;
      frameHooks.cancelRequested = hooks.cancelRequested;

      const par::WallTimer timer;
      engine::RunReport frameReport;
      {
        obs::Span frameSpan("stream", "frame:" + std::to_string(k));
        frameSpan.arg("label", frame.label);
        frameSpan.arg("carried", std::to_string(carriedCount));
        frameReport = strategy->run(budget, frameHooks);
      }
      const double seconds = timer.seconds();
      frameSeconds.push_back(seconds);
      obs::Registry& metrics = obs::Registry::global();
      metrics
          .histogram("mcmcpar_stream_frame_seconds",
                     "Per-frame wall time of sequence runs.",
                     obs::latencyBuckets())
          .observe(seconds);
      metrics
          .counter("mcmcpar_stream_frames_total",
                   "Sequence frames completed.")
          .add();
      if (carriedCount > 0) {
        metrics
            .counter("mcmcpar_stream_warm_frames_total",
                     "Frames warm-started from the previous frame's circles.")
            .add();
        metrics
            .counter("mcmcpar_stream_carried_circles_total",
                     "Circles carried across frames by warm starts.")
            .add(static_cast<std::uint64_t>(carriedCount));
      }
      carried = frameReport.circles;

      FrameResult result{.index = k,
                         .label = frame.label,
                         .iterations = frameReport.iterations,
                         .wallSeconds = seconds,
                         .acceptanceRate = frameReport.acceptanceRate,
                         .logPosterior = frameReport.logPosterior,
                         .circles = frameReport.circles.size(),
                         .carried = carriedCount,
                         .cancelled = frameReport.cancelled};
      if (track_) {
        const Tracker::FrameUpdate update =
            tracker.update(k, frameReport.circles);
        result.tracksBorn = update.born;
        result.tracksEnded = update.ended;
      }

      report.iterations += frameReport.iterations;
      report.diagnostics.merge(frameReport.diagnostics);
      report.threadsUsed =
          std::max(report.threadsUsed, frameReport.threadsUsed);
      report.circles = std::move(frameReport.circles);
      report.logPosterior = frameReport.logPosterior;

      streamReport.perFrame.push_back(std::move(result));
      hooks.progress(k + 1, frames_.size(), "frame");
      if (frameReport.cancelled) {
        cancelled = true;
        break;
      }
    }

    if (report.threadsUsed == 0) report.threadsUsed = 1;
    report.cancelled = cancelled;
    report.wallSeconds = total.seconds();
    report.acceptanceRate = report.diagnostics.aggregate().acceptanceRate();
    streamReport.p50FrameSeconds = analysis::summarise(frameSeconds).median;
    if (track_) streamReport.tracks = tracker.tracks();
    report.extras = std::move(streamReport);
    return report;
  }

 private:
  std::string name_ = "sequence";
  const engine::StrategyRegistry* registry_;
  engine::ExecResources resources_;
  engine::InnerStrategy inner_;
  bool warmStart_;
  bool track_;
  engine::Problem problem_;  ///< per-frame template, frames cleared
  std::vector<engine::Frame> frames_;
  bool prepared_ = false;
};

}  // namespace

void registerSequenceStrategy(engine::StrategyRegistry& registry) {
  const engine::StrategyRegistry* reg = &registry;
  registry.add({"sequence", "streaming",
                "frame sequence: warm-started runs per frame + tracking",
                "StreamReport",
                "strategy=NAME inner.K=V warm-start=0|1 track=0|1",
                [reg](const engine::ExecResources& res,
                      const engine::OptionMap& opts) {
                  return std::make_unique<SequenceStrategy>(reg, res, opts);
                }});
}

void requireFrameLimit(std::uint64_t count, const std::string& sequence) {
  if (count > kMaxFrames) {
    throw engine::EngineError("sequence '" + sequence + "' names " +
                              std::to_string(count) + " frames; at most " +
                              std::to_string(kMaxFrames) +
                              " per sequence");
  }
}

std::vector<FrameImage> resolveFrames(const std::string& sequence,
                                      const img::SceneSpec* synth,
                                      const FrameLoader& load) {
  std::vector<FrameImage> frames;
  if (const std::optional<std::uint64_t> count = parseFrameCount(sequence)) {
    if (synth == nullptr) {
      throw engine::EngineError(
          "sequence '" + sequence +
          "': a frame count names generated 'synth' frames or inline "
          "uploads; use a glob pattern for on-disk frames");
    }
    requireFrameLimit(*count, sequence);
    img::DriftSpec drift;
    drift.scene = *synth;
    drift.frames = static_cast<int>(*count);
    std::vector<img::Scene> scenes = img::generateDriftingSequence(drift);
    frames.reserve(scenes.size());
    for (std::size_t k = 0; k < scenes.size(); ++k) {
      frames.push_back(
          {std::make_shared<const img::ImageF>(std::move(scenes[k].image)),
           "synth." + std::to_string(k)});
    }
    return frames;
  }

  const std::vector<std::string> paths = expandFrameGlob(sequence);
  if (paths.empty()) {
    throw engine::EngineError("sequence glob '" + sequence +
                              "' matched no files");
  }
  requireFrameLimit(paths.size(), sequence);
  frames.reserve(paths.size());
  for (const std::string& path : paths) frames.push_back({load(path), path});
  return frames;
}

std::vector<FrameImage> resolveJobFrames(const engine::ManifestEntry& entry,
                                         const img::SceneSpec& synth,
                                         const FrameLoader& load) {
  if (entry.inlineImage) {
    throw engine::EngineError(
        "@image=inline names an UPLOAD, which only the socket front-end "
        "accepts (docs/PROTOCOL.md Binary frames)");
  }
  if (entry.sequence.empty()) return {{load(entry.image), entry.image}};
  return resolveFrames(entry.sequence,
                       entry.image == "synth" ? &synth : nullptr, load);
}

std::optional<std::uint64_t> parseFrameCount(const std::string& value) {
  if (value.empty() || value.size() > 9) return std::nullopt;
  for (char c : value) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return std::nullopt;
  }
  const std::uint64_t count = std::stoull(value);
  if (count == 0) return std::nullopt;
  return count;
}

std::vector<std::string> expandFrameGlob(const std::string& pattern) {
  namespace fs = std::filesystem;
  if (pattern.find_first_of("*?[") == std::string::npos) return {pattern};

  const fs::path full(pattern);
  fs::path dir = full.parent_path();
  if (dir.empty()) dir = ".";
  const std::string name = full.filename().string();

  std::vector<std::string> matches;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string base = it->path().filename().string();
    if (::fnmatch(name.c_str(), base.c_str(), 0) == 0) {
      matches.push_back(it->path().string());
    }
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

}  // namespace mcmcpar::stream
