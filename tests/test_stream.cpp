// The streaming frame-sequence subsystem (src/stream): disc-IoU matching,
// the deterministic cross-frame Tracker, the synthetic drifting-circles
// generator, frame resolution and its cap, the "sequence" strategy
// (determinism, cancellation, bit-identity with a hand-written per-frame
// hand-off), the @sequence / @warm-start / @track manifest directives, and
// the warm-start acceptance band — a warm-started frame must reach the
// detection band in at most half the iterations a cold start needs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/matching.hpp"
#include "analysis/metrics.hpp"
#include "engine/batch.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"
#include "stream/sequence.hpp"
#include "stream/tracker.hpp"

namespace fs = std::filesystem;

namespace mcmcpar {
namespace {

std::vector<model::Circle> toCircles(const std::vector<img::SceneCircle>& in) {
  std::vector<model::Circle> out;
  out.reserve(in.size());
  for (const img::SceneCircle& c : in) out.push_back({c.x, c.y, c.r});
  return out;
}

// ---------------------------------------------------------------------------
// Disc IoU and IoU matching
// ---------------------------------------------------------------------------

TEST(Matching, CircleIoUIdenticalDisjointAndPartial) {
  const model::Circle a{10.0, 10.0, 5.0};
  EXPECT_DOUBLE_EQ(analysis::circleIoU(a, a), 1.0);
  EXPECT_DOUBLE_EQ(analysis::circleIoU(a, {30.0, 10.0, 5.0}), 0.0);
  const double partial = analysis::circleIoU(a, {12.0, 10.0, 5.0});
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, 1.0);
  // Symmetric.
  EXPECT_DOUBLE_EQ(partial, analysis::circleIoU({12.0, 10.0, 5.0}, a));
}

TEST(Matching, IoUMatchingPairsGreedilyAndReportsLeftovers) {
  const std::vector<model::Circle> truth{{10, 10, 5}, {40, 40, 5}};
  const std::vector<model::Circle> found{
      {41, 40, 5},    // matches truth[1]
      {10.5, 10, 5},  // matches truth[0]
      {80, 80, 5},    // false positive
  };
  const analysis::IouMatchResult result =
      analysis::matchCirclesIoU(found, truth, 0.25);
  ASSERT_EQ(result.matches.size(), 2u);
  for (const analysis::IouMatch& m : result.matches) {
    if (m.truthIndex == 0) {
      EXPECT_EQ(m.foundIndex, 1u);
    }
    if (m.truthIndex == 1) {
      EXPECT_EQ(m.foundIndex, 0u);
    }
    EXPECT_GE(m.iou, 0.25);
  }
  ASSERT_EQ(result.unmatchedFound.size(), 1u);
  EXPECT_EQ(result.unmatchedFound[0], 2u);
  EXPECT_TRUE(result.unmatchedTruth.empty());
}

TEST(Matching, IoUGateExcludesWeakOverlaps) {
  const std::vector<model::Circle> truth{{10, 10, 5}};
  const std::vector<model::Circle> found{{18, 10, 5}};  // slivers of overlap
  const analysis::IouMatchResult strict =
      analysis::matchCirclesIoU(found, truth, 0.5);
  EXPECT_TRUE(strict.matches.empty());
  EXPECT_EQ(strict.unmatchedFound.size(), 1u);
  EXPECT_EQ(strict.unmatchedTruth.size(), 1u);
}

// ---------------------------------------------------------------------------
// Tracker
// ---------------------------------------------------------------------------

TEST(Tracker, AssignsStableIdsAcrossFrames) {
  stream::Tracker tracker(0.25);

  const stream::Tracker::FrameUpdate f0 =
      tracker.update(0, {{10, 10, 5}, {30, 30, 5}});
  EXPECT_EQ(f0.born, 2u);
  EXPECT_EQ(f0.ended, 0u);
  ASSERT_EQ(f0.ids.size(), 2u);
  EXPECT_EQ(f0.ids[0], 1u);
  EXPECT_EQ(f0.ids[1], 2u);

  // Object 1 drifts one pixel, object 2 vanishes, a new object appears.
  const stream::Tracker::FrameUpdate f1 =
      tracker.update(1, {{11, 10, 5}, {60, 60, 5}});
  EXPECT_EQ(f1.born, 1u);
  EXPECT_EQ(f1.ended, 1u);
  ASSERT_EQ(f1.ids.size(), 2u);
  EXPECT_EQ(f1.ids[0], 1u);  // the drifting disc keeps its id
  EXPECT_EQ(f1.ids[1], 3u);  // the newcomer gets the next fresh id
  EXPECT_EQ(tracker.activeTracks(), 2u);

  const std::vector<stream::TrackSummary> tracks = tracker.tracks();
  ASSERT_EQ(tracks.size(), 3u);
  EXPECT_EQ(tracks[0].id, 1u);
  EXPECT_EQ(tracks[0].firstFrame, 0u);
  EXPECT_EQ(tracks[0].lastFrame, 1u);
  EXPECT_EQ(tracks[0].length(), 2u);
  EXPECT_EQ(tracks[1].id, 2u);
  EXPECT_EQ(tracks[1].lastFrame, 0u);
  EXPECT_EQ(tracks[2].id, 3u);
  EXPECT_EQ(tracks[2].firstFrame, 1u);
}

TEST(Tracker, IsDeterministicForTheSameDetectionSequence) {
  const std::vector<std::vector<model::Circle>> frames{
      {{10, 10, 5}, {30, 30, 5}, {50, 50, 5}},
      {{11, 11, 5}, {31, 29, 5}},
      {{12, 12, 5}, {70, 70, 5}, {32, 28, 5}},
  };
  stream::Tracker a(0.25), b(0.25);
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const auto ua = a.update(k, frames[k]);
    const auto ub = b.update(k, frames[k]);
    EXPECT_EQ(ua.ids, ub.ids);
    EXPECT_EQ(ua.born, ub.born);
    EXPECT_EQ(ua.ended, ub.ended);
  }
  const auto ta = a.tracks();
  const auto tb = b.tracks();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].id, tb[i].id);
    EXPECT_EQ(ta[i].firstFrame, tb[i].firstFrame);
    EXPECT_EQ(ta[i].lastFrame, tb[i].lastFrame);
  }
}

// ---------------------------------------------------------------------------
// Drifting-circles sequence generator
// ---------------------------------------------------------------------------

TEST(DriftingSequence, FrameZeroMatchesGenerateSceneExactly) {
  img::DriftSpec spec;
  spec.scene = img::cellScene(64, 64, 4, 8.0, 7);
  spec.frames = 3;
  const std::vector<img::Scene> frames = img::generateDriftingSequence(spec);
  ASSERT_EQ(frames.size(), 3u);

  const img::Scene base = img::generateScene(spec.scene);
  ASSERT_EQ(frames[0].image.width(), base.image.width());
  ASSERT_EQ(frames[0].image.height(), base.image.height());
  EXPECT_EQ(frames[0].image.pixels(), base.image.pixels());
}

TEST(DriftingSequence, IsBitIdenticalAcrossCallsAndMovesTheTruth) {
  img::DriftSpec spec;
  spec.scene = img::cellScene(64, 64, 4, 8.0, 11);
  spec.frames = 4;
  const std::vector<img::Scene> a = img::generateDriftingSequence(spec);
  const std::vector<img::Scene> b = img::generateDriftingSequence(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].truth.size(), b[k].truth.size());
    for (std::size_t i = 0; i < a[k].truth.size(); ++i) {
      EXPECT_EQ(a[k].truth[i].x, b[k].truth[i].x);
      EXPECT_EQ(a[k].truth[i].y, b[k].truth[i].y);
      EXPECT_EQ(a[k].truth[i].r, b[k].truth[i].r);
    }
    ASSERT_EQ(a[k].image.pixels(), b[k].image.pixels());
  }

  // Motion actually happens: at least one circle moved between frames.
  bool moved = false;
  for (std::size_t i = 0; i < a[0].truth.size(); ++i) {
    moved |= a[0].truth[i].x != a[1].truth[i].x ||
             a[0].truth[i].y != a[1].truth[i].y;
  }
  EXPECT_TRUE(moved);

  // The drift stays within the per-frame speed bound (modulo reflection).
  for (std::size_t i = 0; i < a[0].truth.size(); ++i) {
    EXPECT_LE(std::abs(a[1].truth[i].x - a[0].truth[i].x),
              spec.maxSpeed + 1e-9);
    EXPECT_LE(std::abs(a[1].truth[i].y - a[0].truth[i].y),
              spec.maxSpeed + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Frame-list helpers
// ---------------------------------------------------------------------------

TEST(FrameHelpers, ParseFrameCountAcceptsOnlyPositiveDecimals) {
  EXPECT_EQ(stream::parseFrameCount("8"), 8u);
  EXPECT_EQ(stream::parseFrameCount("123456789"), 123456789u);
  EXPECT_FALSE(stream::parseFrameCount("0").has_value());
  EXPECT_FALSE(stream::parseFrameCount("").has_value());
  EXPECT_FALSE(stream::parseFrameCount("12x").has_value());
  EXPECT_FALSE(stream::parseFrameCount("-3").has_value());
  EXPECT_FALSE(stream::parseFrameCount("frames/*.pgm").has_value());
  EXPECT_FALSE(stream::parseFrameCount("1234567890").has_value());  // > 9 digits
}

TEST(FrameHelpers, GlobExpandsSortedAndPassesPlainPathsThrough) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("mcmcpar_stream_glob_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (const char* name : {"f2.pgm", "f0.pgm", "f1.pgm", "other.txt"}) {
    std::ofstream(dir / name) << "x";
  }

  const std::vector<std::string> matches =
      stream::expandFrameGlob((dir / "f*.pgm").string());
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(fs::path(matches[0]).filename(), "f0.pgm");
  EXPECT_EQ(fs::path(matches[1]).filename(), "f1.pgm");
  EXPECT_EQ(fs::path(matches[2]).filename(), "f2.pgm");

  const std::vector<std::string> plain =
      stream::expandFrameGlob((dir / "f0.pgm").string());
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0], (dir / "f0.pgm").string());

  EXPECT_TRUE(stream::expandFrameGlob("/no/such/dir/*.pgm").empty());
  fs::remove_all(dir);
}

TEST(FrameHelpers, ResolveFramesGeneratesSynthFramesAndLoadsGlobs) {
  const img::SceneSpec scene = img::cellScene(48, 48, 2, 8.0, 5);
  const stream::FrameLoader noDisk = [](const std::string& path)
      -> std::shared_ptr<const img::ImageF> {
    ADD_FAILURE() << "unexpected read of " << path;
    return nullptr;
  };
  const std::vector<stream::FrameImage> synth =
      stream::resolveFrames("3", &scene, noDisk);
  ASSERT_EQ(synth.size(), 3u);
  EXPECT_EQ(synth[2].label, "synth.2");
  EXPECT_EQ(synth[0].image->pixels(), img::generateScene(scene).image.pixels());
  // A count names generated frames: without a scene it is an error.
  EXPECT_THROW((void)stream::resolveFrames("3", nullptr, noDisk),
               engine::EngineError);

  const fs::path dir =
      fs::temp_directory_path() /
      ("mcmcpar_stream_resolve_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (const char* name : {"b.pgm", "a.pgm"}) std::ofstream(dir / name) << "x";
  std::vector<std::string> loaded;
  const std::vector<stream::FrameImage> globbed = stream::resolveFrames(
      (dir / "*.pgm").string(), &scene, [&](const std::string& path) {
        loaded.push_back(path);
        return synth[0].image;
      });
  ASSERT_EQ(globbed.size(), 2u);
  EXPECT_EQ(fs::path(globbed[0].label).filename(), "a.pgm");
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_THROW(
      (void)stream::resolveFrames((dir / "*.none").string(), &scene, noDisk),
      engine::EngineError);
  fs::remove_all(dir);
}

TEST(FrameHelpers, EveryFrameSourceIsCappedBeforeAnyFrameIsRead) {
  const img::SceneSpec scene = img::cellScene(48, 48, 2, 8.0, 5);
  const stream::FrameLoader noDisk = [](const std::string& path)
      -> std::shared_ptr<const img::ImageF> {
    ADD_FAILURE() << "unexpected read of " << path;
    return nullptr;
  };
  EXPECT_NO_THROW(stream::requireFrameLimit(stream::kMaxFrames, "n"));
  EXPECT_THROW(stream::requireFrameLimit(stream::kMaxFrames + 1, "n"),
               engine::EngineError);
  EXPECT_THROW((void)stream::resolveFrames(
                   std::to_string(stream::kMaxFrames + 1), &scene, noDisk),
               engine::EngineError);

  const fs::path dir =
      fs::temp_directory_path() /
      ("mcmcpar_stream_cap_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  for (std::uint64_t k = 0; k <= stream::kMaxFrames; ++k) {
    std::string name = "f";
    name += std::to_string(k);
    std::ofstream(dir / (name + ".pgm"));
  }
  EXPECT_THROW(
      (void)stream::resolveFrames((dir / "f*.pgm").string(), &scene, noDisk),
      engine::EngineError);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Manifest directives
// ---------------------------------------------------------------------------

TEST(Manifest, SequenceDirectivesParse) {
  // @sequence wraps the job's strategy like @shard does; @warm-start and
  // @track become options of the "sequence" strategy.
  const engine::ManifestEntry entry = engine::parseManifestLine(
      "synth serial @sequence=8 @warm-start=1 @track=0 @iters=500");
  EXPECT_EQ(entry.sequence, "8");
  EXPECT_EQ(entry.strategy, "sequence");
  EXPECT_EQ(entry.options, (std::vector<std::string>{
                               "warm-start=1", "track=0", "strategy=serial"}));

  const engine::ManifestEntry glob = engine::parseManifestLine(
      "frames/*.pgm speculative @sequence=frames/*.pgm lanes=2");
  EXPECT_EQ(glob.sequence, "frames/*.pgm");
  EXPECT_EQ(glob.strategy, "sequence");
  EXPECT_EQ(glob.options, (std::vector<std::string>{"strategy=speculative",
                                                    "inner.lanes=2"}));
}

TEST(Manifest, SequenceDirectiveValidation) {
  // @warm-start / @track are sequence modifiers, not standalone knobs.
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @warm-start=1"),
               engine::EngineError);
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @track=0"),
               engine::EngineError);
  // A sequence of sequences is not a thing.
  EXPECT_THROW(
      (void)engine::parseManifestLine("synth sequence @sequence=4"),
      engine::EngineError);
  // An empty value is malformed.
  EXPECT_THROW((void)engine::parseManifestLine("synth serial @sequence="),
               engine::EngineError);
}

TEST(Manifest, ShardNestsInsideSequence) {
  const engine::ManifestEntry entry = engine::parseManifestLine(
      "synth mc3 @sequence=2 @shard=2x1 @halo=4 @track=0 chains=2");
  EXPECT_EQ(entry.strategy, "sequence");
  EXPECT_EQ(entry.options,
            (std::vector<std::string>{"track=0", "strategy=sharded",
                                      "inner.tiles=2x1", "inner.halo=4",
                                      "inner.strategy=mc3",
                                      "inner.inner.chains=2"}));
  // The nested options are valid all the way down.
  EXPECT_NO_THROW((void)engine::StrategyRegistry::builtin().create(
      entry.strategy, {}, entry.options));
}

// ---------------------------------------------------------------------------
// The "sequence" strategy
// ---------------------------------------------------------------------------

/// A drifting synthetic sequence and a problem whose frames borrow it.
struct SynthSequence {
  std::vector<img::Scene> scenes;
  engine::Problem problem;
};

SynthSequence synthSequence(int frames, std::uint64_t seed, int size = 64,
                            int cells = 4) {
  img::DriftSpec drift;
  drift.scene = img::cellScene(size, size, cells, 8.0, seed);
  drift.frames = frames;
  SynthSequence out;
  out.scenes = img::generateDriftingSequence(drift);
  for (std::size_t k = 0; k < out.scenes.size(); ++k) {
    out.problem.frames.push_back(
        {&out.scenes[k].image, "synth." + std::to_string(k)});
  }
  out.problem.prior.radiusMean = 8.0;
  out.problem.prior.radiusStd = 1.0;
  out.problem.prior.radiusMin = 4.0;
  out.problem.prior.radiusMax = 14.0;
  return out;
}

const stream::StreamReport& streamOf(const engine::RunReport& report) {
  return std::get<stream::StreamReport>(report.extras);
}

TEST(SequenceStrategy, RunsEveryFrameAndCarriesWarmStarts) {
  const SynthSequence seq = synthSequence(3, 21);
  const engine::Engine eng(engine::ExecResources{.threads = 1, .seed = 5});

  std::vector<std::uint64_t> seenFrames;
  engine::RunHooks hooks;
  hooks.onProgress = [&](const engine::RunProgress& p) {
    EXPECT_STREQ(p.phase, "frame");
    EXPECT_EQ(p.total, 3u);
    seenFrames.push_back(p.done);
  };

  const engine::RunReport report = eng.run(
      "sequence", seq.problem, engine::RunBudget{800, 0}, hooks, {});
  EXPECT_EQ(report.strategy, "sequence");
  const stream::StreamReport& extras = streamOf(report);
  ASSERT_EQ(extras.perFrame.size(), 3u);
  EXPECT_EQ(extras.frameCount, 3u);
  EXPECT_EQ(extras.innerStrategy, "serial");
  EXPECT_EQ(seenFrames, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(report.iterations, 3u * 800u);
  EXPECT_FALSE(report.cancelled);

  // Frame 0 is cold; later frames carry the previous frame's detections.
  EXPECT_EQ(extras.perFrame[0].carried, 0u);
  EXPECT_EQ(extras.perFrame[1].carried, extras.perFrame[0].circles);
  EXPECT_EQ(extras.perFrame[2].carried, extras.perFrame[1].circles);
  EXPECT_FALSE(extras.tracks.empty());
}

TEST(SequenceStrategy, SameSeedSameFramesIsBitIdentical) {
  const engine::Engine eng(engine::ExecResources{.threads = 1, .seed = 17});
  const auto run = [&] {
    return eng.run("sequence", synthSequence(4, 13).problem,
                   engine::RunBudget{600, 0}, {}, {});
  };
  const engine::RunReport a = run();
  const engine::RunReport b = run();

  const stream::StreamReport& ea = streamOf(a);
  const stream::StreamReport& eb = streamOf(b);
  ASSERT_EQ(ea.perFrame.size(), eb.perFrame.size());
  for (std::size_t k = 0; k < ea.perFrame.size(); ++k) {
    EXPECT_EQ(ea.perFrame[k].iterations, eb.perFrame[k].iterations);
    EXPECT_EQ(ea.perFrame[k].circles, eb.perFrame[k].circles);
    EXPECT_EQ(ea.perFrame[k].carried, eb.perFrame[k].carried);
    // Bit-identical chains, not just statistically similar.
    EXPECT_EQ(ea.perFrame[k].logPosterior, eb.perFrame[k].logPosterior);
    EXPECT_EQ(ea.perFrame[k].acceptanceRate, eb.perFrame[k].acceptanceRate);
  }
  EXPECT_EQ(a.circles, b.circles);
  ASSERT_EQ(ea.tracks.size(), eb.tracks.size());
  for (std::size_t i = 0; i < ea.tracks.size(); ++i) {
    EXPECT_EQ(ea.tracks[i].id, eb.tracks[i].id);
    EXPECT_EQ(ea.tracks[i].firstFrame, eb.tracks[i].firstFrame);
    EXPECT_EQ(ea.tracks[i].lastFrame, eb.tracks[i].lastFrame);
  }
}

TEST(SequenceStrategy, CancelBetweenFramesStopsTheSequence) {
  const SynthSequence seq = synthSequence(6, 23);
  const engine::Engine eng(engine::ExecResources{.threads = 1});

  std::size_t framesDone = 0;
  engine::RunHooks hooks;
  hooks.onProgress = [&](const engine::RunProgress&) { ++framesDone; };
  hooks.cancelRequested = [&] { return framesDone >= 2; };

  const engine::RunReport report = eng.run(
      "sequence", seq.problem, engine::RunBudget{400, 0}, hooks, {});
  EXPECT_TRUE(report.cancelled);
  const stream::StreamReport& extras = streamOf(report);
  EXPECT_LT(extras.perFrame.size(), 6u);
  EXPECT_GE(extras.perFrame.size(), 2u);
}

TEST(SequenceStrategy, RejectsEmptyAndUnknownInputs) {
  const engine::StrategyRegistry& registry =
      engine::StrategyRegistry::builtin();
  // No frames and no image.
  EXPECT_THROW(registry.create("sequence")->prepare(engine::Problem{}),
               engine::EngineError);
  // Unknown inner strategy, bad inner option, nested sequence, unknown
  // option: all fail at construction (SUBMIT time for a served job).
  EXPECT_THROW((void)registry.create("sequence", {}, {"strategy=warp"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sequence", {}, {"inner.lanes=4"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sequence", {}, {"strategy=sequence"}),
               engine::EngineError);
  EXPECT_THROW((void)registry.create("sequence", {}, {"tiles=2x2"}),
               engine::EngineError);

  SynthSequence nullFrame = synthSequence(2, 3);
  nullFrame.problem.frames[1].image = nullptr;
  EXPECT_THROW(registry.create("sequence")->prepare(nullFrame.problem),
               engine::EngineError);
}

struct HandoffCase {
  const char* inner;
  unsigned threads;
  bool warm;
};

// The per-frame hand-off written out by hand: frame K runs the inner
// strategy alone with seed deriveJobSeed(seed, K) and frame K-1's circles
// as its warm start. The strategy must match it bit for bit.
TEST(SequenceStrategy, MatchesAHandWrittenPerFrameHandoff) {
  constexpr int kFrames = 3;
  constexpr std::uint64_t kSeed = 29;
  const engine::RunBudget budget{700, 0};
  for (const HandoffCase c : {HandoffCase{"serial", 1, true},
                              HandoffCase{"serial", 1, false},
                              HandoffCase{"speculative", 2, true},
                              HandoffCase{"speculative", 2, false}}) {
    SCOPED_TRACE(std::string(c.inner) + " threads=" +
                 std::to_string(c.threads) + " warm=" +
                 std::to_string(c.warm));
    const SynthSequence seq = synthSequence(kFrames, 31);

    std::vector<engine::RunReport> expected;
    stream::Tracker tracker;
    std::vector<model::Circle> carried;
    for (int k = 0; k < kFrames; ++k) {
      engine::Problem problem = seq.problem;
      problem.frames.clear();
      problem.filtered = &seq.scenes[k].image;
      if (c.warm) problem.warmStart = carried;
      const engine::Engine eng(engine::ExecResources{
          .threads = c.threads,
          .seed = engine::deriveJobSeed(kSeed, static_cast<std::size_t>(k))});
      expected.push_back(eng.run(c.inner, problem, budget));
      carried = expected.back().circles;
      (void)tracker.update(static_cast<std::size_t>(k), carried);
    }

    const engine::Engine eng(
        engine::ExecResources{.threads = c.threads, .seed = kSeed});
    const std::vector<std::string> options{
        std::string("strategy=") + c.inner,
        std::string("warm-start=") + (c.warm ? "1" : "0")};
    const auto runPrefix = [&](int frames) {
      engine::Problem prefix = seq.problem;
      prefix.frames.resize(static_cast<std::size_t>(frames));
      return eng.run("sequence", prefix, budget, {}, options);
    };
    const engine::RunReport full = runPrefix(kFrames);
    const stream::StreamReport& report = streamOf(full);
    ASSERT_EQ(report.perFrame.size(), static_cast<std::size_t>(kFrames));
    std::uint64_t total = 0;
    for (int k = 0; k < kFrames; ++k) {
      SCOPED_TRACE("frame " + std::to_string(k));
      const stream::FrameResult& frame = report.perFrame[k];
      EXPECT_EQ(frame.logPosterior, expected[k].logPosterior);
      EXPECT_EQ(frame.iterations, expected[k].iterations);
      EXPECT_EQ(frame.circles, expected[k].circles.size());
      // A prefix ends on frame k, so its final circles are frame k's.
      EXPECT_EQ(runPrefix(k + 1).circles, expected[k].circles);
      total += expected[k].iterations;
    }
    EXPECT_EQ(full.iterations, total);
    const std::vector<stream::TrackSummary> tracks = tracker.tracks();
    ASSERT_EQ(report.tracks.size(), tracks.size());
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      EXPECT_EQ(report.tracks[i].id, tracks[i].id);
      EXPECT_EQ(report.tracks[i].firstFrame, tracks[i].firstFrame);
      EXPECT_EQ(report.tracks[i].lastFrame, tracks[i].lastFrame);
    }
  }
}

// `synth serial @sequence=2 @shard=2x1`: every frame is the sharded run of
// that frame alone — sharded tiles ignore the warm start.
TEST(SequenceStrategy, ShardedFramesMatchShardedRunsAlone) {
  const engine::ManifestEntry entry =
      engine::parseManifestLine("synth serial @sequence=2 @shard=2x1");
  constexpr std::uint64_t kSeed = 37;
  const engine::RunBudget budget{1200, 0};
  const SynthSequence seq = synthSequence(2, 41, 96, 6);
  const engine::Engine eng(engine::ExecResources{.threads = 1, .seed = kSeed});
  const auto runPrefix = [&](int frames) {
    engine::Problem prefix = seq.problem;
    prefix.frames.resize(static_cast<std::size_t>(frames));
    return eng.run(entry.strategy, prefix, budget, {}, entry.options);
  };
  const engine::RunReport full = runPrefix(2);
  const stream::StreamReport& report = streamOf(full);
  ASSERT_EQ(report.perFrame.size(), 2u);
  EXPECT_EQ(report.innerStrategy, "sharded");
  for (int k = 0; k < 2; ++k) {
    SCOPED_TRACE("frame " + std::to_string(k));
    engine::Problem alone = seq.problem;
    alone.frames.clear();
    alone.filtered = &seq.scenes[k].image;
    const engine::Engine single(engine::ExecResources{
        .threads = 1,
        .seed = engine::deriveJobSeed(kSeed, static_cast<std::size_t>(k))});
    const engine::RunReport sharded = single.run(
        "sharded", alone, budget, {}, {"tiles=2x1", "strategy=serial"});
    EXPECT_EQ(report.perFrame[k].logPosterior, sharded.logPosterior);
    EXPECT_EQ(report.perFrame[k].iterations, sharded.iterations);
    EXPECT_EQ(runPrefix(k + 1).circles, sharded.circles);
  }
  // Frame 1 was handed frame 0's circles; the tiles ignored them.
  EXPECT_GT(report.perFrame[1].carried, 0u);
}

// ---------------------------------------------------------------------------
// Warm-start equivalence band (the PR's acceptance bar): a warm-started
// frame must reach the detection band in at most half the iterations a
// cold start needs on the same frame with the same seed.
// ---------------------------------------------------------------------------

/// The detection band: every truth circle matched within 3 px and no more
/// than one spurious detection (tight enough that a random initial
/// configuration cannot sit inside it by luck).
bool inBand(const std::vector<model::Circle>& found,
            const std::vector<model::Circle>& truth) {
  const analysis::QualityMetrics score =
      analysis::scoreCircles(found, truth, 3.0);
  return score.falseNegatives == 0 && score.falsePositives <= 1;
}

/// Smallest budget from an ascending ladder whose run lands in the band;
/// 2x the largest rung when none does.
std::uint64_t iterationsToBand(const engine::Problem& problem,
                               const std::vector<model::Circle>& truth,
                               const engine::ExecResources& resources) {
  const engine::Engine eng(resources);
  const std::uint64_t ladder[] = {125,  250,  500,  1000,
                                  2000, 4000, 8000, 16000};
  for (const std::uint64_t budget : ladder) {
    const engine::RunReport report =
        eng.run("serial", problem, engine::RunBudget{budget, 0}, {}, {});
    if (inBand(report.circles, truth)) return budget;
  }
  return 32000;
}

TEST(SequenceStrategy, WarmStartReachesTheBandInHalfTheColdIterations) {
  img::DriftSpec drift;
  drift.scene = img::cellScene(160, 160, 10, 9.0, 3);
  drift.frames = 5;
  const std::vector<img::Scene> frames = img::generateDriftingSequence(drift);

  engine::ExecResources resources;
  resources.threads = 1;
  resources.seed = 41;

  engine::Problem problem;
  problem.prior.radiusMean = 9.0;
  problem.prior.radiusStd = 9.0 / 8.0;
  problem.prior.radiusMin = 4.5;
  problem.prior.radiusMax = 16.2;

  // Converge frame 0 from scratch to obtain the warm-start configuration.
  problem.filtered = &frames[0].image;
  const engine::Engine eng(resources);
  const engine::RunReport frame0 =
      eng.run("serial", problem, engine::RunBudget{12000, 0}, {}, {});
  ASSERT_TRUE(inBand(frame0.circles, toCircles(frames[0].truth)))
      << "frame 0 must converge before the warm/cold comparison";

  // Frame 4 drifted up to 4 * maxSpeed pixels per axis from frame 0.
  const std::vector<model::Circle> truth = toCircles(frames[4].truth);
  problem.filtered = &frames[4].image;

  problem.warmStart.clear();
  const std::uint64_t coldIters =
      iterationsToBand(problem, truth, resources);

  problem.warmStart = frame0.circles;
  const std::uint64_t warmIters =
      iterationsToBand(problem, truth, resources);

  ASSERT_LT(warmIters, 32000u) << "warm start never reached the band";
  EXPECT_LE(2 * warmIters, coldIters)
      << "warm=" << warmIters << " cold=" << coldIters;
}

}  // namespace
}  // namespace mcmcpar
