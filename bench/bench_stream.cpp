// STREAM — measure what warm-starting buys on a frame sequence: for each
// frame of a synthetic drifting-circles time-lapse, the iterations needed
// to reach the detection band when the chain starts from the previous
// frame's configuration vs. from scratch, plus the per-frame latency of
// the streamed workload through the "sequence" strategy.
// Emits BENCH_stream.json (the artifact CI uploads).
//
//   bench_stream [--runs=N] [--seed=N] [--paper-scale] [--out=FILE]
//     --runs=N   frames in the sequence (default 8; paper 16)
//     --out=FILE JSON output path (default BENCH_stream.json)

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/stats.hpp"
#include "bench_common.hpp"
#include "engine/registry.hpp"
#include "par/virtual_clock.hpp"

using namespace mcmcpar;

namespace {

std::vector<model::Circle> toCircles(const std::vector<img::SceneCircle>& in) {
  std::vector<model::Circle> out;
  out.reserve(in.size());
  for (const img::SceneCircle& c : in) out.push_back({c.x, c.y, c.r});
  return out;
}

/// The detection band: every truth circle matched within 3 px and at most
/// one spurious detection (same bar as tests/test_stream.cpp).
bool inBand(const std::vector<model::Circle>& found,
            const std::vector<model::Circle>& truth) {
  const analysis::QualityMetrics score =
      analysis::scoreCircles(found, truth, 3.0);
  return score.falseNegatives == 0 && score.falsePositives <= 1;
}

constexpr std::uint64_t kLadder[] = {125,  250,  500,  1000,
                                     2000, 4000, 8000, 16000};
constexpr std::uint64_t kBandMiss = 32000;

/// Smallest ladder budget whose run lands in the band (kBandMiss if none).
std::uint64_t iterationsToBand(const engine::Engine& eng,
                               const engine::Problem& problem,
                               const std::vector<model::Circle>& truth) {
  for (const std::uint64_t budget : kLadder) {
    const engine::RunReport report =
        eng.run("serial", problem, engine::RunBudget{budget, 0}, {}, {});
    if (inBand(report.circles, truth)) return budget;
  }
  return kBandMiss;
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_stream.json";
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      outPath = argv[i] + 6;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const bench::Options opt = bench::parseOptions(
      static_cast<int>(passthrough.size()), passthrough.data());
  const int frames = opt.runs > 0 ? opt.runs : (opt.paperScale ? 16 : 8);
  const int size = opt.paperScale ? 256 : 160;
  const int cells = opt.paperScale ? 15 : 10;
  const double radius = 9.0;

  img::DriftSpec drift;
  drift.scene = img::cellScene(size, size, cells, radius, opt.seed);
  drift.frames = frames;
  const std::vector<img::Scene> scenes = img::generateDriftingSequence(drift);

  std::printf("STREAM: %d drifting frames, %dx%d, %d cells\n\n", frames, size,
              size, cells);

  engine::ExecResources resources;
  resources.threads = 1;
  resources.seed = opt.seed;
  const engine::Engine eng(resources);

  engine::Problem problem;
  problem.prior.radiusMean = radius;
  problem.prior.radiusStd = radius / 8.0;
  problem.prior.radiusMin = radius / 2.0;
  problem.prior.radiusMax = radius * 1.8;

  // --- warm vs cold iterations-to-band, frame by frame -------------------
  // Frame k's warm start is the converged configuration of frame k-1, the
  // same hand-off the "sequence" strategy performs.
  bool allOk = true;
  problem.filtered = &scenes[0].image;
  engine::RunReport previous =
      eng.run("serial", problem, engine::RunBudget{12000, 0}, {}, {});
  allOk &= inBand(previous.circles, toCircles(scenes[0].truth));

  std::vector<std::uint64_t> coldIters, warmIters;
  for (int k = 1; k < frames; ++k) {
    const std::vector<model::Circle> truth = toCircles(scenes[k].truth);
    problem.filtered = &scenes[k].image;

    problem.warmStart.clear();
    coldIters.push_back(iterationsToBand(eng, problem, truth));

    problem.warmStart = previous.circles;
    warmIters.push_back(iterationsToBand(eng, problem, truth));
    allOk &= warmIters.back() < kBandMiss;

    // Converge this frame warm-started so frame k+1 hands off from it.
    previous = eng.run("serial", problem, engine::RunBudget{12000, 0}, {}, {});
    problem.warmStart.clear();

    std::printf("  frame %2d: cold %6llu iters, warm %6llu iters\n", k,
                static_cast<unsigned long long>(coldIters.back()),
                static_cast<unsigned long long>(warmIters.back()));
  }

  std::vector<double> coldD(coldIters.begin(), coldIters.end());
  std::vector<double> warmD(warmIters.begin(), warmIters.end());
  const double coldMedian = analysis::summarise(coldD).median;
  const double warmMedian = analysis::summarise(warmD).median;
  const double ratio = coldMedian > 0.0 ? warmMedian / coldMedian : 0.0;
  std::printf("\nmedian iterations-to-band: cold %.0f, warm %.0f "
              "(warm/cold %.2f)\n",
              coldMedian, warmMedian, ratio);

  // --- streamed per-frame latency through the "sequence" strategy --------
  engine::Problem sequence = problem;
  for (std::size_t k = 0; k < scenes.size(); ++k) {
    sequence.frames.push_back({&scenes[k].image, "synth." + std::to_string(k)});
  }
  const engine::RunBudget frameBudget{2000, 0};
  const engine::RunReport warmRun =
      eng.run("sequence", sequence, frameBudget, {}, {"warm-start=1"});
  const engine::RunReport coldRun =
      eng.run("sequence", sequence, frameBudget, {}, {"warm-start=0"});

  const auto* warmExtras = std::get_if<stream::StreamReport>(&warmRun.extras);
  const auto* coldExtras = std::get_if<stream::StreamReport>(&coldRun.extras);
  allOk &= warmExtras != nullptr && coldExtras != nullptr &&
           !warmRun.cancelled && !coldRun.cancelled;
  const double warmP50 = warmExtras != nullptr ? warmExtras->p50FrameSeconds : 0.0;
  const double coldP50 = coldExtras != nullptr ? coldExtras->p50FrameSeconds : 0.0;
  const std::size_t tracks =
      warmExtras != nullptr ? warmExtras->tracks.size() : 0;
  std::printf("streamed run (2000 iters/frame): p50 frame %.3f ms warm, "
              "%.3f ms cold, %zu track(s)\n",
              1e3 * warmP50, 1e3 * coldP50, tracks);

  std::ofstream out(outPath);
  out << "{\n"
      << "  \"bench\": \"stream\",\n"
      << "  \"frames\": " << frames << ",\n"
      << "  \"image\": \"" << size << "x" << size << "\",\n"
      << "  \"cells\": " << cells << ",\n"
      << "  \"cold_iterations_to_band\": [";
  for (std::size_t i = 0; i < coldIters.size(); ++i) {
    out << (i != 0 ? ", " : "") << coldIters[i];
  }
  out << "],\n  \"warm_iterations_to_band\": [";
  for (std::size_t i = 0; i < warmIters.size(); ++i) {
    out << (i != 0 ? ", " : "") << warmIters[i];
  }
  out << "],\n"
      << "  \"cold_median_iterations\": " << coldMedian << ",\n"
      << "  \"warm_median_iterations\": " << warmMedian << ",\n"
      << "  \"warm_over_cold_ratio\": " << ratio << ",\n"
      << "  \"p50_frame_seconds_warm\": " << warmP50 << ",\n"
      << "  \"p50_frame_seconds_cold\": " << coldP50 << ",\n"
      << "  \"tracks\": " << tracks << ",\n"
      << "  \"all_in_band\": " << (allOk ? "true" : "false") << "\n"
      << "}\n";
  std::printf("wrote %s\n", outPath.c_str());
  return allOk ? 0 : 1;
}
