// Quickstart: detect bright circular artifacts (stained cell nuclei) in an
// image through the engine façade — the shortest path into the library.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [output-prefix]
//
// The example generates a synthetic micrograph (ground truth known), runs
// the "serial" strategy from the registry (swap the name for "periodic",
// "mc3", ... — nothing else changes), scores the result against the truth
// and writes two images: the input and an overlay with the fitted circles
// (found = green, truth = dim red).

#include <cstdio>
#include <string>

#include "analysis/metrics.hpp"
#include "engine/registry.hpp"
#include "img/overlay.hpp"
#include "img/pnm_io.hpp"
#include "img/synth.hpp"

using namespace mcmcpar;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "quickstart";

  // 1. A 256x256 sample with 20 nuclei of radius ~9 px.
  img::SceneSpec spec = img::cellScene(256, 256, 20, 9.0, /*seed=*/2024);
  spec.noiseStd = 0.05f;
  const img::Scene scene = img::generateScene(spec);
  std::printf("generated %dx%d scene with %zu nuclei\n", scene.image.width(),
              scene.image.height(), scene.truth.size());

  // 2. Describe the problem. The prior encodes what we know: nucleus size
  //    distribution; the expected count is estimated from the image (eq. 5).
  engine::Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 9.0;
  problem.prior.radiusStd = 1.0;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 15.0;

  // 3. Run any registered strategy by name on shared resources: threads=0
  //    leases every hardware thread to parallel strategies. RunHooks gives
  //    live progress (and could cancel the run).
  engine::Engine eng(engine::ExecResources{.threads = 0, .seed = 7});
  engine::RunHooks hooks;
  hooks.onProgress = [](const engine::RunProgress& p) {
    if (p.total != 0 && p.done == p.total) {
      std::printf("  %s finished (%llu iterations)\n", p.phase,
                  static_cast<unsigned long long>(p.total));
    }
  };
  const engine::RunReport report =
      eng.run("serial", problem, engine::RunBudget{60000, 0}, hooks);

  std::printf("found %zu nuclei in %.2f s (log-posterior %.1f)\n",
              report.circles.size(), report.wallSeconds, report.logPosterior);
  if (report.iterationsToConverge) {
    std::printf("converged after ~%llu iterations\n",
                static_cast<unsigned long long>(*report.iterationsToConverge));
  }

  // 4. Score against ground truth.
  std::vector<model::Circle> truth;
  for (const auto& t : scene.truth) truth.push_back({t.x, t.y, t.r});
  const auto quality = analysis::scoreCircles(report.circles, truth, 6.0);
  std::printf("precision %.3f  recall %.3f  F1 %.3f  centre RMSE %.2f px\n",
              quality.precision, quality.recall, quality.f1,
              quality.centreRmse);

  // 5. Acceptance statistics per move type.
  for (const auto& [name, stats] : report.diagnostics.perMove()) {
    std::printf("  %-12s proposed %8llu  accepted %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(stats.proposed),
                100.0 * stats.acceptanceRate());
  }

  // 6. Write the pictures.
  img::writePgm(img::toU8(scene.image), prefix + "_input.pgm");
  img::ImageRgb overlay = img::greyToRgb(scene.image);
  img::drawCircles(overlay, scene.truth, img::Rgb{96, 0, 0});
  std::vector<img::SceneCircle> found;
  for (const auto& c : report.circles) found.push_back({c.x, c.y, c.r});
  img::drawCircles(overlay, found, img::Rgb{0, 255, 0});
  img::writePpm(overlay, prefix + "_overlay.ppm");
  std::printf("wrote %s_input.pgm and %s_overlay.ppm\n", prefix.c_str(),
              prefix.c_str());
  return 0;
}
