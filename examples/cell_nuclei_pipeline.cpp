// The paper's §VII workload end to end: a large image of stained nuclei
// processed with *periodic partitioning* (the statistically pure parallel
// scheme), compared against the sequential baseline.
//
//   ./build/examples/cell_nuclei_pipeline [--small]
//
// Prints phase statistics, the measured and virtual (4-thread SMP) runtimes
// and the detection quality of both chains.

#include <cstdio>
#include <cstring>

#include "analysis/metrics.hpp"
#include "core/periodic_sampler.hpp"
#include "img/synth.hpp"
#include "mcmc/sampler.hpp"
#include "par/virtual_clock.hpp"

using namespace mcmcpar;

namespace {

model::PriorParams nucleusPrior(double expected) {
  model::PriorParams prior;
  prior.expectedCount = expected;
  prior.radiusMean = 10.0;
  prior.radiusStd = 1.2;
  prior.radiusMin = 4.0;
  prior.radiusMax = 18.0;
  return prior;
}

analysis::QualityMetrics score(const model::ModelState& state,
                               const img::Scene& scene) {
  std::vector<model::Circle> truth;
  for (const auto& t : scene.truth) truth.push_back({t.x, t.y, t.r});
  return analysis::scoreCircles(state.config().snapshot(), truth, 7.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::strcmp(argv[1], "--small") == 0;
  const int size = small ? 256 : 512;
  const int cells = small ? 25 : 90;
  const std::uint64_t iterations = small ? 40000 : 150000;

  img::SceneSpec spec = img::cellScene(size, size, cells, 10.0, 11);
  spec.radiusStd = 1.0;
  const img::Scene scene = img::generateScene(spec);
  std::printf("scene: %dx%d, %d cells, %llu iterations\n\n", size, size, cells,
              static_cast<unsigned long long>(iterations));

  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();

  // --- sequential baseline -------------------------------------------------
  model::ModelState seqState(scene.image, nucleusPrior(cells),
                             model::LikelihoodParams{});
  rng::Stream seqStream(21);
  seqState.initialiseRandom(cells, seqStream);
  mcmc::Sampler sequential(seqState, registry, seqStream);
  const par::WallTimer seqTimer;
  sequential.run(iterations);
  const double seqSeconds = seqTimer.seconds();
  const auto seqQ = score(seqState, scene);
  std::printf("sequential : %.2f s   F1 %.3f  (%zu circles)\n", seqSeconds,
              seqQ.f1, seqState.config().size());

  // --- periodic partitioning ----------------------------------------------
  model::ModelState perState(scene.image, nucleusPrior(cells),
                             model::LikelihoodParams{});
  rng::Stream perStream(21);
  perState.initialiseRandom(cells, perStream);

  core::PeriodicParams params;
  params.totalIterations = iterations;
  params.globalPhaseIterations = 130;  // the paper's ~20 ms sweet spot
  // In shared memory the in-place executor is the right choice: local
  // sessions mutate the shared state under the legality margin and pay no
  // split/merge copies (bench_ablations quantifies the difference; the
  // SplitMerge executor exists for the cluster/fig.-2 overhead story).
  params.executor = core::LocalExecutor::InPlace;
  params.virtualThreads = 4;  // model a quad-core (Q6600-like) machine
  core::PeriodicSampler periodic(perState, registry, params, 22);
  const core::PeriodicReport report = periodic.run();
  const auto perQ = score(perState, scene);

  std::printf("periodic   : %.2f s measured on 1 core\n", report.wallSeconds);
  std::printf("             %.2f s virtual on 4 threads  (%.0f%% of sequential)\n",
              report.virtualSeconds,
              100.0 * report.virtualSeconds / seqSeconds);
  std::printf("             F1 %.3f  (%zu circles)\n", perQ.f1,
              perState.config().size());
  std::printf("             %llu phases, %llu global + %llu local iterations\n",
              static_cast<unsigned long long>(report.phases),
              static_cast<unsigned long long>(report.globalIterations),
              static_cast<unsigned long long>(report.localIterations));
  std::printf("             split/merge overhead %.3f s total (%.2f ms/phase)\n",
              report.overheadSeconds,
              1000.0 * report.overheadSeconds /
                  static_cast<double>(std::max<std::uint64_t>(report.phases, 1)));

  std::printf("\nstatistical parity: |dF1| = %.3f (both chains sample the "
              "same posterior)\n",
              seqQ.f1 > perQ.f1 ? seqQ.f1 - perQ.f1 : perQ.f1 - seqQ.f1);
  return 0;
}
