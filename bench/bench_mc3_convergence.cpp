// MC3 — the related-work baseline of §IV: Metropolis-coupled MCMC improves
// the *rate of convergence* (fewer iterations), while the paper's schemes
// distribute the *per-iteration workload*. This bench makes the difference
// measurable: iterations-to-plateau and wall time for plain MCMC, (MC)^3
// with 4 chains, and periodic partitioning on the same hard scene (clumped
// artifacts -> multimodal posterior where heated chains help escape).
//
// Ported to the engine façade: each method is one registry name plus
// key=value options; the duplicated state/registry/seed wiring is gone and
// every row reads off the same RunReport.

#include <iostream>

#include "analysis/metrics.hpp"
#include "analysis/table_writer.hpp"
#include "bench_common.hpp"
#include "engine/registry.hpp"

using namespace mcmcpar;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parseOptions(argc, argv);

  // A clumpy scene: overlapping artifacts create merge/split ambiguity
  // (the multimodality MC^3 is designed for).
  img::SceneSpec spec;
  spec.width = 256;
  spec.height = 256;
  spec.radiusMean = 8.0;
  spec.radiusStd = 0.6;
  spec.seed = opt.seed + 70;
  spec.clusters = {
      img::ClusterSpec{10, 10, 110, 110, 8, 0.5},
      img::ClusterSpec{130, 10, 110, 110, 6, 0.5},
      img::ClusterSpec{10, 130, 110, 110, 6, 0.5},
      img::ClusterSpec{130, 130, 110, 110, 8, 0.5},
  };
  const img::Scene scene = img::generateScene(spec);

  engine::Problem problem;
  problem.filtered = &scene.image;
  problem.estimateCount = false;  // the scene's true count, as before
  problem.prior.expectedCount = static_cast<double>(scene.truth.size());
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 0.8;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 13.0;

  const std::uint64_t iterations = opt.paperScale ? 200000 : 60000;
  const engine::RunBudget budget{iterations, iterations / 200};

  std::vector<model::Circle> truth;
  for (const auto& t : scene.truth) truth.push_back({t.x, t.y, t.r});

  std::printf("MC3: convergence-rate baseline vs workload distribution\n");
  std::printf("scene: %dx%d, %zu clumped artifacts, %llu iterations\n\n",
              spec.width, spec.height, scene.truth.size(),
              static_cast<unsigned long long>(iterations));

  struct Method {
    const char* label;
    const char* strategy;
    std::uint64_t seedOffset;
    std::vector<std::string> options;
  };
  const Method methods[] = {
      {"sequential", "serial", 71, {}},
      {"(MC)^3 4 chains",
       "mc3",
       72,
       {"chains=4", "heat-step=0.2", "swap-interval=100"}},
      {"periodic (virt. 4 thr)",
       "periodic",
       74,
       {"phase=520", "virtual-threads=4"}},
  };

  analysis::Table table(
      {"method", "wall (s)", "itr to plateau", "final logP", "F1"});
  for (const Method& method : methods) {
    const engine::Engine eng(
        engine::ExecResources{1, false, opt.seed + method.seedOffset});
    const engine::RunReport report =
        eng.run(method.strategy, problem, budget, {}, method.options);

    // The periodic row reports the modelled SMP wall time, as the paper does.
    double seconds = report.wallSeconds;
    if (const auto* periodic =
            std::get_if<core::PeriodicReport>(&report.extras)) {
      seconds = periodic->virtualSeconds;
    }
    const auto q = analysis::scoreCircles(report.circles, truth, 6.0);
    table.addRow({method.label, analysis::Table::num(seconds, 3),
                  report.iterationsToConverge
                      ? analysis::Table::integer(static_cast<long long>(
                            *report.iterationsToConverge))
                      : "-",
                  analysis::Table::num(report.logPosterior, 1),
                  analysis::Table::num(q.f1, 3)});

    if (const auto* mc3 = std::get_if<mcmc::Mc3Stats>(&report.extras)) {
      std::printf("  (MC)^3 swap rate: %.2f (%llu of %llu proposals)\n\n",
                  mc3->swapRate(),
                  static_cast<unsigned long long>(mc3->swapAccepted),
                  static_cast<unsigned long long>(mc3->swapProposed));
    }
  }

  table.print(std::cout);
  std::printf(
      "\nreading: (MC)^3 buys convergence in *iterations* (at 4x the work\n"
      "per iteration budget), periodic partitioning buys *wall time per\n"
      "iteration*; the two are complementary, as §IV notes.\n");
  return 0;
}
