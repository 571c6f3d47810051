// ABL — ablations for the design choices of the periodic and blind
// strategies (docs/ARCHITECTURE.md, "Periodic in-place execution and the
// legality margin" and "The six strategies"):
//
//  A. per-phase random grid offsets on/off — §V's safeguard against
//     persistent partition-boundary bias.
//  B. iteration allocation: proportional-to-modifiable-features (the
//     paper's rule) vs uniform per partition.
//  C. blind partitioning dispute policy: accept vs discard unmatched
//     overlap-area features (precision/recall trade, §VIII).

#include <iostream>

#include "analysis/anomaly.hpp"
#include "analysis/metrics.hpp"
#include "analysis/table_writer.hpp"
#include "bench_common.hpp"
#include "core/periodic_sampler.hpp"
#include "core/pipeline.hpp"
#include "mcmc/sampler.hpp"

using namespace mcmcpar;

namespace {

std::vector<model::Circle> truthOf(const img::Scene& scene) {
  std::vector<model::Circle> t;
  for (const auto& c : scene.truth) t.push_back({c.x, c.y, c.r});
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parseOptions(argc, argv);
  const bench::CellWorkload w = bench::makeCellWorkload(opt);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();
  const auto truth = truthOf(w.scene);
  const std::uint64_t iterations = opt.paperScale ? w.iterations : 40000;

  // --- A: random grid offsets ------------------------------------------------
  std::printf("ABL-A: per-phase random partition offsets vs a fixed layout\n\n");
  {
    analysis::Table table({"layout", "F1", "misses near fixed boundary",
                           "misses elsewhere"});
    for (const bool randomise : {true, false}) {
      model::ModelState state = bench::makeState(w, opt.seed + 31);
      core::PeriodicParams params;
      params.totalIterations = iterations;
      params.globalPhaseIterations = 52;
      params.randomiseLayout = randomise;
      core::PeriodicSampler sampler(state, registry, params, opt.seed + 32);
      sampler.run();
      const double cx = w.scene.image.width() / 2.0;
      const double cy = w.scene.image.height() / 2.0;
      const auto audit = analysis::auditBoundaryAnomalies(
          state.config().snapshot(), truth, {cx}, {cy}, 7.0, 14.0, 5.0);
      const auto q = analysis::scoreCircles(state.config().snapshot(), truth, 7.0);
      table.addRow({randomise ? "random offsets (paper)" : "fixed centre cross",
                    analysis::Table::num(q.f1, 3),
                    analysis::Table::integer(
                        static_cast<long long>(audit.missesNearBoundary)),
                    analysis::Table::integer(
                        static_cast<long long>(audit.missesElsewhere))});
    }
    table.print(std::cout);
    std::printf("\n(a fixed layout leaves a persistent dead zone along the\n"
                "cross where features are never modifiable by local moves)\n\n");
  }

  // --- B: iteration allocation -----------------------------------------------
  std::printf("ABL-B: iteration allocation across partitions\n\n");
  {
    analysis::Table table({"allocation", "F1", "final logP"});
    for (const auto mode :
         {core::PeriodicParams::Allocation::ProportionalToFeatures,
          core::PeriodicParams::Allocation::UniformPerPartition}) {
      model::ModelState state = bench::makeState(w, opt.seed + 41);
      core::PeriodicParams params;
      params.totalIterations = iterations;
      params.globalPhaseIterations = 52;
      params.allocation = mode;
      core::PeriodicSampler sampler(state, registry, params, opt.seed + 42);
      sampler.run();
      const auto q = analysis::scoreCircles(state.config().snapshot(), truth, 7.0);
      table.addRow(
          {mode == core::PeriodicParams::Allocation::ProportionalToFeatures
               ? "proportional (paper)"
               : "uniform",
           analysis::Table::num(q.f1, 3),
           analysis::Table::num(state.logPosterior(), 1)});
    }
    table.print(std::cout);
    std::printf("\n(uniform allocation wastes iterations on sparse partitions\n"
                "and starves dense ones; the gap widens with density skew)\n\n");
  }

  // --- C: blind dispute policy -----------------------------------------------
  std::printf("ABL-C: blind partitioning dispute policy\n\n");
  {
    img::SceneSpec spec = img::cellScene(256, 256, 20, 8.0, opt.seed + 51);
    spec.radiusStd = 0.5;
    const img::Scene scene = img::generateScene(spec);
    const auto sceneTruth = truthOf(scene);
    analysis::Table table({"policy", "precision", "recall", "F1"});
    for (const auto policy : {partition::BlindParams::DisputePolicy::Accept,
                              partition::BlindParams::DisputePolicy::Discard}) {
      core::PipelineParams params;
      params.prior.radiusMean = 8.0;
      params.prior.radiusStd = 0.8;
      params.prior.radiusMin = 4.0;
      params.prior.radiusMax = 13.0;
      params.iterationsBase = 2000;
      params.iterationsPerCircle = 500;
      params.seed = opt.seed + 52;
      params.blind.dispute = policy;
      const core::PipelineReport report =
          core::runBlindPipeline(scene.image, params);
      const auto q = analysis::scoreCircles(report.merged, sceneTruth, 6.0);
      table.addRow(
          {policy == partition::BlindParams::DisputePolicy::Accept
               ? "accept disputed (avoid misses)"
               : "discard disputed (avoid false positives)",
           analysis::Table::num(q.precision, 3),
           analysis::Table::num(q.recall, 3), analysis::Table::num(q.f1, 3)});
    }
    table.print(std::cout);
    std::printf("\n(the paper: 'you may wish to accept or discard them\n"
                "depending on whether it is more important to avoid\n"
                "false-positives or not missing potential artifacts')\n");
  }
  return 0;
}
