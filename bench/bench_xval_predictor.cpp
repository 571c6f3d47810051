// XVAL — cross-validate the eq. 2 prediction (Fig. 1's model) against the
// implementation: run the periodic sampler in virtual-time mode for
// s in {2, 4, 8, 16} partitions at several move mixes (qg), and compare the
// measured relative runtime with qg + (1 - qg)/s.
//
// The virtual executor charges makespan over `s` threads from measured
// per-partition costs, so deviations from eq. 2 expose real effects the
// closed form ignores: per-phase partition setup and partition load
// imbalance (both discussed in §VI/§VII of the paper).

#include <iostream>

#include "analysis/table_writer.hpp"
#include "bench_common.hpp"
#include "core/periodic_sampler.hpp"
#include "core/runtime_predictor.hpp"
#include "mcmc/sampler.hpp"
#include "par/virtual_clock.hpp"

using namespace mcmcpar;

namespace {

mcmc::MoveSetParams mixWithQg(double qg) {
  mcmc::MoveSetParams params;
  const double g = qg / 5.0;        // five global move types
  const double l = (1.0 - qg) / 2.0;  // two local move types
  params.weights.add = params.weights.del = params.weights.merge =
      params.weights.split = params.weights.replace = g;
  params.weights.moveCentre = params.weights.resize = l;
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parseOptions(argc, argv);
  bench::Options scaled = opt;
  const bench::CellWorkload w = bench::makeCellWorkload(scaled);
  const std::uint64_t iterations = opt.paperScale ? w.iterations : 30000;

  std::printf("XVAL: measured (virtual) vs eq. 2 predicted relative runtime\n\n");

  struct GridChoice {
    unsigned s;
    int gx, gy;
  };
  const GridChoice grids[] = {{2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4}};

  analysis::Table table(
      {"qg", "s", "measured rel", "eq.2 predicted", "gap"});
  for (const double qg : {0.2, 0.4, 0.6}) {
    const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy(mixWithQg(qg));

    // Sequential baseline for this move mix.
    double seqSeconds;
    {
      model::ModelState state = bench::makeState(w, opt.seed + 5);
      mcmc::Sampler sampler(state, registry, opt.seed + 6);
      const par::WallTimer timer;
      sampler.run(iterations);
      seqSeconds = timer.seconds();
    }

    for (const GridChoice& grid : grids) {
      model::ModelState state = bench::makeState(w, opt.seed + 5);
      core::PeriodicParams params;
      params.totalIterations = iterations;
      // Eq. 2 assumes "the parallelisation overhead is negligible", so the
      // comparison uses phases long enough to amortise per-phase
      // bookkeeping.
      params.globalPhaseIterations =
          std::max<std::uint64_t>(200, static_cast<std::uint64_t>(1000 * qg));
      params.layout = core::PartitionLayout::UniformGrid;
      params.gridSpacingX = w.scene.image.width() / grid.gx;
      params.gridSpacingY = w.scene.image.height() / grid.gy;
      params.margin = 0.0;
      params.virtualThreads = grid.s;
      core::PeriodicSampler sampler(state, registry, params, opt.seed + 7);
      const core::PeriodicReport report = sampler.run();

      const double measured = report.virtualSeconds / seqSeconds;
      const double predicted = core::fig1RelativeRuntime(qg, grid.s);
      table.addRow({analysis::Table::num(qg, 1),
                    analysis::Table::integer(grid.s),
                    analysis::Table::num(measured, 3),
                    analysis::Table::num(predicted, 3),
                    analysis::Table::num(measured - predicted, 3)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nshape to check (fig. 1): measured tracks the prediction, always\n"
      "somewhat above it (overhead + imbalance); the gap grows with s and\n"
      "shrinks with qg -- exactly the paper's 'falls short of the predicted\n"
      "45%%' observation for the Q6600.\n");
  return 0;
}
