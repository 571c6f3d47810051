// SEC7 — reproduce §VII's architecture comparison: runtime reduction of
// periodic partitioning at the sweet-spot phase length on three machines:
//
//   paper: Pentium-D (dual-core)      -38%
//          Q6600 (2x dual-core dies)  -29%
//          dual-socket Xeon           -23%
//
// The three hosts are modelled as virtual presets (thread count + a scale
// on the per-phase partition setup); per-move costs are measured live.

#include <iostream>

#include "analysis/table_writer.hpp"
#include "bench_common.hpp"
#include "core/periodic_sampler.hpp"
#include "core/virtual_executor.hpp"
#include "mcmc/sampler.hpp"
#include "par/virtual_clock.hpp"

using namespace mcmcpar;

int main(int argc, char** argv) {
  const bench::Options opt = bench::parseOptions(argc, argv);
  const bench::CellWorkload w = bench::makeCellWorkload(opt);
  const mcmc::MoveRegistry registry = mcmc::MoveRegistry::caseStudy();

  std::printf("SEC7: periodic partitioning on virtual architecture presets\n\n");

  double seqSeconds;
  {
    model::ModelState state = bench::makeState(w, opt.seed + 1);
    mcmc::Sampler sampler(state, registry, opt.seed + 2);
    const par::WallTimer timer;
    sampler.run(w.iterations);
    seqSeconds = timer.seconds();
  }
  std::printf("sequential baseline: %.3f s\n\n", seqSeconds);

  const double paperReduction[] = {38.0, 29.0, 23.0};  // matches preset order
  analysis::Table table({"architecture", "threads", "virtual (s)",
                         "reduction %", "paper %"});
  const auto presets = core::paperArchitectures();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto& preset = presets[i];
    model::ModelState state = bench::makeState(w, opt.seed + 1);
    core::PeriodicParams params;
    params.totalIterations = w.iterations;
    // The paper's sweet spot is "~20 ms per global phase" (z = 130 at their
    // tau of 4e-5 s). Our tau is ~10x smaller, so the same *time* per phase
    // needs a larger z; bench_fig2's sweep locates the plateau at z ~ 1040
    // for the reduced workload.
    params.globalPhaseIterations = opt.paperScale ? 130 : 1040;
    params.virtualThreads = preset.threads;
    core::PeriodicSampler sampler(state, registry, params, opt.seed + 3);
    const core::PeriodicReport report = sampler.run();
    const double adjusted =
        core::adjustedVirtualSeconds(report, preset.overheadScale);
    table.addRow({preset.name, analysis::Table::integer(preset.threads),
                  analysis::Table::num(adjusted, 3),
                  analysis::Table::num(core::reductionPercent(seqSeconds, adjusted), 1),
                  analysis::Table::num(paperReduction[i], 0)});
  }
  table.print(std::cout);
  std::printf(
      "\nshape to check: every architecture beats sequential; cheap same-die\n"
      "communication (pentium-d-like) wins relative to its thread count,\n"
      "expensive cross-package communication (xeon-smp-like) trails.\n"
      "note: the paper's 4-core Q6600 lands *between* the two dual-cores\n"
      "because its 4 unequal cross partitions never utilise 4 cores fully.\n");
  return 0;
}
