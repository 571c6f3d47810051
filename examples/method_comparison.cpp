// Run every parallelisation architecture in the strategy registry on the
// same image and compare wall time and detection quality. This is the
// acceptance demo of the engine façade: the loop below contains *no*
// strategy-specific setup code — each architecture is selected purely by
// its registry name, and every row comes from the same RunReport type.
//
//   ./build/examples/method_comparison

#include <iostream>

#include "analysis/metrics.hpp"
#include "analysis/table_writer.hpp"
#include "engine/registry.hpp"
#include "img/synth.hpp"

using namespace mcmcpar;

int main() {
  // A clustered scene so the intelligent partitioner has gaps to cut.
  img::SceneSpec spec;
  spec.width = 384;
  spec.height = 256;
  spec.radiusMean = 8.0;
  spec.radiusStd = 0.6;
  spec.noiseStd = 0.03f;
  spec.seed = 99;
  spec.clusters = {
      img::ClusterSpec{10, 10, 150, 236, 12, 0.1},
      img::ClusterSpec{210, 10, 164, 110, 8, 0.1},
      img::ClusterSpec{210, 150, 164, 96, 6, 0.1},
  };
  const img::Scene scene = img::generateScene(spec);
  std::vector<model::Circle> truth;
  for (const auto& t : scene.truth) truth.push_back({t.x, t.y, t.r});
  std::printf("scene: %dx%d with %zu artifacts in 3 clusters\n\n", spec.width,
              spec.height, scene.truth.size());

  engine::Problem problem;
  problem.filtered = &scene.image;
  problem.prior.radiusMean = 8.0;
  problem.prior.radiusStd = 0.8;
  problem.prior.radiusMin = 4.0;
  problem.prior.radiusMax = 13.0;

  // threads=0 leases every hardware thread; each parallel strategy runs on
  // one pool built from that lease.
  const engine::Engine eng(engine::ExecResources{.threads = 0, .seed = 17});
  analysis::Table table({"strategy", "seconds", "iters", "found", "precision",
                         "recall", "F1"});
  for (const std::string& name : eng.registry().names()) {
    const engine::RunReport result =
        eng.run(name, problem, engine::RunBudget{60000, 0});
    const auto q = analysis::scoreCircles(result.circles, truth, 6.0);
    table.addRow(
        {name, analysis::Table::num(result.wallSeconds, 3),
         analysis::Table::integer(static_cast<long long>(result.iterations)),
         analysis::Table::integer(static_cast<long long>(result.circles.size())),
         analysis::Table::num(q.precision, 3),
         analysis::Table::num(q.recall, 3), analysis::Table::num(q.f1, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nnote: on a single-core container the partition pipelines win by\n"
      "doing *less work* (smaller statespaces per partition, eq. 5 priors);\n"
      "their further parallel speedup is modelled by the bench harness.\n");
  return 0;
}
