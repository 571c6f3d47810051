#include "spec/speculative.hpp"

#include <cmath>
#include <vector>

namespace mcmcpar::spec {

SpeculativeExecutor::SpeculativeExecutor(model::ModelState& state,
                                         const mcmc::MoveRegistry& registry,
                                         unsigned lanes, std::uint64_t seed,
                                         par::ThreadPool* pool)
    : state_(state),
      registry_(registry),
      lanes_(std::max(lanes, 1u)),
      master_(seed),
      pool_(pool) {}

std::uint64_t SpeculativeExecutor::round(MovePhase phase,
                                         const mcmc::SelectionContext& ctx) {
  struct Lane {
    const mcmc::Move* move = nullptr;
    mcmc::PendingMove pending;
    rng::Stream stream{0};
  };
  std::vector<Lane> lane(lanes_);

  // Derive per-lane streams from (round, lane) so the trajectory does not
  // depend on evaluation order.
  for (unsigned k = 0; k < lanes_; ++k) {
    lane[k].stream =
        master_.derive(roundCounter_ * static_cast<std::uint64_t>(lanes_) + k);
  }
  ++roundCounter_;

  const auto evaluate = [&](std::size_t k) {
    Lane& l = lane[k];
    switch (phase) {
      case MovePhase::Any:
        l.move = &registry_.sampleAny(l.stream);
        break;
      case MovePhase::GlobalOnly:
        l.move = &registry_.sampleGlobal(l.stream);
        break;
      case MovePhase::LocalOnly:
        l.move = &registry_.sampleLocal(l.stream);
        break;
    }
    l.pending = l.move->propose(state_, ctx, l.stream);
  };

  par::forEachIndex(lanes_ > 1 ? pool_ : nullptr, lanes_, evaluate);

  // Sequential commit scan: the first accepted lane ends the round.
  std::uint64_t consumed = lanes_;
  bool anyAccepted = false;
  for (unsigned k = 0; k < lanes_; ++k) {
    const bool accepted =
        mcmc::acceptAndCommit(state_, lane[k].pending, lane[k].stream);
    diagnostics_.record(lane[k].move->name(), accepted);
    if (accepted) {
      consumed = k + 1;
      anyAccepted = true;
      break;
    }
  }

  ++stats_.rounds;
  stats_.logicalIterations += consumed;
  stats_.proposalsEvaluated += lanes_;
  if (anyAccepted) ++stats_.roundsWithAcceptance;
  return consumed;
}

std::uint64_t SpeculativeExecutor::run(std::uint64_t iterations,
                                       MovePhase phase,
                                       const mcmc::RunHooks& hooks) {
  const std::uint64_t start = stats_.logicalIterations;
  const std::uint64_t target = start + iterations;
  while (stats_.logicalIterations < target) {
    if (hooks.cancelled()) break;
    round(phase);
    hooks.progress(stats_.logicalIterations - start, iterations,
                   "speculative");
  }
  return stats_.logicalIterations - start;
}

double expectedConsumedPerRound(double rejectionProbability,
                                unsigned lanes) noexcept {
  const double p = rejectionProbability;
  const unsigned n = std::max(lanes, 1u);
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return static_cast<double>(n);
  return (1.0 - std::pow(p, static_cast<double>(n))) / (1.0 - p);
}

}  // namespace mcmcpar::spec
