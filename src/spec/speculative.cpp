#include "spec/speculative.hpp"

#include <algorithm>
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

std::uint64_t SpeculativeExecutor::round(MovePhase phase, unsigned lanes) {
  struct Lane {
    const mcmc::Move* move = nullptr;
    mcmc::PendingMove pending;
    rng::Stream stream{0};
  };
  const unsigned n = std::clamp(lanes, 1u, lanes_);
  std::vector<Lane> lane(n);

  // Derive per-lane streams from (round, lane) so the trajectory does not
  // depend on evaluation order, nor on how many lanes a round evaluates.
  for (unsigned k = 0; k < n; ++k) {
    lane[k].stream =
        master_.derive(roundCounter_ * static_cast<std::uint64_t>(lanes_) + k);
  }
  ++roundCounter_;

  const mcmc::SelectionContext ctx{};
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

  par::forEachIndex(n > 1 ? pool_ : nullptr, n, evaluate);

  // Sequential commit scan: the first accepted lane ends the round.
  std::uint64_t consumed = n;
  bool anyAccepted = false;
  for (unsigned k = 0; k < n; ++k) {
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
  stats_.proposalsEvaluated += n;
  if (anyAccepted) ++stats_.roundsWithAcceptance;
  return consumed;
}

std::uint64_t SpeculativeExecutor::run(std::uint64_t iterations,
                                       MovePhase phase,
                                       std::uint64_t traceInterval,
                                       const mcmc::RunHooks& hooks) {
  std::uint64_t done = 0;
  std::uint64_t traced = 0;  // `done` at the last trace point
  while (done < iterations) {
    if (hooks.cancelled()) break;
    const std::uint64_t remaining = iterations - done;
    done += round(phase, static_cast<unsigned>(
                             std::min<std::uint64_t>(lanes_, remaining)));
    hooks.progress(done, iterations, "speculative");
    if (traceInterval != 0 &&
        (done - traced >= traceInterval || done == iterations)) {
      traced = done;
      diagnostics_.tracePoint(stats_.logicalIterations, state_.logPosterior(),
                              state_.config().size());
      hooks.trace(diagnostics_.trace().back());
    }
  }
  return done;
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
