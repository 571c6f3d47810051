#pragma once

#include <memory>
#include <vector>

#include "mcmc/move.hpp"
#include "mcmc/move_params.hpp"
#include "rng/distributions.hpp"

namespace mcmcpar::mcmc {

/// A weighted set of moves with O(1) sampling, overall and per kind.
///
/// Per-kind sampling is what the periodic sampler needs: during a global
/// phase moves are drawn from Mg with probabilities conditional on "global",
/// and likewise for Ml phases. Proposal-probability *ratios* between paired
/// moves are unaffected by the conditioning (the phase factor cancels), so
/// the same Move objects serve phased and unphased sampling; see §V.
class MoveRegistry {
 public:
  MoveRegistry() = default;
  MoveRegistry(MoveRegistry&&) = default;
  MoveRegistry& operator=(MoveRegistry&&) = default;

  /// Register a move with a selection weight (> 0).
  void add(std::unique_ptr<Move> move, double weight);

  /// Build the sampling tables. Must be called once after the last add().
  void finalise();

  [[nodiscard]] std::size_t size() const noexcept { return moves_.size(); }
  [[nodiscard]] const Move& at(std::size_t i) const noexcept { return *moves_[i].move; }

  /// Probability that an arbitrary move is global (the paper's qg).
  [[nodiscard]] double qGlobal() const noexcept { return qGlobal_; }

  /// Sample from all moves with the configured probabilities.
  [[nodiscard]] const Move& sampleAny(rng::Stream& stream) const;
  /// Sample from Mg with probabilities conditional on the global phase.
  [[nodiscard]] const Move& sampleGlobal(rng::Stream& stream) const;
  /// Sample from Ml with probabilities conditional on the local phase.
  [[nodiscard]] const Move& sampleLocal(rng::Stream& stream) const;

  [[nodiscard]] bool hasGlobal() const noexcept { return !globalIndex_.empty(); }
  [[nodiscard]] bool hasLocal() const noexcept { return !localIndex_.empty(); }

  /// The full case-study move set of §VII: Mg = {add, delete, merge, split,
  /// replace}, Ml = {move centre, resize}, with the paper's 40/60 split by
  /// default.
  [[nodiscard]] static MoveRegistry caseStudy(const MoveSetParams& params = {});

 private:
  struct Entry {
    std::unique_ptr<Move> move;
    double weight;
  };

  std::vector<Entry> moves_;
  std::vector<std::size_t> globalIndex_;
  std::vector<std::size_t> localIndex_;
  rng::AliasTable anyTable_;
  rng::AliasTable globalTable_;
  rng::AliasTable localTable_;
  double qGlobal_ = 0.0;
  bool finalised_ = false;
};

}  // namespace mcmcpar::mcmc
