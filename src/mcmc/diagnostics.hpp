#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mcmcpar::mcmc {

/// One sampled point of the chain's trajectory.
struct TracePoint {
  std::uint64_t iteration = 0;
  double logPosterior = 0.0;
  std::size_t circleCount = 0;
};

/// Per-move proposal/acceptance counters plus a log-posterior trace.
///
/// Rejection rates feed the speculative-moves prediction (eqs. 3-4 need
/// pgr and plr); the trace feeds the convergence detector.
class Diagnostics {
 public:
  /// Record a proposal outcome for the named move. Called once per
  /// iteration: a move set holds a handful of moves, so the counters are a
  /// small vector scanned by name, and a move seen before costs no
  /// allocation and no tree lookup.
  void record(std::string_view moveName, bool accepted);

  /// Append a trace point.
  void tracePoint(std::uint64_t iteration, double logPosterior,
                  std::size_t circleCount);

  struct MoveStats {
    std::uint64_t proposed = 0;
    std::uint64_t accepted = 0;

    [[nodiscard]] double acceptanceRate() const noexcept {
      return proposed == 0 ? 0.0
                           : static_cast<double>(accepted) /
                                 static_cast<double>(proposed);
    }
    [[nodiscard]] double rejectionRate() const noexcept {
      return proposed == 0 ? 0.0 : 1.0 - acceptanceRate();
    }
  };

  /// Counters of every recorded move, keyed and ordered by move name.
  [[nodiscard]] std::map<std::string, MoveStats> perMove() const;
  [[nodiscard]] const std::vector<TracePoint>& trace() const noexcept {
    return trace_;
  }

  /// Aggregate counts over a set of move names (empty = all moves).
  [[nodiscard]] MoveStats aggregate(
      const std::vector<std::string>& names = {}) const;

  [[nodiscard]] std::uint64_t totalProposed() const noexcept {
    return aggregate().proposed;
  }

  /// Merge another diagnostics object into this one (per-partition workers
  /// keep local diagnostics that the executor folds together; traces are
  /// concatenated and re-sorted by iteration).
  void merge(const Diagnostics& other);

  void clear();

 private:
  struct MoveSlot {
    std::string name;
    MoveStats stats;
  };

  /// The counters of `moveName`, appending a slot on first sight.
  MoveStats& slot(std::string_view moveName);

  std::vector<MoveSlot> moves_;  ///< in first-recorded order
  std::vector<TracePoint> trace_;
};

}  // namespace mcmcpar::mcmc
