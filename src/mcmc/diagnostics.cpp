#include "mcmc/diagnostics.hpp"

#include <algorithm>

namespace mcmcpar::mcmc {

Diagnostics::MoveStats& Diagnostics::slot(std::string_view moveName) {
  for (MoveSlot& s : moves_) {
    if (s.name == moveName) return s.stats;
  }
  moves_.push_back(MoveSlot{std::string(moveName), {}});
  return moves_.back().stats;
}

void Diagnostics::record(std::string_view moveName, bool accepted) {
  MoveStats& s = slot(moveName);
  ++s.proposed;
  if (accepted) ++s.accepted;
}

void Diagnostics::tracePoint(std::uint64_t iteration, double logPosterior,
                             std::size_t circleCount) {
  trace_.push_back(TracePoint{iteration, logPosterior, circleCount});
}

std::map<std::string, Diagnostics::MoveStats> Diagnostics::perMove() const {
  std::map<std::string, MoveStats> out;
  for (const MoveSlot& s : moves_) out.emplace(s.name, s.stats);
  return out;
}

Diagnostics::MoveStats Diagnostics::aggregate(
    const std::vector<std::string>& names) const {
  MoveStats total;
  for (const MoveSlot& s : moves_) {
    if (!names.empty() &&
        std::find(names.begin(), names.end(), s.name) == names.end()) {
      continue;
    }
    total.proposed += s.stats.proposed;
    total.accepted += s.stats.accepted;
  }
  return total;
}

void Diagnostics::merge(const Diagnostics& other) {
  for (const MoveSlot& s : other.moves_) {
    MoveStats& mine = slot(s.name);
    mine.proposed += s.stats.proposed;
    mine.accepted += s.stats.accepted;
  }
  const auto byIteration = [](const TracePoint& a, const TracePoint& b) {
    return a.iteration < b.iteration;
  };
  const auto mid = static_cast<std::ptrdiff_t>(trace_.size());
  trace_.insert(trace_.end(), other.trace_.begin(), other.trace_.end());
  // Traces grow by iteration, so both halves are normally sorted already; a
  // stable merge of sorted halves equals the stable sort, in linear time
  // (folding many partition traces one by one would otherwise be quadratic).
  const auto split = trace_.begin() + mid;
  if (std::is_sorted(trace_.begin(), split, byIteration) &&
      std::is_sorted(split, trace_.end(), byIteration)) {
    std::inplace_merge(trace_.begin(), split, trace_.end(), byIteration);
  } else {
    std::stable_sort(trace_.begin(), trace_.end(), byIteration);
  }
}

void Diagnostics::clear() {
  moves_.clear();
  trace_.clear();
}

}  // namespace mcmcpar::mcmc
