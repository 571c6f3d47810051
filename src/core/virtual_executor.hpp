#pragma once

#include <string>
#include <vector>

#include "core/periodic_sampler.hpp"

namespace mcmcpar::core {

/// A virtual machine model standing in for one of the paper's three test
/// hosts (§VII). `threads` bounds local-phase parallelism; `overheadScale`
/// models inter-thread communication quality — the paper attributes the
/// Pentium-D's win (38% reduction) to same-die communication, the
/// dual-socket Xeon's weaker result (23%) to cross-package costs, with the
/// two-dies Q6600 (29%) in between.
struct ArchitecturePreset {
  std::string name;
  unsigned threads = 2;
  double overheadScale = 1.0;
};

/// The three §VII hosts as virtual presets.
[[nodiscard]] std::vector<ArchitecturePreset> paperArchitectures();

/// Re-derive a report's virtual wall time under a different communication
/// quality: the measured overhead (the local phases' partition setup,
/// charged serially in virtualSeconds) is rescaled by `overheadScale`.
[[nodiscard]] double adjustedVirtualSeconds(const PeriodicReport& report,
                                            double overheadScale) noexcept;

/// Percentage reduction of `candidate` relative to `baseline`
/// (e.g. 38.0 for "reduced by 38%"); negative when slower.
[[nodiscard]] double reductionPercent(double baselineSeconds,
                                      double candidateSeconds) noexcept;

}  // namespace mcmcpar::core
