#pragma once

// Host-parallelism probe: a fixed-work integer spin timed on one thread and
// on every hardware thread at once. The ratio n * t(1) / t(n) is n on an
// idle host and drops when other tenants hold cores, so a run on a
// contended host can be recognised next to its results.

namespace perfbench {

struct HostProbe {
  unsigned threads = 1;  ///< hardware threads spun in the parallel leg
  double scaling = 1.0;  ///< threads * t(1) / t(threads), median of 3
};

[[nodiscard]] HostProbe probeHost();

}  // namespace perfbench
