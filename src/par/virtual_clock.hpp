#pragma once

#include <chrono>
#include <span>

namespace mcmcpar::par {

/// Wall-clock stopwatch (steady clock).
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  /// Seconds since construction or the last restart().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void restart() noexcept { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulator of *virtual* elapsed time for the simulated-SMP executors.
///
/// The paper's experiments compare wall times on specific 2-4 core
/// machines. The virtual executors run parallel regions serially, measure
/// each task, and charge this clock the makespan an s-thread machine would
/// achieve, whatever the host's core count or load (see
/// docs/ARCHITECTURE.md, "Substitutions for the paper's testbed"). Serial
/// sections are charged at face value.
class VirtualClock {
 public:
  /// Charge a serial section.
  void advance(double seconds) noexcept { now_ += seconds; }

  /// Charge a parallel region given measured per-task costs, as executed by
  /// a dynamic task queue on `threads` threads.
  void advanceParallel(std::span<const double> taskSeconds, unsigned threads);

  [[nodiscard]] double now() const noexcept { return now_; }
  void reset() noexcept { now_ = 0.0; }

 private:
  double now_ = 0.0;
};

}  // namespace mcmcpar::par
