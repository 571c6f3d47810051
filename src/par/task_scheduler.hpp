#pragma once

#include <span>
#include <vector>

namespace mcmcpar::par {

/// Static assignment of tasks to threads.
struct TaskSchedule {
  /// perThread[t] = indices of the tasks assigned to thread t.
  std::vector<std::vector<std::size_t>> perThread;

  /// Completion time of the schedule under the given per-task costs.
  [[nodiscard]] double makespan(std::span<const double> costs) const;
};

/// Task indices longest cost first, ties in index order: the order in which
/// lptSchedule assigns tasks. A dynamic scheduler that hands tasks out in
/// this order to whichever thread frees up first runs the same LPT rule
/// online, without knowing the costs exactly.
[[nodiscard]] std::vector<std::size_t> lptOrder(std::span<const double> costs);

/// Longest-Processing-Time-first schedule of `costs` onto `threads` threads
/// (the classic 4/3-approximation to minimum makespan). This is what the
/// paper's "task scheduler ... allowing more partitions than there are
/// available processors" amounts to for known costs.
[[nodiscard]] TaskSchedule lptSchedule(std::span<const double> costs,
                                       unsigned threads);

/// Makespan of greedy dynamic list scheduling in submission order (tasks
/// pulled from a queue by whichever thread is free first) — the behaviour
/// of ThreadPool::parallelFor. Used by the virtual-time executor to charge
/// a parallel region the wall time an s-thread machine would need.
[[nodiscard]] double listScheduleMakespan(std::span<const double> costs,
                                          unsigned threads);

/// Lower bound on any schedule: max(total/threads, max single cost).
[[nodiscard]] double makespanLowerBound(std::span<const double> costs,
                                        unsigned threads);

}  // namespace mcmcpar::par
