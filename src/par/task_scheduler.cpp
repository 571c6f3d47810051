#include "par/task_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

namespace mcmcpar::par {

double TaskSchedule::makespan(std::span<const double> costs) const {
  double worst = 0.0;
  for (const auto& tasks : perThread) {
    double t = 0.0;
    for (std::size_t i : tasks) t += costs[i];
    worst = std::max(worst, t);
  }
  return worst;
}

std::vector<std::size_t> lptOrder(std::span<const double> costs) {
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return costs[a] > costs[b];
  });
  return order;
}

TaskSchedule lptSchedule(std::span<const double> costs, unsigned threads) {
  threads = std::max(threads, 1u);
  TaskSchedule schedule;
  schedule.perThread.resize(threads);

  // Min-heap of (accumulated load, thread).
  using Slot = std::pair<double, unsigned>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
  for (unsigned t = 0; t < threads; ++t) heap.emplace(0.0, t);

  for (std::size_t i : lptOrder(costs)) {
    auto [load, t] = heap.top();
    heap.pop();
    schedule.perThread[t].push_back(i);
    heap.emplace(load + costs[i], t);
  }
  return schedule;
}

double listScheduleMakespan(std::span<const double> costs, unsigned threads) {
  threads = std::max(threads, 1u);
  // Greedy in submission order: each task goes to the earliest-free thread.
  std::priority_queue<double, std::vector<double>, std::greater<>> free;
  for (unsigned t = 0; t < threads; ++t) free.push(0.0);
  double end = 0.0;
  for (double c : costs) {
    const double start = free.top();
    free.pop();
    const double finish = start + c;
    free.push(finish);
    end = std::max(end, finish);
  }
  return end;
}

double makespanLowerBound(std::span<const double> costs, unsigned threads) {
  threads = std::max(threads, 1u);
  double total = 0.0, largest = 0.0;
  for (double c : costs) {
    total += c;
    largest = std::max(largest, c);
  }
  return std::max(total / threads, largest);
}

}  // namespace mcmcpar::par
