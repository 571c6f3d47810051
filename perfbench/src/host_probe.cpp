#include "host_probe.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> sink{0};

/// ~40 ms of dependent integer work on one core.
void spin() {
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink.fetch_add(x, std::memory_order_relaxed);
}

double timeSpins(unsigned threads) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin);
  for (std::thread& thread : pool) thread.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

HostProbe probeHost() {
  HostProbe probe;
  probe.threads = std::max(1u, std::thread::hardware_concurrency());
  // Warm-up legs, discarded: on a VM whose idle vCPUs are descheduled, the
  // first second or so of a sudden all-thread burst can run on one core.
  for (int k = 0; k < 8; ++k) (void)timeSpins(probe.threads);
  std::vector<double> ratios;
  for (int k = 0; k < 3; ++k) {
    const double one = timeSpins(1);
    const double all = timeSpins(probe.threads);
    ratios.push_back(all > 0.0 ? probe.threads * one / all : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  probe.scaling = ratios[1];
  return probe;
}

}  // namespace perfbench
