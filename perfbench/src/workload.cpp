#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "analysis/matching.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::size_t nearestRank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearestRank(values.size(), p) - 1];
}

std::size_t samplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearestRank(n, p);
}

double tailPercentile(std::size_t n, std::size_t minBeyond) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9}) {
    if (samplesBeyond(n, p) >= minBeyond) best = p;
  }
  return best;
}

std::size_t minSamplesFor(double p, std::size_t minBeyond) {
  std::size_t n = minBeyond + 1;
  while (samplesBeyond(n, p) < minBeyond) ++n;
  return n;
}

void SloTally::record(const std::string& cls, double latencySeconds, bool ok) {
  ++sent_;
  const auto limit = limits_.find(cls);
  if (ok && limit != limits_.end() && latencySeconds <= limit->second) ++met_;
}

double SloTally::share() const noexcept {
  return sent_ == 0 ? 1.0
                    : static_cast<double>(met_) / static_cast<double>(sent_);
}

std::vector<mcmcpar::model::Circle> truthCircles(
    const std::vector<mcmcpar::img::SceneCircle>& truth) {
  std::vector<mcmcpar::model::Circle> circles;
  circles.reserve(truth.size());
  for (const mcmcpar::img::SceneCircle& c : truth) {
    circles.push_back(mcmcpar::model::Circle{c.x, c.y, c.r});
  }
  return circles;
}

mcmcpar::engine::Problem cellProblem(const mcmcpar::img::ImageF& image,
                                     double radius) {
  mcmcpar::engine::Problem problem;
  problem.filtered = &image;
  problem.prior.radiusMean = radius;
  problem.prior.radiusStd = radius / 8.0;
  problem.prior.radiusMin = radius / 2.0;
  problem.prior.radiusMax = radius * 1.8;
  return problem;
}

double detectionF1(const std::vector<mcmcpar::model::Circle>& found,
                   const std::vector<mcmcpar::model::Circle>& truth,
                   double radius) {
  if (found.empty() || truth.empty()) return found.size() == truth.size() ? 1.0 : 0.0;
  const auto match = mcmcpar::analysis::matchCircles(found, truth, radius / 2.0);
  const double tp = static_cast<double>(match.matches.size());
  return 2.0 * tp / static_cast<double>(found.size() + truth.size());
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
