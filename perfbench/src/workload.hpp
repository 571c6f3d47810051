#pragma once

// Shared vocabulary of the ladder benchmark: run options, the result a
// workload reports, and the statistics every workload uses (medians, the
// tail-percentile rule, per-class latency limits, detection F1).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "img/synth.hpp"
#include "model/circle.hpp"

namespace perfbench {

class SpanLog;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;          ///< record spans and per-layer metrics
  std::string traceOut;        ///< Chrome trace file (trace runs only)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload process reports. `endToEnd` is filled on every run;
/// `layers` only when the run is traced.
struct WorkloadResult {
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;             ///< failed, refused or wrong jobs
  std::vector<std::string> checkFailures;  ///< one line per failed check
  double tailPercentile = 0.0;          ///< the workload's fixed percentile
  std::size_t latencySamples = 0;
  double wallSeconds = 0.0;             ///< the measured interval

  void e2e(const std::string& name, double value, const std::string& unit) {
    endToEnd[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit};
  }
  /// Record a failed output check: counts the job as failed.
  void fail(const std::string& what) {
    ++failed;
    checkFailures.push_back(what);
  }
};

// ---- statistics ---------------------------------------------------------

/// Median (mean of the two middle values for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, p in (0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double p);

/// The highest percentile of the ladder {50, 75, 80, 90, 95, 99, 99.9}
/// that leaves at least `minBeyond` of n samples beyond it; 0 when even
/// the median does not.
[[nodiscard]] double tailPercentile(std::size_t n, std::size_t minBeyond = 10);

/// Smallest sample count at which percentile p has `minBeyond` samples
/// beyond it.
[[nodiscard]] std::size_t minSamplesFor(double p, std::size_t minBeyond = 10);

/// Per-class latency limits: a request meets its class limit only when it
/// succeeded and its latency is within the limit. Failed and refused
/// requests count as sent and missed.
class SloTally {
 public:
  void setLimit(const std::string& cls, double seconds) { limits_[cls] = seconds; }
  void record(const std::string& cls, double latencySeconds, bool ok);
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t met() const noexcept { return met_; }
  /// met / sent (1 when nothing was sent).
  [[nodiscard]] double share() const noexcept;

 private:
  std::map<std::string, double> limits_;
  std::uint64_t sent_ = 0;
  std::uint64_t met_ = 0;
};

[[nodiscard]] std::vector<mcmcpar::model::Circle> truthCircles(
    const std::vector<mcmcpar::img::SceneCircle>& truth);

/// The cell-scene problem every workload solves: the prior the serve layer
/// derives from one radius (mean r, std r/8, support [r/2, 1.8r]).
[[nodiscard]] mcmcpar::engine::Problem cellProblem(
    const mcmcpar::img::ImageF& image, double radius);

/// Detection F1 of `found` against `truth` (analysis::matchCircles with a
/// centre tolerance of half the mean radius).
[[nodiscard]] double detectionF1(const std::vector<mcmcpar::model::Circle>& found,
                                 const std::vector<mcmcpar::model::Circle>& truth,
                                 double radius);

/// Peak resident set of this process in MiB (getrusage).
[[nodiscard]] double peakRssMb();

/// User + system CPU seconds of this process so far (getrusage).
[[nodiscard]] double processCpuSeconds();

/// A 64-bit mix of a seed and a salt (splitmix64 finaliser): the one way
/// the benchmark derives per-job and per-input seeds from --seed.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

// ---- workloads ------------------------------------------------------------

[[nodiscard]] WorkloadResult runChain(const RunOptions& options, SpanLog& spans);
[[nodiscard]] WorkloadResult runServed(const RunOptions& options, SpanLog& spans);
[[nodiscard]] WorkloadResult runFanout(const RunOptions& options, SpanLog& spans);

}  // namespace perfbench
