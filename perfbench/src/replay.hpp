#pragma once

// The traced serial replay: re-runs the `serial` strategy's chain step by
// step through the public mcmc calls (MoveRegistry::sampleAny ->
// Move::propose -> acceptAndCommit -> Diagnostics::record), timing each
// call, and probes the model layer's read-only deltas at fixed checkpoints.
// It must end bit-identical to mcmc::Sampler::run from the same seed.

#include <cstdint>
#include <string>

#include "engine/engine.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReplayOutcome {
  bool identical = false;  ///< same logPosterior and circles as Sampler::run
  std::string detail;      ///< why not, when not identical
};

/// Replay `iterations` serial iterations of `problem` under `seed` and put
/// the mcmc.* and model.* metrics into `result.layers`. When `engineSerial`
/// is given, the replay must also match that engine `serial` report.
ReplayOutcome replaySerial(const mcmcpar::engine::Problem& problem,
                           std::uint64_t seed, std::uint64_t iterations,
                           const mcmcpar::engine::RunReport* engineSerial,
                           SpanLog& spans, std::uint64_t job,
                           WorkloadResult& result);

}  // namespace perfbench
