#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/options.hpp"

namespace mcmcpar::engine {

/// Everything the registry knows about one strategy. `summary`,
/// `paperSection`, `extrasType` and `optionsHelp` feed --list style output;
/// `factory` builds an unprepared Strategy from shared resources and parsed
/// options (the factory must consume its options and call
/// `options.requireConsumed(name)`).
struct StrategyInfo {
  std::string name;
  std::string paperSection;  ///< e.g. "§V" — where the paper describes it
  std::string summary;
  std::string extrasType;    ///< RunReport extras alternative, "-" if none
  std::string optionsHelp;   ///< "key=value ..." synopsis, "" if none
  std::function<std::unique_ptr<Strategy>(const ExecResources&,
                                          const OptionMap&)>
      factory;
};

class StrategyRegistry;

/// The inner strategy of a wrapper strategy ("sharded", "sequence"):
/// `strategy=NAME` (default serial) with every `inner.K=V` option forwarded
/// as K=V.
struct InnerStrategy {
  std::string name;
  std::vector<std::string> options;
};

/// Read a wrapper's inner strategy from its options. A wrapper wrapping
/// itself is rejected, and the inner strategy is created once here, so a
/// bad name or option fails when the wrapper is created (at SUBMIT for a
/// served job), not on its first run. Throws EngineError.
[[nodiscard]] InnerStrategy innerStrategy(const StrategyRegistry& registry,
                                          const std::string& wrapper,
                                          const OptionMap& options);

/// Whole-image log posterior of a recombined model — the merged circles of
/// a partition pipeline or a sharded run, scored on `problem`'s image and
/// likelihood under `prior` — comparable with an unpartitioned run of the
/// same problem (per-partition and per-tile values are not).
[[nodiscard]] double mergedLogPosterior(
    const Problem& problem, const model::PriorParams& prior,
    const std::vector<model::Circle>& merged);

/// String-keyed strategy catalogue: the integration point for every
/// front-end (CLI, benches, future server). New scenarios are selected by
/// name, never by hand-wired setup code.
class StrategyRegistry {
 public:
  /// Register a strategy; throws EngineError on a duplicate or empty name.
  void add(StrategyInfo info);

  [[nodiscard]] bool contains(const std::string& name) const noexcept;

  /// Registered names in lexicographic order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Info for one strategy; throws EngineError for unknown names.
  [[nodiscard]] const StrategyInfo& info(const std::string& name) const;

  /// Build an unprepared strategy. Throws EngineError for an unknown name
  /// (message lists the registered ones), malformed `key=value` pairs, or
  /// options the strategy does not understand.
  [[nodiscard]] std::unique_ptr<Strategy> create(
      const std::string& name, const ExecResources& resources = {},
      const std::vector<std::string>& options = {}) const;

  /// The built-in catalogue: the paper's six architectures and the two
  /// wrappers that run any of them (`strategy=NAME`, `inner.K=V`):
  ///   "serial"       §II-III  conventional RJ-MCMC baseline
  ///   "speculative"  §IV      speculative-moves executor
  ///   "mc3"          §IV      Metropolis-coupled MCMC
  ///   "periodic"     §V-VII   periodic partitioning
  ///   "blind"        §VIII-IX blind image partitioning + merge
  ///   "intelligent"  §VIII-IX intelligent image partitioning
  ///   "sharded"      tiles one image, runs the inner strategy per tile
  ///   "sequence"     runs the inner strategy frame by frame, warm-started
  [[nodiscard]] static const StrategyRegistry& builtin();

 private:
  std::map<std::string, StrategyInfo> strategies_;
};

}  // namespace mcmcpar::engine
