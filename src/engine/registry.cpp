#include "engine/registry.hpp"

namespace mcmcpar::engine {

void StrategyRegistry::add(StrategyInfo info) {
  if (info.name.empty()) {
    throw EngineError("cannot register a strategy with an empty name");
  }
  if (!info.factory) {
    throw EngineError("strategy '" + info.name + "' has no factory");
  }
  if (strategies_.count(info.name) != 0) {
    throw EngineError("strategy '" + info.name + "' is already registered");
  }
  strategies_.emplace(info.name, std::move(info));
}

bool StrategyRegistry::contains(const std::string& name) const noexcept {
  return strategies_.count(name) != 0;
}

std::vector<std::string> StrategyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(strategies_.size());
  for (const auto& [name, info] : strategies_) out.push_back(name);
  return out;
}

const StrategyInfo& StrategyRegistry::info(const std::string& name) const {
  const auto it = strategies_.find(name);
  if (it == strategies_.end()) {
    std::string known;
    for (const auto& [key, value] : strategies_) {
      if (!known.empty()) known += ", ";
      known += "'" + key + "'";
    }
    throw EngineError("unknown strategy '" + name + "'; registered: " + known);
  }
  return it->second;
}

InnerStrategy innerStrategy(const StrategyRegistry& registry,
                            const std::string& wrapper,
                            const OptionMap& options) {
  InnerStrategy inner{options.str("strategy", "serial"), {}};
  if (inner.name == wrapper) {
    throw EngineError("strategy '" + wrapper + "': cannot wrap itself (" +
                      "strategy=" + wrapper + ")");
  }
  for (const std::string& key : options.keysWithPrefix("inner.")) {
    inner.options.push_back(key.substr(6) + "=" + options.str(key, ""));
  }
  try {
    (void)registry.create(inner.name, ExecResources{}, inner.options);
  } catch (const EngineError& e) {
    throw EngineError("strategy '" + wrapper +
                      "': inner strategy rejected: " + e.what());
  }
  return inner;
}

std::unique_ptr<Strategy> StrategyRegistry::create(
    const std::string& name, const ExecResources& resources,
    const std::vector<std::string>& options) const {
  const StrategyInfo& entry = info(name);
  const OptionMap parsed = OptionMap::parse(options);
  std::unique_ptr<Strategy> strategy = entry.factory(resources, parsed);
  parsed.requireConsumed("strategy '" + name + "'");
  return strategy;
}

}  // namespace mcmcpar::engine
