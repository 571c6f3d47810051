#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

/// Endpoint fleets for the socket shard backend: the `endpoints=` list and
/// `endpoints-file=` grammar shared by shard::strategy and mcmcpar_serve,
/// plus the health-checked pool the coordinator assigns tiles from.
namespace mcmcpar::shard {

/// One mcmcpar_serve endpoint of a fleet.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
  unsigned weight = 1;  ///< relative share of tiles in weighted selection

  [[nodiscard]] std::string label() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parse the `endpoints=` option value: `host:port[*weight][,...]`.
/// Throws engine::EngineError on malformed entries or zero weights.
[[nodiscard]] std::vector<Endpoint> parseEndpointList(const std::string& text);

/// Parse an endpoints file: one `host:port [weight]` per line, `#` comments
/// and blank lines skipped. Duplicate host:port pairs and zero weights are
/// rejected; every diagnostic is prefixed `endpoints file '<name>' line N:`
/// (engine::EngineError).
[[nodiscard]] std::vector<Endpoint> parseEndpointsFile(std::istream& in,
                                                       const std::string& name);

/// parseEndpointsFile over a filesystem path. Throws engine::EngineError
/// when the file cannot be opened or holds no endpoints.
[[nodiscard]] std::vector<Endpoint> loadEndpointsFile(const std::string& path);

/// Render a fleet back into the `endpoints=` option grammar
/// (`host:port[*weight],...`) — how mcmcpar_serve hands its fleet to
/// sharded jobs as a default.
[[nodiscard]] std::string formatEndpointList(
    const std::vector<Endpoint>& endpoints);

/// One synchronous PING round-trip (true = `OK pong` within the timeout).
[[nodiscard]] bool pingEndpoint(const Endpoint& endpoint,
                                double timeoutSeconds);

/// The coordinator's view of a fleet: per-endpoint liveness (PING-probed,
/// 5 s per probe) and in-flight load, with weighted least-loaded
/// selection. NOT thread-safe — the shard coordinator drives its fan-out
/// from one thread.
class EndpointPool {
 public:
  explicit EndpointPool(std::vector<Endpoint> endpoints,
                        double pingIntervalSeconds = 30.0);

  [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }
  [[nodiscard]] const Endpoint& endpoint(std::size_t i) const {
    return states_[i].endpoint;
  }
  [[nodiscard]] bool alive(std::size_t i) const { return states_[i].alive; }
  [[nodiscard]] unsigned load(std::size_t i) const {
    return states_[i].load;
  }
  [[nodiscard]] std::size_t aliveCount() const noexcept;

  /// Is there an alive endpoint with no in-flight load other than index
  /// `exclude`? The straggler-hedging precondition: a hedge replica must
  /// ride spare capacity, never displace or double-book primary work.
  [[nodiscard]] bool hasIdle(std::size_t exclude) const noexcept;
  [[nodiscard]] std::size_t deadCount() const noexcept {
    return size() - aliveCount();
  }

  /// Ping every endpoint (the startup health check). Returns aliveCount().
  std::size_t checkAll();

  /// Re-ping endpoints whose last probe is older than the ping interval —
  /// dead ones may have recovered, live ones may have died quietly.
  void refresh();

  /// Pick the usable endpoint with the least load per weight, skipping
  /// dead ones and indices flagged in `exclude` (a tile's already-tried
  /// set). Increments the winner's load; nullopt when none qualifies.
  [[nodiscard]] std::optional<std::size_t> pick(
      const std::vector<char>& exclude = {});

  /// Return one unit of load (a reaped or abandoned tile).
  void release(std::size_t i);

  /// Record a failed endpoint (transport error observed outside PING).
  void markDead(std::size_t i);

 private:
  struct State {
    Endpoint endpoint;
    bool alive = true;
    unsigned load = 0;
    std::chrono::steady_clock::time_point lastProbe{};
  };

  std::vector<State> states_;
  std::chrono::steady_clock::duration pingInterval_;
};

}  // namespace mcmcpar::shard
