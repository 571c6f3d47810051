#include "shard/endpoints.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "engine/options.hpp"
#include "serve/socket.hpp"

namespace mcmcpar::shard {

namespace {

/// Seconds one EndpointPool health probe waits for `OK pong`.
constexpr double kPingTimeoutSeconds = 5.0;

/// Parse `host:port[*weight]` (one endpoints= list token) or `host:port`
/// with an already-split weight (one endpoints-file line). Throws
/// engine::EngineError with `context` prefixed.
Endpoint parseHostPort(const std::string& token, unsigned weight,
                       const std::string& context) {
  const std::size_t colon = token.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= token.size()) {
    throw engine::EngineError(context + "expected host:port, got '" + token +
                              "'");
  }
  Endpoint endpoint;
  endpoint.host = token.substr(0, colon);
  const std::string portText = token.substr(colon + 1);
  const engine::OptionMap parsed =
      engine::OptionMap::parse({"port=" + portText});
  const std::uint64_t port = parsed.u64("port", 0);
  if (port == 0 || port > 65535) {
    throw engine::EngineError(context + "endpoint port out of range in '" +
                              token + "'");
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  if (weight == 0) {
    throw engine::EngineError(context + "endpoint weight must be >= 1 ('" +
                              token + "')");
  }
  endpoint.weight = weight;
  return endpoint;
}

unsigned parseWeight(const std::string& text, const std::string& context) {
  const engine::OptionMap parsed =
      engine::OptionMap::parse({"weight=" + text});
  const std::uint64_t weight = parsed.u64("weight", 1);
  if (weight == 0 || weight > 1000000) {
    throw engine::EngineError(context + "endpoint weight must be in "
                                        "[1, 1000000], got '" +
                              text + "'");
  }
  return static_cast<unsigned>(weight);
}

}  // namespace

std::vector<Endpoint> parseEndpointList(const std::string& text) {
  std::vector<Endpoint> endpoints;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    std::string token = text.substr(begin, end - begin);
    begin = end + 1;
    if (token.empty()) continue;
    unsigned weight = 1;
    const std::size_t star = token.find('*');
    if (star != std::string::npos) {
      weight = parseWeight(token.substr(star + 1), "endpoints: ");
      token = token.substr(0, star);
    }
    endpoints.push_back(parseHostPort(token, weight, "endpoints: "));
  }
  return endpoints;
}

std::vector<Endpoint> parseEndpointsFile(std::istream& in,
                                         const std::string& name) {
  std::vector<Endpoint> endpoints;
  std::vector<std::size_t> lines;  // index-aligned: the defining line
  std::string line;
  std::size_t lineNumber = 0;
  while (std::getline(in, line)) {
    ++lineNumber;
    std::istringstream tokens(line);
    std::string hostPort, weightText, trailing;
    if (!(tokens >> hostPort) || hostPort.front() == '#') continue;
    const std::string context =
        "endpoints file '" + name + "' line " + std::to_string(lineNumber) +
        ": ";
    unsigned weight = 1;
    if (tokens >> weightText && weightText.front() != '#') {
      weight = parseWeight(weightText, context);
      if (tokens >> trailing && trailing.front() != '#') {
        throw engine::EngineError(context + "unexpected trailing token '" +
                                  trailing +
                                  "' (expected 'host:port [weight]')");
      }
    }
    Endpoint endpoint = parseHostPort(hostPort, weight, context);
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      if (endpoints[i].host == endpoint.host &&
          endpoints[i].port == endpoint.port) {
        throw engine::EngineError(
            context + "duplicate endpoint '" + endpoint.label() +
            "' (first defined on line " + std::to_string(lines[i]) +
            "; use a weight to give a host a larger share)");
      }
    }
    endpoints.push_back(std::move(endpoint));
    lines.push_back(lineNumber);
  }
  return endpoints;
}

std::vector<Endpoint> loadEndpointsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw engine::EngineError("cannot open endpoints file '" + path + "'");
  }
  std::vector<Endpoint> endpoints = parseEndpointsFile(in, path);
  if (endpoints.empty()) {
    throw engine::EngineError("endpoints file '" + path +
                              "' defines no endpoints");
  }
  return endpoints;
}

std::string formatEndpointList(const std::vector<Endpoint>& endpoints) {
  std::string out;
  for (const Endpoint& endpoint : endpoints) {
    if (!out.empty()) out += ',';
    out += endpoint.label();
    if (endpoint.weight != 1) {
      out += '*';
      out += std::to_string(endpoint.weight);
    }
  }
  return out;
}

bool pingEndpoint(const Endpoint& endpoint, double timeoutSeconds) {
  try {
    serve::Client client;
    client.connect(endpoint.host, endpoint.port, timeoutSeconds);
    return client.request("PING") == "OK pong";
  } catch (const std::exception&) {
    return false;
  }
}

EndpointPool::EndpointPool(std::vector<Endpoint> endpoints,
                           double pingIntervalSeconds)
    : pingInterval_(std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(pingIntervalSeconds))) {
  states_.reserve(endpoints.size());
  for (Endpoint& endpoint : endpoints) {
    states_.push_back(State{std::move(endpoint), true, 0, {}});
  }
}

bool EndpointPool::hasIdle(std::size_t exclude) const noexcept {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (i == exclude) continue;
    if (states_[i].alive && states_[i].load == 0) return true;
  }
  return false;
}

std::size_t EndpointPool::aliveCount() const noexcept {
  std::size_t n = 0;
  for (const State& state : states_) n += state.alive ? 1 : 0;
  return n;
}

std::size_t EndpointPool::checkAll() {
  const auto now = std::chrono::steady_clock::now();
  for (State& state : states_) {
    state.alive = pingEndpoint(state.endpoint, kPingTimeoutSeconds);
    state.lastProbe = now;
  }
  return aliveCount();
}

void EndpointPool::refresh() {
  const auto now = std::chrono::steady_clock::now();
  for (State& state : states_) {
    if (now - state.lastProbe < pingInterval_) continue;
    state.alive = pingEndpoint(state.endpoint, kPingTimeoutSeconds);
    state.lastProbe = now;
  }
}

std::optional<std::size_t> EndpointPool::pick(
    const std::vector<char>& exclude) {
  std::optional<std::size_t> best;
  double bestScore = 0.0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (!states_[i].alive) continue;
    if (i < exclude.size() && exclude[i] != 0) continue;
    // Weighted least-loaded: a weight-2 host takes twice the tiles of a
    // weight-1 one before looking equally busy.
    const double score = static_cast<double>(states_[i].load) /
                         static_cast<double>(states_[i].endpoint.weight);
    if (!best || score < bestScore) {
      best = i;
      bestScore = score;
    }
  }
  if (best) ++states_[*best].load;
  return best;
}

void EndpointPool::release(std::size_t i) {
  if (i < states_.size() && states_[i].load > 0) --states_[i].load;
}

void EndpointPool::markDead(std::size_t i) {
  if (i >= states_.size()) return;
  states_[i].alive = false;
  states_[i].lastProbe = std::chrono::steady_clock::now();
}

}  // namespace mcmcpar::shard
