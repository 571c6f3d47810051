// mcmcpar_serve — the persistent serving front-end: one long-running
// process owning a shared thread budget (par::PoolBudget) and a warm image
// cache, executing jobs continuously through the engine registry. Jobs
// arrive over a TCP socket (--listen) and/or a watched spool directory
// (--watch); both speak the job protocol specified in docs/PROTOCOL.md.
//
//   mcmcpar_serve --listen 7333
//   mcmcpar_serve --watch /var/spool/mcmcpar --threads 8 --cache-mb 512
//   mcmcpar_serve --listen 0 --watch ./spool --drain-timeout 30
//
// On startup the resolved endpoints are printed as machine-parseable lines
// ("LISTENING <port>", "WATCHING <dir>") so scripts can drive an
// ephemeral-port server. SIGINT/SIGTERM or a client SHUTDOWN command begin
// a graceful drain bounded by --drain-timeout.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <vector>

#include "engine/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/watch.hpp"
#include "shard/endpoints.hpp"

using namespace mcmcpar;

namespace {

std::atomic<bool> shutdownRequested{false};

void onSignal(int) { shutdownRequested.store(true); }

struct CliOptions {
  std::optional<unsigned> listenPort;  // --listen (0 = ephemeral)
  std::string watchDir;                // --watch
  std::string endpointsFile;           // --endpoints-file
  unsigned pollMillis = 250;           // --poll-ms
  double drainTimeout = 10.0;          // --drain-timeout
  double pingInterval = 30.0;          // --ping-interval
  std::string traceOut;                // --trace-out
  serve::ServerOptions server;
  bool help = false;
};

void printUsage() {
  std::printf(
      "usage: mcmcpar_serve (--listen PORT | --watch DIR) [options]\n"
      "  --listen PORT       accept the socket protocol on 127.0.0.1:PORT\n"
      "                      (0 = ephemeral; resolved port is printed as\n"
      "                      'LISTENING <port>')\n"
      "  --watch DIR         ingest *.manifest files dropped into DIR and\n"
      "                      write <name>.manifest.result.json next to them\n"
      "  --poll-ms N         watch-directory poll interval (default: 250)\n"
      "  --endpoints-file F  fleet config (one 'host:port [weight]' per\n"
      "                      line, '#' comments). Validated at startup\n"
      "                      (duplicates and zero weights are line-numbered\n"
      "                      errors); sharded backend=socket jobs with no\n"
      "                      endpoints of their own fan out to this fleet\n"
      "  --ping-interval X   seconds between fleet health probes\n"
      "                      (default: 30)\n"
      "  --threads N         total worker budget, 0 = hardware (default: 0)\n"
      "  --jobs N            jobs in flight, 0 = thread budget (default: 0)\n"
      "  --max-queued N      bounded admission: reject SUBMITs with\n"
      "                      ERR QUEUE_FULL while N jobs are queued\n"
      "                      (default: 0 = unbounded)\n"
      "  --delay-ms N        test hook: sleep N ms after each job starts,\n"
      "                      making this a deliberately slow endpoint for\n"
      "                      straggler-hedging tests (default: 0)\n"
      "  --cache-mb N        image cache capacity (default: 256)\n"
      "  --drain-timeout X   seconds to let jobs finish on shutdown before\n"
      "                      cancelling them (default: 10)\n"
      "  --iterations N      default per-job budget when a job line has no\n"
      "                      @iters directive (default: 20000)\n"
      "  --seed N            server master seed (default: 1)\n"
      "  --radius X          circle prior radius (default: 9.0)\n"
      "  --width N/--height N/--cells N  the 'synth' scene shape\n"
      "  --trace-out FILE    write a Chrome trace-event JSON timeline of\n"
      "                      every command and job handled, on shutdown\n"
      "\nJob line grammar and the socket protocol: docs/PROTOCOL.md\n");
}

bool parseU64(const char* flag, const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n", flag,
                 text);
    return false;
  }
  out = value;
  return true;
}

bool parseUnsigned(const char* flag, const char* text, unsigned& out) {
  std::uint64_t value = 0;
  if (!parseU64(flag, text, value) || value > 0xFFFFFFFFull) {
    std::fprintf(stderr, "%s: expected a 32-bit unsigned, got '%s'\n", flag,
                 text);
    return false;
  }
  out = static_cast<unsigned>(value);
  return true;
}

bool parseDouble(const char* flag, const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: expected a number, got '%s'\n", flag, text);
    return false;
  }
  out = value;
  return true;
}

std::optional<CliOptions> parseArgs(int argc, char** argv) {
  CliOptions cli;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value after %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    unsigned u = 0;
    if (std::strcmp(arg, "--help") == 0) {
      cli.help = true;
      return cli;
    } else if (std::strcmp(arg, "--listen") == 0) {
      if ((v = value(i)) == nullptr || !parseUnsigned(arg, v, u)) {
        return std::nullopt;
      }
      if (u > 65535) {
        std::fprintf(stderr, "--listen: port out of range: %u\n", u);
        return std::nullopt;
      }
      cli.listenPort = u;
    } else if (std::strcmp(arg, "--watch") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.watchDir = v;
    } else if (std::strcmp(arg, "--poll-ms") == 0) {
      if ((v = value(i)) == nullptr || !parseUnsigned(arg, v, cli.pollMillis))
        return std::nullopt;
    } else if (std::strcmp(arg, "--endpoints-file") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.endpointsFile = v;
    } else if (std::strcmp(arg, "--ping-interval") == 0) {
      if ((v = value(i)) == nullptr ||
          !parseDouble(arg, v, cli.pingInterval))
        return std::nullopt;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if ((v = value(i)) == nullptr ||
          !parseUnsigned(arg, v, cli.server.threads))
        return std::nullopt;
    } else if (std::strcmp(arg, "--jobs") == 0) {
      if ((v = value(i)) == nullptr ||
          !parseUnsigned(arg, v, cli.server.maxConcurrentJobs))
        return std::nullopt;
    } else if (std::strcmp(arg, "--max-queued") == 0) {
      if ((v = value(i)) == nullptr || !parseUnsigned(arg, v, u)) {
        return std::nullopt;
      }
      cli.server.maxQueued = u;
    } else if (std::strcmp(arg, "--delay-ms") == 0) {
      if ((v = value(i)) == nullptr ||
          !parseUnsigned(arg, v, cli.server.startDelayMs))
        return std::nullopt;
    } else if (std::strcmp(arg, "--cache-mb") == 0) {
      if ((v = value(i)) == nullptr || !parseUnsigned(arg, v, u)) {
        return std::nullopt;
      }
      cli.server.cacheBytes = static_cast<std::size_t>(u) << 20;
    } else if (std::strcmp(arg, "--drain-timeout") == 0) {
      if ((v = value(i)) == nullptr || !parseDouble(arg, v, cli.drainTimeout))
        return std::nullopt;
    } else if (std::strcmp(arg, "--iterations") == 0) {
      if ((v = value(i)) == nullptr ||
          !parseU64(arg, v, cli.server.defaultBudget.iterations))
        return std::nullopt;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if ((v = value(i)) == nullptr || !parseU64(arg, v, cli.server.seed))
        return std::nullopt;
    } else if (std::strcmp(arg, "--radius") == 0) {
      if ((v = value(i)) == nullptr ||
          !parseDouble(arg, v, cli.server.radius))
        return std::nullopt;
    } else if (std::strcmp(arg, "--width") == 0) {
      if ((v = value(i)) == nullptr || !parseUnsigned(arg, v, u)) {
        return std::nullopt;
      }
      cli.server.synthWidth = static_cast<int>(u);
    } else if (std::strcmp(arg, "--height") == 0) {
      if ((v = value(i)) == nullptr || !parseUnsigned(arg, v, u)) {
        return std::nullopt;
      }
      cli.server.synthHeight = static_cast<int>(u);
    } else if (std::strcmp(arg, "--cells") == 0) {
      if ((v = value(i)) == nullptr || !parseUnsigned(arg, v, u)) {
        return std::nullopt;
      }
      cli.server.synthCells = static_cast<int>(u);
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if ((v = value(i)) == nullptr) return std::nullopt;
      cli.traceOut = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", arg);
      printUsage();
      return std::nullopt;
    }
  }
  if (!cli.listenPort && cli.watchDir.empty()) {
    std::fprintf(stderr,
                 "nothing to serve: pass --listen PORT and/or --watch DIR\n");
    return std::nullopt;
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<CliOptions> parsed = parseArgs(argc, argv);
  if (!parsed) return 2;
  const CliOptions& cli = *parsed;
  if (cli.help) {
    printUsage();
    return 0;
  }
  if (!cli.watchDir.empty() &&
      !std::filesystem::is_directory(cli.watchDir)) {
    std::fprintf(stderr, "--watch: not a directory: %s\n",
                 cli.watchDir.c_str());
    return 2;
  }

  serve::ServerOptions serverOptions = cli.server;
  std::vector<shard::Endpoint> fleet;
  if (!cli.endpointsFile.empty()) {
    try {
      fleet = shard::loadEndpointsFile(cli.endpointsFile);
    } catch (const engine::EngineError& e) {
      std::fprintf(stderr, "--endpoints-file: %s\n", e.what());
      return 2;
    }
    // Sharded backend=socket jobs that name no endpoints of their own fan
    // out to this fleet (Server::submit injects it as a default).
    serverOptions.fleetEndpoints = shard::formatEndpointList(fleet);
  }

  if (!cli.traceOut.empty()) obs::Tracer::global().setEnabled(true);

  serve::Server server(serverOptions);
  const serve::ServerStats startup = server.stats();
  std::printf("mcmcpar_serve: %u-thread budget, %u workers, %zu MB cache, "
              "default %llu iterations/job\n",
              startup.threadBudget, startup.workers,
              cli.server.cacheBytes >> 20,
              static_cast<unsigned long long>(
                  cli.server.defaultBudget.iterations));

  std::unique_ptr<serve::SocketFrontend> socket;
  if (cli.listenPort) {
    try {
      socket = std::make_unique<serve::SocketFrontend>(
          server, static_cast<std::uint16_t>(*cli.listenPort),
          [] { shutdownRequested.store(true); });
    } catch (const serve::ProtocolError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::printf("LISTENING %u\n", socket->port());
  }
  std::unique_ptr<serve::WatchFrontend> watch;
  if (!cli.watchDir.empty()) {
    watch = std::make_unique<serve::WatchFrontend>(server, cli.watchDir,
                                                   cli.pollMillis);
    std::printf("WATCHING %s\n", cli.watchDir.c_str());
  }
  // Fleet health: a startup PING round (machine-parseable ENDPOINT lines)
  // and a background probe that reports every up/down transition.
  std::unique_ptr<shard::EndpointPool> pool;
  std::jthread health;
  if (!fleet.empty()) {
    pool = std::make_unique<shard::EndpointPool>(fleet, /*pingTimeout=*/5.0,
                                                 cli.pingInterval);
    (void)pool->checkAll();
    std::printf("FLEET %s\n", shard::formatEndpointList(fleet).c_str());
    const auto printEndpoint = [&](std::size_t i) {
      std::printf("ENDPOINT %s weight=%u %s\n",
                  pool->endpoint(i).label().c_str(), pool->endpoint(i).weight,
                  pool->alive(i) ? "up" : "down");
    };
    for (std::size_t i = 0; i < pool->size(); ++i) printEndpoint(i);
    health = std::jthread([&pool, &printEndpoint,
                           interval = cli.pingInterval](std::stop_token st) {
      std::vector<bool> last;
      for (std::size_t i = 0; i < pool->size(); ++i) {
        last.push_back(pool->alive(i));
      }
      while (!st.stop_requested()) {
        // Sleep in short ticks so shutdown stays prompt.
        const auto wake = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(interval);
        while (!st.stop_requested() &&
               std::chrono::steady_clock::now() < wake) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        if (st.stop_requested()) break;
        pool->refresh();
        for (std::size_t i = 0; i < pool->size(); ++i) {
          if (pool->alive(i) == last[i]) continue;
          last[i] = pool->alive(i);
          printEndpoint(i);
          std::fflush(stdout);
        }
      }
    });
  }
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  while (!shutdownRequested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  health = {};  // stop probing before the drain begins

  std::printf("draining (up to %.1f s) ...\n", cli.drainTimeout);
  std::fflush(stdout);
  server.shutdown(cli.drainTimeout);
  if (watch) watch->stop();    // flush result files for settled manifests
  if (socket) socket->stop();  // WAIT streams got their terminal events

  // The summary reads the metrics registry — the same numbers the METRICS
  // command exposes — so the two can never disagree (the server's collector
  // is still installed here; it is removed in Server's destructor).
  const obs::Registry& registry = obs::Registry::global();
  const auto metric = [&](const char* name, const obs::Labels& labels = {}) {
    return static_cast<unsigned long long>(
        registry.value(name, labels).value_or(0.0));
  };
  std::printf("served %llu job(s): %llu done, %llu failed, %llu cancelled; "
              "cache %llu hit(s) / %llu miss(es) (%.0f%% hit rate), "
              "%llu interned frame(s), %llu oneshot bypass(es)\n",
              metric("mcmcpar_serve_jobs_submitted_total"),
              metric("mcmcpar_serve_jobs_finished_total", {{"state", "done"}}),
              metric("mcmcpar_serve_jobs_finished_total",
                     {{"state", "failed"}}),
              metric("mcmcpar_serve_jobs_finished_total",
                     {{"state", "cancelled"}}),
              metric("mcmcpar_serve_cache_hits_total"),
              metric("mcmcpar_serve_cache_misses_total"),
              100.0 * registry.value("mcmcpar_serve_cache_hit_ratio")
                          .value_or(0.0),
              metric("mcmcpar_serve_cache_interned_total"),
              metric("mcmcpar_serve_cache_oneshot_bypasses_total"));

  if (!cli.traceOut.empty()) {
    obs::Tracer::global().setEnabled(false);
    std::string error;
    if (obs::Tracer::global().writeJson(cli.traceOut, &error)) {
      std::printf("trace written to %s\n", cli.traceOut.c_str());
    } else {
      std::fprintf(stderr, "--trace-out: %s\n", error.c_str());
    }
  }
  return 0;
}
