// `served`: an open loop at one fixed arrival rate against an in-process
// serve::Server behind its SocketFrontend on loopback, driven through
// serve::Client. Each sampling job is short, so protocol handling,
// admission, the image cache, the data plane and event streaming take a
// large share of the time. Re-uploads that hit the cache sit beside fresh
// uploads that miss it. With two lanes on two workers a job rarely waits
// in the server queue, so fair-queue ordering is not exercised.
//
// Load limits: the server has 2 worker threads and the generator 2 lane
// threads (4 compute threads in all). The front-end's acceptor and its one
// thread per connection are blocked on socket I/O most of the time and are
// not counted. The traced run adds one ping connection, driven from the
// otherwise idle main thread (3 connections in all).

#include "served.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <cstdlib>
#include <thread>

#include "par/virtual_clock.hpp"
#include "rng/stream.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "shard/remote.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

namespace mm = mcmcpar;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kRadius = 10.0;
constexpr int kLightSize = 256;
constexpr int kLightCells = 10;  ///< the 1024x1024 / 150-cell density
constexpr int kHeavySize = 384;
constexpr int kHeavyCells = 21;
constexpr std::size_t kHot = 4;
constexpr std::size_t kFresh = 16;
constexpr int kSequenceFrames = 4;
/// The arrival rate, fixed for comparability. Capacity with these load
/// limits and offered load far above it measured 22.5 requests/s in a slow
/// period of a shared 4-vCPU x86-64 VM and 38.6/s in a fast one, so 12/s is
/// 31-55% of it: a fixed rate must stay clear of saturation in both. At
/// 16/s the queueing amplified the host's swings: one contended period
/// moved p50 by 54%, against 21% at 12/s in runs interleaved with it.
constexpr double kRate = 12.0;

}  // namespace

namespace served {

const char* kindName(Kind kind) noexcept {
  switch (kind) {
    case Kind::LightCached: return "light-cached";
    case Kind::LightSynth: return "light-synth";
    case Kind::LightFresh: return "light-fresh";
    case Kind::HeavySerial: return "heavy-serial";
    case Kind::HeavySequence: return "heavy-sequence";
  }
  return "unknown";
}

const char* className(Kind kind) noexcept {
  return kind == Kind::HeavySerial || kind == Kind::HeavySequence ? "heavy"
                                                                  : "light";
}

std::vector<Request> makeSchedule(std::uint64_t seed, double seconds,
                                  std::size_t minRequests) {
  // Arrivals are evenly spaced with seeded jitter, and the kinds come from
  // shuffled decks of 20 in fixed proportions: an open loop whose offered
  // load does not swing with the seed the way Poisson bursts would. The
  // slowest kind, @sequence, is 10% of the deck, so the p95 tail falls
  // inside it rather than on the edge between two kinds.
  static constexpr std::array<Kind, 20> kDeck = {
      Kind::LightCached, Kind::LightCached,   Kind::LightCached, Kind::LightCached,
      Kind::LightCached, Kind::LightCached,   Kind::LightCached, Kind::LightSynth,
      Kind::LightSynth,  Kind::LightSynth,    Kind::LightSynth,  Kind::LightSynth,
      Kind::LightFresh,  Kind::LightFresh,    Kind::LightFresh,  Kind::LightFresh,
      Kind::LightFresh,  Kind::HeavySerial,   Kind::HeavySequence,
      Kind::HeavySequence};
  mm::rng::Stream stream(mixSeed(seed, 0x5C4ED));
  const double gap = 1.0 / kRate;
  std::vector<Request> schedule;
  std::array<Kind, 20> deck = kDeck;
  std::size_t freshCursor = 0;
  for (std::size_t k = 0;; ++k) {
    const double at = (static_cast<double>(k) + 0.5 + stream.uniform(-0.4, 0.4)) * gap;
    if (at >= seconds && schedule.size() >= minRequests) break;
    if (k % deck.size() == 0) {
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[stream.below(i + 1)]);
      }
    }
    Request request;
    request.at = at;
    request.kind = deck[k % deck.size()];
    if (request.kind == Kind::LightCached) request.image = stream.below(kHot);
    // The fresh pool is cycled in order: twice the cache, so LRU never
    // holds the next fresh image when it comes round again.
    if (request.kind == Kind::LightFresh) request.image = freshCursor++ % kFresh;
    // One job seed per (kind, image): repeated requests repeat their work.
    request.seed = mixSeed(seed, 0x7000 + 64 * static_cast<std::uint64_t>(request.kind) +
                                     request.image);
    schedule.push_back(request);
  }
  return schedule;
}

Inputs makeInputs(std::uint64_t seed) {
  Inputs inputs;
  const auto scene = [&](int size, int cells, std::uint64_t salt) {
    return mm::img::generateScene(
        mm::img::cellScene(size, size, cells, kRadius, mixSeed(seed, salt)));
  };
  for (std::size_t k = 0; k < kHot; ++k) {
    inputs.hot.push_back(scene(kLightSize, kLightCells, 100 + k));
    inputs.hotU8.push_back(mm::img::toU8(inputs.hot.back().image));
  }
  for (std::size_t k = 0; k < kFresh; ++k) {
    inputs.fresh.push_back(scene(kLightSize, kLightCells, 200 + k));
    inputs.freshU8.push_back(mm::img::toU8(inputs.fresh.back().image));
  }
  inputs.heavy = scene(kHeavySize, kHeavyCells, 300);
  inputs.heavyU8 = mm::img::toU8(inputs.heavy.image);
  return inputs;
}

}  // namespace served

namespace {

using served::Kind;

constexpr unsigned kServerThreads = 2;
constexpr int kLanes = 2;  ///< generator connections, one thread each
constexpr double kTail = 95.0;
constexpr double kLightLimit = 0.3;   ///< seconds, light-class latency limit
constexpr double kHeavyLimit = 1.0;   ///< seconds, heavy-class latency limit
constexpr double kF1Floor = 0.5;
constexpr std::uint64_t kLightIters = 15000;
constexpr std::uint64_t kHeavyIters = 40000;
constexpr std::size_t kCacheBytes = 2u << 20;  ///< hot set 1.6 MiB; fresh pool 4 MiB
constexpr int kSetupsEach = 4;  ///< set-ups timed before and after the open loop

double since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The server, its socket front-end and the generator's connections.
struct Deployment {
  std::unique_ptr<mm::serve::Server> server;
  std::unique_ptr<mm::serve::SocketFrontend> frontend;
  std::vector<std::unique_ptr<mm::serve::Client>> lanes;

  explicit Deployment(std::uint64_t seed) {
    mm::serve::ServerOptions options;
    options.threads = kServerThreads;
    options.maxConcurrentJobs = kServerThreads;
    options.cacheBytes = kCacheBytes;
    options.seed = seed;
    options.radius = kRadius;
    options.synthWidth = kLightSize;
    options.synthHeight = kLightSize;
    options.synthCells = kLightCells;
    options.maxQueued = 64;
    server = std::make_unique<mm::serve::Server>(options);
    frontend = std::make_unique<mm::serve::SocketFrontend>(*server, 0);
    for (int k = 0; k < kLanes; ++k) {
      lanes.push_back(std::make_unique<mm::serve::Client>());
      lanes.back()->connect("127.0.0.1", frontend->port(), 60.0);
    }
  }
  ~Deployment() {
    for (auto& lane : lanes) lane->close();
    frontend->stop();
    server->shutdown(5.0);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

struct Outcome {
  Kind kind = Kind::LightSynth;
  bool ok = false;          ///< state done and F1 at or above the floor
  bool rejected = false;    ///< refused by admission
  std::string error;
  double latency = 0.0;     ///< from the scheduled send time to REPORT
  double genLag = 0.0;      ///< how late the request left the generator
  double f1 = 0.0;
  bool scored = false;      ///< a REPORT came back and was scored
  std::uint64_t iterations = 0;
  double upload = -1.0, submit = 0.0, queueWait = -1.0, run = -1.0, report = 0.0;
  std::size_t uploadBytes = 0;
  std::vector<double> frameIntervals;
};

/// Numeric field `key` of a flat JSON object (the STATS reply).
double jsonNumber(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

/// Per-job lifecycle times from the server's own event stream, subscribed
/// in process in traced runs. A WAIT sent after a fast dispatch misses the
/// STARTED event, so the socket stream cannot time the queue on its own.
class Lifecycles {
 public:
  struct Times {
    Clock::time_point admitted{}, started{}, finished{};
    std::vector<Clock::time_point> frames;
  };

  void on(const mm::serve::JobEvent& event) {
    using Type = mm::serve::JobEvent::Type;
    const auto now = Clock::now();
    const std::scoped_lock lock(mutex_);
    Times& times = jobs_[event.id];
    if (event.type == Type::Admitted) times.admitted = now;
    if (event.type == Type::Started) times.started = now;
    if (event.type == Type::Frame) times.frames.push_back(now);
    if (event.type == Type::Done || event.type == Type::Failed) times.finished = now;
  }

  [[nodiscard]] Times get(std::uint64_t id) const {
    const std::scoped_lock lock(mutex_);
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? Times{} : it->second;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Times> jobs_;
};

struct Generator {
  const std::vector<served::Request>& schedule;
  const served::Inputs& inputs;
  const std::vector<mm::img::SceneCircle>& synthTruth;
  const std::vector<mm::img::SceneCircle>& sequenceTruth;  ///< its last frame
  SpanLog& spans;
  const Lifecycles* lifecycles;  ///< traced runs only
  Clock::time_point start;
  std::atomic<std::size_t> next{0};
  std::vector<Outcome> outcomes;

  void lane(mm::serve::Client& client) {
    while (true) {
      const std::size_t index = next.fetch_add(1);
      if (index >= schedule.size()) return;
      const served::Request& request = schedule[index];
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(request.at));
      std::this_thread::sleep_until(due);
      Outcome& out = outcomes[index];
      out.kind = request.kind;
      out.genLag = std::max(0.0, since(due, Clock::now()));
      ScopedSpan span(spans, "bench.request", "bench", index);
      try {
        send(client, request, index, span.id(), out);
      } catch (const std::exception& e) {
        out.error = e.what();
        out.rejected = out.error.find("QUEUE_FULL") != std::string::npos;
      }
      out.latency = since(due, Clock::now());
    }
  }

  /// Queue wait (Admitted to Started), run (Started to Done) and frame
  /// intervals of job `id`, recorded as children of its WAIT span.
  void timeLifecycle(std::uint64_t id, std::size_t index, std::int64_t waitSpan,
                     Outcome& out) const {
    const Lifecycles::Times t = lifecycles->get(id);
    if (t.admitted == Clock::time_point{} || t.started == Clock::time_point{} ||
        t.finished == Clock::time_point{}) {
      return;
    }
    out.queueWait = since(t.admitted, t.started);
    out.run = since(t.started, t.finished);
    spans.record("serve.queue_wait", "serve", index, waitSpan, spans.at(t.admitted),
                 spans.at(t.started));
    const std::int64_t run = spans.record("engine.job_run", "engine", index, waitSpan,
                                          spans.at(t.started), spans.at(t.finished));
    Clock::time_point from = t.started;
    for (const Clock::time_point frame : t.frames) {
      out.frameIntervals.push_back(since(from, frame));
      spans.record("stream.frame", "stream", index, run, spans.at(from), spans.at(frame));
      from = frame;
    }
  }

  void send(mm::serve::Client& client, const served::Request& request,
            std::size_t index, std::int64_t parent, Outcome& out) {
    const mm::img::ImageU8* upload = nullptr;
    const std::vector<mm::img::SceneCircle>* truth = &synthTruth;
    std::uint64_t iters = kLightIters;
    std::string line = "synth serial";
    switch (request.kind) {
      case Kind::LightCached:
        upload = &inputs.hotU8[request.image];
        truth = &inputs.hot[request.image].truth;
        break;
      case Kind::LightFresh:
        upload = &inputs.freshU8[request.image];
        truth = &inputs.fresh[request.image].truth;
        break;
      case Kind::HeavySerial:
        upload = &inputs.heavyU8;
        truth = &inputs.heavy.truth;
        iters = kHeavyIters;
        break;
      case Kind::LightSynth:
        break;
      case Kind::HeavySequence:
        line += " @sequence=" + std::to_string(kSequenceFrames);
        truth = &sequenceTruth;
        break;
    }
    if (upload != nullptr) {
      const std::string name = "img" + std::to_string(index % 8);
      const auto t0 = Clock::now();
      {
        ScopedSpan span(spans, "serve.upload", "serve", index, parent);
        (void)client.upload(name, *upload);
      }
      out.upload = since(t0, Clock::now());
      out.uploadBytes = upload->pixelCount();
      line = name + " serial @image=inline";
    }
    line += " @iters=" + std::to_string(iters) + " @seed=" +
            std::to_string(request.seed) + " @client=" +
            served::className(request.kind);

    const auto t0 = Clock::now();
    std::uint64_t id = 0;
    {
      ScopedSpan span(spans, "serve.submit", "serve", index, parent);
      id = client.submit(line);
    }
    const auto accepted = Clock::now();
    out.submit = since(t0, accepted);

    std::string state;
    {
      ScopedSpan waitSpan(spans, "serve.wait", "serve", index, parent);
      state = client.wait(id);
      if (lifecycles != nullptr) timeLifecycle(id, index, waitSpan.id(), out);
    }

    const auto r0 = Clock::now();
    std::string json;
    {
      ScopedSpan span(spans, "serve.report", "serve", index, parent);
      json = client.report(id);
    }
    out.report = since(r0, Clock::now());

    const mm::shard::remote::TileReportJson report =
        mm::shard::remote::parseReportJson(json);
    out.iterations = report.iterations;
    out.f1 = detectionF1(report.circles, truthCircles(*truth), kRadius);
    out.scored = true;
    if (state != "done" || report.state != "done") {
      out.error = "job ended " + state;
    } else if (out.f1 < kF1Floor) {
      out.error = "F1 " + std::to_string(out.f1) + " below floor";
    } else {
      out.ok = true;
    }
  }
};

}  // namespace

WorkloadResult runServed(const RunOptions& options, SpanLog& spans) {
  WorkloadResult result;
  const std::vector<served::Request> schedule =
      served::makeSchedule(options.seed, options.seconds, minSamplesFor(kTail));

  // Set-up: inputs, server and front-end start-up, connections, and a
  // warm-up that makes the hot set resident. It is timed kSetupsEach times
  // before the open loop and kSetupsEach times after it, so setup_s, the
  // median, samples both ends of the run rather than one moment of the host.
  std::vector<double> setups;
  std::unique_ptr<Deployment> deployment;
  served::Inputs inputs;
  const auto setUp = [&] {
    deployment.reset();
    const mm::par::WallTimer timer;
    inputs = served::makeInputs(options.seed);
    deployment = std::make_unique<Deployment>(options.seed);
    mm::serve::Client& warm = *deployment->lanes[0];
    for (std::size_t k = 0; k < inputs.hotU8.size(); ++k) {
      (void)warm.upload("hot" + std::to_string(k), inputs.hotU8[k]);
    }
    (void)warm.upload("heavy", inputs.heavyU8);
    for (auto& lane : deployment->lanes) {
      const std::uint64_t id = lane->submit("synth serial @iters=200");
      (void)lane->wait(id);
    }
    setups.push_back(timer.seconds());
  };
  for (int s = 0; s < kSetupsEach; ++s) setUp();

  // The server's own synth still and its drifting @sequence frames, built
  // from the same seed the server is given.
  mm::img::DriftSpec drift;
  drift.scene = mm::img::cellScene(kLightSize, kLightSize, kLightCells, kRadius, options.seed);
  drift.frames = kSequenceFrames;
  const std::vector<mm::img::SceneCircle> synthTruth =
      mm::img::generateScene(drift.scene).truth;
  const std::vector<mm::img::SceneCircle> sequenceTruth =
      mm::img::generateDriftingSequence(drift).back().truth;

  Lifecycles lifecycles;
  const std::uint64_t subscription =
      options.trace ? deployment->server->subscribe(
                          [&](const mm::serve::JobEvent& e) { lifecycles.on(e); })
                    : 0;
  Generator generator{schedule, inputs, synthTruth, sequenceTruth, spans,
                      options.trace ? &lifecycles : nullptr, {}, {}, {}};
  generator.outcomes.resize(schedule.size());
  std::atomic<int> lanesRunning{kLanes};
  std::vector<double> pings;
  std::string stats;

  mm::serve::Client probe;
  if (options.trace) probe.connect("127.0.0.1", deployment->frontend->port(), 60.0);
  generator.start = Clock::now() + std::chrono::milliseconds(5);
  {
    std::vector<std::jthread> lanes;
    for (int k = 0; k < kLanes; ++k) {
      lanes.emplace_back([&, k] {
        generator.lane(*deployment->lanes[k]);
        --lanesRunning;
      });
    }
    // PING RTT on a separate connection while the server is under load.
    while (options.trace && lanesRunning.load() > 0) {
      const auto t0 = Clock::now();
      (void)probe.request("PING");
      pings.push_back(since(t0, Clock::now()));
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  const double wall = since(generator.start, Clock::now());
  if (options.trace) {
    stats = probe.request("STATS");
    deployment->server->unsubscribe(subscription);
  }
  probe.close();

  SloTally slo;
  slo.setLimit("light", kLightLimit);
  slo.setLimit("heavy", kHeavyLimit);
  std::vector<double> latencies, lags, uploads, submits, reports, runs, frames;
  std::vector<double> queueLight, queueHeavy;
  double uploadBytes = 0.0, uploadSeconds = 0.0, f1Min = 1.0;
  std::uint64_t iterations = 0, rejected = 0;
  for (const Outcome& o : generator.outcomes) {
    ++result.attempted;
    const char* cls = served::className(o.kind);
    slo.record(cls, o.latency, o.ok);
    latencies.push_back(o.latency);
    lags.push_back(o.genLag);
    if (!o.ok) result.fail(std::string(served::kindName(o.kind)) + " request: " + o.error);
    rejected += o.rejected ? 1 : 0;
    if (o.scored) f1Min = std::min(f1Min, o.f1);
    if (!o.ok) continue;
    iterations += o.iterations;
    submits.push_back(o.submit);
    reports.push_back(o.report);
    if (o.upload >= 0.0) {
      uploads.push_back(o.upload);
      uploadBytes += static_cast<double>(o.uploadBytes);
      uploadSeconds += o.upload;
    }
    if (o.queueWait >= 0.0) {
      (o.kind == Kind::HeavySerial || o.kind == Kind::HeavySequence ? queueHeavy
                                                                    : queueLight)
          .push_back(o.queueWait);
      runs.push_back(o.run);
    }
    frames.insert(frames.end(), o.frameIntervals.begin(), o.frameIntervals.end());
  }
  result.wallSeconds = wall;
  result.tailPercentile = kTail;
  result.latencySamples = latencies.size();

  result.e2e("latency_p50_s", median(latencies), "s");
  result.e2e("latency_tail_s", percentile(latencies, kTail), "s");
  result.e2e("slo_share", slo.share(), "ratio");
  result.e2e("iters_per_s", wall > 0.0 ? static_cast<double>(iterations) / wall : 0.0, "1/s");
  result.e2e("f1_min", f1Min, "ratio");

  result.layer("serve.submit_rtt_us", 1e6 * median(submits), "us");
  result.layer("serve.upload_rtt_ms", 1e3 * median(uploads), "ms");
  result.layer("serve.upload_mb_per_s",
               uploadSeconds > 0.0 ? uploadBytes / uploadSeconds / 1e6 : 0.0, "MB/s");
  result.layer("serve.queue_wait_s.light", median(queueLight), "s");
  result.layer("serve.queue_wait_s.heavy", median(queueHeavy), "s");
  result.layer("serve.run_s", median(runs), "s");
  result.layer("serve.report_rtt_ms", 1e3 * median(reports), "ms");
  result.layer("serve.ping_rtt_us", 1e6 * median(pings), "us");
  const double hits = jsonNumber(stats, "cache_hits");
  const double misses = jsonNumber(stats, "cache_misses");
  result.layer("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio");
  result.layer("serve.rejected", static_cast<double>(rejected), "count");
  result.layer("stream.frame_s", median(frames), "s");
  const double maxLag = percentile(lags, 100.0);
  result.layer("bench.gen_lag_s", maxLag, "s");
  std::printf("served: %zu requests at %.1f/s, generator lag p50 %.4f s max %.4f s\n",
              schedule.size(), kRate, median(lags), maxLag);
  std::map<Kind, std::vector<double>> byKind;
  for (const Outcome& o : generator.outcomes) byKind[o.kind].push_back(o.latency);
  for (const auto& [kind, values] : byKind) {
    std::printf("served: %-14s %3zu requests, latency p50 %.4f s max %.4f s\n",
                served::kindName(kind), values.size(), median(values),
                percentile(values, 100.0));
  }

  for (int s = 0; s < kSetupsEach; ++s) setUp();
  result.e2e("setup_s", median(setups), "s");
  deployment.reset();
  result.e2e("rss_peak_mb", peakRssMb(), "MB");
  return result;
}

}  // namespace perfbench
