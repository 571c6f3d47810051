#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <thread>
#include <utility>

#include "core/runtime_predictor.hpp"
#include "engine/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/sequence.hpp"

namespace mcmcpar::serve {

using namespace std::chrono_literals;

Server::Server(ServerOptions options)
    : options_(options),
      budget_(options.threads),
      cache_(options.cacheBytes),
      queue_(options.retainJobs, options.maxQueued),
      synthScene_(img::cellScene(options.synthWidth, options.synthHeight,
                                 options.synthCells, options.radius,
                                 options.seed)),
      synthImage_(std::make_shared<const img::ImageF>(
          img::generateScene(synthScene_).image)),
      started_(std::chrono::steady_clock::now()) {

  unsigned workers = options_.maxConcurrentJobs != 0
                         ? options_.maxConcurrentJobs
                         : budget_.total();
  workers = std::clamp(workers, 1u, budget_.total());
  workerCount_ = workers;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& stop) { workerLoop(stop); });
  }
  metricsCollector_ = obs::Registry::global().addCollector(
      [this](obs::Collection& out) { collectMetrics(out); });
}

Server::~Server() {
  // Deregister before any teardown: a concurrent METRICS scrape must not
  // walk a half-destroyed server. removeCollector returns only once no
  // scrape is inside the callback (both run under the registry mutex).
  obs::Registry::global().removeCollector(metricsCollector_);
  shutdown(0.0);
}

std::shared_ptr<const img::ImageF> Server::resolveImage(
    const std::string& path, bool oneshot) {
  if (path == "synth") return synthImage_;
  return cache_.get(path, oneshot);
}

std::shared_ptr<const img::ImageF> Server::internUpload(std::uint64_t hash,
                                                        img::ImageF image,
                                                        bool oneshot) {
  return cache_.intern(hash, std::move(image), oneshot);
}

namespace {

/// Does a raw option token list carry any `<key>=` for one of `keys`?
bool hasOptionKey(const std::vector<std::string>& options,
                  std::initializer_list<std::string> keys) {
  for (const std::string& option : options) {
    for (const std::string& key : keys) {
      if (option.rfind(key + "=", 0) == 0) return true;
    }
  }
  return false;
}

/// Give a socket-backed sharded job that names no endpoints the server's
/// fleet (--endpoints-file): the server is the natural owner of "which
/// hosts are mine to fan out over". The sharded options sit at the top
/// level, or one wrapper deep as `inner.` options when @sequence wraps it.
void injectFleet(engine::ManifestEntry& job, const std::string& fleet) {
  std::string prefix;
  if (job.strategy == "sequence" &&
      std::find(job.options.begin(), job.options.end(), "strategy=sharded") !=
          job.options.end()) {
    prefix = "inner.";
  } else if (job.strategy != "sharded") {
    return;
  }
  if (std::find(job.options.begin(), job.options.end(),
                prefix + "backend=socket") != job.options.end() &&
      !hasOptionKey(job.options,
                    {prefix + "endpoints", prefix + "endpoints-file"})) {
    job.options.push_back(prefix + "endpoints=" + fleet);
  }
}

}  // namespace

std::uint64_t Server::submit(
    const JobSpec& spec, std::shared_ptr<const img::ImageF> inlineImage,
    std::vector<std::shared_ptr<const img::ImageF>> inlineFrames) {
  JobSpec admitted = spec;
  if (!options_.fleetEndpoints.empty()) {
    injectFleet(admitted, options_.fleetEndpoints);
  }

  // Resolve the image(s) and validate strategy + options at admission, so
  // a bad request fails the submitter with a descriptive error instead of
  // failing later on a worker thread.
  AdmittedJob run;
  std::vector<stream::FrameImage>& frames = run.frames;
  if (admitted.inlineImage && !admitted.sequence.empty()) {
    // The front-end gathered uploads `<image>.0` .. `<image>.N-1`.
    stream::requireFrameLimit(inlineFrames.size(), admitted.sequence);
    if (stream::parseFrameCount(admitted.sequence) != inlineFrames.size()) {
      throw engine::EngineError(
          "@sequence=" + admitted.sequence +
          " with @image=inline requires a decimal frame count N and "
          "uploads '" +
          admitted.image + ".0' .. '" + admitted.image +
          ".<N-1>' on the submitting connection (docs/PROTOCOL.md "
          "Sequences)");
    }
    for (std::size_t k = 0; k < inlineFrames.size(); ++k) {
      frames.push_back({std::move(inlineFrames[k]),
                        admitted.image + "." + std::to_string(k)});
    }
  } else if (admitted.inlineImage) {
    if (inlineImage == nullptr) {
      throw engine::EngineError(
          "@image=inline requires a preceding UPLOAD '" + admitted.image +
          "' on the submitting connection (docs/PROTOCOL.md Binary frames)");
    }
    frames.push_back({std::move(inlineImage), admitted.image});
  } else {
    // A frame count on "synth" is the served drifting scene: the synth
    // still's geometry, circles moving deterministically from the seed.
    frames = stream::resolveJobFrames(
        admitted, synthScene_,
        [this, oneshot = admitted.oneshot](const std::string& path) {
          return resolveImage(path, oneshot);
        });
  }
  run.job = engine::buildJob(admitted, options_.defaultBudget,
                             options_.radius, frames);
  (void)engine::StrategyRegistry::builtin().create(
      run.job.strategy, engine::ExecResources{}, run.job.options);

  // Predicted cost at admission: the §IX runtime model over the job's
  // iteration budget (times its frame count for sequences) is the currency
  // the weighted-fair scheduler charges against the client's deficit.
  // Activity is unknown this side of the density scan, so 0 — fairness
  // only needs costs comparable across jobs, not absolutely accurate.
  const double predictedCost =
      core::predictCostSeconds(run.job.budget.iterations, 0.0) *
      static_cast<double>(frames.size());

  const std::uint64_t id =
      queue_.submit(std::move(admitted), std::move(run), predictedCost);
  publish(JobEvent{JobEvent::Type::Admitted, id, 0, 0, 1});  // logged as seq 1
  return id;
}

std::uint64_t Server::submitLine(const std::string& line) {
  return submit(engine::parseManifestLine(line));
}

CancelOutcome Server::cancel(std::uint64_t id) {
  JobEvent cancelled;
  const CancelOutcome outcome = queue_.cancel(id, &cancelled);
  if (outcome == CancelOutcome::QueuedCancelled) publish(cancelled);
  return outcome;
}

std::optional<JobStatus> Server::status(std::uint64_t id) const {
  return queue_.status(id);
}

std::optional<engine::RunReport> Server::result(std::uint64_t id) const {
  return queue_.result(id);
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.jobs = queue_.counts();
  stats.cache = cache_.stats();
  stats.threadBudget = budget_.total();
  stats.budgetAvailable = budget_.available();
  stats.workers = workerCount_;  // workers_ itself is mutated by shutdown
  stats.uptimeSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_)
                            .count();
  stats.draining = queue_.closed();
  stats.clients = queue_.clientStats();
  return stats;
}

void Server::collectMetrics(obs::Collection& out) const {
  const ServerStats s = stats();
  const auto jobs = [&](const char* state, std::uint64_t count) {
    out.counter("mcmcpar_serve_jobs_finished_total",
                "Jobs reaching a terminal state, by state.",
                {{"state", state}}, static_cast<double>(count));
  };
  out.counter("mcmcpar_serve_jobs_submitted_total", "Jobs admitted.", {},
              static_cast<double>(s.jobs.submitted));
  jobs("done", s.jobs.done);
  jobs("failed", s.jobs.failed);
  jobs("cancelled", s.jobs.cancelled);
  out.gauge("mcmcpar_serve_jobs_queued", "Jobs waiting for a worker.", {},
            static_cast<double>(s.jobs.queued));
  out.gauge("mcmcpar_serve_jobs_running", "Jobs executing right now.", {},
            static_cast<double>(s.jobs.running));

  out.counter("mcmcpar_serve_cache_hits_total", "ImageCache lookup hits.",
              {}, static_cast<double>(s.cache.hits));
  out.counter("mcmcpar_serve_cache_misses_total",
              "ImageCache lookups that had to decode.", {},
              static_cast<double>(s.cache.misses));
  out.counter("mcmcpar_serve_cache_evictions_total",
              "LRU entries dropped for capacity.", {},
              static_cast<double>(s.cache.evictions));
  out.counter("mcmcpar_serve_cache_oneshot_bypasses_total",
              "Misses passed through uncached (oneshot).", {},
              static_cast<double>(s.cache.oneshotBypasses));
  out.counter("mcmcpar_serve_cache_interned_total",
              "Uploaded frames inserted by content hash.", {},
              static_cast<double>(s.cache.interned));
  out.gauge("mcmcpar_serve_cache_entries", "Resident cache entries.", {},
            static_cast<double>(s.cache.entries));
  out.gauge("mcmcpar_serve_cache_bytes", "Resident cache pixel bytes.", {},
            static_cast<double>(s.cache.bytes));
  out.gauge("mcmcpar_serve_cache_hit_ratio",
            "hits / (hits + misses); see ImageCacheStats::hitRate.", {},
            s.cache.hitRate());

  out.gauge("mcmcpar_serve_thread_budget", "Worker-thread budget.", {},
            static_cast<double>(s.threadBudget));
  out.gauge("mcmcpar_serve_budget_available",
            "Unleased threads in the budget.", {},
            static_cast<double>(s.budgetAvailable));
  out.gauge("mcmcpar_serve_workers", "Resident worker threads.", {},
            static_cast<double>(s.workers));
  out.gauge("mcmcpar_serve_uptime_seconds",
            "Seconds since this server was constructed.", {},
            s.uptimeSeconds);
  out.gauge("mcmcpar_serve_draining",
            "1 while the admission queue is closed.", {},
            s.draining ? 1.0 : 0.0);

  for (const ClientStats& c : s.clients) {
    const obs::Labels by{{"client", c.client}};
    out.gauge("mcmcpar_serve_client_weight", "DRR scheduling weight.", by,
              static_cast<double>(c.weight));
    out.counter("mcmcpar_serve_client_submitted_total",
                "Jobs admitted for this client.", by,
                static_cast<double>(c.submitted));
    out.counter("mcmcpar_serve_client_served_total",
                "Jobs handed to a worker for this client.", by,
                static_cast<double>(c.served));
    out.gauge("mcmcpar_serve_client_queued",
              "Jobs of this client still waiting.", by,
              static_cast<double>(c.queued));
    out.gauge("mcmcpar_serve_client_cost_queued_seconds",
              "Predicted seconds of work still waiting.", by, c.costQueued);
    out.counter("mcmcpar_serve_client_cost_served_seconds_total",
                "Predicted seconds of work dispatched.", by, c.costServed);
  }
  for (const SchedulerClientView& view : queue_.schedulerClients()) {
    out.gauge("mcmcpar_serve_client_deficit_seconds",
              "Unspent DRR dispatch credit.", {{"client", view.client}},
              view.deficit);
  }
}

std::uint64_t Server::subscribe(std::function<void(const JobEvent&)> fn) {
  const std::unique_lock lock(listenerMutex_);
  const std::uint64_t token = nextListener_++;
  listeners_.emplace(token, std::move(fn));
  return token;
}

void Server::unsubscribe(std::uint64_t token) {
  // Unique over the emit()s' shared locks: returning implies no callback
  // is mid-flight, so the subscriber may tear down whatever it captured.
  const std::unique_lock lock(listenerMutex_);
  listeners_.erase(token);
}

void Server::emit(JobEvent event) {
  if (const std::optional<JobEvent> logged = queue_.append(event)) {
    publish(*logged);
  }
}

void Server::publish(const JobEvent& event) {
  const std::shared_lock lock(listenerMutex_);
  for (const auto& [token, fn] : listeners_) fn(event);
}

void Server::workerLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    const std::optional<std::uint64_t> next = queue_.waitNext(100ms);
    if (!next) {
      if (queue_.closed()) break;  // drained and no more admissions
      continue;
    }
    const std::uint64_t id = *next;
    // A copy: its frames keep the job's images alive for the whole run.
    std::optional<AdmittedJob> admitted = queue_.job(id);
    // The dispatch snapshot carries the fairness bucket and the
    // admission-to-dispatch wait stamped by waitNext.
    const std::optional<JobStatus> dispatched = queue_.status(id);
    if (dispatched) {
      obs::Registry& registry = obs::Registry::global();
      registry
          .counter("mcmcpar_serve_dispatches_total",
                   "Jobs handed to a worker, by fairness bucket.",
                   {{"client", dispatched->client}})
          .add();
      registry
          .histogram("mcmcpar_serve_queue_wait_seconds",
                     "Admission-to-dispatch wait per fairness bucket.",
                     obs::latencyBuckets(), {{"client", dispatched->client}})
          .observe(dispatched->queueSeconds);
    }

    // Reacquire this worker's thread from the long-lived budget (released
    // below when the job ends, so idle workers leave their thread leasable
    // by running strategies). A cancel while waiting aborts the wait.
    bool charged = false;
    if (admitted) {
      while (!queue_.cancelRequested(id)) {
        if (budget_.tryAcquireFor(1, 100ms) == 1) {
          charged = true;
          break;
        }
      }
    }

    engine::RunReport report;
    std::string error;
    if (charged) {
      obs::Span jobSpan("serve", "job:" + admitted->job.strategy);
      jobSpan.arg("id", std::to_string(id));
      if (dispatched) jobSpan.arg("client", dispatched->client);
      emit(JobEvent{JobEvent::Type::Started, id, 0, 0});

      // --delay-ms test hook: pretend to be a slow endpoint, in small
      // quanta so a cancel still lands promptly.
      for (unsigned slept = 0;
           slept < options_.startDelayMs && !queue_.cancelRequested(id);
           slept += 25) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(25u, options_.startDelayMs - slept)));
      }

      engine::ExecResources resources;
      resources.threads = options_.threads;
      resources.poolBudget = &budget_;
      resources.seed = engine::deriveJobSeed(options_.seed, id);

      engine::RunHooks hooks;
      hooks.cancelRequested = [this, id] {
        return queue_.cancelRequested(id);
      };
      // Record every beat (STATUS stays fine-grained). A sequence's
      // "frame" beat becomes one FRAME event, never throttled — the
      // per-frame stream IS the product of a sequence job. Other beats
      // become a PROGRESS event only when their decile rises, so a job
      // logs at most 11 of them however its phases interleave their beats.
      hooks.onProgress = [this, id,
                          lastDecile = -1](const engine::RunProgress& p)
          mutable {
        queue_.progress(id, p.done, p.total);
        if (std::strcmp(p.phase, "frame") == 0) {
          emit(JobEvent{JobEvent::Type::Frame, id, p.done - 1, p.total});
          return;
        }
        const int decile =
            p.total == 0
                ? -1
                : static_cast<int>(std::min<std::uint64_t>(
                      10, 10 * p.done / p.total));
        if (decile <= lastDecile) return;
        lastDecile = decile;
        emit(JobEvent{JobEvent::Type::Progress, id, p.done, p.total});
      };

      try {
        report = runner_.runOne(admitted->job, resources, hooks);
      } catch (const std::exception& e) {
        error = e.what();
      }
    } else {
      // Cancelled before it could start (or admission raced shutdown).
      report.strategy = dispatched ? dispatched->strategy : "";
      report.cancelled = true;
      report.threadsUsed = 0;
    }
    if (charged) budget_.release(1);

    if (dispatched && charged) {
      obs::Registry::global()
          .histogram("mcmcpar_serve_job_run_seconds",
                     "Job execution wall time per fairness bucket.",
                     obs::latencyBuckets(), {{"client", dispatched->client}})
          .observe(report.wallSeconds);
    }
    admitted.reset();  // unpinned before finish() drops the record's copy
    if (const std::optional<JobEvent> ended =
            queue_.finish(id, std::move(report), std::move(error))) {
      publish(*ended);
    }
  }
}

void Server::shutdown(double drainTimeoutSeconds) {
  const std::scoped_lock lock(shutdownMutex_);
  if (stopped_) return;
  queue_.close();
  if (drainTimeoutSeconds > 0.0) {
    (void)queue_.waitIdle(drainTimeoutSeconds);
  }
  // Grace expired (or none): cancel queued jobs outright and flag running
  // ones; workers observe the sticky flags at their next quantum.
  for (const std::uint64_t id : queue_.activeIds()) (void)cancel(id);
  workers_.clear();  // jthread join: waits for in-flight jobs to settle
  stopped_ = true;
}

}  // namespace mcmcpar::serve
