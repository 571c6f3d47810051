#include "serve/job_queue.hpp"

#include <algorithm>
#include <utility>

#include "engine/options.hpp"

namespace mcmcpar::serve {

const char* toString(JobState state) noexcept {
  switch (state) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Failed:
      return "failed";
    case JobState::Cancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* toString(JobEvent::Type type) noexcept {
  switch (type) {
    case JobEvent::Type::Admitted:
      return "ADMITTED";
    case JobEvent::Type::Started:
      return "STARTED";
    case JobEvent::Type::Progress:
      return "PROGRESS";
    case JobEvent::Type::Frame:
      return "FRAME";
    case JobEvent::Type::Done:
      return "DONE";
    case JobEvent::Type::Failed:
      return "FAILED";
    case JobEvent::Type::Cancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

bool isTerminal(JobState state) noexcept {
  return state == JobState::Done || state == JobState::Failed ||
         state == JobState::Cancelled;
}

JobQueue::JobQueue(std::size_t retainLimit, std::size_t maxQueued)
    : retainLimit_(retainLimit), maxQueued_(maxQueued) {}

std::uint64_t JobQueue::submit(JobSpec spec, AdmittedJob job,
                              double predictedCostSeconds) {
  std::uint64_t id = 0;
  {
    const std::scoped_lock lock(mutex_);
    if (closed_) {
      throw engine::EngineError("server is shutting down; job rejected");
    }
    if (maxQueued_ != 0 && counts_.queued >= maxQueued_) {
      throw QueueFullError("queue full: " + std::to_string(counts_.queued) +
                           " job(s) already queued (max " +
                           std::to_string(maxQueued_) +
                           "); retry after the backlog drains");
    }
    id = nextId_++;
    Record record;
    record.client = spec.client.empty() ? "default" : spec.client;
    record.predictedCostSeconds = std::max(predictedCostSeconds, 0.0);
    record.admitted = std::chrono::steady_clock::now();
    if (spec.clientWeight) {
      scheduler_.setWeight(record.client, *spec.clientWeight);
    }
    scheduler_.enqueue(record.client, id, record.predictedCostSeconds);
    ClientStats& stats = clients_[record.client];
    stats.client = record.client;
    stats.weight = scheduler_.weight(record.client);
    ++stats.submitted;
    ++stats.queued;
    stats.costQueued += record.predictedCostSeconds;
    record.spec = std::move(spec);
    record.job = std::move(job);
    (void)logLocked(record, JobEvent{JobEvent::Type::Admitted, id});
    records_.emplace(id, std::move(record));
    ++counts_.submitted;
    ++counts_.queued;
  }
  jobReady_.notify_one();
  return id;
}

std::optional<std::uint64_t> JobQueue::waitNext(
    std::chrono::milliseconds timeout) {
  std::unique_lock lock(mutex_);
  jobReady_.wait_for(lock, timeout,
                     [this] { return !scheduler_.empty() || closed_; });
  while (true) {
    const std::optional<DispatchedJob> next = scheduler_.dispatchNext();
    if (!next) return std::nullopt;
    auto& record = records_.at(next->id);
    if (record.state != JobState::Queued) continue;  // defensive
    record.state = JobState::Running;
    record.queueSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      record.admitted)
            .count();
    --counts_.queued;
    ++counts_.running;
    ClientStats& stats = clients_[record.client];
    if (stats.queued > 0) --stats.queued;
    stats.costQueued =
        std::max(0.0, stats.costQueued - record.predictedCostSeconds);
    ++stats.served;
    stats.costServed += record.predictedCostSeconds;
    return next->id;
  }
}

std::optional<AdmittedJob> JobQueue::job(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end() || isTerminal(it->second.state)) {
    return std::nullopt;
  }
  return it->second.job;
}

CancelOutcome JobQueue::cancel(std::uint64_t id, JobEvent* cancelled) {
  {
    const std::scoped_lock lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) return CancelOutcome::Unknown;
    Record& record = it->second;
    record.cancelRequested = true;
    if (isTerminal(record.state)) return CancelOutcome::AlreadyTerminal;
    if (record.state == JobState::Running) {
      return CancelOutcome::RunningFlagged;
    }
    // Queued: terminal right away, with an empty cancelled report. The job
    // leaves its client's scheduler bucket so it can never dispatch.
    (void)scheduler_.remove(record.client, id);
    ClientStats& stats = clients_[record.client];
    if (stats.queued > 0) --stats.queued;
    stats.costQueued =
        std::max(0.0, stats.costQueued - record.predictedCostSeconds);
    record.report.strategy = record.spec.strategy;
    record.report.cancelled = true;
    record.report.threadsUsed = 0;
    --counts_.queued;
    const JobEvent event = endLocked(id, record, JobState::Cancelled);
    record.queueSeconds = record.latencySeconds;
    if (cancelled != nullptr) *cancelled = event;
    pruneLocked();
  }
  idle_.notify_all();
  logged_.notify_all();
  return CancelOutcome::QueuedCancelled;
}

bool JobQueue::cancelRequested(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  return it != records_.end() && it->second.cancelRequested;
}

void JobQueue::progress(std::uint64_t id, std::uint64_t done,
                        std::uint64_t total) {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return;
  it->second.progressDone = done;
  it->second.progressTotal = total;
}

std::optional<JobEvent> JobQueue::append(JobEvent event) {
  std::optional<JobEvent> logged;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = records_.find(event.id);
    if (it == records_.end() || isTerminal(it->second.state)) {
      return std::nullopt;
    }
    logged = logLocked(it->second, event);
  }
  logged_.notify_all();
  return logged;
}

std::optional<JobEvent> JobQueue::finish(std::uint64_t id,
                                         engine::RunReport report,
                                         std::string error) {
  std::optional<JobEvent> ended;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end() || it->second.state != JobState::Running) {
      return std::nullopt;
    }
    Record& record = it->second;
    --counts_.running;
    const JobState state =
        !error.empty() ? JobState::Failed
        : report.cancelled || record.cancelRequested ? JobState::Cancelled
                                                     : JobState::Done;
    record.report = std::move(report);
    record.error = std::move(error);
    ended = endLocked(id, record, state);
    pruneLocked();
  }
  idle_.notify_all();
  logged_.notify_all();
  return ended;
}

std::optional<std::vector<JobEvent>> JobQueue::events(
    std::uint64_t id, std::size_t from,
    std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mutex_);
  (void)logged_.wait_for(lock, timeout, [&] {
    const auto it = records_.find(id);
    return it == records_.end() || it->second.events.size() > from;
  });
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  const std::vector<JobEvent>& log = it->second.events;
  return std::vector<JobEvent>(
      log.begin() + static_cast<std::ptrdiff_t>(std::min(from, log.size())),
      log.end());
}

std::optional<JobStatus> JobQueue::status(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  const Record& record = it->second;
  JobStatus status;
  status.id = id;
  status.state = record.state;
  status.image = record.spec.image;
  status.strategy = record.spec.strategy;
  status.label = record.spec.label.empty() ? record.spec.image
                                           : record.spec.label;
  status.progressDone = record.progressDone;
  status.progressTotal = record.progressTotal;
  status.latencySeconds = record.latencySeconds;
  status.error = record.error;
  status.client = record.client;
  status.predictedCostSeconds = record.predictedCostSeconds;
  status.queueSeconds =
      record.state == JobState::Queued
          ? std::chrono::duration<double>(
                std::chrono::steady_clock::now() - record.admitted)
                .count()
          : record.queueSeconds;
  return status;
}

std::vector<std::uint64_t> JobQueue::activeIds() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::uint64_t> ids;
  for (const auto& [id, record] : records_) {
    if (!isTerminal(record.state)) ids.push_back(id);
  }
  return ids;
}

std::optional<engine::RunReport> JobQueue::result(std::uint64_t id) const {
  const std::scoped_lock lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end() || !isTerminal(it->second.state)) {
    return std::nullopt;
  }
  return it->second.report;
}

JobCounts JobQueue::counts() const {
  const std::scoped_lock lock(mutex_);
  return counts_;
}

std::vector<ClientStats> JobQueue::clientStats() const {
  const std::scoped_lock lock(mutex_);
  std::vector<ClientStats> stats;
  stats.reserve(clients_.size());
  for (const auto& [name, entry] : clients_) {
    stats.push_back(entry);
    stats.back().weight = scheduler_.weight(name);
  }
  return stats;
}

std::vector<SchedulerClientView> JobQueue::schedulerClients() const {
  const std::scoped_lock lock(mutex_);
  return scheduler_.snapshot();
}

void JobQueue::close() {
  {
    const std::scoped_lock lock(mutex_);
    closed_ = true;
  }
  jobReady_.notify_all();
}

bool JobQueue::closed() const {
  const std::scoped_lock lock(mutex_);
  return closed_;
}

bool JobQueue::waitIdle(double timeoutSeconds) {
  std::unique_lock lock(mutex_);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeoutSeconds));
  return idle_.wait_until(lock, deadline, [this] {
    return counts_.queued == 0 && counts_.running == 0;
  });
}

JobEvent JobQueue::logLocked(Record& record, JobEvent event) {
  event.seq = record.events.size() + 1;
  record.events.push_back(event);
  return event;
}

JobEvent JobQueue::endLocked(std::uint64_t id, Record& record,
                             JobState state) {
  record.state = state;
  record.job = {};  // release the frames it pinned
  record.latencySeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    record.admitted)
          .count();
  terminal_.push_back(id);
  JobEvent::Type type = JobEvent::Type::Done;
  if (state == JobState::Done) {
    ++counts_.done;
  } else if (state == JobState::Failed) {
    ++counts_.failed;
    type = JobEvent::Type::Failed;
  } else {
    ++counts_.cancelled;
    type = JobEvent::Type::Cancelled;
  }
  return logLocked(record, JobEvent{type, id});
}

void JobQueue::pruneLocked() {
  while (retainLimit_ != 0 && terminal_.size() > retainLimit_) {
    records_.erase(terminal_.front());
    terminal_.pop_front();
  }
}

}  // namespace mcmcpar::serve
