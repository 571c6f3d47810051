#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mcmcpar::par {

/// A fixed-size worker pool executing submitted tasks FIFO.
///
/// Workers are std::jthread, so destruction joins automatically after the
/// stop flag drains the queue. `parallelFor` is the blocking primitive the
/// executors use: it runs fn(i) for i in [0, n) across the workers and the
/// calling thread, returning when every index completed. Exceptions from
/// tasks propagate out of parallelFor (first one wins).
///
/// Fine-grained callers (speculative rounds of a few microseconds) issue
/// tens of thousands of parallelFor calls per run, so an idle worker and a
/// waiting parallelFor caller first spin for kSpinBeforePark before they
/// park on a condition variable, and submit() only pays for a notify when a
/// worker is actually parked.
class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threadCount() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a fire-and-forget task. The task must not throw: it has no
  /// caller to receive an exception, so one escaping terminates the process
  /// whether a worker or a queue-draining parallelFor caller runs it. Use
  /// parallelFor for work whose exceptions must propagate.
  void submit(std::function<void()> task);

  /// Block until all tasks submitted so far have finished.
  void wait();

  /// Run fn(i) for every i in [0, n), distributing dynamically (one index
  /// per task; appropriate for coarse tasks like MCMC partitions). Blocks.
  /// Reentrant: fn may itself call parallelFor on the same pool — the
  /// waiting caller helps drain the task queue, so nested calls make
  /// progress even when every worker is blocked in an enclosing call.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void workerLoop(const std::stop_token& stop);

  /// Run a dequeued task and settle the in-flight accounting; terminates if
  /// the task throws (see the submit() contract). Shared by workerLoop and
  /// runPendingTask so the execution protocol lives in one place.
  void runTaskAndAccount(std::function<void()>& task);

  /// Pop and run one queued task on the calling thread; false if the queue
  /// was empty. Used by parallelFor to help while waiting.
  bool runPendingTask();

  std::vector<std::jthread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  std::condition_variable allDone_;
  std::size_t inFlight_ = 0;
  std::size_t parked_ = 0;  ///< workers blocked on taskReady_ (under mutex_)
  /// queue_.size(), written under mutex_ and read lock-free by spinners.
  std::atomic<std::size_t> queued_{0};
  bool stopping_ = false;
};

/// Run fn(i) for every i in [0, n): through `pool->parallelFor` when a pool
/// is given, else in index order on the calling thread. The one dispatch
/// rule of every driver that takes a nullable pool.
void forEachIndex(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mcmcpar::par
