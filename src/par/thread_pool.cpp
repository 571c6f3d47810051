#include "par/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>

#include "par/concurrency.hpp"

namespace mcmcpar::par {

ThreadPool::ThreadPool(unsigned threads) {
  threads = resolveThreadCount(threads);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back(
        [this](const std::stop_token& stop) { workerLoop(stop); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  for (auto& w : workers_) w.request_stop();
  taskReady_.notify_all();
  // Join here rather than in the jthread destructors: `workers_` is
  // declared first, so its implicit join would run *after* mutex_ and the
  // condition variables are destroyed — and a worker finishing its last
  // task still notifies allDone_ on the way out (caught by TSan).
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
    ++inFlight_;
  }
  taskReady_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void forEachIndex(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallelFor(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::exception_ptr firstError;
  std::mutex errorMutex;

  // Per-call completion latch. parallelFor must not wait on the global
  // inFlight_ count: a nested call from inside fn runs on a worker whose
  // own enclosing task is still in flight, so waiting for inFlight_ == 0
  // would deadlock.
  std::mutex doneMutex;
  std::condition_variable doneCv;
  std::size_t helpersLeft = 0;

  const auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };

  // Each submitted wrapper and the calling thread all drain the index
  // counter, so the work balances dynamically whatever the pool size.
  const std::size_t helpers = std::min<std::size_t>(threadCount(), n);
  {
    const std::lock_guard lock(doneMutex);
    helpersLeft = helpers;
  }
  // If submit() throws partway (bad_alloc), already-queued wrappers still
  // reference this frame: account for the never-submitted rest, finish the
  // work and the drain-wait as usual, and only then rethrow.
  std::size_t submitted = 0;
  std::exception_ptr submitError;
  try {
    for (; submitted < helpers; ++submitted) {
      submit([&] {
        body();
        // Notify under the lock: the caller can only observe
        // helpersLeft == 0 (and destroy the latch) after this wrapper
        // released doneMutex.
        const std::lock_guard lock(doneMutex);
        --helpersLeft;
        doneCv.notify_all();
      });
    }
  } catch (...) {
    submitError = std::current_exception();
    const std::lock_guard lock(doneMutex);
    helpersLeft -= helpers - submitted;
  }
  body();
  // Drain queued pool tasks while waiting for the helpers, so that a nested
  // parallelFor's helpers cannot starve when every worker is itself blocked
  // inside an enclosing parallelFor. One task per iteration, re-checking the
  // latch in between: once the helpers are done we return immediately
  // instead of working through an unrelated queue backlog. The timed wait
  // covers the window where a task is submitted after we found the queue
  // empty.
  for (;;) {
    {
      std::unique_lock lock(doneMutex);
      if (helpersLeft == 0) break;
    }
    if (!runPendingTask()) {
      std::unique_lock lock(doneMutex);
      if (doneCv.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return helpersLeft == 0; })) {
        break;
      }
    }
  }
  if (firstError) std::rethrow_exception(firstError);
  if (submitError) std::rethrow_exception(submitError);
}

void ThreadPool::runTaskAndAccount(std::function<void()>& task) {
  // The submit() contract: a fire-and-forget task that throws has no caller
  // to land in — terminate deterministically rather than unwinding into a
  // worker's jthread or an unrelated parallelFor (which would also leak
  // inFlight_ and destroy the latch under running helpers).
  try {
    task();
  } catch (...) {
    std::terminate();
  }
  {
    const std::lock_guard lock(mutex_);
    --inFlight_;
  }
  allDone_.notify_all();
}

bool ThreadPool::runPendingTask() {
  std::function<void()> task;
  {
    const std::lock_guard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  runTaskAndAccount(task);
  return true;
}

void ThreadPool::workerLoop(const std::stop_token& stop) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      taskReady_.wait(lock, [this, &stop] {
        return stopping_ || stop.stop_requested() || !queue_.empty();
      });
      if (queue_.empty()) {
        if (stopping_ || stop.stop_requested()) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    runTaskAndAccount(task);
  }
}

}  // namespace mcmcpar::par
