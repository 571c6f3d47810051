#include "par/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>

#include "par/concurrency.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace mcmcpar::par {

namespace {

/// How long an idle worker, or a parallelFor caller waiting for its helpers,
/// spins before it parks on a condition variable. A speculative round is a
/// few microseconds of proposals followed by a serial commit of about the
/// same length, so a worker spinning through that gap takes the next round
/// without a futex sleep and wake (tens of microseconds each on a loaded
/// host, measured as 2 threads running slower than 1). Longer idle gaps,
/// such as a pool between jobs, still park after this bound, so an idle pool
/// burns at most this much CPU per worker each time it runs dry.
constexpr auto kSpinBeforePark = std::chrono::microseconds(50);

inline void cpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spin until `ready()` holds or kSpinBeforePark has passed; true iff ready.
template <typename Ready>
bool spinFor(Ready&& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
  for (;;) {
    if (ready()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    for (int i = 0; i < 16; ++i) cpuRelax();
  }
}

}  // namespace

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
  bool wake = false;
  {
    const std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
    queued_.store(queue_.size(), std::memory_order_release);
    ++inFlight_;
    // A worker registers as parked under mutex_ after finding the queue
    // empty, so it either sees this task or is counted here.
    wake = parked_ > 0;
  }
  if (wake) taskReady_.notify_one();
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
  std::atomic<std::size_t> helpersLeft{0};

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
  helpersLeft.store(helpers, std::memory_order_relaxed);
  // If submit() throws partway (bad_alloc), already-queued wrappers still
  // reference this frame: account for the never-submitted rest, finish the
  // work and the drain-wait as usual, and only then rethrow.
  std::size_t submitted = 0;
  std::exception_ptr submitError;
  try {
    for (; submitted < helpers; ++submitted) {
      submit([&] {
        body();
        // Decrement and notify under the lock: the caller takes doneMutex
        // after it observes helpersLeft == 0, so it can only destroy the
        // latch after this wrapper released it.
        const std::lock_guard lock(doneMutex);
        helpersLeft.fetch_sub(1, std::memory_order_release);
        doneCv.notify_all();
      });
    }
  } catch (...) {
    submitError = std::current_exception();
    const std::lock_guard lock(doneMutex);
    helpersLeft.fetch_sub(helpers - submitted, std::memory_order_release);
  }
  body();
  // Drain queued pool tasks while waiting for the helpers, so that a nested
  // parallelFor's helpers cannot starve when every worker is itself blocked
  // inside an enclosing parallelFor. One task per iteration, re-checking the
  // latch in between: once the helpers are done we return immediately
  // instead of working through an unrelated queue backlog. The first time
  // there is nothing to run, spin for kSpinBeforePark before parking; the
  // timed wait covers the window where a task is submitted after we found
  // the queue empty.
  const auto helpersDone = [&] {
    return helpersLeft.load(std::memory_order_acquire) == 0;
  };
  bool spun = false;
  for (;;) {
    if (helpersDone()) break;
    if (queued_.load(std::memory_order_acquire) > 0 && runPendingTask()) {
      continue;
    }
    if (!spun) {
      spun = true;
      spinFor([&] {
        return helpersDone() || queued_.load(std::memory_order_acquire) > 0;
      });
      continue;
    }
    std::unique_lock lock(doneMutex);
    if (doneCv.wait_for(lock, std::chrono::milliseconds(1), helpersDone)) {
      break;
    }
  }
  // The last helper may still hold doneMutex after its decrement; wait for
  // it to leave before the latch goes out of scope.
  { const std::lock_guard lock(doneMutex); }
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
    queued_.store(queue_.size(), std::memory_order_release);
  }
  runTaskAndAccount(task);
  return true;
}

void ThreadPool::workerLoop(const std::stop_token& stop) {
  for (;;) {
    // Spin briefly before taking the lock to park, so back-to-back
    // parallelFor rounds find this worker awake.
    spinFor([&] {
      return queued_.load(std::memory_order_acquire) > 0 ||
             stop.stop_requested();
    });
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      while (queue_.empty() && !stopping_ && !stop.stop_requested()) {
        ++parked_;
        taskReady_.wait(lock);
        --parked_;
      }
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
      queued_.store(queue_.size(), std::memory_order_release);
    }
    runTaskAndAccount(task);
  }
}

}  // namespace mcmcpar::par
