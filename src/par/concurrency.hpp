#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

namespace mcmcpar::par {

class ThreadPool;

/// Resolve a user-facing thread-count knob: 0 means "all hardware threads"
/// (never less than 1). Every `threads` field in the library routes through
/// this one function so the convention cannot drift between subsystems.
[[nodiscard]] unsigned resolveThreadCount(unsigned requested) noexcept;

/// Build a ThreadPool with `resolveThreadCount(requested)` workers. The
/// engine builds each run's one pool through this (the strategies' shared
/// lease-to-executor step); drivers only borrow a pool.
[[nodiscard]] std::unique_ptr<ThreadPool> makeThreadPool(unsigned requested);

class PoolLease;

/// A worker-thread budget shared by concurrent jobs (engine::BatchRunner).
///
/// Without a budget every strategy resolves its `threads` knob against the
/// whole machine, so 16 concurrent jobs on an 8-core box would spawn up to
/// 128 workers. A PoolBudget caps the *sum*: the budget owner charges it for
/// the threads that run the jobs themselves, and each job leases any extra
/// internal workers from what is left (see PoolLease::acquire). Acquisition
/// never blocks — a job that finds the budget empty simply runs serially on
/// its calling thread.
class PoolBudget {
 public:
  /// Share `total` worker threads (0 = hardware concurrency).
  explicit PoolBudget(unsigned total = 0);

  PoolBudget(const PoolBudget&) = delete;
  PoolBudget& operator=(const PoolBudget&) = delete;

  [[nodiscard]] unsigned total() const noexcept { return total_; }

  /// Threads not currently leased. A snapshot only: another thread may
  /// acquire between this call and yours.
  [[nodiscard]] unsigned available() const;

  /// Take up to `want` threads out of the budget right now; returns the
  /// granted count (possibly 0). Never blocks. Prefer PoolLease::acquire,
  /// which pairs the grant with an RAII release.
  [[nodiscard]] unsigned tryAcquire(unsigned want);

  /// Like tryAcquire, but when the budget is empty it blocks until another
  /// holder releases or `timeout` elapses; returns the granted count (0 only
  /// on timeout). Long-running front-ends use this to park idle workers
  /// outside the budget — releasing their thread between jobs so running
  /// strategies can lease it — and reacquire it when the next job arrives.
  [[nodiscard]] unsigned tryAcquireFor(unsigned want,
                                       std::chrono::milliseconds timeout);

  /// Return `count` previously acquired threads to the budget and wake
  /// tryAcquireFor waiters.
  void release(unsigned count) noexcept;

 private:
  mutable std::mutex mutex_;
  std::condition_variable released_;
  unsigned total_;
  unsigned available_;
};

/// RAII grant of worker threads against an optional PoolBudget.
///
/// `threads()` is the number of workers the holder may run, the calling
/// thread included — it is never 0, so a job can always make progress.
class PoolLease {
 public:
  /// An unbudgeted single-thread lease.
  PoolLease() = default;

  /// Resolve a thread request against an optional shared budget. With
  /// `budget == nullptr` this is exactly resolveThreadCount(requested): the
  /// job owns the whole machine (today's standalone behaviour). With a
  /// budget, the calling thread is already paid for by the budget owner, so
  /// the lease grants 1 (the caller) plus up to requested-1 extra workers,
  /// capped by what the budget has left; the extras return to the budget
  /// when the lease is released or destroyed.
  [[nodiscard]] static PoolLease acquire(PoolBudget* budget,
                                         unsigned requested);

  ~PoolLease() { release(); }

  PoolLease(PoolLease&& other) noexcept;
  PoolLease& operator=(PoolLease&& other) noexcept;
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  /// Worker threads granted to the holder (calling thread included, >= 1).
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Return the leased extras to the budget early (idempotent).
  void release() noexcept;

 private:
  PoolLease(PoolBudget* budget, unsigned granted, unsigned threads) noexcept
      : budget_(budget), granted_(granted), threads_(threads) {}

  PoolBudget* budget_ = nullptr;
  unsigned granted_ = 0;  ///< extras to give back on release
  unsigned threads_ = 1;
};

}  // namespace mcmcpar::par
