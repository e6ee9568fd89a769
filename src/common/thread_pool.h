#ifndef KEYSTONE_COMMON_THREAD_POOL_H_
#define KEYSTONE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace keystone {

/// Fixed-size worker pool that runs both operator kernels and independent
/// DAG branches (PlanRunner); virtual time is the simulator's (src/sim).
/// Tasks must not throw. Whoever starts parallel work runs its own queued
/// work and waits only for work already running on a helper.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  /// Enqueues a task; only its submitter waits for it.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n) and returns once those n calls finish. The
  /// caller claims iterations beside min(n, num_threads()) - 1 helpers (a
  /// one-thread pool runs the loop inline, in order) and waits only for its
  /// own iterations, so the loop may run inside a task on this pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

  /// Cumulative execution statistics (for observability scrapers; the pool
  /// itself stays dependency-free). `busy_seconds` is summed across
  /// workers, so it can exceed wall time.
  struct Stats {
    uint64_t tasks_submitted = 0;
    uint64_t tasks_executed = 0;
    double busy_seconds = 0.0;
  };
  Stats stats() const;

  /// Process-wide pool sized to the hardware concurrency.
  static ThreadPool& Global();

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_{kLockRankThreadPool};
  CondVar task_available_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<int64_t> busy_nanos_{0};
  std::vector<std::thread> threads_;
};

}  // namespace keystone

#endif  // KEYSTONE_COMMON_THREAD_POOL_H_
