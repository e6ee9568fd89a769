#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "src/common/check.h"

namespace keystone {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    KS_CHECK(!shutdown_);
    tasks_.push(std::move(task));
  }
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  task_available_.NotifyOne();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t workers = std::min(n, threads_.size());
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  struct Loop {
    std::atomic<size_t> next{0};
    Mutex mu;
    CondVar finished;
    size_t done GUARDED_BY(mu) = 0;
  };
  // Helpers share the loop by shared_ptr, since one may start after the
  // caller has returned; it then claims no index and never touches `fn`.
  auto loop = std::make_shared<Loop>();
  auto claim = [loop, n, f = &fn] {
    size_t ran = 0;
    for (size_t i = loop->next++; i < n; i = loop->next++, ++ran) (*f)(i);
    if (ran == 0) return;
    MutexLock lock(&loop->mu);
    loop->done += ran;
    if (loop->done == n) loop->finished.NotifyOne();
  };
  for (size_t h = 1; h < workers; ++h) Submit(claim);
  claim();
  // Every iteration not yet done is running on a helper.
  MutexLock lock(&loop->mu);
  while (loop->done < n) loop->finished.Wait(&loop->mu);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && tasks_.empty()) task_available_.Wait(&mu_);
      if (tasks_.empty()) return;  // shut down with nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    const auto start = std::chrono::steady_clock::now();
    task();
    busy_nanos_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count(),
        std::memory_order_relaxed);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats out;
  out.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  out.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  out.busy_seconds =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return out;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(  // NOLINT: leaked singleton
      std::max(1u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace keystone
