#ifndef KEYSTONE_COMMON_MUTEX_H_
#define KEYSTONE_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "src/common/thread_annotations.h"

namespace keystone {

/// Global lock-acquisition order (deadlock ranks). A thread may only
/// acquire a ranked Mutex whose rank is strictly greater than the rank of
/// every ranked mutex it already holds; debug builds abort on violations
/// (the lock-order assertion checker below). Unranked mutexes are exempt.
/// Gaps between values leave room for future locks.
enum LockRank : int {
  kLockRankUnranked = -1,
  kLockRankLedger = 10,        // VirtualTimeLedger::mu_
  kLockRankProfileStore = 20,  // obs::ProfileStore::mu_
  kLockRankArtifactCatalog = 25,  // cache::ArtifactCatalog::mu_
  kLockRankTrace = 30,         // obs::TraceRecorder::mu_
  kLockRankDecisionLog = 32,   // obs::OptimizerDecisionLog::mu_
  kLockRankTimeline = 34,      // obs::ResourceTimeline::mu_
  kLockRankTelemetry = 36,     // obs::TelemetryHub::mu_
  kLockRankThreadPool = 40,    // ThreadPool::mu_
  kLockRankMetricsShard = 50,  // obs::MetricsRegistry stripes (leaf locks)
};

namespace internal {
#ifndef NDEBUG
/// Debug-only lock-order assertion checker: a thread-local stack of held
/// ranks. CheckLockOrder aborts when acquiring `rank` would violate the
/// global ascending-rank order declared above.
void CheckLockOrder(int rank);
void PushHeldRank(int rank);
void PopHeldRank(int rank);
#else
inline void CheckLockOrder(int /*rank*/) {}
inline void PushHeldRank(int /*rank*/) {}
inline void PopHeldRank(int /*rank*/) {}
#endif
}  // namespace internal

/// std::mutex wrapper carrying (a) the clang thread-safety `capability`
/// annotation, so `-Wthread-safety` statically checks the locking
/// discipline of everything guarded by it, and (b) an optional deadlock
/// rank enforced at runtime in debug builds.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    internal::CheckLockOrder(rank_);
    mu_.lock();
    internal::PushHeldRank(rank_);
  }

  void Unlock() RELEASE() {
    internal::PopHeldRank(rank_);
    mu_.unlock();
  }

  /// BasicLockable spellings so CondVar's condition_variable_any can
  /// release and reacquire the mutex while blocked.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }

  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  int rank_ = kLockRankUnranked;
};

/// RAII scoped lock over Mutex (the annotated std::lock_guard analogue).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() RELEASE() { mu_->Unlock(); }

 private:
  Mutex* mu_;
};

/// Condition variable paired with Mutex. Wait atomically releases the
/// mutex while blocked and reacquires it before returning, so the caller's
/// capability is intact on both sides — which is exactly what REQUIRES
/// expresses to the static analysis. Callers loop on their condition
/// explicitly rather than passing predicate lambdas (a lambda body would
/// not inherit the caller's capability under the analysis).
class CondVar {
 public:
  void Wait(Mutex* mu) REQUIRES(mu) { cv_.wait(*mu); }
  /// Waits until notified or `seconds` elapse; either way the mutex is
  /// re-held on return. Lets pollers drain producer queues on a deadline
  /// so producers can enqueue without paying a futex wake per item.
  void WaitFor(Mutex* mu, double seconds) REQUIRES(mu) {
    cv_.wait_for(*mu, std::chrono::duration<double>(seconds));
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace keystone

#endif  // KEYSTONE_COMMON_MUTEX_H_
