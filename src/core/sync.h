// Annotated synchronization primitives: thin std::mutex wrappers that clang's
// thread-safety analysis can see through.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability attributes, so
// `-Wthread-safety` cannot check code written against them.  Every guarded
// structure in the tree therefore uses these wrappers instead (the project
// lint bans raw std::mutex outside this header):
//
//   Mutex      — a CAPABILITY wrapping std::mutex.  Declare members
//                `GUARDED_BY(mu_)` and helper methods `REQUIRES(mu_)`.
//   MutexLock  — the RAII guard (SCOPED_CAPABILITY over std::unique_lock).
//                Relockable: Unlock()/Lock() open a window for work that
//                must run outside the critical section (write-behind drains,
//                settle callbacks), and the analysis tracks the state.
//   CondVar    — std::condition_variable bound to MutexLock.  No predicate
//                overloads on purpose: a lambda body is analyzed as its own
//                function, where the lock is not visibly held, so guarded
//                reads inside `cv.wait(lk, pred)` predicates defeat the
//                analysis.  Write explicit `while (!cond) cv.Wait(lk);`
//                loops instead — the condition then sits in the annotated
//                scope.
#ifndef PRIVTREE_CORE_SYNC_H_
#define PRIVTREE_CORE_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.h"

namespace privtree {

/// Exclusive mutex capability.  Lock via MutexLock; the raw Lock()/Unlock()
/// methods exist for the wrapper layer only and are banned elsewhere by the
/// naked-lock lint rule.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII guard over a Mutex; locks on construction, unlocks on destruction.
/// Unlock()/Lock() reopen and reclose the critical section mid-scope for
/// code that must not run under the lock; the destructor releases only if
/// currently held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex (must currently be held).
  void Unlock() RELEASE() { lock_.unlock(); }
  /// Reacquires the mutex after Unlock().
  void Lock() ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to MutexLock.  Wait atomically releases the lock
/// and reacquires it before returning, so from the analysis's point of view
/// the capability stays held across the call — which matches how callers
/// touch guarded state on both sides of it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible; loop on the
  /// condition).  `lk` must hold the mutex guarding the condition.
  void Wait(MutexLock& lk) { cv_.wait(lk.lock_); }

  /// As Wait, but returns false if `timeout` elapses first.
  template <typename Rep, typename Period>
  bool WaitFor(MutexLock& lk, std::chrono::duration<Rep, Period> timeout) {
    return cv_.wait_for(lk.lock_, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace privtree

#endif  // PRIVTREE_CORE_SYNC_H_
