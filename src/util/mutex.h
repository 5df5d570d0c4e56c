// Annotated locking primitives: std::mutex / std::condition_variable
// with the clang thread-safety capability attributes attached, so the
// HYDRA_THREAD_SAFETY build can prove at compile time that every
// GUARDED_BY member is only touched with its lock held. Drop-in for the
// std types (same fast paths — MutexLock compiles to exactly a
// lock_guard when the no-op branch of the annotations is active), which
// is why the concurrent core uses these everywhere instead of the std
// types directly.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace hydra::util {

// A std::mutex the analysis can see. Only the annotated members below
// may be used to lock it; the raw std::mutex stays private so no caller
// can bypass the capability tracking (CondVar is the one friend — it
// must adopt the mutex for std::condition_variable's wait protocol).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { m_.lock(); }
  void unlock() RELEASE() { m_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

// Scoped lock over Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

// Condition variable waiting on an annotated Mutex. Predicate loops are
// spelled out at the call site (`while (!cond) cv.wait(mutex);`) so the
// guarded reads in the condition sit in the annotated caller's scope —
// a predicate lambda would be analyzed as an unannotated function and
// produce false positives.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mutex` and sleeps; reacquired on return. The
  // caller must hold the lock (typically through a MutexLock), exactly
  // like std::condition_variable::wait.
  void wait(Mutex& mutex) REQUIRES(mutex) {
    // Adopt the already-held native mutex for the wait protocol, then
    // release the unique_lock's ownership claim so the MutexLock in the
    // caller's scope stays the single owner.
    std::unique_lock<std::mutex> native(mutex.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hydra::util
