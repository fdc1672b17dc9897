// Concurrency contracts: annotated mutexes, lock guards and lock ranks.
//
// Every mutex in the framework goes through this header, which layers three
// kinds of machine-checked discipline over std::mutex / std::shared_mutex:
//
//  1. Compile time (Clang only): the IPA_* thread-safety-analysis macros
//     below expand to Clang's capability attributes, so a build with
//     `-Wthread-safety -Werror` proves which fields each lock guards
//     (IPA_GUARDED_BY) and which functions require a lock held
//     (IPA_REQUIRES). Under GCC the macros expand to nothing.
//
//  2. Run time (Debug / IPA_LOCK_CHECKS builds): every ipa::Mutex carries a
//     LockRank. Each thread keeps a stack of the ranks it holds; acquiring
//     a lock whose rank is not strictly below every held rank aborts with
//     both stacks' names. This turns a latent lock-order inversion — a
//     deadlock that needs the unlucky interleaving to fire — into a
//     deterministic abort on the *first* out-of-order acquisition.
//
//  3. Source level: tools/ipa_lint.py (check.sh tier 0) rejects raw
//     std::mutex / std::lock_guard outside this header, so new code cannot
//     silently bypass either check.
//
// The rank order is leaf -> root: a thread must acquire root-most locks
// first and leaf-most locks last, so rank values *decrease* along any
// nested acquisition. The full hierarchy diagram lives in
// docs/static-analysis.md.
#pragma once
// ipa-lint: skip-file(raw-mutex) -- this is the one place raw std primitives live

#include <cstdint>
#include <mutex>
#include <condition_variable>
#include <shared_mutex>
#include <vector>

// --- Clang thread-safety-analysis attribute macros -------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define IPA_TSA_(x) __attribute__((x))
#endif
#endif
#ifndef IPA_TSA_
#define IPA_TSA_(x)  // no-op outside Clang
#endif

#define IPA_CAPABILITY(name) IPA_TSA_(capability(name))
#define IPA_SCOPED_CAPABILITY IPA_TSA_(scoped_lockable)
#define IPA_GUARDED_BY(x) IPA_TSA_(guarded_by(x))
#define IPA_PT_GUARDED_BY(x) IPA_TSA_(pt_guarded_by(x))
#define IPA_ACQUIRED_BEFORE(...) IPA_TSA_(acquired_before(__VA_ARGS__))
#define IPA_ACQUIRED_AFTER(...) IPA_TSA_(acquired_after(__VA_ARGS__))
#define IPA_REQUIRES(...) IPA_TSA_(requires_capability(__VA_ARGS__))
#define IPA_REQUIRES_SHARED(...) IPA_TSA_(requires_shared_capability(__VA_ARGS__))
#define IPA_ACQUIRE(...) IPA_TSA_(acquire_capability(__VA_ARGS__))
#define IPA_ACQUIRE_SHARED(...) IPA_TSA_(acquire_shared_capability(__VA_ARGS__))
#define IPA_RELEASE(...) IPA_TSA_(release_capability(__VA_ARGS__))
#define IPA_RELEASE_SHARED(...) IPA_TSA_(release_shared_capability(__VA_ARGS__))
#define IPA_TRY_ACQUIRE(...) IPA_TSA_(try_acquire_capability(__VA_ARGS__))
#define IPA_EXCLUDES(...) IPA_TSA_(locks_excluded(__VA_ARGS__))
#define IPA_ASSERT_CAPABILITY(x) IPA_TSA_(assert_capability(x))
#define IPA_RETURN_CAPABILITY(x) IPA_TSA_(lock_returned(x))
#define IPA_NO_THREAD_SAFETY_ANALYSIS IPA_TSA_(no_thread_safety_analysis)

// --- Lock-rank debug checking ----------------------------------------------

// Defined to 1 by CMake in Debug/RelWithDebInfo builds (IPA_LOCK_CHECKS
// option); Release builds compile the rank bookkeeping out entirely.
#ifndef IPA_LOCK_CHECKS
#define IPA_LOCK_CHECKS 0
#endif

// --- Deterministic schedule-exploration hooks (model checker) --------------

// When on, every Mutex/CondVar operation consults the test-only cooperative
// scheduler (src/common/sched_test.hpp) so tests/model/ can explore thread
// interleavings deterministically. Follows IPA_LOCK_CHECKS by default, so
// Release builds compile the hooks (and IPA_SCHED_POINT) to nothing — the
// inactive cost in checked builds is one thread_local load per operation.
#ifndef IPA_SCHED_HOOKS
#define IPA_SCHED_HOOKS IPA_LOCK_CHECKS
#endif

// Marks a schedule point in lock-free code (seqlock writers/readers, atomic
// hand-offs): under an active model-checking scenario the scheduler may
// preempt here; everywhere else this is a no-op.
#if IPA_SCHED_HOOKS
#define IPA_SCHED_POINT() ::ipa::sched_detail::sched_point()
#else
#define IPA_SCHED_POINT() ((void)0)
#endif

namespace ipa {

/// The process lock hierarchy, ordered leaf -> root (ascending values).
/// A thread may only acquire a mutex whose rank is STRICTLY LOWER than
/// every rank it already holds; equal ranks never nest. kUnranked opts out
/// of the ordering checks (test scaffolding only — production mutexes must
/// name their place in the hierarchy).
enum class LockRank : int {
  kUnranked = 0,

  // --- leaves: never hold anything else while these are held ----------
  kIds = 10,          // common/ids random-word generator
  kLog = 20,          // common/log sink + stderr emit locks
  kFlight = 25,       // obs::FlightRecorder journal table (cold: registration
                      //   and snapshots only; the event write path is lock-free)
  kMetrics = 30,      // obs::Registry family/series table
  kTrace = 40,        // obs::SpanRing recent spans and slow-op list
  kRegistry = 50,     // small process tables: MethodTraits, AnalyzerRegistry,
                      //   Locator, fault dial ordinals

  // --- message plumbing ------------------------------------------------
  kTransport = 70,    // socket send serialization, fault streams
  kReactor = 72,      // net::Reactor fd table, timer wheel, posted-op queue
  kReactorStream = 74,  // net::Stream write buffer (arms the reactor under it)
  kWorkerPool = 90,   // ipa::ThreadPool queue and workers (site and server pools)
  kServer = 100,      // RpcServer service table, http::Server routes
  kChannel = 110,     // RpcClient / http::Client per-channel call locks

  // --- analysis state --------------------------------------------------
  kEngine = 130,      // AnalysisEngine control state
  kEngineRun = 135,   // AnalysisEngine run lock: reader, analyzer and tree,
                      //   held by an executing run slice or a staging verb
  kAida = 140,        // AidaManager merge state (pins snapshots; merges unlocked)
  kSession = 150,     // services::Session seats + phase timings
  kResourceSet = 160, // rpc::ResourceSet instance maps (holds kIds)
  kManager = 170,     // ManagerNode compute-element slot

  // --- load generation (drives clients; above every service lock) ------
  kLoadStats = 180,   // loadgen::LatencySeries sample buffers
  kLoadDriver = 190,  // loadgen::LoadDriver scheduling heap
};

/// Human-readable rank name for abort messages and tests.
const char* to_string(LockRank rank);

/// Contention totals for one lock rank since process start. Every
/// ipa::Mutex / SharedMutex counts acquisitions that found the lock held
/// (try-lock fast path missed) and the time spent blocked, aggregated per
/// rank — cheap enough to stay on in Release, which is what makes the
/// numbers meaningful under real load.
struct LockContention {
  LockRank rank = LockRank::kUnranked;
  std::uint64_t contended = 0;  // acquisitions that had to block
  double wait_s = 0;            // total time spent blocked
};

/// Per-rank contention totals, ranks with zero contention omitted.
std::vector<LockContention> lock_contention_snapshot();

namespace sync_detail {
/// Monotonic seconds for contention wait timing (WallClock underneath).
double contention_now_s();
/// Account one contended acquisition of `rank` that blocked for `wait_s`.
void note_contended(LockRank rank, double wait_s);
}  // namespace sync_detail

#if IPA_LOCK_CHECKS
namespace sync_detail {
/// Record an acquisition on the calling thread's rank stack; aborts with
/// both the held stack and the offending mutex when the order is violated.
void note_acquire(LockRank rank, const char* name);
/// Remove the most recent matching acquisition from the rank stack.
void note_release(LockRank rank, const char* name);
/// Depth of the calling thread's held-rank stack (tests).
int held_depth();
}  // namespace sync_detail
#endif

#if IPA_SCHED_HOOKS
/// Model-checker entry points (implemented in src/common/sched_test.cpp).
/// Every function is an immediate no-op / `false` unless the calling thread
/// is a registered scenario thread of an active cooperative scheduler, so
/// the hooks cost one thread_local test on the production paths of checked
/// builds. The `id` is the ipa::Mutex/SharedMutex address — the scheduler's
/// blocked-on bookkeeping key, shared by the Mutex and UniqueLock paths.
namespace sched_detail {
/// True when the calling thread runs under an active scenario scheduler.
bool active() noexcept;
/// Plain preemption opportunity (IPA_SCHED_POINT, try_lock probes).
void sched_point();
/// Cooperative acquisition: returns true when the scheduler performed the
/// lock (try-lock loop with blocked-on bookkeeping), false when the caller
/// should take its normal blocking path.
bool mutex_lock(const void* id, std::mutex& m);
bool mutex_lock(const void* id, std::unique_lock<std::mutex>& lk);
bool shared_lock(const void* id, std::shared_mutex& m, bool shared);
/// Post-unlock: wakes scenario threads blocked on `id`, then may preempt.
void mutex_unlock(const void* id);
/// Cooperative CondVar wait: releases `lk`, parks on `cv` until a notify
/// (returns true) or — for timed waits when nothing else is runnable — a
/// scheduler-chosen timeout (returns false), then reacquires `lk`.
bool cv_wait(const void* cv, const void* mutex_id,
             std::unique_lock<std::mutex>& lk, bool timed);
/// Cooperative notify; returns false when no scheduler is active (caller
/// falls through to the real condition_variable). Never blocks or throws.
bool cv_notify(const void* cv, bool all) noexcept;
}  // namespace sched_detail
#endif

/// std::mutex with a Clang capability annotation and a debug lock rank.
class IPA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() noexcept = default;
  explicit Mutex(LockRank rank, const char* name = "") noexcept
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() IPA_ACQUIRE() {
#if IPA_LOCK_CHECKS
    sync_detail::note_acquire(rank_, name_);
#endif
#if IPA_SCHED_HOOKS
    if (sched_detail::mutex_lock(this, m_)) return;
#endif
    // Uncontended fast path: one try_lock. A miss means the lock was held,
    // which is exactly a contended acquisition — time the blocking wait.
    if (m_.try_lock()) return;
    const double t0 = sync_detail::contention_now_s();
    m_.lock();
    sync_detail::note_contended(rank_, sync_detail::contention_now_s() - t0);
  }

  void unlock() IPA_RELEASE() {
    m_.unlock();
#if IPA_LOCK_CHECKS
    sync_detail::note_release(rank_, name_);
#endif
#if IPA_SCHED_HOOKS
    sched_detail::mutex_unlock(this);
#endif
  }

  bool try_lock() IPA_TRY_ACQUIRE(true) {
#if IPA_SCHED_HOOKS
    // A probe is a scheduling decision: both outcomes must be explorable.
    sched_detail::sched_point();
#endif
    if (!m_.try_lock()) return false;
#if IPA_LOCK_CHECKS
    sync_detail::note_acquire(rank_, name_);
#endif
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

  /// The wrapped mutex, for CondVar only (keeps std::condition_variable's
  /// fast native wait path instead of condition_variable_any).
  std::mutex& native() IPA_RETURN_CAPABILITY(this) { return m_; }

 private:
  std::mutex m_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "";
};

/// std::shared_mutex counterpart for read-mostly tables.
class IPA_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() noexcept = default;
  explicit SharedMutex(LockRank rank, const char* name = "") noexcept
      : rank_(rank), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() IPA_ACQUIRE() {
#if IPA_LOCK_CHECKS
    sync_detail::note_acquire(rank_, name_);
#endif
#if IPA_SCHED_HOOKS
    if (sched_detail::shared_lock(this, m_, /*shared=*/false)) return;
#endif
    if (m_.try_lock()) return;
    const double t0 = sync_detail::contention_now_s();
    m_.lock();
    sync_detail::note_contended(rank_, sync_detail::contention_now_s() - t0);
  }
  void unlock() IPA_RELEASE() {
    m_.unlock();
#if IPA_LOCK_CHECKS
    sync_detail::note_release(rank_, name_);
#endif
#if IPA_SCHED_HOOKS
    sched_detail::mutex_unlock(this);
#endif
  }
  void lock_shared() IPA_ACQUIRE_SHARED() {
#if IPA_LOCK_CHECKS
    sync_detail::note_acquire(rank_, name_);
#endif
#if IPA_SCHED_HOOKS
    if (sched_detail::shared_lock(this, m_, /*shared=*/true)) return;
#endif
    if (m_.try_lock_shared()) return;
    const double t0 = sync_detail::contention_now_s();
    m_.lock_shared();
    sync_detail::note_contended(rank_, sync_detail::contention_now_s() - t0);
  }
  void unlock_shared() IPA_RELEASE_SHARED() {
    m_.unlock_shared();
#if IPA_LOCK_CHECKS
    sync_detail::note_release(rank_, name_);
#endif
#if IPA_SCHED_HOOKS
    sched_detail::mutex_unlock(this);
#endif
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex m_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "";
};

/// Scoped exclusive lock — the std::lock_guard replacement.
class IPA_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) IPA_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() IPA_RELEASE() { m_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// Scoped exclusive lock on a SharedMutex (writer side).
class IPA_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& m) IPA_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~WriterLock() IPA_RELEASE() { m_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& m_;
};

/// Scoped shared lock on a SharedMutex (reader side).
class IPA_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& m) IPA_ACQUIRE_SHARED(m) : m_(m) {
    m_.lock_shared();
  }
  ~ReaderLock() IPA_RELEASE_SHARED() { m_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& m_;
};

/// Relockable scoped lock — the std::unique_lock replacement, and the lock
/// type CondVar waits on. Wraps a std::unique_lock on the Mutex's native
/// handle so waits use the plain condition_variable fast path; the rank
/// stack is maintained across explicit lock()/unlock() calls. A CondVar
/// wait releases the native mutex but deliberately keeps the rank on the
/// thread's stack: the waiting thread acquires nothing while parked, and
/// the rank must be held again the moment the wait returns.
class IPA_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) IPA_ACQUIRE(m) : mutex_(&m) {
#if IPA_LOCK_CHECKS
    sync_detail::note_acquire(mutex_->rank(), mutex_->name());
#endif
    lock_ = std::unique_lock<std::mutex>(m.native(), std::defer_lock);
    acquire_timed();
  }

  ~UniqueLock() IPA_RELEASE() {
    if (lock_.owns_lock()) {
      lock_.unlock();
#if IPA_LOCK_CHECKS
      sync_detail::note_release(mutex_->rank(), mutex_->name());
#endif
#if IPA_SCHED_HOOKS
      sched_detail::mutex_unlock(mutex_);
#endif
    }
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() IPA_ACQUIRE() {
#if IPA_LOCK_CHECKS
    sync_detail::note_acquire(mutex_->rank(), mutex_->name());
#endif
    acquire_timed();
  }

  void unlock() IPA_RELEASE() {
    lock_.unlock();
#if IPA_LOCK_CHECKS
    sync_detail::note_release(mutex_->rank(), mutex_->name());
#endif
#if IPA_SCHED_HOOKS
    sched_detail::mutex_unlock(mutex_);
#endif
  }

  bool owns_lock() const { return lock_.owns_lock(); }

 private:
  friend class CondVar;

  /// UniqueLock goes through the native handle (so CondVar keeps the plain
  /// condition_variable wait path), which bypasses Mutex::lock — contention
  /// accounting is repeated here. CondVar wakeup re-acquisition inside
  /// std::condition_variable::wait is the one path not counted.
  void acquire_timed() IPA_NO_THREAD_SAFETY_ANALYSIS {
#if IPA_SCHED_HOOKS
    // Same blocked-on key as Mutex::lock: the Mutex address, so scenario
    // threads parked on either path wake on the one mutex_unlock(id).
    if (sched_detail::mutex_lock(mutex_, lock_)) return;
#endif
    if (lock_.try_lock()) return;
    const double t0 = sync_detail::contention_now_s();
    lock_.lock();
    sync_detail::note_contended(mutex_->rank(), sync_detail::contention_now_s() - t0);
  }

  Mutex* mutex_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over ipa::Mutex via UniqueLock. Same semantics and
/// cost as std::condition_variable (it is one underneath).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept {
#if IPA_SCHED_HOOKS
    if (sched_detail::cv_notify(&cv_, /*all=*/false)) return;
#endif
    cv_.notify_one();
  }
  void notify_all() noexcept {
#if IPA_SCHED_HOOKS
    if (sched_detail::cv_notify(&cv_, /*all=*/true)) return;
#endif
    cv_.notify_all();
  }

  void wait(UniqueLock& lock) {
#if IPA_SCHED_HOOKS
    if (sched_detail::active()) {
      sched_detail::cv_wait(&cv_, lock.mutex_, lock.lock_, /*timed=*/false);
      return;
    }
#endif
    cv_.wait(lock.lock_);
  }

  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred) {
#if IPA_SCHED_HOOKS
    if (sched_detail::active()) {
      while (!pred())
        sched_detail::cv_wait(&cv_, lock.mutex_, lock.lock_, /*timed=*/false);
      return;
    }
#endif
    cv_.wait(lock.lock_, std::move(pred));
  }

  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(UniqueLock& lock, const std::chrono::duration<Rep, Period>& timeout,
                Predicate pred) {
#if IPA_SCHED_HOOKS
    if (sched_detail::active()) {
      // Model time: the scheduler fires the "timeout" only when no other
      // thread is runnable, which is when a real deadline would get to run.
      while (!pred()) {
        if (!sched_detail::cv_wait(&cv_, lock.mutex_, lock.lock_, /*timed=*/true))
          return pred();
      }
      return true;
    }
#endif
    return cv_.wait_for(lock.lock_, timeout, std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace ipa
