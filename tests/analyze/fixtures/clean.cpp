// ipa-analyze self-test fixture: must produce NO findings.
//
// Exercises the analyzer's happy paths: ranked declarations (member and
// unique_ptr forms), properly descending nested acquisition, the
// single-lock CondVar wait idiom, an explicitly unlocked guard before a
// blocking call, and a lambda whose deferred body must not inherit the
// enclosing lock scope.
#include "common/sync.hpp"

namespace fixture {

class Worker {
 public:
  void run();
};

class WellOrdered {
 public:
  void descend() {
    LockGuard outer(session_mutex_);  // rank 150
    LockGuard inner(*transport_mutex_);   // rank 70: strictly below, fine
  }

  void wait_ready() {
    UniqueLock lock(session_mutex_);
    ready_cv_.wait_for(lock, 0.5, [this] { return ready_; });
  }

  void unlock_then_block(Worker& pool) {
    UniqueLock lock(session_mutex_);
    ready_ = true;
    lock.unlock();
    pool.run();  // lock released above: not under a lock
  }

  auto deferred() {
    LockGuard lock(session_mutex_);
    // The lambda body runs later, outside this scope's locks.
    return [this] { UniqueLock relock(session_mutex_); };
  }

 private:
  Mutex session_mutex_{LockRank::kSession, "fixture-session"};
  std::unique_ptr<Mutex> transport_mutex_ =
      std::make_unique<Mutex>(LockRank::kTransport, "fixture-transport");
  CondVar ready_cv_;
  bool ready_ = false;
};

}  // namespace fixture
