// The one worker-pool class: a bounded task queue, workers spawned on demand
// up to a cap, and workers idle for kIdleRetire exit. site_pool() runs the
// site's background work, including the parallel part transfers (the
// paper's "transfers are done in parallel"); http::Server and rpc::RpcServer
// each dispatch parsed requests to an instance of their own. Spawning and
// retiring are decided under the pool mutex from the same idle list, so a
// queued task never waits on a worker that has decided to exit.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace ipa {

/// Outcome of ThreadPool::try_post. A saturated server answers an explicit
/// 503/RESOURCE_EXHAUSTED; a stopped one just closes.
enum class Admission {
  kAdmitted,   // queued; a worker will run it
  kSaturated,  // queue full — the caller keeps the task
  kStopped,    // pool shut down — the caller keeps the task
};

class ThreadPool {
 public:
  /// How long a worker waits for a task before it exits: long enough that
  /// back-to-back interactive cycles keep their workers.
  static constexpr std::chrono::milliseconds kIdleRetire{2000};

  /// At most `max_threads` workers over a queue of `queue_capacity` tasks
  /// (0 means 1 for either). No worker exists until the first task.
  explicit ThreadPool(std::size_t max_threads = std::thread::hardware_concurrency(),
                      std::size_t queue_capacity = 4096);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task, blocking while the queue is full; false after shutdown().
  bool post(std::function<void()> task);

  /// Enqueue a task without blocking. `task` is moved from only on
  /// kAdmitted; a rejected task stays with the caller.
  Admission try_post(std::function<void()>& task);

  /// Enqueue a task and get a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (!post([task] { (*task)(); })) {
      // Pool already closed: run inline so the future is always satisfied.
      (*task)();
    }
    return fut;
  }

  /// Stop accepting tasks, run what is queued, join all workers. Idempotent.
  void shutdown();

  /// The cap on workers.
  std::size_t size() const { return max_threads_; }
  /// Workers alive now.
  std::size_t worker_count() const;
  /// Tasks queued and not yet picked up by a worker.
  std::size_t queued() const;

 private:
  /// A worker's wakeup slot, shared so a waker can notify after unlocking.
  struct Sleeper {
    CondVar cv;
    bool woken = false;  // handed a task by enqueue(); guarded by mutex_
  };

  /// Queue `task`; returns the idle worker to notify, if any.
  std::shared_ptr<Sleeper> enqueue(std::function<void()>& task) IPA_REQUIRES(mutex_);
  void worker_loop();

  const std::size_t max_threads_;
  const std::size_t capacity_;
  mutable Mutex mutex_{LockRank::kWorkerPool, "thread-pool"};
  CondVar not_full_;
  std::deque<std::function<void()>> tasks_ IPA_GUARDED_BY(mutex_);
  std::vector<std::jthread> workers_ IPA_GUARDED_BY(mutex_);
  /// Idle workers not yet handed a task, most recently idle last.
  std::vector<std::shared_ptr<Sleeper>> sleepers_ IPA_GUARDED_BY(mutex_);
  /// The last worker to retire: joined by the next one or by shutdown().
  std::jthread retired_ IPA_GUARDED_BY(mutex_);
  bool stopping_ IPA_GUARDED_BY(mutex_) = false;
};

/// The site's background pool: engine run slices (engine/engine.hpp), part
/// writers, per-seat fan-out and periodic jobs (net/periodic.hpp). It may
/// grow to at least 16 threads (the paper's node count) whatever the core
/// count, so 16 engines run side by side. Created on first use, joined at
/// exit.
ThreadPool& site_pool();

}  // namespace ipa
