// Fixed-size thread pool over MpmcQueue.
//
// site_pool() runs the site's background work, including the parallel part
// transfers (the paper's "transfers are done in parallel").
#pragma once

#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"

namespace ipa {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns false after shutdown() was called.
  bool post(std::function<void()> task);

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

  /// Stop accepting tasks, drain the queue, join all workers. Idempotent.
  void shutdown();

  std::size_t size() const { return workers_.size(); }

 private:
  MpmcQueue<std::function<void()>> tasks_;
  std::vector<std::jthread> workers_;
};

/// The site's one background pool: part writers, per-seat fan-out and
/// periodic jobs (net/periodic.hpp). The tasks mostly wait on disks and
/// sockets, so it has at least 16 threads (the paper's node count)
/// whatever the core count. Created on first use, joined at exit.
ThreadPool& site_pool();

}  // namespace ipa
