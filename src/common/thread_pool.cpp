#include "common/thread_pool.hpp"

#include <algorithm>

namespace ipa {

ThreadPool::ThreadPool(std::size_t num_threads) : tasks_(4096) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] {
      while (auto task = tasks_.pop()) {
        (*task)();
      }
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::post(std::function<void()> task) {
  return tasks_.push(std::move(task));
}

void ThreadPool::shutdown() {
  tasks_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ThreadPool& site_pool() {
  static ThreadPool pool(
      std::max<std::size_t>(std::thread::hardware_concurrency(), 16));
  return pool;
}

}  // namespace ipa
