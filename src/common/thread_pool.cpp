#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace ipa {

ThreadPool::ThreadPool(std::size_t max_threads, std::size_t queue_capacity)
    : max_threads_(std::max<std::size_t>(max_threads, 1)),
      capacity_(std::max<std::size_t>(queue_capacity, 1)) {}

ThreadPool::~ThreadPool() { shutdown(); }

bool ThreadPool::post(std::function<void()> task) {
  UniqueLock lock(mutex_);
  not_full_.wait(lock, [&]() IPA_REQUIRES(mutex_) {
    return stopping_ || tasks_.size() < capacity_;
  });
  if (stopping_) return false;
  const std::shared_ptr<Sleeper> idle = enqueue(task);
  lock.unlock();
  if (idle) idle->cv.notify_one();
  return true;
}

Admission ThreadPool::try_post(std::function<void()>& task) {
  UniqueLock lock(mutex_);
  if (stopping_) return Admission::kStopped;
  if (tasks_.size() >= capacity_) return Admission::kSaturated;
  const std::shared_ptr<Sleeper> idle = enqueue(task);
  lock.unlock();
  if (idle) idle->cv.notify_one();
  return Admission::kAdmitted;
}

std::shared_ptr<ThreadPool::Sleeper> ThreadPool::enqueue(std::function<void()>& task) {
  // Hand the task to the most recently idle worker, so under light load the
  // same few workers take every task and the rest reach kIdleRetire. An idle
  // worker already handed a queued task is not free for this one: with none
  // left, spawn a worker if the cap allows.
  std::shared_ptr<Sleeper> sleeper;
  if (!sleepers_.empty()) {
    sleeper = std::move(sleepers_.back());
    sleepers_.pop_back();
    sleeper->woken = true;
  } else if (workers_.size() < max_threads_) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  tasks_.push_back(std::move(task));
  return sleeper;  // notified after unlocking
}

void ThreadPool::worker_loop() {
  const auto slot = std::make_shared<Sleeper>();
  UniqueLock lock(mutex_);
  while (true) {
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      not_full_.notify_one();
      task();
      task = nullptr;  // release what it captured before taking the lock
      lock.lock();
    } else if (stopping_) {
      return;  // drained; shutdown() joins us
    } else {
      slot->woken = false;
      sleepers_.push_back(slot);
      const bool woken = slot->cv.wait_for(lock, kIdleRetire, [&]() IPA_REQUIRES(mutex_) {
        return slot->woken || stopping_;
      });
      if (!slot->woken) std::erase(sleepers_, slot);
      if (woken || !tasks_.empty()) continue;
      // Retire: leave workers_ under the lock enqueue() counts it under, and
      // join the previous retiree, which needs nothing more.
      const auto self =
          std::find_if(workers_.begin(), workers_.end(), [](const std::jthread& worker) {
            return worker.get_id() == std::this_thread::get_id();
          });
      std::jthread previous = std::exchange(retired_, std::move(*self));
      workers_.erase(self);
      lock.unlock();
      return;
    }
  }
}

void ThreadPool::shutdown() {
  std::vector<std::jthread> to_join;
  {
    LockGuard lock(mutex_);
    stopping_ = true;
    for (const auto& sleeper : sleepers_) sleeper->cv.notify_one();
    to_join.swap(workers_);
    to_join.push_back(std::move(retired_));
  }
  not_full_.notify_all();
  to_join.clear();  // joins
}

std::size_t ThreadPool::worker_count() const {
  LockGuard lock(mutex_);
  return workers_.size();
}

std::size_t ThreadPool::queued() const {
  LockGuard lock(mutex_);
  return tasks_.size();
}

ThreadPool& site_pool() {
  static ThreadPool pool(
      std::max<std::size_t>(std::thread::hardware_concurrency(), 16));
  return pool;
}

}  // namespace ipa
