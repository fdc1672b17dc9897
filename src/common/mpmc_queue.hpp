// Bounded blocking multi-producer/multi-consumer queue. Closing the queue
// wakes all waiters; pops drain remaining items before reporting closed.
// ThreadPool keeps its own queue under its own mutex, so no src/ code uses
// this one now.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "common/sync.hpp"

namespace ipa {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity = 1024) : capacity_(capacity ? capacity : 1) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocking push; returns false if the queue was closed.
  bool push(T item) {
    UniqueLock lock(mutex_);
    not_full_.wait(lock, [&]() IPA_REQUIRES(mutex_) {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed. The item is
  /// consumed only on success: a rejected rvalue is left intact at the
  /// caller, so move-only payloads (e.g. a connection to answer with a
  /// saturation error) survive the rejection.
  template <typename U>
  bool try_push(U&& item) {
    {
      LockGuard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::forward<U>(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt when closed and drained.
  std::optional<T> pop() {
    UniqueLock lock(mutex_);
    not_empty_.wait(lock, [&]() IPA_REQUIRES(mutex_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Pop with timeout; nullopt on timeout or on closed-and-drained.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    UniqueLock lock(mutex_);
    if (!not_empty_.wait_for(lock, timeout, [&]() IPA_REQUIRES(mutex_) {
          return closed_ || !items_.empty();
        })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    UniqueLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Close the queue: producers fail, consumers drain then see nullopt.
  void close() {
    {
      LockGuard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    LockGuard lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    LockGuard lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_{LockRank::kQueue, "mpmc-queue"};
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ IPA_GUARDED_BY(mutex_);
  bool closed_ IPA_GUARDED_BY(mutex_) = false;
};

}  // namespace ipa
