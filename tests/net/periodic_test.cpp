// PeriodicJob: periodic runs on the site pool, driven by the site timer
// wheel. Covers the two scheduling rules (one run at a time, missed ticks
// skipped rather than caught up) and the cancel contract (wait for a run in
// progress, never for a queued one).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "net/periodic.hpp"

namespace ipa::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kPeriodS = 0.05;

std::chrono::duration<double> periods(double n) {
  return std::chrono::duration<double>(n * kPeriodS);
}

/// Wait (bounded) until `pred` holds.
template <typename Pred>
bool eventually(Pred pred, double timeout_s = 10.0) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; pred decides.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(PeriodicJob, RunsRepeatedlyUntilCancelled) {
  std::atomic<int> runs{0};
  PeriodicJob job;
  job.start(0.01, [&] { runs.fetch_add(1); });
  ASSERT_TRUE(eventually([&] { return runs.load() >= 3; }));
  job.cancel();
  const int after_cancel = runs.load();
  // ipa-lint: allow(sleep-sync) -- gives a wrongly surviving tick time to fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(runs.load(), after_cancel);
}

TEST(PeriodicJob, StalledRunSkipsMissedTicksInsteadOfCatchingUp) {
  // Start times of the first three runs and the end of the first, stamped
  // by the runs themselves so a slow test thread cannot skew them.
  Mutex mutex{LockRank::kUnranked, "test-stamps"};
  std::vector<Clock::time_point> starts;
  Clock::time_point first_end;
  PeriodicJob job;
  job.start(kPeriodS, [&] {
    bool first = false;
    {
      LockGuard lock(mutex);
      if (starts.size() < 3) starts.push_back(Clock::now());
      first = starts.size() == 1;
    }
    if (!first) return;
    // ipa-lint: allow(sleep-sync) -- the stalled run's length is under test.
    std::this_thread::sleep_for(periods(5));
    LockGuard lock(mutex);
    first_end = Clock::now();
  });
  ASSERT_TRUE(eventually([&] {
    LockGuard lock(mutex);
    return starts.size() == 3 && first_end != Clock::time_point{};
  }));
  job.cancel();
  // The first run blocked for five periods. Catching up would start the
  // missed ticks back to back as soon as it returned; skipping them allows
  // one run on the next tick and the one after only a period later.
  LockGuard lock(mutex);
  EXPECT_GE(starts[2] - first_end, periods(0.8));
}

TEST(PeriodicJob, CancelWaitsForTheRunInProgress) {
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  std::atomic<int> runs{0};
  PeriodicJob job;
  job.start(0.01, [&] {
    if (runs.fetch_add(1) != 0) return;
    started.store(true);
    // ipa-lint: allow(sleep-sync) -- keeps the run in progress across cancel().
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished.store(true);
  });
  ASSERT_TRUE(eventually([&] { return started.load(); }));
  job.cancel();
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(runs.load(), 1);
}

TEST(PeriodicJob, CancelReturnsWithoutWaitingForAQueuedRun) {
  // Occupy every site-pool thread, so the job's next run can only queue.
  ThreadPool& pool = site_pool();
  Mutex mutex{LockRank::kUnranked, "test-gate"};
  CondVar cv;
  bool open = false;
  std::atomic<std::size_t> blocked{0};
  std::vector<std::future<void>> blockers;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    blockers.push_back(pool.submit([&] {
      blocked.fetch_add(1);
      UniqueLock lock(mutex);
      cv.wait(lock, [&]() IPA_REQUIRES(mutex) { return open; });
    }));
  }
  ASSERT_TRUE(eventually([&] { return blocked.load() == pool.size(); }));

  std::atomic<int> runs{0};
  PeriodicJob job;
  job.start(0.01, [&] { runs.fetch_add(1); });
  // ipa-lint: allow(sleep-sync) -- lets several ticks pass; at most one run queues.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto cancelled = std::async(std::launch::async, [&] { job.cancel(); });
  const bool returned = cancelled.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  {
    LockGuard lock(mutex);
    open = true;
  }
  cv.notify_all();
  for (auto& blocker : blockers) blocker.get();
  cancelled.get();
  EXPECT_TRUE(returned) << "cancel() waited for a run that was only queued";
  // Drain: a task posted now runs after the queued run was taken off.
  pool.submit([] {}).get();
  EXPECT_EQ(runs.load(), 0) << "a run queued before cancel() still called fn";
}

TEST(PeriodicJob, CancelFromInsideTheRunDoesNotWaitForItself) {
  std::atomic<int> runs{0};
  std::atomic<bool> returned{false};
  PeriodicJob job;
  job.start(0.01, [&] {
    runs.fetch_add(1);
    job.cancel();
    returned.store(true);
  });
  ASSERT_TRUE(eventually([&] { return returned.load(); }));
  // ipa-lint: allow(sleep-sync) -- gives a wrongly surviving tick time to fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(runs.load(), 1);
}

}  // namespace
}  // namespace ipa::net
