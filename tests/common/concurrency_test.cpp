#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/thread_pool.hpp"

namespace ipa {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.post([&] { ++count; });
  pool.shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(1);
  pool.shutdown();
  auto fut = pool.submit([] { return 5; });
  EXPECT_EQ(fut.get(), 5);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();
  SUCCEED();
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<std::future<long long>> futures;
  constexpr int kChunks = 16;
  for (int c = 0; c < kChunks; ++c) {
    futures.push_back(pool.submit([c] {
      long long s = 0;
      for (int i = c * 1000; i < (c + 1) * 1000; ++i) s += i;
      return s;
    }));
  }
  long long total = 0;
  for (auto& f : futures) total += f.get();
  const long long n = kChunks * 1000;
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(Ids, UniqueAndPrefixed) {
  std::set<std::string> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::string id = make_id("sess");
    EXPECT_TRUE(id.rfind("sess-", 0) == 0) << id;
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
  }
}

TEST(Ids, SequenceMonotonic) {
  const auto a = next_sequence();
  const auto b = next_sequence();
  EXPECT_GT(b, a);
}

TEST(Clock, ManualClockAdvances) {
  ManualClock clock(100.0);
  EXPECT_DOUBLE_EQ(clock.now(), 100.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 102.5);
  clock.set(0.0);
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(Clock, WallClockMonotonic) {
  const auto& clock = WallClock::instance();
  const double t0 = clock.now();
  // ipa-lint: allow(sleep-sync) -- real time must pass for WallClock to advance; that is the
  // assertion itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(clock.now(), t0);
}

TEST(Clock, StopwatchMeasuresManualTime) {
  ManualClock clock;
  Stopwatch sw(clock);
  clock.advance(3.0);
  EXPECT_DOUBLE_EQ(sw.elapsed_s(), 3.0);
  sw.reset();
  EXPECT_DOUBLE_EQ(sw.elapsed_s(), 0.0);
}

}  // namespace
}  // namespace ipa
