// Concurrency-contract layer: lock-rank bookkeeping, ordering enforcement
// (death tests) and the CondVar/UniqueLock wait path.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace ipa {
namespace {

TEST(LockRank, RankNamesAreStable) {
  // Abort messages (and the death-test regexes below) print these names.
  EXPECT_STREQ(to_string(LockRank::kLog), "log");
  EXPECT_STREQ(to_string(LockRank::kTransport), "transport");
  EXPECT_STREQ(to_string(LockRank::kSession), "session");
  EXPECT_STREQ(to_string(LockRank::kUnranked), "unranked");
}

TEST(LockRank, DescendingAcquisitionIsAllowed) {
  Mutex session(LockRank::kSession, "session");
  Mutex transport(LockRank::kTransport, "transport");
  Mutex log(LockRank::kLog, "log");
  LockGuard a(session);
  LockGuard b(transport);
  LockGuard c(log);
#if IPA_LOCK_CHECKS
  EXPECT_EQ(sync_detail::held_depth(), 3);
#endif
}

TEST(LockRank, ReleaseUnwindsTheHeldStack) {
  Mutex outer(LockRank::kSession, "outer");
  Mutex inner(LockRank::kTransport, "inner");
  {
    LockGuard a(outer);
    { LockGuard b(inner); }
    { LockGuard b(inner); }  // re-acquire after release is fine
  }
#if IPA_LOCK_CHECKS
  EXPECT_EQ(sync_detail::held_depth(), 0);
#endif
}

TEST(LockRank, UnrankedOptsOutOfOrdering) {
#if defined(__SANITIZE_THREAD__)
#define IPA_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IPA_TEST_UNDER_TSAN 1
#endif
#endif
#ifdef IPA_TEST_UNDER_TSAN
  // The out-of-order acquisition below is the point of the test (unranked
  // mutexes are exempt from the rank checker), but TSan's own deadlock
  // detector reports the same pattern as a lock-order inversion.
  GTEST_SKIP() << "intentional lock-order inversion trips TSan";
#endif
  Mutex leaf(LockRank::kLog, "leaf");
  Mutex unranked;  // test scaffolding default
  {
    LockGuard a(leaf);
    LockGuard b(unranked);  // ascending past a held leaf, but unranked is exempt
  }
  // ...and holding one doesn't poison later ranked acquisitions.
  Mutex root(LockRank::kSession, "root");
  LockGuard c(unranked);
  LockGuard d(root);
  LockGuard e(leaf);
#if IPA_LOCK_CHECKS
  EXPECT_EQ(sync_detail::held_depth(), 3);
#endif
}

TEST(LockRank, RanksAreThreadLocal) {
  // A thread holding a leaf must not block another thread's root lock.
  Mutex leaf(LockRank::kLog, "leaf");
  Mutex root(LockRank::kSession, "root");
  LockGuard hold_leaf(leaf);
  std::jthread other([&] {
    LockGuard hold_root(root);  // would abort if the stack were shared
  });
}

#if IPA_LOCK_CHECKS

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, InvertedAcquisitionAborts) {
  // transport (70) is a leaf relative to session (150): taking the session
  // lock while holding the transport lock is the classic inversion that
  // deadlocks against the normal session -> transport path.
  EXPECT_DEATH(
      {
        Mutex transport(LockRank::kTransport, "tcp-send");
        Mutex session(LockRank::kSession, "session");
        LockGuard a(transport);
        LockGuard b(session);
      },
      "lock-rank violation.*session.*while holding");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  // Two distinct kLog mutexes may never nest — with one thread that is a
  // self-deadlock risk; across threads it is an ABBA deadlock.
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kLog, "log-a");
        Mutex b(LockRank::kLog, "log-b");
        LockGuard la(a);
        LockGuard lb(b);
      },
      "lock-rank violation.*log-b");
}

#else

TEST(LockRankDeathTest, ChecksCompiledOut) {
  // Release builds compile the rank bookkeeping out: an inversion that
  // would abort in Debug must be a plain (if unwise) acquisition here.
  Mutex transport(LockRank::kTransport, "tcp-send");
  Mutex session(LockRank::kSession, "session");
  LockGuard a(transport);
  LockGuard b(session);
  SUCCEED();
}

#endif  // IPA_LOCK_CHECKS

TEST(CondVarTest, WaitReleasesAndReacquires) {
  Mutex mutex(LockRank::kTransport, "cv-test");
  CondVar cv;
  bool ready = false;

  std::jthread signaller([&] {
    LockGuard lock(mutex);
    ready = true;
    cv.notify_one();
  });

  UniqueLock lock(mutex);
  cv.wait(lock, [&]() IPA_REQUIRES(mutex) { return ready; });
  EXPECT_TRUE(ready);
#if IPA_LOCK_CHECKS
  EXPECT_EQ(sync_detail::held_depth(), 1);  // rank restored after the wait
#endif
}

TEST(CondVarTest, WaitForTimesOut) {
  Mutex mutex(LockRank::kTransport, "cv-timeout");
  CondVar cv;
  UniqueLock lock(mutex);
  const bool signalled = cv.wait_for(lock, std::chrono::milliseconds(10),
                                     [] { return false; });
  EXPECT_FALSE(signalled);
}

TEST(UniqueLockTest, ManualUnlockRelock) {
  Mutex mutex(LockRank::kTransport, "relock");
  UniqueLock lock(mutex);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
#if IPA_LOCK_CHECKS
  EXPECT_EQ(sync_detail::held_depth(), 0);
#endif
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

TEST(MutexTest, TryLockTracksRank) {
  Mutex mutex(LockRank::kTransport, "try");
  ASSERT_TRUE(mutex.try_lock());
#if IPA_LOCK_CHECKS
  EXPECT_EQ(sync_detail::held_depth(), 1);
#endif
  mutex.unlock();
#if IPA_LOCK_CHECKS
  EXPECT_EQ(sync_detail::held_depth(), 0);
#endif
}

TEST(SharedMutexTest, ConcurrentReadersExclusiveWriter) {
  SharedMutex mutex(LockRank::kRegistry, "rw");
  int value = 0;
  {
    WriterLock write(mutex);
    value = 7;
  }
  std::vector<std::jthread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      ReaderLock read(mutex);
      EXPECT_EQ(value, 7);
    });
  }
}

// Contention profiling is compiled in unconditionally (unlike the rank
// checks), so a provably-contended acquisition must surface in
// lock_contention_snapshot() with a non-zero count and accumulated wait.
//
// Free-running thread fights are useless here: on a single-core runner each
// thread's whole loop fits in one scheduler quantum and nothing ever
// collides. Instead a holder thread takes the lock, signals, and keeps it
// for 10ms while this thread blocks — a guaranteed contended acquisition.
// The retry loop only matters if this thread gets descheduled for the whole
// hold window between the signal and its lock() call.
template <typename LockType>
void force_contended_acquisition(Mutex& mutex, LockRank rank,
                                 std::uint64_t before) {
  const auto contended_for = [](LockRank want) {
    std::uint64_t out = 0;
    for (const LockContention& entry : lock_contention_snapshot()) {
      if (entry.rank == want) out = entry.contended;
    }
    return out;
  };
  for (int round = 0; round < 50 && contended_for(rank) == before; ++round) {
    std::atomic<bool> held{false};
    std::jthread holder([&] {
      LockGuard lock(mutex);
      held.store(true, std::memory_order_release);
      // Holding across the sleep is the point. ipa-lint: allow(blocking-under-lock)
      // ipa-lint: allow(sleep-sync) -- the sleep is the lock-hold window the contention counters under
      // test must observe.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    });
    // ipa-lint: allow(sleep-sync) -- spin until the holder owns the lock; the scenario needs the
    // acquisition order pinned without touching the mutex under test.
    while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
    LockType lock(mutex);  // blocks behind the sleeping holder
  }
}

TEST(LockContention, ContendedAcquisitionsAreCountedPerRank) {
  const auto stat_for = [](LockRank rank) {
    LockContention out;
    for (const LockContention& entry : lock_contention_snapshot()) {
      if (entry.rank == rank) out = entry;
    }
    return out;
  };
  const LockContention before = stat_for(LockRank::kLoadStats);

  Mutex mutex(LockRank::kLoadStats, "contended");
  force_contended_acquisition<LockGuard>(mutex, LockRank::kLoadStats,
                                         before.contended);

  const LockContention after = stat_for(LockRank::kLoadStats);
  EXPECT_GT(after.contended, before.contended)
      << "blocking behind a sleeping holder was never counted";
  EXPECT_GT(after.wait_s, before.wait_s);
}

// Ranks closer together than the old five-wide slots (reactor 72, reactor
// stream 74, transport 70) must each be reported under their own name.
TEST(LockContention, NeighbouringRanksAreReportedApart) {
  const auto contended_for = [](LockRank rank) {
    std::uint64_t out = 0;
    for (const LockContention& entry : lock_contention_snapshot()) {
      if (entry.rank == rank) out = entry.contended;
    }
    return out;
  };
  const std::uint64_t before = contended_for(LockRank::kReactor);

  Mutex mutex(LockRank::kReactor, "reactor-contended");
  force_contended_acquisition<LockGuard>(mutex, LockRank::kReactor, before);

  bool named = false;
  for (const LockContention& entry : lock_contention_snapshot()) {
    named = named || (entry.contended > 0 && std::string(to_string(entry.rank)) == "reactor");
  }
  EXPECT_GT(contended_for(LockRank::kReactor), before);
  EXPECT_TRUE(named) << "kReactor contention was reported under another rank";
}

// UniqueLock bypasses Mutex::lock (it drives the native handle for CondVar),
// so its contention must be counted by its own timed-acquire path.
TEST(LockContention, UniqueLockContentionIsCounted) {
  const auto contended_for = [](LockRank rank) {
    std::uint64_t out = 0;
    for (const LockContention& entry : lock_contention_snapshot()) {
      if (entry.rank == rank) out = entry.contended;
    }
    return out;
  };
  const std::uint64_t before = contended_for(LockRank::kLoadDriver);

  Mutex mutex(LockRank::kLoadDriver, "uniquelock-contended");
  force_contended_acquisition<UniqueLock>(mutex, LockRank::kLoadDriver,
                                          before);

  EXPECT_GT(contended_for(LockRank::kLoadDriver), before);
}

}  // namespace
}  // namespace ipa
