// Schedule exploration of AidaManager's off-lock merge. poll() pins the
// snapshots of the version it reports under the manager lock, merges them
// with the lock released, and installs the result only if it is newer than
// the cached merge. One pusher bumps snapshots while two pollers poll; with
// merge_fan_in = 0 the merge runs on the polling thread, so every thread is
// visible to the scheduler. Invariants:
//   * every poll's merged tree is the merge of the snapshots at the version
//     the poll reports;
//   * the cached merge's version never decreases (a slow poll that pinned
//     an older version must not roll the cache back).
#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "aida/histogram1d.hpp"
#include "aida/tree.hpp"
#include "common/sched_test.hpp"
#include "common/strings.hpp"
#include "common/sync.hpp"
#include "services/aida_manager.hpp"

namespace {

using ipa::LockGuard;
using ipa::LockRank;
using ipa::Mutex;
using ipa::sched::Options;
using ipa::sched::Result;
using ipa::sched::Scenario;
using ipa::services::AidaManager;
using ipa::services::PushRequest;

constexpr int kPushes = 4;  // push i (1-based) is version i

/// Push i comes from engine i % 2 and fills bin i - 1 once, so a merged
/// tree's bin contents say exactly which pushes it holds.
PushRequest make_push(int i) {
  PushRequest request;
  request.session_id = "s";
  request.report.engine_id = ipa::strings::format("e%d", i % 2);
  ipa::aida::Tree tree;
  auto hist = ipa::aida::Histogram1D::create("x", kPushes, 0, kPushes);
  hist->fill(i - 0.5);
  tree.put("/x", std::move(*hist));
  request.snapshot = tree.serialize();
  return request;
}

/// Bin i - 1 holds one entry iff push i is its engine's latest at `version`.
bool holds_push(int i, std::uint64_t version) {
  return static_cast<std::uint64_t>(i) <= version && static_cast<std::uint64_t>(i + 2) > version;
}

struct World {
  AidaManager manager{/*merge_fan_in=*/0};
  PushRequest pushes[kPushes + 1];
  Mutex observe{LockRank::kUnranked, "model-observe"};
  std::uint64_t cached_high = 0;    // under observe
  std::uint64_t returned_high = 0;  // under observe: newest version a poll returned

  void poll_and_check() {
    auto poll = manager.poll("s", 0);
    ipa::sched::expect(poll.is_ok(), "poll failed: " + poll.status().to_string());
    if (!poll.is_ok() || !poll->changed) return;
    auto merged = ipa::aida::Tree::deserialize(poll->merged);
    ipa::sched::expect(merged.is_ok(), "merged tree does not decode");
    if (!merged.is_ok()) return;
    auto hist = merged->histogram1d("/x");
    const std::string at = " at version " + std::to_string(poll->version);
    if (poll->version == 0) {
      ipa::sched::expect(!hist.is_ok(), "merged tree has data" + at);
    } else {
      ipa::sched::expect(hist.is_ok(), "merged tree lacks /x" + at);
      if (!hist.is_ok()) return;
      for (int i = 1; i <= kPushes; ++i) {
        const double want = holds_push(i, poll->version) ? 1.0 : 0.0;
        ipa::sched::expect((*hist)->bin_height(i - 1) == want,
                           "push " + std::to_string(i) + " wrongly " +
                               (want == 0 ? "present" : "absent") + at);
      }
    }
    // Read and compare in one critical section, so reads are checked in
    // the order they happened.
    LockGuard lock(observe);
    const std::uint64_t cached = manager.merged_version("s");
    ipa::sched::expect(cached >= cached_high, "cached merge went back from version " +
                                                  std::to_string(cached_high) + " to " +
                                                  std::to_string(cached));
    cached_high = cached;
    returned_high = std::max(returned_high, poll->version);
  }
};

void build(Scenario& s) {
  auto world = std::make_shared<World>();
  (void)world->manager.open_session("s");
  for (int i = 1; i <= kPushes; ++i) world->pushes[i] = make_push(i);
  s.thread("pusher", [world] {
    for (int i = 1; i <= kPushes; ++i) (void)world->manager.push(world->pushes[i]);
  });
  for (const char* name : {"poller-1", "poller-2"}) {
    s.thread(name, [world] {
      world->poll_and_check();
      world->poll_and_check();
    });
  }
  // Every returned version was merged and installed, or found cached, so a
  // cache that never went back ends at least at the newest one returned.
  s.check([world] {
    const std::uint64_t cached = world->manager.merged_version("s");
    ipa::sched::expect(cached >= world->returned_high,
                       "cache ended at version " + std::to_string(cached) + ", behind version " +
                           std::to_string(world->returned_high) + " that a poll returned");
  });
}

TEST(AidaMergeModel, OffLockMergeIsExactAndNeverRollsTheCacheBack) {
  if (!ipa::sched::hooks_enabled()) GTEST_SKIP() << "IPA_SCHED_HOOKS off";
  Options opts;
  opts.iterations = 1500;
  opts.seed = 1717;
  const Result res = ipa::sched::explore(opts, build);
  EXPECT_FALSE(res.failed) << res.first_failure << " (seed " << res.failing_seed << ")";
  EXPECT_GT(res.distinct_schedules, 50);
}

}  // namespace
