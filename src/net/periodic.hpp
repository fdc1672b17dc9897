// Periodic background jobs on the site pool. One process-wide timer wheel
// (a Reactor named "site-timers", created after site_pool() so it stops
// first) hands each due run to site_pool(): a heartbeat or a dead-engine
// scan holds a pool thread only while it runs.
//
// A job runs at most once at a time. A tick that finds the last run still
// queued or running is skipped, not caught up, so a stalled run is never
// followed by a burst. Ticks keep the job's own schedule (first tick + k *
// period, within the wheel's 1 ms tick), and each job's first tick gets its
// own phase so jobs started together do not fire together.
#pragma once

#include <functional>
#include <memory>

namespace ipa::net {

class PeriodicJob {
 public:
  PeriodicJob() = default;
  PeriodicJob(const PeriodicJob&) = delete;
  PeriodicJob& operator=(const PeriodicJob&) = delete;
  ~PeriodicJob() { cancel(); }

  /// Run `fn` on the site pool every `period_s` seconds, the first run one
  /// to two periods from now. Call at most once.
  void start(double period_s, std::function<void()> fn);

  /// Stop. Waits for a run in progress (unless called from it), never for a
  /// queued one, which returns without calling fn. Idempotent.
  void cancel();

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace ipa::net
