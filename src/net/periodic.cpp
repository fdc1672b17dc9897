#include "net/periodic.hpp"

#include <atomic>
#include <cmath>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "net/reactor.hpp"

namespace ipa::net {
namespace {

constexpr unsigned kQueued = 1, kRunning = 2, kCancelled = 4;  // State::flags

Reactor& timer_wheel() {
  struct Wheel {
    Reactor reactor{ReactorOptions{"site-timers", 0.001, 256}};
    Wheel() {
      (void)site_pool();  // constructed first, so destroyed after the wheel
      if (!reactor.start().is_ok()) IPA_LOG(error) << "site timers: reactor did not start";
    }
  };
  static Wheel wheel;
  return wheel.reactor;
}

thread_local const void* t_running_job = nullptr;  // State whose fn this thread runs

}  // namespace

struct PeriodicJob::State {
  std::function<void()> fn;
  double period_s = 0;
  double next_s = 0;  // the coming tick's deadline
  std::atomic<std::uint64_t> timer{0};
  std::atomic<unsigned> flags{0};

  /// File the next tick at the first deadline on the schedule still ahead.
  static void arm(const std::shared_ptr<State>& state) {
    const double now = WallClock::instance().now();
    if (state->next_s <= now) {
      state->next_s += state->period_s * (std::floor((now - state->next_s) / state->period_s) + 1);
    }
    const auto id = timer_wheel().add_timer(state->next_s - now, [state] { tick(state); });
    state->timer.store(id);
    if (state->flags.load() & kCancelled) timer_wheel().cancel_timer(id);  // cancel() missed it
  }

  static void tick(const std::shared_ptr<State>& state) {  // on the wheel's loop thread
    if (state->flags.load() & kCancelled) return;
    arm(state);
    unsigned idle = 0;
    if (!state->flags.compare_exchange_strong(idle, kQueued)) return;  // skip this tick
    site_pool().post([state] {
      unsigned queued = kQueued;
      if (!state->flags.compare_exchange_strong(queued, kRunning)) return;  // cancelled
      t_running_job = state.get();
      state->fn();
      t_running_job = nullptr;
      state->flags.fetch_and(~kRunning);
      state->flags.notify_all();
    });
  }
};

void PeriodicJob::start(double period_s, std::function<void()> fn) {
  static std::atomic<std::uint64_t> started{0};
  // Golden-ratio phases spread jobs started together over the period.
  const double phase = std::fmod(static_cast<double>(started.fetch_add(1)) * 0.6180339887, 1.0);
  auto state = std::make_shared<State>();
  state->fn = std::move(fn);
  state->period_s = period_s;
  state->next_s = WallClock::instance().now() + period_s * (1.0 + phase);
  state_ = state;
  State::arm(state);  // not state_: a run may cancel() and reset it meanwhile
}

void PeriodicJob::cancel() {
  if (!state_) return;
  state_->flags.fetch_or(kCancelled);
  timer_wheel().cancel_timer(state_->timer.load());
  if (t_running_job != state_.get()) {  // a run cancelling its own job must not wait
    for (unsigned f = state_->flags.load(); f & kRunning; f = state_->flags.load()) {
      state_->flags.wait(f);
    }
  }
  state_.reset();
}

}  // namespace ipa::net
