// Event-driven server core: an epoll reactor with a timer wheel.
//
// The paper's interactive model only pays off when a manager node can hold
// thousands of mostly-idle analyst connections open cheaply. The worker-pool
// servers from PR 5 burn a thread per connection, so concurrency is capped
// at pool size; this module removes that wall. One loop thread multiplexes
// every connection through epoll (non-blocking sockets, level-triggered
// readiness), a hashed timer wheel reaps idle/slow peers, and an eventfd
// wakes the loop for cross-thread work. Each server keeps a ThreadPool, but
// only for CPU-bound dispatch: the reactor parses requests, workers run
// handlers, and responses come back through a per-connection write queue.
//
// Threading model (see docs/async-server.md for the full diagram):
//   - Everything registered on a Reactor (fd callbacks, timers, posted fns)
//     runs on the reactor's single loop thread; callbacks never race each
//     other and need no locks for loop-thread-only state.
//   - Registration/cancellation and Stream::send/close are thread-safe and
//     may be called from any thread (worker pools, tests).
//   - Lock ranks: kReactor guards the fd/timer tables, kReactorStream each
//     stream's write buffer. A stream may arm the reactor while holding its
//     own lock (rank 72 < 74); the reactor never takes a stream lock while
//     holding its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/sync.hpp"
#include "net/socket_io.hpp"

namespace ipa::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace ipa::obs

namespace ipa::net {

/// Tuning for one reactor instance.
struct ReactorOptions {
  std::string name = "reactor";  // metrics label ipa_reactor_*{reactor=name}
  double tick_s = 0.02;          // timer wheel granularity
  std::size_t wheel_slots = 256; // hashed one-level wheel; deadlines beyond
                                 // one revolution stay parked via rounds
};

/// Single-threaded epoll event loop with cross-thread registration.
class Reactor {
 public:
  /// Called on the loop thread with the ready epoll event mask.
  using EventFn = std::function<void(std::uint32_t events)>;
  using TimerFn = std::function<void()>;

  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Create the epoll/eventfd pair and start the loop thread.
  Status start();
  /// Stop and join the loop; pending callbacks are dropped, registered fds
  /// are NOT closed (their owners close them). Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Watch `fd` for `events` (EPOLLIN/EPOLLOUT/...). The fd must outlive the
  /// registration; the callback fires on the loop thread. Returns a token
  /// for modify/remove. Thread-safe.
  Result<std::uint64_t> add_fd(int fd, std::uint32_t events, EventFn fn);
  /// Replace the interest mask for a registration. Thread-safe.
  Status modify_fd(std::uint64_t token, std::uint32_t events);
  /// Unregister. After return no *new* dispatch starts for the token; a
  /// callback already running on the loop thread may still complete (call
  /// from the loop thread itself for synchronous certainty). Thread-safe.
  void remove_fd(std::uint64_t token);

  /// One-shot timer `delay_s` from now (coarsened to tick_s). Returns an id
  /// for cancel_timer. Thread-safe.
  std::uint64_t add_timer(double delay_s, TimerFn fn);
  void cancel_timer(std::uint64_t id);

  /// Run `fn` on the loop thread as soon as possible. Thread-safe; fns run
  /// in post order. Posted fns are dropped (destroyed unrun) after stop().
  void post(std::function<void()> fn);

  bool on_loop_thread() const;

  const ReactorOptions& options() const { return options_; }

  /// Aggregate unflushed write-queue bytes across this reactor's streams
  /// (`ipa_reactor_write_queue_bytes{reactor=...}`). Streams add/subtract
  /// as their buffers grow and drain. Null until start().
  obs::Gauge* write_queue_gauge() const { return write_queue_gauge_; }

 private:
  struct FdEntry {
    int fd = -1;
    std::uint32_t events = 0;
    EventFn fn;
    std::atomic<bool> dead{false};
  };
  struct Timer {
    std::uint64_t id = 0;
    double deadline = 0;  // WallClock seconds
    TimerFn fn;
  };

  void loop();
  void drain_wakeup();
  void run_posted();
  void fire_due_timers(double now);
  /// epoll_wait timeout that sleeps until the next occupied wheel slot.
  int timer_wait_ms(double now) const IPA_REQUIRES(mutex_);
  void wake();

  ReactorOptions options_;
  Fd epoll_fd_;
  Fd wake_fd_;
  std::jthread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<const void*> loop_thread_id_{nullptr};
  obs::Histogram* loop_hist_ = nullptr;  // dispatch latency per busy iteration
  obs::Gauge* loop_lag_gauge_ = nullptr;     // latest busy-iteration dispatch time
  obs::Histogram* timer_lag_hist_ = nullptr; // fire time minus deadline per timer
  obs::Gauge* write_queue_gauge_ = nullptr;  // sum of stream output buffers

  mutable Mutex mutex_{LockRank::kReactor, "reactor"};
  std::uint64_t next_token_ IPA_GUARDED_BY(mutex_) = 1;
  std::map<std::uint64_t, std::shared_ptr<FdEntry>> fds_ IPA_GUARDED_BY(mutex_);
  std::uint64_t next_timer_id_ IPA_GUARDED_BY(mutex_) = 1;
  std::vector<std::vector<Timer>> wheel_ IPA_GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::size_t> timer_slot_ IPA_GUARDED_BY(mutex_);
  std::uint64_t last_tick_ IPA_GUARDED_BY(mutex_) = 0;
  std::size_t timer_count_ IPA_GUARDED_BY(mutex_) = 0;
  std::vector<std::function<void()>> posted_ IPA_GUARDED_BY(mutex_);
};

/// Per-connection knobs for reactor-managed byte streams.
struct StreamOptions {
  /// Reap the connection when no bytes arrive for this long (0 = never).
  /// This is the slow-loris / half-open defence: a peer dribbling header
  /// bytes or silently vanishing holds memory, not a thread, and is closed
  /// on schedule.
  double idle_timeout_s = 0;
  /// Close the connection if the peer accumulates this much unconsumed
  /// input (the parser refusing to consume means framing overflow).
  std::size_t max_input_bytes = 80u << 20;
};

/// A non-blocking buffered byte stream owned by a Reactor.
///
/// Reading: the reactor appends incoming bytes to an input buffer and calls
/// `on_data` (loop thread) — the callback consumes what it can from the
/// buffer in place and returns ok to keep reading, or an error to close.
/// Writing: send() from any thread appends to the write queue and flushes
/// opportunistically; the reactor drains the rest on EPOLLOUT.
/// `on_close` fires exactly once, on the loop thread, after the fd closes.
class Stream : public std::enable_shared_from_this<Stream> {
 public:
  using DataFn = std::function<Status(std::string& input)>;
  using CloseFn = std::function<void()>;

  /// Take ownership of a connected non-blocking fd and register it. Must be
  /// called with the reactor running.
  static Result<std::shared_ptr<Stream>> adopt(Reactor& reactor, Fd fd, std::string peer,
                                               StreamOptions options, DataFn on_data,
                                               CloseFn on_close);
  ~Stream();

  /// Queue bytes for writing. Thread-safe; frames from concurrent senders
  /// never interleave. With close_after set the connection closes once the
  /// bytes (and everything queued before them) hit the wire.
  void send(std::string bytes, bool close_after = false);

  /// Close from any thread. on_close fires on the loop thread.
  void close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  const std::string& peer() const { return peer_; }

 private:
  Stream(Reactor& reactor, Fd fd, std::string peer, StreamOptions options, DataFn on_data,
         CloseFn on_close);

  void handle_events(std::uint32_t events);  // loop thread
  void handle_readable();                    // loop thread
  bool flush_locked() IPA_REQUIRES(mutex_);  // returns false on fatal error
  /// Account an output_ size change on the reactor's write-queue gauge.
  void note_queue_delta(std::size_t before, std::size_t after);
  void arm_idle_timer();                     // loop thread
  void close_on_loop();                      // loop thread
  void request_close();                      // any thread

  Reactor& reactor_;
  const std::string peer_;
  const StreamOptions options_;
  DataFn on_data_;    // loop thread only
  CloseFn on_close_;  // loop thread only, fired once
  std::string input_;           // loop thread only
  std::uint64_t token_ = 0;     // set once at adopt
  std::uint64_t idle_timer_ = 0;  // loop thread only
  double last_activity_ = 0;      // loop thread only (WallClock seconds)
  std::atomic<bool> closed_{false};

  mutable Mutex mutex_{LockRank::kReactorStream, "reactor-stream"};
  Fd fd_ IPA_GUARDED_BY(mutex_);  // reset under the lock so racing senders miss it
  std::string output_ IPA_GUARDED_BY(mutex_);
  bool want_write_ IPA_GUARDED_BY(mutex_) = false;  // EPOLLOUT armed
  bool close_after_flush_ IPA_GUARDED_BY(mutex_) = false;
  bool close_requested_ IPA_GUARDED_BY(mutex_) = false;
};

/// Put a connected socket into non-blocking mode (O_NONBLOCK).
Status set_nonblocking(int fd);

}  // namespace ipa::net
