#include "net/reactor.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ipa::net {

namespace {

/// The wakeup eventfd rides in the epoll set under this reserved token.
constexpr std::uint64_t kWakeToken = 0;

/// Upper bound on one epoll_wait sleep; bounds stop() latency even if the
/// eventfd write is lost to a racing close.
constexpr int kMaxWaitMs = 200;

/// Loop-thread identity: each loop stores the address of its thread's
/// instance of this variable, so the check costs one atomic load. Must be a
/// single variable shared by loop() and on_loop_thread() — two function-local
/// thread_locals would have different addresses in the same thread.
thread_local int t_loop_marker = 0;

}  // namespace

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status("reactor: fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return errno_status("reactor: fcntl(F_SETFL)");
  }
  return Status::ok();
}

Reactor::Reactor(ReactorOptions options) : options_(std::move(options)) {
  if (options_.tick_s <= 0) options_.tick_s = 0.02;
  if (options_.wheel_slots == 0) options_.wheel_slots = 256;
}

Reactor::~Reactor() { stop(); }

Status Reactor::start() {
  if (running_.load()) return Status::ok();
  stopping_.store(false);
  epoll_fd_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return errno_status("reactor: epoll_create1");
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) return errno_status("reactor: eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    return errno_status("reactor: epoll_ctl(wakeup)");
  }
  {
    LockGuard lock(mutex_);
    wheel_.assign(options_.wheel_slots, {});
    timer_slot_.clear();
    timer_count_ = 0;
    last_tick_ =
        static_cast<std::uint64_t>(WallClock::instance().now() / options_.tick_s);
  }
  loop_hist_ = &obs::Registry::global().histogram(
      "ipa_reactor_loop_seconds", {{"reactor", options_.name}},
      obs::default_latency_bounds(),
      "Reactor loop dispatch latency per busy iteration (events + timers + posted ops).");
  loop_lag_gauge_ = &obs::Registry::global().gauge(
      "ipa_reactor_loop_lag_seconds", {{"reactor", options_.name}},
      "Dispatch time of the most recent busy loop iteration — how long ready "
      "events waited on earlier callbacks this pass.");
  timer_lag_hist_ = &obs::Registry::global().histogram(
      "ipa_reactor_timer_lag_seconds", {{"reactor", options_.name}},
      obs::default_latency_bounds(),
      "How late timers fired past their deadline (wheel granularity + loop stalls).");
  write_queue_gauge_ = &obs::Registry::global().gauge(
      "ipa_reactor_write_queue_bytes", {{"reactor", options_.name}},
      "Unflushed bytes across all stream write queues on this reactor.");
  running_.store(true, std::memory_order_release);
  thread_ = std::jthread([this] { loop(); });
  return Status::ok();
}

void Reactor::stop() {
  if (!running_.load() && !thread_.joinable()) return;
  stopping_.store(true);
  wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  // Break callback-capture cycles (Stream shared_ptrs live in FdEntry fns
  // and timer closures); owners still close their own fds.
  std::map<std::uint64_t, std::shared_ptr<FdEntry>> fds;
  std::vector<std::vector<Timer>> wheel;
  std::vector<std::function<void()>> posted;
  {
    LockGuard lock(mutex_);
    fds.swap(fds_);
    wheel.swap(wheel_);
    timer_slot_.clear();
    timer_count_ = 0;
    posted.swap(posted_);
  }
  epoll_fd_.reset();
  wake_fd_.reset();
}

bool Reactor::on_loop_thread() const {
  return loop_thread_id_.load(std::memory_order_acquire) == &t_loop_marker;
}

void Reactor::wake() {
  if (!wake_fd_.valid()) return;
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_.get(), &one, sizeof one);
}

Result<std::uint64_t> Reactor::add_fd(int fd, std::uint32_t events, EventFn fn) {
  auto entry = std::make_shared<FdEntry>();
  entry->fd = fd;
  entry->events = events;
  entry->fn = std::move(fn);
  std::uint64_t token = 0;
  {
    LockGuard lock(mutex_);
    token = next_token_++;
    fds_[token] = entry;
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    const Status status = errno_status("reactor: epoll_ctl(add)");
    LockGuard lock(mutex_);
    fds_.erase(token);
    return status;
  }
  return token;
}

Status Reactor::modify_fd(std::uint64_t token, std::uint32_t events) {
  int fd = -1;
  {
    LockGuard lock(mutex_);
    const auto it = fds_.find(token);
    if (it == fds_.end()) return not_found("reactor: unknown fd token");
    it->second->events = events;
    fd = it->second->fd;
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    return errno_status("reactor: epoll_ctl(mod)");
  }
  return Status::ok();
}

void Reactor::remove_fd(std::uint64_t token) {
  std::shared_ptr<FdEntry> entry;
  {
    LockGuard lock(mutex_);
    const auto it = fds_.find(token);
    if (it == fds_.end()) return;
    entry = it->second;
    fds_.erase(it);
  }
  entry->dead.store(true, std::memory_order_release);
  (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, entry->fd, nullptr);
}

std::uint64_t Reactor::add_timer(double delay_s, TimerFn fn) {
  const double now = WallClock::instance().now();
  const double deadline = now + (delay_s < 0 ? 0 : delay_s);
  std::uint64_t id = 0;
  {
    LockGuard lock(mutex_);
    id = next_timer_id_++;
    // File at the tick that STARTS at/after the deadline (ceil, not floor):
    // slot N is swept once the clock passes N*tick_s, so a floor'd index
    // would be scanned up to one tick early, find the timer not yet due,
    // and strand it for a full wheel revolution. Never file into an
    // already-scanned slot either: a deadline at/before the current tick
    // lands in the next one so the coming sweep fires it.
    std::uint64_t tick = static_cast<std::uint64_t>(std::ceil(deadline / options_.tick_s));
    if (tick <= last_tick_) tick = last_tick_ + 1;
    const std::size_t slot = static_cast<std::size_t>(tick % wheel_.size());
    wheel_[slot].push_back(Timer{id, deadline, std::move(fn)});
    timer_slot_[id] = slot;
    ++timer_count_;
  }
  wake();  // the loop may be parked past this deadline
  return id;
}

void Reactor::cancel_timer(std::uint64_t id) {
  LockGuard lock(mutex_);
  const auto it = timer_slot_.find(id);
  if (it == timer_slot_.end()) return;
  auto& bucket = wheel_[it->second];
  for (auto t = bucket.begin(); t != bucket.end(); ++t) {
    if (t->id == id) {
      bucket.erase(t);
      --timer_count_;
      break;
    }
  }
  timer_slot_.erase(it);
}

void Reactor::post(std::function<void()> fn) {
  {
    LockGuard lock(mutex_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void Reactor::drain_wakeup() {
  std::uint64_t value = 0;
  while (::read(wake_fd_.get(), &value, sizeof value) > 0) {
  }
}

void Reactor::run_posted() {
  std::vector<std::function<void()>> batch;
  {
    LockGuard lock(mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void Reactor::fire_due_timers(double now) {
  std::vector<Timer> due;
  {
    LockGuard lock(mutex_);
    if (timer_count_ == 0) {
      last_tick_ = static_cast<std::uint64_t>(now / options_.tick_s);
      return;
    }
    const std::uint64_t now_tick = static_cast<std::uint64_t>(now / options_.tick_s);
    if (now_tick <= last_tick_) return;
    // One sweep per elapsed tick; a long stall scans each slot at most once.
    const std::uint64_t span =
        std::min<std::uint64_t>(now_tick - last_tick_, wheel_.size());
    for (std::uint64_t i = 1; i <= span; ++i) {
      auto& bucket = wheel_[static_cast<std::size_t>((last_tick_ + i) % wheel_.size())];
      for (std::size_t j = 0; j < bucket.size();) {
        if (bucket[j].deadline <= now) {
          timer_slot_.erase(bucket[j].id);
          due.push_back(std::move(bucket[j]));
          bucket[j] = std::move(bucket.back());
          bucket.pop_back();
          --timer_count_;
        } else {
          ++j;  // a later revolution's timer
        }
      }
    }
    last_tick_ = now_tick;
  }
  for (auto& timer : due) {
    if (timer_lag_hist_ != nullptr && now > timer.deadline) {
      timer_lag_hist_->observe(now - timer.deadline);
    }
    timer.fn();
  }
}

int Reactor::timer_wait_ms(double now) const {
  // Sleep past empty slots to the next occupied one; add_timer() wakes the
  // loop for anything earlier.
  std::size_t ahead = 1;
  while (ahead < wheel_.size() && wheel_[(last_tick_ + ahead) % wheel_.size()].empty()) ++ahead;
  const double due_s = static_cast<double>(last_tick_ + ahead) * options_.tick_s;
  return std::clamp(static_cast<int>(std::ceil((due_s - now) * 1000.0)), 1, kMaxWaitMs);
}

void Reactor::loop() {
  loop_thread_id_.store(&t_loop_marker, std::memory_order_release);
  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    int timeout_ms = kMaxWaitMs;
    {
      LockGuard lock(mutex_);
      if (timer_count_ > 0) timeout_ms = timer_wait_ms(WallClock::instance().now());
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (stopping_.load()) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      IPA_LOG(warn) << "reactor '" << options_.name
                    << "': epoll_wait: " << std::strerror(errno);
      break;
    }
    const double t0 = WallClock::instance().now();
    bool busy = false;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = events[static_cast<std::size_t>(i)].data.u64;
      if (token == kWakeToken) {
        drain_wakeup();
        continue;
      }
      std::shared_ptr<FdEntry> entry;
      {
        LockGuard lock(mutex_);
        const auto it = fds_.find(token);
        if (it != fds_.end()) entry = it->second;
      }
      if (!entry || entry->dead.load(std::memory_order_acquire)) continue;
      busy = true;
      entry->fn(events[static_cast<std::size_t>(i)].events);
    }
    run_posted();
    fire_due_timers(WallClock::instance().now());
    if (busy && loop_hist_ != nullptr) {
      const double dispatch_s = WallClock::instance().now() - t0;
      loop_hist_->observe(dispatch_s);
      // Gauge, not histogram: "is the loop lagging right now" is the
      // operator question; the distribution already lives in loop_seconds.
      if (loop_lag_gauge_ != nullptr) loop_lag_gauge_->set(dispatch_s);
    }
    if (n == static_cast<int>(events.size()) && events.size() < 4096) {
      events.resize(events.size() * 2);
    }
  }
  loop_thread_id_.store(nullptr, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

Stream::Stream(Reactor& reactor, Fd fd, std::string peer, StreamOptions options,
               DataFn on_data, CloseFn on_close)
    : reactor_(reactor),
      peer_(std::move(peer)),
      options_(options),
      on_data_(std::move(on_data)),
      on_close_(std::move(on_close)),
      fd_(std::move(fd)) {}

Stream::~Stream() = default;

Result<std::shared_ptr<Stream>> Stream::adopt(Reactor& reactor, Fd fd, std::string peer,
                                              StreamOptions options, DataFn on_data,
                                              CloseFn on_close) {
  if (!reactor.running()) return failed_precondition("reactor not running");
  IPA_RETURN_IF_ERROR(set_nonblocking(fd.get()));
  const int raw = fd.get();
  std::shared_ptr<Stream> stream(new Stream(reactor, std::move(fd), std::move(peer),
                                            options, std::move(on_data),
                                            std::move(on_close)));
  stream->last_activity_ = WallClock::instance().now();
  auto token = reactor.add_fd(raw, EPOLLIN | EPOLLRDHUP,
                              [stream](std::uint32_t events) { stream->handle_events(events); });
  IPA_RETURN_IF_ERROR(token.status());
  stream->token_ = *token;
  obs::flight(obs::FlightKind::kConn, "conn.open", stream->peer_);
  if (options.idle_timeout_s > 0) {
    // Armed from the adopting thread; the callback itself runs on the loop
    // thread, which owns all further re-arms.
    std::shared_ptr<Stream> self = stream;
    stream->idle_timer_ = reactor.add_timer(options.idle_timeout_s, [self] {
      self->arm_idle_timer();
    });
  }
  return stream;
}

void Stream::send(std::string bytes, bool close_after) {
  bool fatal = false;
  bool flushed_close = false;
  {
    UniqueLock lock(mutex_);
    if (closed_.load(std::memory_order_acquire) || close_requested_ || !fd_.valid()) {
      return;
    }
    if (close_after) close_after_flush_ = true;
    const std::size_t before = output_.size();
    output_ += bytes;
    fatal = !flush_locked();
    note_queue_delta(before, output_.size());
    if (!fatal) {
      if (output_.empty()) {
        flushed_close = close_after_flush_;
      } else if (!want_write_) {
        want_write_ = true;
        // kReactor (72) under kReactorStream (74): rank-ordered by design.
        (void)reactor_.modify_fd(token_, EPOLLIN | EPOLLRDHUP | EPOLLOUT);
      }
    }
  }
  if (fatal || flushed_close) request_close();
}

void Stream::note_queue_delta(std::size_t before, std::size_t after) {
  if (before == after) return;
  obs::Gauge* gauge = reactor_.write_queue_gauge();
  if (gauge != nullptr) {
    gauge->add(static_cast<double>(after) - static_cast<double>(before));
  }
}

bool Stream::flush_locked() {
  while (!output_.empty()) {
    const ssize_t n =
        ::send(fd_.get(), output_.data(), output_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      output_.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone
  }
  return true;
}

void Stream::handle_events(std::uint32_t events) {
  if (closed_.load(std::memory_order_acquire)) return;
  if ((events & EPOLLOUT) != 0) {
    bool fatal = false;
    bool flushed_close = false;
    {
      UniqueLock lock(mutex_);
      if (!fd_.valid()) return;
      const std::size_t before = output_.size();
      fatal = !flush_locked();
      note_queue_delta(before, output_.size());
      if (!fatal && output_.empty()) {
        flushed_close = close_after_flush_;
        if (want_write_) {
          want_write_ = false;
          (void)reactor_.modify_fd(token_, EPOLLIN | EPOLLRDHUP);
        }
      }
    }
    if (fatal || flushed_close) {
      close_on_loop();
      return;
    }
  }
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    handle_readable();
  }
}

void Stream::handle_readable() {
  char chunk[16 * 1024];
  bool peer_closed = false;
  for (;;) {
    int fd = -1;
    {
      LockGuard lock(mutex_);
      fd = fd_.get();
    }
    if (fd < 0) return;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      input_.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // ECONNRESET and friends
    break;
  }
  if (!input_.empty()) {
    last_activity_ = WallClock::instance().now();
    const Status consumed = on_data_ ? on_data_(input_) : Status::ok();
    if (!consumed.is_ok()) {
      IPA_LOG(debug) << "stream " << peer_ << ": " << consumed.to_string();
      close_on_loop();
      return;
    }
    if (input_.size() > options_.max_input_bytes) {
      IPA_LOG(warn) << "stream " << peer_ << ": input buffer overflow, closing";
      close_on_loop();
      return;
    }
  }
  if (peer_closed) {
    // Flush anything already queued (a final response racing the peer's
    // half-close), then tear down.
    close_on_loop();
  }
}

void Stream::arm_idle_timer() {
  if (closed_.load(std::memory_order_acquire)) return;
  const double now = WallClock::instance().now();
  const double idle = now - last_activity_;
  if (idle + 1e-9 >= options_.idle_timeout_s) {
    obs::Registry::global()
        .counter("ipa_reactor_idle_reaped_total",
                 {{"reactor", reactor_.options().name}},
                 "Connections closed by the reactor idle timeout (slow-loris / "
                 "half-open defence).")
        .inc();
    obs::flight(obs::FlightKind::kConn, "conn.idle_reap", peer_);
    IPA_LOG(debug) << "stream " << peer_ << ": idle " << idle << "s, reaping";
    close_on_loop();
    return;
  }
  std::shared_ptr<Stream> self = shared_from_this();
  idle_timer_ = reactor_.add_timer(options_.idle_timeout_s - idle,
                                   [self] { self->arm_idle_timer(); });
}

void Stream::request_close() {
  {
    LockGuard lock(mutex_);
    if (close_requested_) return;
    close_requested_ = true;
  }
  std::shared_ptr<Stream> self = shared_from_this();
  if (reactor_.on_loop_thread()) {
    self->close_on_loop();
  } else {
    reactor_.post([self] { self->close_on_loop(); });
  }
}

void Stream::close() { request_close(); }

void Stream::close_on_loop() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  reactor_.remove_fd(token_);
  if (idle_timer_ != 0) {
    reactor_.cancel_timer(idle_timer_);
    idle_timer_ = 0;
  }
  {
    LockGuard lock(mutex_);
    // Best-effort final flush (non-blocking): lets a 400/503 with
    // Connection: close reach the peer before the FIN.
    const std::size_t before = output_.size();
    (void)flush_locked();
    fd_.reset();
    output_.clear();
    note_queue_delta(before, 0);
  }
  obs::flight(obs::FlightKind::kConn, "conn.close", peer_);
  CloseFn on_close;
  on_close.swap(on_close_);
  on_data_ = nullptr;  // break capture cycles through the fd entry
  if (on_close) on_close();
}

}  // namespace ipa::net
