// Server request dispatch onto a ThreadPool (common/thread_pool.hpp).
//
// Connections live on a server's reactor (net/acceptor.hpp) and cost no
// thread. What reaches the server's pool is work: one parsed request (an
// HTTP request, an RPC call frame) per task. When the pool's queue is full
// the request is rejected and counted so the server can answer it with an
// explicit 503 / RESOURCE_EXHAUSTED.
//
// Observability: `ipa_server_accept_queue_depth{server=...}` gauges the
// queued backlog, `ipa_server_overflow_total{server=...}` counts rejected
// requests, and `ipa_server_queue_delay_seconds{server=...}` is the
// enqueue->dispatch histogram — time an admitted request sat in the queue
// before a worker picked it up, the direct measure of pool saturation.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ipa::net {

/// Sizing knobs for a server's dispatch pool. Tasks are parsed requests and
/// nothing holds a worker beyond one handler run, so max_workers bounds
/// concurrent handler executions, not connections.
struct ServerPoolOptions {
  std::size_t max_workers = 64;    // concurrent handler executions
  std::size_t queue_capacity = 128;  // parsed requests, not yet picked up
  /// Reap connections idle for this long. 0 picks a server-specific default
  /// (HTTP ~75s, RPC ~600s); negative disables reaping entirely.
  double idle_timeout_s = 0;
};

/// One server's dispatch metrics, labelled {server=...}.
class ServerPoolStats {
 public:
  /// `server` labels the metrics (e.g. "http", "rpc").
  explicit ServerPoolStats(std::string server)
      : name_(std::move(server)),
        depth_(obs::Registry::global().gauge(
            "ipa_server_accept_queue_depth", {{"server", name_}},
            "Parsed requests waiting for a server worker, by server kind.")),
        overflow_(obs::Registry::global().counter(
            "ipa_server_overflow_total", {{"server", name_}},
            "Requests rejected because the server's work queue was full.")),
        queue_delay_(obs::Registry::global().histogram(
            "ipa_server_queue_delay_seconds", {{"server", name_}},
            obs::default_latency_bounds(),
            "Time admitted items spent queued before a worker picked them up, "
            "by server kind.")) {}

  /// Offer one request's work to `pool` without blocking. kSaturated bumps
  /// the overflow counter and records a `pool.saturated` flight event.
  template <typename F>
  Admission admit(ThreadPool& pool, F&& run) {
    std::function<void()> task = [&pool, &depth = depth_, &delay = queue_delay_,
                                  enqueued_s = WallClock::instance().now(),
                                  run = std::forward<F>(run)]() mutable {
      delay.observe(WallClock::instance().now() - enqueued_s);
      depth.set(static_cast<double>(pool.queued()));
      run();
    };
    const Admission admission = pool.try_post(task);
    if (admission == Admission::kAdmitted) {
      depth_.set(static_cast<double>(pool.queued()));
    } else if (admission == Admission::kSaturated) {
      overflow_.inc();
      obs::flight(obs::FlightKind::kConn, "pool.saturated", name_);
    }
    return admission;
  }

 private:
  const std::string name_;
  obs::Gauge& depth_;
  obs::Counter& overflow_;
  obs::Histogram& queue_delay_;
};

}  // namespace ipa::net
