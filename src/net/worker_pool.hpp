// Bounded worker pool for server request dispatch.
//
// Connections live on a server's reactor (net/acceptor.hpp) and cost no
// thread. What reaches this pool is work: one parsed request (an HTTP
// request, an RPC call frame) per item. Items enter a bounded queue,
// workers are spawned lazily up to a configurable cap, and when the queue
// is full the item is rejected and counted so the server can answer it
// with an explicit 503 / RESOURCE_EXHAUSTED.
//
// Observability: `ipa_server_accept_queue_depth{server=...}` gauges the
// queued backlog, `ipa_server_overflow_total{server=...}` counts rejected
// items, and `ipa_server_queue_delay_seconds{server=...}` is the
// enqueue->dispatch histogram — time an admitted item sat in the queue
// before a worker picked it up, the direct measure of pool saturation.
#pragma once

#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/mpmc_queue.hpp"
#include "common/sync.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ipa::net {

/// Sizing knobs for a server's worker pool. Items are parsed requests and
/// nothing holds a worker beyond one handler run, so max_workers bounds
/// concurrent handler executions, not connections.
struct ServerPoolOptions {
  std::size_t max_workers = 64;    // concurrent handler executions
  std::size_t queue_capacity = 128;  // parsed requests, not yet picked up
  /// Reap connections idle for this long. 0 picks a server-specific default
  /// (HTTP ~75s, RPC ~600s); negative disables reaping entirely.
  double idle_timeout_s = 0;
};

/// Outcome of handing a parsed request to the pool. Saturation and
/// shutdown are distinct so servers can answer a saturated client with an
/// explicit 503/RESOURCE_EXHAUSTED instead of a silent close.
enum class Admission {
  kAdmitted,   // queued; a worker will serve it
  kSaturated,  // accept queue full — tell the client to back off and retry
  kStopped,    // pool shutting down — just close
};

/// Fixed-capacity worker pool: items (parsed requests) enter a bounded
/// queue; workers are spawned on demand up to `max_workers` and live until
/// stop(), which drains what is queued.
template <typename Item>
class ServerWorkerPool {
 public:
  /// `server` labels the pool's metrics (e.g. "http", "rpc").
  ServerWorkerPool(const std::string& server, ServerPoolOptions options,
                   std::function<void(Item)> handler)
      : name_(server),
        options_(sanitize(options)),
        handler_(std::move(handler)),
        queue_(options_.queue_capacity),
        depth_(obs::Registry::global().gauge(
            "ipa_server_accept_queue_depth", {{"server", server}},
            "Parsed requests waiting for a server worker, by server kind.")),
        overflow_(obs::Registry::global().counter(
            "ipa_server_overflow_total", {{"server", server}},
            "Requests rejected because the server's work queue was full.")),
        queue_delay_(obs::Registry::global().histogram(
            "ipa_server_queue_delay_seconds", {{"server", server}},
            obs::default_latency_bounds(),
            "Time admitted items spent queued before a worker picked them up, "
            "by server kind.")) {}

  ~ServerWorkerPool() { stop(); }

  ServerWorkerPool(const ServerWorkerPool&) = delete;
  ServerWorkerPool& operator=(const ServerWorkerPool&) = delete;

  /// Hand one item to the pool. The item is consumed only on kAdmitted; on
  /// kSaturated (overflow counter bumped) and kStopped the caller still owns
  /// it and must answer the request itself.
  Admission submit(Item& item) {
    {
      LockGuard lock(mutex_);
      if (stopping_) return Admission::kStopped;
      // Grow lazily: spawn another worker only when the idle ones are all
      // spoken for by items already queued (an idle worker that has not yet
      // popped an earlier item is not free for this one), and the cap
      // allows it. This reaches max_workers under sustained load but stays
      // small for a test server handling one client.
      if (idle_ <= pending_ && workers_.size() < options_.max_workers) {
        workers_.emplace_back([this] { worker_loop(); });
      }
      ++pending_;
    }
    Timed entry{WallClock::instance().now(), std::move(item)};
    if (!queue_.try_push(std::move(entry))) {
      {
        LockGuard lock(mutex_);
        --pending_;
      }
      item = std::move(entry.item);  // rejection hands the item back
      overflow_.inc();
      obs::flight(obs::FlightKind::kConn, "pool.saturated", name_);
      return Admission::kSaturated;
    }
    depth_.set(static_cast<double>(queue_.size()));
    return Admission::kAdmitted;
  }

  /// Convenience for callers that don't need the item back on rejection
  /// (tests, fire-and-forget payloads).
  Admission submit(Item&& item) { return submit(item); }

  /// Close the queue and join every worker. Already-queued items are still
  /// handed to handlers. Idempotent.
  void stop() {
    std::vector<std::jthread> to_join;
    {
      LockGuard lock(mutex_);
      stopping_ = true;
      to_join.swap(workers_);
    }
    queue_.close();
    to_join.clear();  // joins
    depth_.set(0);
  }

  std::size_t worker_count() const {
    LockGuard lock(mutex_);
    return workers_.size();
  }

  std::size_t max_workers() const { return options_.max_workers; }

 private:
  static ServerPoolOptions sanitize(ServerPoolOptions options) {
    if (options.max_workers == 0) options.max_workers = 1;
    if (options.queue_capacity == 0) options.queue_capacity = 1;
    return options;
  }

  /// Queue entry: the item plus its admission time, so the pop side can
  /// histogram the enqueue->dispatch delay.
  struct Timed {
    double enqueued_s = 0;  // WallClock seconds
    Item item;
  };

  void worker_loop() {
    while (true) {
      {
        LockGuard lock(mutex_);
        ++idle_;
      }
      std::optional<Timed> entry = queue_.pop();
      {
        LockGuard lock(mutex_);
        --idle_;
        if (entry) --pending_;
      }
      if (!entry) return;  // queue closed and drained
      queue_delay_.observe(WallClock::instance().now() - entry->enqueued_s);
      depth_.set(static_cast<double>(queue_.size()));
      handler_(std::move(entry->item));
    }
  }

  const std::string name_;
  const ServerPoolOptions options_;
  const std::function<void(Item)> handler_;
  MpmcQueue<Timed> queue_;
  obs::Gauge& depth_;
  obs::Counter& overflow_;
  obs::Histogram& queue_delay_;
  mutable Mutex mutex_{LockRank::kWorkerPool, "server-worker-pool"};
  std::vector<std::jthread> workers_ IPA_GUARDED_BY(mutex_);
  std::size_t idle_ IPA_GUARDED_BY(mutex_) = 0;
  std::size_t pending_ IPA_GUARDED_BY(mutex_) = 0;  // admitted, not yet popped
  bool stopping_ IPA_GUARDED_BY(mutex_) = false;
};

}  // namespace ipa::net
