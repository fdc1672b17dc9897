// Connection multiplexing: many in-flight calls share one TCP stream, each
// tagged with its call id. These cases pin down the demux contract — slow
// calls never serialize fast ones, an abandoned attempt leaves the
// connection (and everyone else's calls) intact, and dispatch saturation
// rejects the offending call without poisoning the stream.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"

namespace ipa::rpc {
namespace {

Uri tcp_endpoint() {
  Uri uri;
  uri.scheme = "tcp";
  uri.host = "127.0.0.1";
  uri.port = 0;
  return uri;
}

ser::Bytes payload_of(std::string_view s) { return ser::Bytes(s.begin(), s.end()); }

/// Deadline-bounded predicate poll: the predicate, not the clock, decides.
template <typename Pred>
bool wait_until(Pred&& pred, double timeout_s = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// "echo" returns its payload; "nap" sleeps for the payload's value in
/// milliseconds first. Both idempotent, so retry paths stay available.
std::shared_ptr<Service> make_mux_service(std::atomic<int>* executions = nullptr) {
  auto service = std::make_shared<Service>("Mux");
  service->register_method(
      "echo",
      [executions](const CallContext&, const ser::Bytes& in) {
        if (executions != nullptr) ++*executions;
        return Result<ser::Bytes>(in);
      },
      /*idempotent=*/true);
  service->register_method(
      "nap",
      [executions](const CallContext&, const ser::Bytes& in) {
        if (executions != nullptr) ++*executions;
        const int ms = std::stoi(std::string(in.begin(), in.end()));
        // ipa-lint: allow(sleep-sync) -- the nap IS the simulated slow handler; its duration comes from
        // the request payload.
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        return Result<ser::Bytes>(in);
      },
      /*idempotent=*/true);
  return service;
}

TEST(RpcMux, ConcurrentCallsShareOneConnection) {
  auto& dialed = obs::Registry::global().counter("ipa_server_connections_total",
                                                 {{"server", "rpc"}});
  const auto dialed_before = dialed.value();

  RpcServer server(tcp_endpoint());
  server.add_service(make_mux_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  std::atomic<int> ok{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 20; ++i) {
          const std::string msg = strings::format("t%d-%d", t, i);
          auto reply = client->call("Mux", "echo", payload_of(msg), "", 10.0);
          if (reply.is_ok() && *reply == payload_of(msg)) ++ok;
        }
      });
    }
  }
  EXPECT_EQ(ok.load(), 160);
  EXPECT_EQ(client->stats().reconnects, 0u);
  EXPECT_EQ(dialed.value(), dialed_before + 1) << "mux client re-dialed";
  EXPECT_EQ(server.active_connections(), 1u);
  server.stop();
}

TEST(RpcMux, SlowCallDoesNotSerializeFastCalls) {
  RpcServer server(tcp_endpoint());
  std::atomic<int> executions{0};
  server.add_service(make_mux_service(&executions));
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());

  std::atomic<bool> slow_done{false};
  std::atomic<bool> fast_finished_first{false};
  std::jthread slow([&] {
    auto reply = client->call("Mux", "nap", payload_of("400"), "", 10.0);
    EXPECT_TRUE(reply.is_ok()) << reply.status().to_string();
    slow_done = true;
  });
  // Wait until the slow call has demonstrably reached a server worker (the
  // nap handler bumps the counter on entry, before it starts napping).
  ASSERT_TRUE(wait_until([&] { return executions.load() >= 1; }));
  auto fast = client->call("Mux", "echo", payload_of("quick"), "", 10.0);
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  fast_finished_first = !slow_done.load();
  slow.join();
  EXPECT_TRUE(fast_finished_first.load())
      << "fast call waited behind the 400ms call on the shared connection";
  server.stop();
}

TEST(RpcMux, AbandonedAttemptLeavesOtherCallsAndConnectionIntact) {
  RpcServer server(tcp_endpoint());
  std::atomic<int> executions{0};
  server.add_service(make_mux_service(&executions));
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());

  std::jthread background([&] {
    auto reply = client->call("Mux", "nap", payload_of("300"), "", 10.0);
    EXPECT_TRUE(reply.is_ok()) << reply.status().to_string();
  });
  // The background nap is in a server worker before we race the deadline.
  ASSERT_TRUE(wait_until([&] { return executions.load() >= 1; }));

  // This call's deadline expires while the server still naps on it. Only its
  // own slot may be abandoned: no reconnect, no collateral failure, and the
  // stale reply that arrives later must be dropped silently.
  auto timed_out = client->call("Mux", "nap", payload_of("500"), "", 0.1);
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().to_string();

  background.join();
  auto after = client->call("Mux", "echo", payload_of("still here"), "", 5.0);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(client->stats().reconnects, 0u)
      << "attempt timeout must not tear down the shared connection";
  server.stop();
}

TEST(RpcMux, DispatchSaturationRejectsOnlyTheOffendingCall) {
  net::ServerPoolOptions pool;
  pool.max_workers = 1;
  pool.queue_capacity = 1;
  RpcServer server(tcp_endpoint(), pool);
  server.add_service(make_mux_service());
  ASSERT_TRUE(server.start().is_ok());

  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  auto client = RpcClient::connect(server.endpoint(), 5.0, no_retry);
  ASSERT_TRUE(client.is_ok());

  std::atomic<int> ok{0}, exhausted{0}, other{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&] {
        auto reply = client->call("Mux", "nap", payload_of("150"), "", 10.0);
        if (reply.is_ok()) {
          ++ok;
        } else if (reply.status().code() == StatusCode::kResourceExhausted) {
          ++exhausted;
        } else {
          ++other;
        }
      });
    }
  }
  // One worker plus one queue slot: of six bursts at least one must be
  // served and at least one shed with the frame-tagged rejection.
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(exhausted.load(), 1);
  EXPECT_EQ(other.load(), 0);

  // The rejection is per-call: the stream stays healthy for the next one.
  auto after = client->call("Mux", "echo", payload_of("recovered"), "", 5.0);
  EXPECT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(client->stats().reconnects, 0u);
  server.stop();
}

TEST(RpcMux, IdleMuxConnectionIsReaped) {
  net::ServerPoolOptions pool;
  pool.idle_timeout_s = 0.25;
  RpcServer server(tcp_endpoint(), pool);
  server.add_service(make_mux_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client->call("Mux", "echo", payload_of("hi"), "", 5.0).is_ok());
  EXPECT_EQ(server.active_connections(), 1u);

  // Stay silent past the idle window: the server must reap the connection.
  EXPECT_TRUE(wait_until([&] { return server.active_connections() == 0; }));

  // The client notices on its next call and transparently re-dials.
  auto after = client->call("Mux", "echo", payload_of("back"), "", 5.0);
  EXPECT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_GE(client->stats().reconnects, 1u);
  server.stop();
}

}  // namespace
}  // namespace ipa::rpc
