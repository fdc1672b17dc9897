// Degenerate-peer chaos: slow-loris header drippers and half-open sockets
// (a peer that vanished without FIN), over TCP and inproc alike. Neither
// costs the event-driven servers a thread, and both must be reaped by the
// reactor's idle timeout while healthy traffic keeps flowing. The client
// side is exercised through the fault transport's sticky half-open mode:
// calls must heal by re-dialing, never wedge.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "http/http.hpp"
#include "net/fault.hpp"
#include "net/socket_io.hpp"
#include "net/worker_pool.hpp"
#include "obs/metrics.hpp"
#include "rpc/rpc.hpp"

namespace ipa {
namespace {

template <typename Pred>
bool wait_until(Pred pred, double timeout_s = 5.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; the predicate decides.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

int raw_connect(const Uri& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(bound.port);
  if (::inet_pton(AF_INET, bound.host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Uri chaos_endpoint(const std::string& tag, std::map<std::string, std::string> query) {
  static std::atomic<int> counter{0};
  Uri uri;
  uri.scheme = "chaos+inproc";
  uri.host = "reaper-" + tag + "-" + std::to_string(counter.fetch_add(1));
  uri.query = std::move(query);
  return uri;
}

ser::Bytes payload_of(std::string_view s) { return ser::Bytes(s.begin(), s.end()); }

std::shared_ptr<rpc::Service> make_echo_service() {
  auto service = std::make_shared<rpc::Service>("Reaper");
  service->register_method(
      "echo",
      [](const rpc::CallContext&, const ser::Bytes& in) { return Result<ser::Bytes>(in); },
      /*idempotent=*/true);
  return service;
}

TEST(ChaosReaper, PreviewScheduleHonorsHalfOpenProbability) {
  net::FaultPolicy policy;
  policy.half_open_prob = 1.0;
  for (const net::Fault fault : net::preview_schedule(policy, /*ordinal=*/0, 8)) {
    EXPECT_EQ(fault, net::Fault::kHalfOpen);
  }
}

TEST(ChaosReaper, HalfOpenAfterFramesIsDeterministic) {
  net::FaultPolicy policy;
  policy.half_open_after_frames = 2;
  const auto schedule = net::preview_schedule(policy, /*ordinal=*/0, 5);
  EXPECT_EQ(schedule[0], net::Fault::kNone);
  EXPECT_EQ(schedule[1], net::Fault::kNone);
  EXPECT_EQ(schedule[2], net::Fault::kHalfOpen);
  EXPECT_EQ(schedule[3], net::Fault::kHalfOpen);
  EXPECT_EQ(schedule[4], net::Fault::kHalfOpen);
}

TEST(ChaosReaper, HalfOpenPolicyParsesFromEndpointQuery) {
  Uri uri = chaos_endpoint("parse", {{"half_open", "0.25"}, {"half_open_after", "7"}});
  auto policy = net::FaultPolicy::from_uri(uri);
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  EXPECT_DOUBLE_EQ(policy->half_open_prob, 0.25);
  EXPECT_EQ(policy->half_open_after_frames, 7u);

  EXPECT_FALSE(
      net::FaultPolicy::from_uri(chaos_endpoint("bad", {{"half_open", "1.5"}})).is_ok());
}

TEST(ChaosReaper, SlowLorisHeaderDripperIsReaped) {
  net::ServerPoolOptions pool;
  pool.idle_timeout_s = 0.3;
  http::Server server("127.0.0.1", 0, pool);
  server.route("/ok", [](const http::Request&) { return http::Response::make(200, "fine"); });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  const int loris = raw_connect(*bound);
  ASSERT_GE(loris, 0);
  // Classic slow-loris: a valid start line, then header bytes dribbled too
  // slowly to ever finish the request. Drips inside the idle window keep the
  // connection alive...
  const std::string drip = "GET /ok HTTP/1.1\r\n";
  for (char c : drip.substr(0, 6)) {
    ASSERT_EQ(::send(loris, &c, 1, MSG_NOSIGNAL), 1);
    // ipa-lint: allow(sleep-sync) -- the drip rate is the slow-loris attack being simulated: each byte
    // must land inside the activity window to keep the connection alive.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_EQ(server.open_connections(), 1u);

  // ...but going quiet past the window gets the socket reaped without a
  // worker ever being tied up, and healthy clients never notice.
  ASSERT_TRUE(wait_until([&] { return server.open_connections() == 0; }))
      << "slow-loris connection was not reaped";

  auto client = http::Client::connect(bound->host, bound->port);
  ASSERT_TRUE(client.is_ok());
  auto resp = client->get("/ok");
  ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
  EXPECT_EQ(resp->status, 200);
  ::close(loris);
  server.stop();
}

/// Dial the server's socket directly, bypassing the framed transport.
net::Fd dial_raw(const Uri& bound) {
  if (bound.scheme == "tcp") return net::Fd(raw_connect(bound));
  auto fd = net::inproc_connect_fd(bound.host, 5.0);
  return fd.is_ok() ? std::move(*fd) : net::Fd();
}

void expect_half_open_rpc_socket_reaped(const Uri& endpoint) {
  auto& reaped = obs::Registry::global().counter("ipa_reactor_idle_reaped_total",
                                                 {{"reactor", "rpc"}});
  const auto reaped_before = reaped.value();

  net::ServerPoolOptions pool;
  pool.idle_timeout_s = 0.3;
  rpc::RpcServer server(endpoint, pool);
  server.add_service(make_echo_service());
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  // A peer that connects, sends half a length prefix and then vanishes
  // without FIN: from the server's side the socket simply never speaks
  // again. Only the idle reaper can reclaim it.
  const net::Fd ghost = dial_raw(*bound);
  ASSERT_TRUE(ghost.valid());
  ASSERT_EQ(::send(ghost.get(), "\x08\x00", 2, MSG_NOSIGNAL), 2);
  ASSERT_TRUE(wait_until([&] { return server.active_connections() == 1; }));

  ASSERT_TRUE(wait_until([&] { return server.active_connections() == 0; }))
      << "half-open connection was not reaped";
  EXPECT_GE(reaped.value(), reaped_before + 1);

  auto client = rpc::RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  auto reply = client->call("Reaper", "echo", payload_of("alive"), "", 5.0);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  server.stop();
}

TEST(ChaosReaper, HalfOpenRpcSocketIsReaped) {
  Uri endpoint;
  endpoint.scheme = "tcp";
  endpoint.host = "127.0.0.1";
  endpoint.port = 0;
  expect_half_open_rpc_socket_reaped(endpoint);
}

TEST(ChaosReaper, HalfOpenRpcSocketIsReapedOverChaosInproc) {
  expect_half_open_rpc_socket_reaped(chaos_endpoint("ghost", {}));
}

TEST(ChaosReaper, RpcClientHealsFromHalfOpenLink) {
  rpc::RpcServer server(chaos_endpoint("heal", {{"half_open_after", "2"}}));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  rpc::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 0.001;
  policy.max_backoff_s = 0.01;
  policy.attempt_timeout_s = 0.15;
  auto client = rpc::RpcClient::connect(server.endpoint(), 5.0, policy);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // Every connection goes half-open after two delivered frames: sends keep
  // "succeeding" into the void and nothing ever comes back. Each call must
  // still complete — the attempt timeout detects the dead link (no other
  // call in flight to vouch for it) and the retry re-dials.
  for (int i = 0; i < 6; ++i) {
    auto reply =
        client->call("Reaper", "echo", payload_of("seq-" + std::to_string(i)), "", 10.0);
    ASSERT_TRUE(reply.is_ok()) << "call " << i << ": " << reply.status().to_string();
  }
  EXPECT_GE(client->stats().reconnects, 2u);
  EXPECT_GE(client->stats().retries, 2u);
  server.stop();
}

}  // namespace
}  // namespace ipa
