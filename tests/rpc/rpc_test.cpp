#include "rpc/rpc.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/strings.hpp"

namespace ipa::rpc {
namespace {

Uri inproc_endpoint(const std::string& tag) {
  static std::atomic<int> counter{0};
  Uri uri;
  uri.scheme = "inproc";
  uri.host = "rpc-" + tag + "-" + std::to_string(counter.fetch_add(1));
  return uri;
}

ser::Bytes payload_of(std::string_view s) { return ser::Bytes(s.begin(), s.end()); }

std::shared_ptr<Service> make_echo_service() {
  auto service = std::make_shared<Service>("Echo");
  service->register_method("echo", [](const CallContext&, const ser::Bytes& in) {
    return Result<ser::Bytes>(in);
  });
  service->register_method("fail", [](const CallContext&, const ser::Bytes&) {
    return Result<ser::Bytes>(failed_precondition("engine not staged"));
  });
  service->register_method("context", [](const CallContext& ctx, const ser::Bytes&) {
    ser::Writer w;
    w.string(ctx.service);
    w.string(ctx.method);
    w.string(ctx.resource);
    w.string(ctx.principal);
    return Result<ser::Bytes>(std::move(w).take());
  });
  return service;
}

TEST(Rpc, EchoCall) {
  RpcServer server(inproc_endpoint("echo"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  auto reply = client->call("Echo", "echo", payload_of("hello grid"));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(*reply, payload_of("hello grid"));
  server.stop();
}

TEST(Rpc, RemoteErrorKeepsCodeAndMessage) {
  RpcServer server(inproc_endpoint("err"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  const auto reply = client->call("Echo", "fail", {});
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(reply.status().message(), "engine not staged");
  server.stop();
}

TEST(Rpc, UnknownServiceAndMethod) {
  RpcServer server(inproc_endpoint("unk"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  EXPECT_EQ(client->call("Nope", "echo", {}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->call("Echo", "nope", {}).status().code(), StatusCode::kUnimplemented);
  server.stop();
}

TEST(Rpc, ResourceIdReachesContext) {
  RpcServer server(inproc_endpoint("res"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  auto reply = client->call("Echo", "context", {}, "sess-42");
  ASSERT_TRUE(reply.is_ok());
  ser::Reader r(*reply);
  EXPECT_EQ(r.string().value(), "Echo");
  EXPECT_EQ(r.string().value(), "context");
  EXPECT_EQ(r.string().value(), "sess-42");
  server.stop();
}

TEST(Rpc, AuthRequiredServiceRejectsBadToken) {
  RpcServer server(inproc_endpoint("auth"));
  auto service = std::make_shared<Service>("Secure", /*require_auth=*/true);
  service->register_method("whoami", [](const CallContext& ctx, const ser::Bytes&) {
    ser::Writer w;
    w.string(ctx.principal);
    return Result<ser::Bytes>(std::move(w).take());
  });
  server.add_service(std::move(service));
  server.set_auth([](const std::string& token) -> Result<std::string> {
    if (token == "valid-token") return std::string("alice");
    return unauthenticated("bad token");
  });
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());

  EXPECT_EQ(client->call("Secure", "whoami", {}).status().code(),
            StatusCode::kUnauthenticated);

  client->set_auth_token("valid-token");
  auto reply = client->call("Secure", "whoami", {});
  ASSERT_TRUE(reply.is_ok());
  ser::Reader r(*reply);
  EXPECT_EQ(r.string().value(), "alice");
  server.stop();
}

TEST(Rpc, AuthNotRequiredSkipsHook) {
  RpcServer server(inproc_endpoint("noauth"));
  server.add_service(make_echo_service());
  server.set_auth([](const std::string&) -> Result<std::string> {
    return unauthenticated("always deny");
  });
  ASSERT_TRUE(server.start().is_ok());
  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  EXPECT_TRUE(client->call("Echo", "echo", payload_of("x")).is_ok());
  server.stop();
}

TEST(Rpc, SequentialCallsOnOneConnection) {
  RpcServer server(inproc_endpoint("seq"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());
  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < 50; ++i) {
    const std::string msg = "call-" + std::to_string(i);
    auto reply = client->call("Echo", "echo", payload_of(msg));
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(*reply, payload_of(msg));
  }
  server.stop();
}

TEST(Rpc, ManyConcurrentClients) {
  RpcServer server(inproc_endpoint("conc"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  std::atomic<int> ok{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        auto client = RpcClient::connect(server.endpoint());
        if (!client.is_ok()) return;
        for (int i = 0; i < 20; ++i) {
          const std::string msg = strings::format("t%d-%d", t, i);
          auto reply = client->call("Echo", "echo", payload_of(msg));
          if (reply.is_ok() && *reply == payload_of(msg)) ++ok;
        }
      });
    }
  }
  EXPECT_EQ(ok.load(), 6 * 20);
  server.stop();
}

TEST(Rpc, WorksOverTcp) {
  Uri uri;
  uri.scheme = "tcp";
  uri.host = "127.0.0.1";
  uri.port = 0;
  RpcServer server(uri);
  server.add_service(make_echo_service());
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());
  ASSERT_GT(bound->port, 0);

  auto client = RpcClient::connect(*bound);
  ASSERT_TRUE(client.is_ok());
  auto reply = client->call("Echo", "echo", payload_of("over tcp"));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(*reply, payload_of("over tcp"));
  server.stop();
}

TEST(Rpc, ServerPinsNoWorkerPerConnection) {
  // Connections live on the server's reactor, not on pool workers: 64 open
  // inproc connections are all served by a 4-worker pool.
  net::ServerPoolOptions pool;
  pool.max_workers = 4;
  RpcServer server(inproc_endpoint("pins"), pool);
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kConnections = 64;
  std::vector<RpcClient> clients;
  for (int i = 0; i < kConnections; ++i) {
    auto client = RpcClient::connect(server.endpoint());
    ASSERT_TRUE(client.is_ok()) << client.status().to_string();
    clients.push_back(std::move(*client));
  }
  for (int i = 0; i < kConnections; ++i) {
    const std::string msg = "conn-" + std::to_string(i);
    auto reply = clients[i].call("Echo", "echo", payload_of(msg), "", 2.0);
    ASSERT_TRUE(reply.is_ok()) << "connection " << i << ": " << reply.status().to_string();
    EXPECT_EQ(*reply, payload_of(msg));
  }
  EXPECT_EQ(server.active_connections(), static_cast<std::size_t>(kConnections));
  EXPECT_LE(server.worker_count(), 4u);
  server.stop();
}

TEST(Rpc, InprocEndpointRefusesOtherProcesses) {
  // The manager's default RPC endpoint is inproc and unauthenticated; it
  // must stay out of reach of every other process on the host.
  RpcServer server(inproc_endpoint("private"));
  server.add_service(make_echo_service());
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok()) << bound.status().to_string();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = "ipa/" + std::to_string(::getpid()) + "/" + bound->host;
  std::memcpy(addr.sun_path + 1, path.data(), path.size());
  const auto addr_len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + path.size());

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Async-signal-safe calls only. A served connection stays open (the
    // idle reaper is minutes away); a refused one is hung up at once.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), addr_len) != 0) ::_exit(2);
    pollfd pfd{fd, POLLIN, 0};
    char byte;
    ::_exit(::poll(&pfd, 1, 5000) == 1 && ::read(fd, &byte, 1) <= 0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "another process reached the inproc endpoint";
  EXPECT_EQ(server.active_connections(), 0u);

  // The endpoint still serves its own process.
  auto client = RpcClient::connect(*bound);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  EXPECT_EQ(client->call("Echo", "echo", payload_of("mine"), "", 5.0).value(), payload_of("mine"));
  server.stop();
}

/// A method that throws must fail only its own call: INTERNAL with the
/// exception text, and the same connection serves the next call.
void expect_throwing_method_answers_internal(const Uri& endpoint) {
  auto service = make_echo_service();
  service->register_method("throw", [](const CallContext&, const ser::Bytes&) -> Result<ser::Bytes> {
    throw std::runtime_error("histogram booking blew up");
  });
  RpcServer server(endpoint);
  server.add_service(service);
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok()) << bound.status().to_string();

  auto client = RpcClient::connect(*bound);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto thrown = client->call("Echo", "throw", {}, "", 5.0);
  ASSERT_FALSE(thrown.is_ok());
  EXPECT_EQ(thrown.status().code(), StatusCode::kInternal) << thrown.status().to_string();
  EXPECT_NE(thrown.status().message().find("histogram booking blew up"), std::string::npos);
  EXPECT_NE(thrown.status().message().find("Echo.throw"), std::string::npos);

  auto after = client->call("Echo", "echo", payload_of("still serving"), "", 5.0);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(*after, payload_of("still serving"));
  EXPECT_EQ(client->stats().reconnects, 0u);
  server.stop();
}

TEST(Rpc, ThrowingMethodAnswersInternal) {
  expect_throwing_method_answers_internal(inproc_endpoint("throw"));
}

TEST(Rpc, ThrowingMethodAnswersInternalOverTcp) {
  Uri uri;
  uri.scheme = "tcp";
  uri.host = "127.0.0.1";
  uri.port = 0;
  expect_throwing_method_answers_internal(uri);
}

TEST(Rpc, StopUnblocksAndRejectsFurtherCalls) {
  RpcServer server(inproc_endpoint("stop"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());
  auto client = RpcClient::connect(server.endpoint());
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client->call("Echo", "echo", payload_of("x")).is_ok());
  server.stop();
  const auto after = client->call("Echo", "echo", payload_of("y"), "", 1.0);
  EXPECT_FALSE(after.is_ok());
}

// --- retry / backoff -------------------------------------------------------

Uri chaos_inproc_endpoint(const std::string& tag,
                          std::map<std::string, std::string> query) {
  Uri uri = inproc_endpoint(tag);
  uri.scheme = "chaos+inproc";
  uri.query = std::move(query);
  return uri;
}

RetryPolicy fast_retry_policy(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.initial_backoff_s = 0.001;
  policy.max_backoff_s = 0.01;
  policy.attempt_timeout_s = 0.1;
  return policy;
}

/// Service with one idempotent and one non-idempotent counting method.
std::shared_ptr<Service> make_counting_service(std::atomic<int>& idem,
                                               std::atomic<int>& mutating) {
  auto service = std::make_shared<Service>("Counter");
  service->register_method(
      "get",
      [&idem](const CallContext&, const ser::Bytes& in) {
        ++idem;
        return Result<ser::Bytes>(in);
      },
      /*idempotent=*/true);
  service->register_method("put", [&mutating](const CallContext&, const ser::Bytes& in) {
    ++mutating;
    return Result<ser::Bytes>(in);
  });
  return service;
}

TEST(RpcRetry, IdempotentCallRetriesAndExecutesExactlyOnce) {
  // The first connection dies on its first send: the request never reaches
  // the server, so the retry must not cause a duplicate execution.
  std::atomic<int> idem{0}, mutating{0};
  RpcServer server(chaos_inproc_endpoint("retry-idem", {{"fail_first", "1"}}));
  server.add_service(make_counting_service(idem, mutating));
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint(), 5.0, fast_retry_policy(4));
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto reply = client->call("Counter", "get", payload_of("g"), "", 5.0);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(idem.load(), 1);
  EXPECT_GE(client->stats().retries, 1u);
  EXPECT_GE(client->stats().reconnects, 1u);
  server.stop();
}

TEST(RpcRetry, NonIdempotentCallFailsFastWithoutExecuting) {
  std::atomic<int> idem{0}, mutating{0};
  RpcServer server(chaos_inproc_endpoint("retry-mut", {{"fail_first", "1"}}));
  server.add_service(make_counting_service(idem, mutating));
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint(), 5.0, fast_retry_policy(4));
  ASSERT_TRUE(client.is_ok());
  const auto reply = client->call("Counter", "put", payload_of("p"), "", 5.0);
  // A transport failure on a mutating method must surface, not retry: the
  // caller cannot know whether the server acted.
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(mutating.load(), 0);
  EXPECT_EQ(client->stats().retries, 0u);

  // The client recovers: the same (non-idempotent) call succeeds on the
  // next, healthy connection, exactly once.
  auto again = client->call("Counter", "put", payload_of("p"), "", 5.0);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(mutating.load(), 1);
  server.stop();
}

TEST(RpcRetry, RemoteErrorsAreNotRetried) {
  RpcServer server(inproc_endpoint("noretry-err"));
  std::atomic<int> calls{0};
  auto service = std::make_shared<Service>("Flaky");
  service->register_method(
      "always_fails",
      [&calls](const CallContext&, const ser::Bytes&) {
        ++calls;
        return Result<ser::Bytes>(failed_precondition("not staged"));
      },
      /*idempotent=*/true);
  server.add_service(std::move(service));
  ASSERT_TRUE(server.start().is_ok());

  auto client = RpcClient::connect(server.endpoint(), 5.0, fast_retry_policy(4));
  ASSERT_TRUE(client.is_ok());
  const auto reply = client->call("Flaky", "always_fails", {}, "", 5.0);
  // A well-formed remote error is an answer, not a transport failure.
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(client->stats().retries, 0u);
  server.stop();
}

TEST(RpcRetry, DeadlineExpiresDuringBackoff) {
  // Every connection's first send dies, so attempts keep failing; the call
  // deadline lands mid-backoff and must surface as kDeadlineExceeded well
  // before the 50 attempts are spent.
  std::atomic<int> idem{0}, mutating{0};
  RpcServer server(chaos_inproc_endpoint("deadline", {{"fail_first", "1000"}}));
  server.add_service(make_counting_service(idem, mutating));
  ASSERT_TRUE(server.start().is_ok());

  RetryPolicy policy = fast_retry_policy(50);
  policy.initial_backoff_s = 0.05;
  policy.backoff_multiplier = 2.0;
  auto client = RpcClient::connect(server.endpoint(), 5.0, policy);
  ASSERT_TRUE(client.is_ok());

  const auto start = std::chrono::steady_clock::now();
  const auto reply = client->call("Counter", "get", payload_of("g"), "", 0.15);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  // Respected the call deadline, give or take scheduling: nowhere near the
  // time 50 spent attempts would take.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(idem.load(), 0);
  EXPECT_GE(client->stats().giveups, 1u);
  server.stop();
}

TEST(RpcRetry, ClosedClientRefusesCalls) {
  RpcServer server(inproc_endpoint("closed"));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());
  auto client = RpcClient::connect(server.endpoint(), 5.0, fast_retry_policy(4));
  ASSERT_TRUE(client.is_ok());
  client->close();
  // close() is permanent — no reconnect, unlike a dropped connection.
  EXPECT_EQ(client->call("Echo", "echo", payload_of("x"), "", 1.0).status().code(),
            StatusCode::kUnavailable);
  server.stop();
}

TEST(ResourceSet, CreateFindDestroy) {
  ResourceSet<std::string> set;
  const std::string id = set.create(std::make_shared<std::string>("state"), "sess");
  EXPECT_TRUE(id.rfind("sess-", 0) == 0);
  auto found = set.find(id);
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(**found, "state");
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.destroy(id));
  EXPECT_FALSE(set.destroy(id));
  EXPECT_EQ(set.find(id).status().code(), StatusCode::kNotFound);
}

TEST(ResourceSet, IdsListsAll) {
  ResourceSet<int> set;
  const std::string a = set.create(std::make_shared<int>(1));
  const std::string b = set.create(std::make_shared<int>(2));
  const auto ids = set.ids();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE((ids[0] == a && ids[1] == b) || (ids[0] == b && ids[1] == a));
}

}  // namespace
}  // namespace ipa::rpc
