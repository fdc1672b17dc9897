// Regression tests for fields the thread-safety audit found guarded by
// nothing: Session's dataset id was a bare string returned by reference
// while SOAP worker threads could rewrite it mid-read, and RpcClient's
// auth token / retry policy accessors bypassed the channel lock. All are
// now lock-protected, return by value, and these tests hammer the
// read/write paths concurrently so a regression shows up under TSan (and
// as torn values even without it).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "rpc/rpc.hpp"
#include "services/session.hpp"

namespace ipa::services {
namespace {

TEST(SessionGuard, DatasetIdSurvivesConcurrentRewrites) {
  Session session("sess-1", "alice", 2, "interactive");
  // Two writers flip between distinct long values; readers must only ever
  // observe one of them (or the initial empty), never a torn mixture.
  const std::string a(64, 'a');
  const std::string b(64, 'b');
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 2000; ++i) session.set_dataset_id(w == 0 ? a : b);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        const std::string seen = session.dataset_id();
        if (!seen.empty() && seen != a && seen != b) ++bad;
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop = true;
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(bad.load(), 0);
  const std::string final_id = session.dataset_id();
  EXPECT_TRUE(final_id == a || final_id == b);
}

TEST(SessionGuard, RpcClientTokenAndPolicyAreLockProtected) {
  // A started-but-idle inproc endpoint to dial.
  Uri endpoint;
  endpoint.scheme = "inproc";
  endpoint.host = "session-guard-test";
  auto listener = net::listen(endpoint);
  ASSERT_TRUE(listener.is_ok());

  auto client = rpc::RpcClient::connect(endpoint);
  ASSERT_TRUE(client.is_ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  const std::string tok_a(48, 'x');
  const std::string tok_b(48, 'y');
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < 2000; ++i) {
      client->set_auth_token(i % 2 ? tok_a : tok_b);
      rpc::RetryPolicy policy;
      policy.max_attempts = 1 + i % 7;
      client->set_retry_policy(policy);
    }
  });
  threads.emplace_back([&] {
    while (!stop.load()) {
      const std::string seen = client->auth_token();
      if (!seen.empty() && seen != tok_a && seen != tok_b) ++bad;
      const rpc::RetryPolicy policy = client->retry_policy();
      if (policy.max_attempts < 1 || policy.max_attempts > 7) ++bad;
    }
  });
  threads[0].join();
  stop = true;
  threads[1].join();
  EXPECT_EQ(bad.load(), 0);
  listener->fd.reset();
}

}  // namespace
}  // namespace ipa::services
