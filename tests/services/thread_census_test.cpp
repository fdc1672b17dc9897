// Thread census of a running site. Heartbeats, the dead-engine scan,
// sub-merges and staging fan-out are jobs on the shared site pool, so
// activating a session costs its engines' own threads plus at most a few
// RPC dispatch workers — no thread per heartbeat.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "client/grid_client.hpp"
#include "services/manager.hpp"

namespace ipa {
namespace {

std::size_t thread_count() {
  std::size_t count = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++count;
  }
  return count;
}

TEST(ThreadCensus, SixteenEngineSessionAddsAtMostTwentyFourThreads) {
  const auto dir = std::filesystem::temp_directory_path() / "ipa-thread-census";
  services::ManagerConfig config;
  config.staging_dir = (dir / "staging").string();
  auto manager = services::ManagerNode::start(std::move(config));
  ASSERT_TRUE(manager.is_ok()) << manager.status().to_string();
  const std::string token = (*manager)->authority().issue("cn=user", {"analysis"}, 3600);
  auto client = client::GridClient::connect((*manager)->soap_endpoint(), token);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto session = client->create_session(16);
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  ASSERT_EQ(session->info().granted_nodes, 16);

  const std::size_t before = thread_count();
  ASSERT_TRUE(session->activate().is_ok());
  const std::size_t activated = thread_count();
  // Let every engine beat a few times (default interval 0.05 s), so RPC
  // dispatch workers grown by concurrent heartbeats are counted too.
  // ipa-lint: allow(sleep-sync) -- lets heartbeats run; the census decides.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t settled = thread_count();

  EXPECT_LE(activated - before, 24u) << "before " << before << ", activated " << activated;
  EXPECT_LE(settled - before, 24u) << "before " << before << ", settled " << settled;

  EXPECT_TRUE(session->close().is_ok());
  (*manager)->stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace ipa
