// Thread census of a running site. Engine runs, heartbeats, the dead-engine
// scan and staging fan-out are jobs on the shared site pool (sub-merges run
// on the polling thread), so activating a session costs at most a few pool
// and RPC dispatch workers — no thread per engine or heartbeat. Every
// pool spawns workers on demand and retires them after
// ThreadPool::kIdleRetire, so an idle site is small and a closed session
// gives its threads back.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "client/grid_client.hpp"
#include "common/thread_pool.hpp"
#include "data/dataset.hpp"
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

std::unique_ptr<services::ManagerNode> start_site(const std::filesystem::path& dir) {
  services::ManagerConfig config;
  config.staging_dir = (dir / "staging").string();
  auto manager = services::ManagerNode::start(std::move(config));
  EXPECT_TRUE(manager.is_ok()) << manager.status().to_string();
  return manager.is_ok() ? std::move(*manager) : nullptr;
}

/// The thread count once the dead-engine scan (every 0.25 s by default) has
/// run a few times on the site pool.
std::size_t settled_thread_count() {
  // ipa-lint: allow(sleep-sync) -- lets the periodic scan run; the census decides.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  return thread_count();
}

TEST(ThreadCensus, IdleSiteHasAtMostEightThreads) {
  // Each test runs in a fresh process (one thread), so the site's own
  // threads are the count: its reactors plus the pool workers in use.
  const std::size_t before = thread_count();
  const auto dir = std::filesystem::temp_directory_path() / "ipa-thread-census-idle";
  auto manager = start_site(dir);
  ASSERT_NE(manager, nullptr);
  const std::size_t idle = settled_thread_count();
  EXPECT_LE(idle - before + 1, 8u) << "before " << before << ", idle site " << idle;
  manager->stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ThreadCensus, ClosedSessionGivesItsThreadsBackWithinTheRetireTime) {
  const auto dir = std::filesystem::temp_directory_path() / "ipa-thread-census-close";
  auto manager = start_site(dir);
  ASSERT_NE(manager, nullptr);
  const std::size_t idle = settled_thread_count();
  const std::string token = manager->authority().issue("cn=user", {"analysis"}, 3600);
  auto client = client::GridClient::connect(manager->soap_endpoint(), token);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto session = client->create_session(16);
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  ASSERT_TRUE(session->activate().is_ok());
  const std::size_t activated = settled_thread_count();  // heartbeats grew the RPC pool
  ASSERT_TRUE(session->close().is_ok());

  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kIdleRetire + std::chrono::seconds(1);
  std::size_t closed = thread_count();
  while (closed > idle + 2 && std::chrono::steady_clock::now() < deadline) {
    // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; the census decides.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    closed = thread_count();
  }
  EXPECT_LE(closed, idle + 2) << "idle " << idle << ", activated " << activated
                              << ", after close " << closed;
  manager->stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ThreadCensus, SixteenEngineSessionAddsNoThreadPerEngine) {
  // An engine owns no thread, so once the staging fan-out's pool workers
  // retire, a staged but idle 16-engine session keeps only the few workers
  // its heartbeats use.
  const auto dir = std::filesystem::temp_directory_path() / "ipa-thread-census-staged";
  auto manager = start_site(dir);
  ASSERT_NE(manager, nullptr);
  std::vector<data::Record> records;
  for (std::uint64_t i = 0; i < 320; ++i) {
    data::Record record(i);
    record.set("x", 0.5);
    records.push_back(std::move(record));
  }
  const std::string dataset = (dir / "d.ipd").string();
  ASSERT_TRUE(data::write_dataset(dataset, "d", records).is_ok());
  ASSERT_TRUE(manager->publish_dataset("d/d", "ds-census", {}, dataset).is_ok());
  const std::string token = manager->authority().issue("cn=user", {"analysis"}, 3600);
  auto client = client::GridClient::connect(manager->soap_endpoint(), token);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto session = client->create_session(16);
  ASSERT_TRUE(session.is_ok()) << session.status().to_string();
  ASSERT_EQ(session->info().granted_nodes, 16);

  const std::size_t before = settled_thread_count();
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-census").is_ok());
  ASSERT_TRUE(session->stage_script("s", "func process(event, tree) { }").is_ok());

  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kIdleRetire + std::chrono::seconds(1);
  std::size_t staged = thread_count();
  while (staged > before + 8 && std::chrono::steady_clock::now() < deadline) {
    // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; the census decides.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    staged = thread_count();
  }
  EXPECT_LE(staged, before + 8) << "before " << before << ", staged " << staged;

  EXPECT_TRUE(session->close().is_ok());
  manager->stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace ipa
