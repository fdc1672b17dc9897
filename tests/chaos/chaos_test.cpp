// Chaos suite: the real stack (RPC, SOAP, manager, engines, client) run
// under the chaos+ fault-injecting transport with FIXED seeds, so every
// scenario is reproducible — same seed, same fault schedule, same outcome.
//
// The invariant under test everywhere: a session under fault injection
// completes or degrades to a flagged partial result. It never hangs (each
// scenario is deadline-bounded and the ctest TIMEOUT backstops it) and
// never crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "client/grid_client.hpp"
#include "common/rng.hpp"
#include "net/fault.hpp"
#include "rpc/rpc.hpp"
#include "services/manager.hpp"
#include "soap/soap.hpp"

namespace ipa {
namespace {

const char* kCountScript = R"(
func begin(tree) { tree.book_h1("/n", 1, 0, 1); }
func process(event, tree) { tree.fill("/n", 0.5); }
)";

/// Fresh chaos endpoint with a unique inproc host, so per-endpoint dial
/// ordinals (and thus fault schedules) never depend on test order.
Uri chaos_endpoint(const std::string& tag, std::map<std::string, std::string> query) {
  static std::atomic<int> counter{0};
  Uri uri;
  uri.scheme = "chaos+inproc";
  uri.host = "chaos-" + tag + "-" + std::to_string(counter.fetch_add(1));
  uri.query = std::move(query);
  return uri;
}

/// Chaos over a fresh ephemeral TCP port; the bound port keeps the dial
/// ordinals per server.
Uri chaos_tcp_endpoint(std::map<std::string, std::string> query) {
  Uri uri;
  uri.scheme = "chaos+tcp";
  uri.host = "127.0.0.1";
  uri.port = 0;
  uri.query = std::move(query);
  return uri;
}

ser::Bytes payload_of(std::string_view s) { return ser::Bytes(s.begin(), s.end()); }

/// One idempotent echo method; `count` observes server-side executions.
std::shared_ptr<rpc::Service> make_echo_service(std::atomic<int>* count = nullptr) {
  auto service = std::make_shared<rpc::Service>("Chaos");
  service->register_method(
      "echo",
      [count](const rpc::CallContext&, const ser::Bytes& in) {
        if (count != nullptr) ++*count;
        return Result<ser::Bytes>(in);
      },
      /*idempotent=*/true);
  return service;
}

/// Aggressive retry policy for fault-heavy unit scenarios: fail attempts
/// fast, back off briefly, try often.
rpc::RetryPolicy chaos_retry_policy() {
  rpc::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_s = 0.001;
  policy.max_backoff_s = 0.01;
  policy.attempt_timeout_s = 0.1;
  return policy;
}

// --- schedule determinism --------------------------------------------------

TEST(ChaosSchedule, SameSeedSameSchedule) {
  net::FaultPolicy policy;
  policy.seed = 42;
  policy.disconnect_prob = 0.02;
  policy.drop_prob = 0.2;
  policy.truncate_prob = 0.1;
  policy.delay_prob = 0.3;
  const auto a = net::preview_schedule(policy, /*ordinal=*/0, 256);
  const auto b = net::preview_schedule(policy, /*ordinal=*/0, 256);
  EXPECT_EQ(a, b);
  // Faults actually fire at these probabilities.
  EXPECT_TRUE(std::any_of(a.begin(), a.end(),
                          [](net::Fault f) { return f != net::Fault::kNone; }));
  // Different connection ordinal or different seed: different schedule.
  EXPECT_NE(a, net::preview_schedule(policy, /*ordinal=*/1, 256));
  net::FaultPolicy reseeded = policy;
  reseeded.seed = 43;
  EXPECT_NE(a, net::preview_schedule(reseeded, /*ordinal=*/0, 256));
}

TEST(ChaosSchedule, PolicyParsesFromEndpointQuery) {
  auto uri = Uri::parse(
      "chaos+inproc://mgr?seed=9&drop=0.25&truncate=0.5&delay_p=0.75&delay_ms=12"
      "&disconnect=0.125&disconnect_after=7&fail_first=3");
  ASSERT_TRUE(uri.is_ok());
  auto policy = net::FaultPolicy::from_uri(*uri);
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  EXPECT_EQ(policy->seed, 9u);
  EXPECT_DOUBLE_EQ(policy->drop_prob, 0.25);
  EXPECT_DOUBLE_EQ(policy->truncate_prob, 0.5);
  EXPECT_DOUBLE_EQ(policy->delay_prob, 0.75);
  EXPECT_DOUBLE_EQ(policy->delay_s, 0.012);
  EXPECT_DOUBLE_EQ(policy->disconnect_prob, 0.125);
  EXPECT_EQ(policy->disconnect_after_frames, 7u);
  EXPECT_EQ(policy->fail_first_connections, 3);

  auto bad = Uri::parse("chaos+inproc://mgr?drop=not-a-number");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_FALSE(net::FaultPolicy::from_uri(*bad).is_ok());
}

// --- RPC path scenarios ----------------------------------------------------

TEST(ChaosRpc, DroppedFramesAreRetriedToSuccess) {
  rpc::RpcServer server(chaos_endpoint("drop", {{"seed", "7"}, {"drop", "0.1"}}));
  std::atomic<int> executed{0};
  server.add_service(make_echo_service(&executed));
  ASSERT_TRUE(server.start().is_ok());

  auto client = rpc::RpcClient::connect(server.endpoint(), 5.0, chaos_retry_policy());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  for (int i = 0; i < 40; ++i) {
    const std::string msg = "drop-" + std::to_string(i);
    auto reply = client->call("Chaos", "echo", payload_of(msg), "", 10.0);
    ASSERT_TRUE(reply.is_ok()) << i << ": " << reply.status().to_string();
    EXPECT_EQ(*reply, payload_of(msg));
  }
  // Lost requests mean retries, and every execution was observed at least
  // once (drops can cost a duplicate execution, never a lost result).
  EXPECT_GE(executed.load(), 40);
  server.stop();
}

// Truncation and disconnects both end at the server's reactor, whatever
// the inner scheme; each scenario runs over chaos+inproc and chaos+tcp.

void expect_truncated_frames_retried(const Uri& endpoint) {
  rpc::RpcServer server(endpoint);
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = rpc::RpcClient::connect(server.endpoint(), 5.0, chaos_retry_policy());
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < 40; ++i) {
    const std::string msg = std::string(512, 'x') + std::to_string(i);
    auto reply = client->call("Chaos", "echo", payload_of(msg), "", 10.0);
    ASSERT_TRUE(reply.is_ok()) << i << ": " << reply.status().to_string();
    EXPECT_EQ(*reply, payload_of(msg));
  }
  server.stop();
}

TEST(ChaosRpc, TruncatedFramesAreDetectedAndRetried) {
  expect_truncated_frames_retried(
      chaos_endpoint("trunc", {{"seed", "5"}, {"truncate", "0.08"}}));
}

TEST(ChaosRpc, TruncatedFramesAreDetectedAndRetriedOverTcp) {
  expect_truncated_frames_retried(chaos_tcp_endpoint({{"seed", "5"}, {"truncate", "0.08"}}));
}

void expect_disconnects_force_reconnects(const Uri& endpoint) {
  rpc::RpcServer server(endpoint);
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = rpc::RpcClient::connect(server.endpoint(), 5.0, chaos_retry_policy());
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < 25; ++i) {
    auto reply = client->call("Chaos", "echo", payload_of("cut"), "", 10.0);
    ASSERT_TRUE(reply.is_ok()) << i << ": " << reply.status().to_string();
  }
  // 25 calls across connections that die after 5 frames each.
  EXPECT_GE(client->stats().reconnects, 3u);
  EXPECT_GE(client->stats().retries, 3u);
  server.stop();
}

TEST(ChaosRpc, DisconnectEveryFewFramesForcesReconnects) {
  expect_disconnects_force_reconnects(
      chaos_endpoint("cut", {{"seed", "3"}, {"disconnect_after", "5"}}));
}

TEST(ChaosRpc, DisconnectEveryFewFramesForcesReconnectsOverTcp) {
  expect_disconnects_force_reconnects(
      chaos_tcp_endpoint({{"seed", "3"}, {"disconnect_after", "5"}}));
}

TEST(ChaosRpc, FirstConnectionsDyingStillConverges) {
  rpc::RpcServer server(chaos_endpoint("young", {{"seed", "1"}, {"fail_first", "2"}}));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = rpc::RpcClient::connect(server.endpoint(), 5.0, chaos_retry_policy());
  ASSERT_TRUE(client.is_ok());
  // Connections 0 and 1 die on their first send; the call must survive both.
  auto reply = client->call("Chaos", "echo", payload_of("persist"), "", 10.0);
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_GE(client->stats().reconnects, 2u);
  server.stop();
}

TEST(ChaosRpc, DelayMakesCallsSlowNotPartial) {
  rpc::RpcServer server(chaos_endpoint(
      "slow", {{"seed", "2"}, {"delay_p", "0.5"}, {"delay_ms", "5"}}));
  server.add_service(make_echo_service());
  ASSERT_TRUE(server.start().is_ok());

  auto client = rpc::RpcClient::connect(server.endpoint(), 5.0, chaos_retry_policy());
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->call("Chaos", "echo", payload_of("zzz"), "", 10.0).is_ok());
  }
  // Delays alone are absorbed as latency: no retry, no reconnect.
  EXPECT_EQ(client->stats().retries, 0u);
  EXPECT_EQ(client->stats().reconnects, 0u);
  server.stop();
}

// --- SOAP path -------------------------------------------------------------

TEST(ChaosSoap, StaleConnectionIsRedialedAndReplayed) {
  soap::SoapServer server("127.0.0.1", 0);
  server.register_operation("Probe", "ping",
                            [](const soap::SoapContext&, const xml::Node&) {
                              xml::Node reply("ipa:pong");
                              return Result<xml::Node>(std::move(reply));
                            });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  auto client = soap::SoapClient::connect(*bound);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client->call("Probe", "ping", xml::Node("ipa:ping")).is_ok());

  // Sever the keep-alive connection between calls — the classic idle-drop.
  client->drop_connection();
  auto reply = client->call("Probe", "ping", xml::Node("ipa:ping"));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(client->reconnects(), 1u);
  server.stop();
}

// --- full-stack sessions under chaos ---------------------------------------

class ChaosGridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-chaos-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
    Rng rng(1);
    std::vector<data::Record> records;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      data::Record record(i);
      record.set("x", rng.uniform());
      records.push_back(std::move(record));
    }
    dataset_ = (dir_ / "d.ipd").string();
    ASSERT_TRUE(data::write_dataset(dataset_, "d", records).is_ok());
  }

  void TearDown() override {
    if (manager_) manager_->stop();
    manager_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Manager whose whole RMI plane (worker pushes, heartbeats, client
  /// polling) runs over the given endpoint.
  void start_manager(Uri rpc_endpoint) {
    services::ManagerConfig config;
    config.staging_dir = (dir_ / "staging").string();
    config.engine_config.snapshot_every = 200;
    config.rpc_endpoint = std::move(rpc_endpoint);
    config.heartbeat_timeout_s = 2.0;  // fault-induced gaps are not death
    auto manager = services::ManagerNode::start(std::move(config));
    ASSERT_TRUE(manager.is_ok()) << manager.status().to_string();
    manager_ = std::move(*manager);
    ASSERT_TRUE(manager_->publish_dataset("d/d1", "ds-1", {}, dataset_).is_ok());
    token_ = manager_->authority().issue("cn=user", {"analysis"}, 3600);
  }

  /// Run one 2-engine count session to completion; returns entry count.
  Result<std::uint64_t> run_session(client::GridClient& client) {
    IPA_ASSIGN_OR_RETURN(auto session, client.create_session(2));
    IPA_RETURN_IF_ERROR(session.activate());
    IPA_RETURN_IF_ERROR(session.select_dataset("ds-1").status());
    IPA_RETURN_IF_ERROR(session.stage_script("count", kCountScript));
    IPA_ASSIGN_OR_RETURN(auto tree, session.run_to_completion(45.0));
    IPA_ASSIGN_OR_RETURN(auto* hist, tree.histogram1d("/n"));
    const std::uint64_t entries = hist->entries();
    IPA_RETURN_IF_ERROR(session.close());
    return entries;
  }

  std::filesystem::path dir_;
  std::string dataset_;
  std::unique_ptr<services::ManagerNode> manager_;
  std::string token_;
};

TEST_F(ChaosGridTest, FullSessionOverFaultyRmiPlaneCompletes) {
  start_manager(chaos_endpoint(
      "rmi", {{"seed", "11"}, {"drop", "0.02"}, {"delay_p", "0.1"}, {"delay_ms", "1"}}));
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  ASSERT_TRUE(client.is_ok());
  auto entries = run_session(*client);
  ASSERT_TRUE(entries.is_ok()) << entries.status().to_string();
  EXPECT_EQ(*entries, 1000u);
}

TEST_F(ChaosGridTest, FaultyPollingPathCompletesViaRetry) {
  // Faults only between client and manager: the engines' side is clean.
  start_manager(Uri{});
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  ASSERT_TRUE(client.is_ok());
  client->set_rmi_retry_policy(chaos_retry_policy());
  client->set_rmi_decorator([](const Uri& rmi) {
    Uri chaos = rmi;
    chaos.scheme = "chaos+inproc";
    chaos.query = {{"seed", "13"}, {"drop", "0.1"}};
    return chaos;
  });
  auto entries = run_session(*client);
  ASSERT_TRUE(entries.is_ok()) << entries.status().to_string();
  EXPECT_EQ(*entries, 1000u);
}

TEST_F(ChaosGridTest, SeededFailureMatrixCompletesOrDegrades) {
  // Kitchen sink: drops, truncation, delays and periodic disconnects on the
  // whole RMI plane, across three seeds. Every session must terminate with
  // either the complete result or a flagged degraded one.
  for (const char* seed : {"101", "102", "103"}) {
    SCOPED_TRACE(std::string("seed=") + seed);
    start_manager(chaos_endpoint("matrix", {{"seed", seed},
                                            {"drop", "0.05"},
                                            {"truncate", "0.02"},
                                            {"delay_p", "0.2"},
                                            {"delay_ms", "2"},
                                            {"disconnect_after", "40"}}));
    auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
    ASSERT_TRUE(client.is_ok());
    auto session = client->create_session(2);
    ASSERT_TRUE(session.is_ok());
    ASSERT_TRUE(session->activate().is_ok());
    ASSERT_TRUE(session->select_dataset("ds-1").is_ok());
    ASSERT_TRUE(session->stage_script("count", kCountScript).is_ok());
    auto tree = session->run_to_completion(45.0);
    ASSERT_TRUE(tree.is_ok()) << tree.status().to_string();
    auto hist = tree->histogram1d("/n");
    ASSERT_TRUE(hist.is_ok());
    if (session->degraded()) {
      EXPECT_LT((*hist)->entries(), 1000u);  // partial, and flagged as such
    } else {
      EXPECT_EQ((*hist)->entries(), 1000u);  // complete despite the faults
    }
    EXPECT_TRUE(session->close().is_ok());
    manager_->stop();
    manager_.reset();
  }
}

TEST_F(ChaosGridTest, DroppedPollingConnectionRecoversMidSession) {
  start_manager(Uri{});
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  ASSERT_TRUE(client.is_ok());
  auto session = client->create_session(2);
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-1").is_ok());
  ASSERT_TRUE(session->stage_script("count", kCountScript).is_ok());
  ASSERT_TRUE(session->run().is_ok());
  // Repeatedly sever the polling connection while the run is in flight.
  for (int i = 0; i < 5; ++i) {
    session->drop_connections();
    auto update = session->poll();
    ASSERT_TRUE(update.is_ok()) << i << ": " << update.status().to_string();
    // ipa-lint: allow(sleep-sync) -- paces reconnect churn between drop rounds; nothing waits on it.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Poll (over yet more re-dials) until both engines report done.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  client::PollUpdate last;
  while (std::chrono::steady_clock::now() < deadline) {
    auto update = session->poll();
    ASSERT_TRUE(update.is_ok()) << update.status().to_string();
    last.engines = std::move(update->engines);
    if (last.all_engines_done(2)) break;
    // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; all_engines_done decides.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(last.all_engines_done(2));
  EXPECT_FALSE(last.any_engine_failed());
  EXPECT_GE(session->rmi_stats().reconnects, 5u);
  EXPECT_FALSE(session->degraded());
  EXPECT_TRUE(session->close().is_ok());
}

}  // namespace
}  // namespace ipa
