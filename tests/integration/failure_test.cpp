// Failure injection and concurrency: what happens when the grid machinery
// breaks under a session, and whether independent sessions stay isolated
// while running simultaneously.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "client/grid_client.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "engine/analyzer.hpp"
#include "services/manager.hpp"

namespace ipa {
namespace {

const char* kCountScript = R"(
func begin(tree) { tree.book_h1("/n", 1, 0, 1); }
func process(event, tree) { tree.fill("/n", 0.5); }
)";

/// Holds runs open until a test opens it. While it is closed, every batch
/// of the "gated-count" plugin waits for it, but never longer than
/// kGateWait: killing or closing an engine waits for its executing batch.
class RunGate {
 public:
  static constexpr std::chrono::milliseconds kGateWait{5};

  void set_open(bool open) {
    {
      LockGuard lock(mutex_);
      open_ = open;
    }
    cv_.notify_all();
  }

  void pass() {
    UniqueLock lock(mutex_);
    (void)cv_.wait_for(lock, kGateWait, [&]() IPA_REQUIRES(mutex_) { return open_; });
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  bool open_ IPA_GUARDED_BY(mutex_) = true;
};

RunGate& run_gate() {
  static RunGate gate;
  return gate;
}

/// Counts records into "/n", like kCountScript, one gate pass per batch.
class GatedCountAnalyzer final : public engine::Analyzer {
 public:
  Status begin(aida::Tree& tree) override {
    auto hist = aida::Histogram1D::create("n", 1, 0, 1);
    tree.put("/n", std::move(*hist));
    return Status::ok();
  }
  Status process_batch(const data::RecordBatch& batch, aida::Tree& tree) override {
    run_gate().pass();
    auto hist = tree.histogram1d("/n");
    for (std::size_t row = 0; row < batch.rows(); ++row) (*hist)->fill(0.5);
    return Status::ok();
  }
};

/// Starts engines like the default compute element and counts the single
/// starts the dead-engine scan makes when it restarts one.
class CountingComputeElement final : public services::ComputeElement {
 public:
  explicit CountingComputeElement(engine::EngineConfig config) : inner_(config) {}

  Result<std::unique_ptr<services::EngineHandle>> start_engine(
      const std::string& session_id, const std::string& engine_id,
      const Uri& endpoint) override {
    ++restarts_;
    return inner_.start_engine(session_id, engine_id, endpoint);
  }

  Result<std::vector<std::unique_ptr<services::EngineHandle>>> start_engines(
      const std::string& session_id, int count, const Uri& endpoint) override {
    return inner_.start_engines(session_id, count, endpoint);
  }

  int restarts() const { return restarts_.load(); }

 private:
  services::LocalComputeElement inner_;
  std::atomic<int> restarts_{0};
};

class FailureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Registration is idempotent per process.
    (void)engine::AnalyzerRegistry::instance().register_factory(
        "gated-count", [] { return std::make_unique<GatedCountAnalyzer>(); });
  }

  void SetUp() override {
    run_gate().set_open(false);
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-fail-" +
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
    start_manager(/*restart_lost_engines=*/true);
  }

  /// (Re)start the manager with aggressive liveness timing so dead-engine
  /// tests converge quickly.
  void start_manager(bool restart_lost_engines) {
    if (manager_) {
      manager_->stop();
      manager_.reset();
    }
    services::ManagerConfig config;
    config.staging_dir = (dir_ / "staging").string();
    config.engine_config = engine_config();
    config.heartbeat_timeout_s = 0.4;
    config.monitor_interval_s = 0.1;
    config.restart_lost_engines = restart_lost_engines;
    auto manager = services::ManagerNode::start(std::move(config));
    ASSERT_TRUE(manager.is_ok());
    manager_ = std::move(*manager);
    ASSERT_TRUE(manager_->publish_dataset("d/d1", "ds-1", {}, dataset_).is_ok());
    token_ = manager_->authority().issue("cn=user", {"analysis"}, 3600);
  }

  /// One record per batch, so a closed gate holds a run open for about
  /// kGateWait per record.
  static engine::EngineConfig engine_config() {
    engine::EngineConfig config;
    config.snapshot_every = 200;
    config.batch_size = 1;
    return config;
  }

  void TearDown() override {
    run_gate().set_open(true);
    manager_->stop();
    manager_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Poll until every engine is finished, failed or lost; returns the last
  /// update seen. Fails the test on timeout.
  client::PollUpdate poll_until_done(client::GridSession& session, std::size_t engines,
                                     double timeout_s) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
    client::PollUpdate last;
    while (std::chrono::steady_clock::now() < deadline) {
      auto update = session.poll();
      if (update.is_ok()) {
        if (update->changed) last.merged = std::move(update->merged);
        last.version = update->version;
        last.engines = std::move(update->engines);
        if (last.all_engines_done(engines)) return last;
      }
      // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; the
      // all_engines_done predicate, not the sleep, decides.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "engines did not finish within " << timeout_s << "s";
    return last;
  }

  /// Poll until `engines` engine reports exist and every one is actively
  /// running — the point where a kill or close lands mid-run, not before
  /// the run verb has even reached the engines.
  void wait_until_running(client::GridSession& session, std::size_t engines,
                          double timeout_s = 10.0) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      auto update = session.poll();
      if (update.is_ok() && update->engines.size() >= engines) {
        bool all_running = true;
        for (const auto& report : update->engines) {
          all_running = all_running && report.state == engine::EngineState::kRunning;
        }
        if (all_running) return;
      }
      // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; the
      // engine-state predicate, not the sleep, decides.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "engines never reached kRunning within " << timeout_s << "s";
  }

  std::filesystem::path dir_;
  std::string dataset_;
  std::unique_ptr<services::ManagerNode> manager_;
  std::string token_;
};

/// A compute element that refuses to start engines (queue down / GRAM
/// failure).
class BrokenComputeElement final : public services::ComputeElement {
 public:
  Result<std::unique_ptr<services::EngineHandle>> start_engine(const std::string&,
                                                               const std::string&,
                                                               const Uri&) override {
    return unavailable("GRAM: job manager contact failed");
  }
};

/// Starts fewer engines than requested (partial node failure).
class PartialComputeElement final : public services::ComputeElement {
 public:
  Result<std::unique_ptr<services::EngineHandle>> start_engine(
      const std::string& session_id, const std::string& engine_id,
      const Uri& endpoint) override {
    return inner_.start_engine(session_id, engine_id, endpoint);
  }

  Result<std::vector<std::unique_ptr<services::EngineHandle>>> start_engines(
      const std::string& session_id, int count, const Uri& endpoint) override {
    return inner_.start_engines(session_id, count > 1 ? count - 1 : count, endpoint);
  }

 private:
  services::LocalComputeElement inner_;
};

TEST_F(FailureTest, ActivateSurfacesComputeElementFailure) {
  manager_->set_compute_element(std::make_unique<BrokenComputeElement>());
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(2);
  ASSERT_TRUE(session.is_ok());
  const Status failed = session->activate();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_NE(failed.message().find("GRAM"), std::string::npos);
  // The session resource still exists and can be closed cleanly.
  EXPECT_TRUE(session->close().is_ok());
}

TEST_F(FailureTest, PartialEngineStartupIsRejected) {
  manager_->set_compute_element(std::make_unique<PartialComputeElement>());
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(4);
  ASSERT_TRUE(session.is_ok());
  const Status failed = session->activate();
  // 3 of 4 engines came up: the session must refuse to run degraded
  // rather than silently analyze 3/4 of the data.
  ASSERT_FALSE(failed.is_ok());
  EXPECT_TRUE(session->close().is_ok());
}

TEST_F(FailureTest, EngineFailureMidRunReachesClient) {
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(2);
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-1").is_ok());
  // Script that dies on a record index it will hit in every part.
  const char* kDies = R"(
func begin(tree) { tree.book_h1("/n", 1, 0, 1); }
func process(event, tree) {
  tree.fill("/n", 0.5);
  if (event.num("x") > 0.9) { return [1][5]; }  // out-of-range error
}
)";
  ASSERT_TRUE(session->stage_script("dies", kDies).is_ok());
  const auto result = session->run_to_completion(30.0);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos)
      << result.status().message();

  // Recovery: fix the script, rewind, rerun.
  ASSERT_TRUE(session->rewind().is_ok());
  ASSERT_TRUE(session->stage_script("fixed", kCountScript).is_ok());
  auto tree = session->run_to_completion(30.0);
  ASSERT_TRUE(tree.is_ok()) << tree.status().to_string();
  EXPECT_DOUBLE_EQ((*tree->histogram1d("/n"))->bin_height(0), 1000.0);
  ASSERT_TRUE(session->close().is_ok());
}

TEST_F(FailureTest, TwoSessionsRunConcurrently) {
  // Two users analyze the same dataset at the same time; results must be
  // complete and independent.
  const std::string token_b = manager_->authority().issue("cn=other", {"analysis"}, 3600);

  auto run_session = [&](const std::string& token, double scale) -> double {
    auto client = client::GridClient::connect(manager_->soap_endpoint(), token);
    if (!client.is_ok()) return -1;
    auto session = client->create_session(2);
    if (!session.is_ok()) return -1;
    if (!session->activate().is_ok()) return -2;
    if (!session->select_dataset("ds-1").is_ok()) return -3;
    const std::string script =
        "func begin(tree) { tree.book_h1(\"/s\", 1, 0, 10); }\n"
        "func process(event, tree) { tree.fill(\"/s\", " +
        std::to_string(scale) + "); }\n";
    if (!session->stage_script("s", script).is_ok()) return -4;
    auto tree = session->run_to_completion(60.0);
    if (!tree.is_ok()) return -5;
    auto hist = tree->histogram1d("/s");
    const double entries = static_cast<double>((*hist)->entries());
    (void)session->close();
    return entries;
  };

  double result_a = 0, result_b = 0;
  {
    std::jthread a([&] { result_a = run_session(token_, 1.0); });
    std::jthread b([&] { result_b = run_session(token_b, 2.0); });
  }
  EXPECT_DOUBLE_EQ(result_a, 1000.0);
  EXPECT_DOUBLE_EQ(result_b, 1000.0);
  EXPECT_EQ(manager_->active_sessions(), 0u);
}

TEST_F(FailureTest, CloseWhileRunningShutsEnginesDown) {
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(2);
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-1").is_ok());
  // The closed gate keeps the session running until close.
  ASSERT_TRUE(session->stage_plugin("gated-count").is_ok());
  ASSERT_TRUE(session->run().is_ok());
  wait_until_running(*session, 2);
  EXPECT_TRUE(session->close().is_ok());
  EXPECT_EQ(manager_->active_sessions(), 0u);
  // Manager survives and can host a fresh session afterwards.
  auto again = client->create_session(1);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->close().is_ok());
}

TEST_F(FailureTest, EngineKilledMidRunIsRestarted) {
  // An engine dies mid-run; the heartbeat monitor restarts it on the same
  // compute slot, re-stages data + code, replays the run verb, and the
  // session still produces the COMPLETE result.
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(2);
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-1").is_ok());
  ASSERT_TRUE(session->stage_plugin("gated-count").is_ok());
  ASSERT_TRUE(session->run().is_ok());
  wait_until_running(*session, 2);

  const std::string session_id = session->info().session_id;
  ASSERT_TRUE(manager_->kill_engine(session_id, session_id + "-eng0").is_ok());
  run_gate().set_open(true);

  auto last = poll_until_done(*session, 2, 30.0);
  EXPECT_FALSE(last.any_engine_failed());
  // The restarted engine reran its whole part, so nothing is missing.
  auto hist = last.merged.histogram1d("/n");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_EQ((*hist)->entries(), 1000u);
  EXPECT_TRUE(session->close().is_ok());
}

TEST_F(FailureTest, EngineKilledWithRestartDisabledDegrades) {
  // Same death, but the site policy forbids restarts: the session must
  // complete DEGRADED — partial merged result, explicitly flagged — rather
  // than hang or fail.
  start_manager(/*restart_lost_engines=*/false);
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(2);
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-1").is_ok());
  ASSERT_TRUE(session->stage_plugin("gated-count").is_ok());
  ASSERT_TRUE(session->run().is_ok());
  wait_until_running(*session, 2);

  const std::string session_id = session->info().session_id;
  ASSERT_TRUE(manager_->kill_engine(session_id, session_id + "-eng0").is_ok());
  run_gate().set_open(true);

  auto last = poll_until_done(*session, 2, 30.0);
  EXPECT_TRUE(last.degraded());
  EXPECT_FALSE(last.any_engine_failed());
  EXPECT_TRUE(session->degraded());
  // The surviving engine's part is all there; the dead engine contributes
  // at most its last snapshot. The byte-balanced split may hand the
  // survivor slightly fewer than half of the 1000 records (frame sizes,
  // not record counts, are equalized), hence the margin below 500.
  auto hist = last.merged.histogram1d("/n");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_GE((*hist)->entries(), 450u);
  EXPECT_LT((*hist)->entries(), 1000u);
  EXPECT_TRUE(session->close().is_ok());
}

TEST_F(FailureTest, SixteenSlowEnginesKeepTheirHeartbeats) {
  // Sixteen engines run as slices on the site pool that also carries their
  // heartbeats and the dead-engine scan. With every batch held by the
  // closed gate for ~5 ms, the run spans several 0.4 s heartbeat timeouts;
  // no engine may be taken for dead, lost or restarted meanwhile.
  Rng rng(2);
  std::vector<data::Record> records;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    data::Record record(i);
    record.set("x", rng.uniform());
    records.push_back(std::move(record));
  }
  const std::string dataset = (dir_ / "d16.ipd").string();
  ASSERT_TRUE(data::write_dataset(dataset, "d16", records).is_ok());
  ASSERT_TRUE(manager_->publish_dataset("d/d16", "ds-16", {}, dataset).is_ok());
  auto compute = std::make_unique<CountingComputeElement>(engine_config());
  const CountingComputeElement& counting = *compute;
  manager_->set_compute_element(std::move(compute));

  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(16);
  ASSERT_TRUE(session.is_ok());
  ASSERT_EQ(session->info().granted_nodes, 16);
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-16").is_ok());
  ASSERT_TRUE(session->stage_plugin("gated-count").is_ok());
  ASSERT_TRUE(session->run().is_ok());

  auto last = poll_until_done(*session, 16, 60.0);
  EXPECT_FALSE(last.degraded());
  EXPECT_FALSE(last.any_engine_failed());
  EXPECT_EQ(counting.restarts(), 0);
  auto hist = last.merged.histogram1d("/n");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_EQ((*hist)->entries(), 4000u);
  EXPECT_TRUE(session->close().is_ok());
}

TEST_F(FailureTest, ManagerStopWithLiveSessionsIsClean) {
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(2);
  ASSERT_TRUE(session.is_ok());
  ASSERT_TRUE(session->activate().is_ok());
  ASSERT_TRUE(session->select_dataset("ds-1").is_ok());
  ASSERT_TRUE(session->stage_script("s", kCountScript).is_ok());
  ASSERT_TRUE(session->run().is_ok());
  manager_->stop();  // hard site shutdown under a running session
  // Client calls now fail but do not hang or crash.
  const auto status = session->poll();
  EXPECT_FALSE(status.is_ok());
}

TEST_F(FailureTest, PollWithForeignSessionIdFails) {
  auto client = client::GridClient::connect(manager_->soap_endpoint(), token_);
  auto session = client->create_session(1);
  ASSERT_TRUE(session.is_ok());
  // Raw RMI poll with a bogus session id.
  auto rmi = rpc::RpcClient::connect(session->info().rmi_endpoint);
  ASSERT_TRUE(rmi.is_ok());
  auto reply = rmi->call(services::kAidaManagerService, "poll",
                         services::encode_poll_request("sess-bogus", 0));
  ASSERT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(session->close().is_ok());
}

}  // namespace
}  // namespace ipa
