#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "common/rng.hpp"

namespace ipa::engine {
namespace {

const char* kSumScript = R"(
func begin(tree) {
  tree.book_h1("/e", 20, 0, 200);
}
func process(event, tree) {
  tree.fill("/e", event.num("energy"));
}
func end(tree) {
  print("end reached");
}
)";

/// A native plugin counting records.
class CountingAnalyzer final : public Analyzer {
 public:
  Status begin(aida::Tree& tree) override {
    auto hist = aida::Histogram1D::create("count", 1, 0, 1);
    tree.put("/count", std::move(*hist));
    return Status::ok();
  }
  Status process_batch(const data::RecordBatch& batch, aida::Tree& tree) override {
    auto hist = tree.histogram1d("/count");
    for (std::size_t row = 0; row < batch.rows(); ++row) (*hist)->fill(0.5);
    return Status::ok();
  }
};

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Registration is idempotent per process.
    (void)AnalyzerRegistry::instance().register_factory(
        "counting", [] { return std::make_unique<CountingAnalyzer>(); });
  }

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-eng-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
    dataset_path_ = (dir_ / "part.ipd").string();
    Rng rng(1);
    std::vector<data::Record> records;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      data::Record record(i);
      record.set("energy", rng.uniform(0.0, 200.0));
      records.push_back(std::move(record));
    }
    ASSERT_TRUE(data::write_dataset(dataset_path_, "part", records).is_ok());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static CodeBundle script_bundle(const std::string& source) {
    return CodeBundle{CodeBundle::Kind::kScript, "test-script", source};
  }

  static constexpr std::uint64_t kRecords = 500;
  std::filesystem::path dir_;
  std::string dataset_path_;
};

TEST_F(EngineTest, FullRunFillsHistogram) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  const Progress done = engine.wait();
  EXPECT_EQ(done.state, EngineState::kFinished);
  EXPECT_EQ(done.processed, kRecords);
  EXPECT_EQ(done.total, kRecords);

  aida::Tree tree = engine.tree_copy();
  auto hist = tree.histogram1d("/e");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_EQ((*hist)->entries(), kRecords);
}

TEST_F(EngineTest, NativePluginRuns) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(
      engine.stage_code(CodeBundle{CodeBundle::Kind::kPlugin, "c", "counting"}).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_EQ(engine.wait().state, EngineState::kFinished);
  auto tree = engine.tree_copy();
  EXPECT_DOUBLE_EQ((*tree.histogram1d("/count"))->bin_height(0),
                   static_cast<double>(kRecords));
}

TEST_F(EngineTest, UnknownPluginRejectedAtStaging) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  EXPECT_EQ(engine.stage_code(CodeBundle{CodeBundle::Kind::kPlugin, "x", "no-such"}).code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, BadScriptRejectedAtStaging) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  EXPECT_FALSE(engine.stage_code(script_bundle("func broken( {")).is_ok());
  EXPECT_FALSE(engine.stage_code(script_bundle("func not_process(e) { }")).is_ok());
}

TEST_F(EngineTest, RunWithoutStagingFails) {
  AnalysisEngine engine;
  EXPECT_EQ(engine.run().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  EXPECT_EQ(engine.run().code(), StatusCode::kFailedPrecondition);  // still no code
}

TEST_F(EngineTest, RunRecordsPausesAtBudget) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.run_records(100).is_ok());
  Progress p = engine.wait();
  EXPECT_EQ(p.state, EngineState::kPaused);
  EXPECT_EQ(p.processed, 100u);

  // Resume for another 50.
  ASSERT_TRUE(engine.run_records(50).is_ok());
  p = engine.wait();
  EXPECT_EQ(p.processed, 150u);

  // Run to completion.
  ASSERT_TRUE(engine.run().is_ok());
  p = engine.wait();
  EXPECT_EQ(p.state, EngineState::kFinished);
  EXPECT_EQ(p.processed, kRecords);
  EXPECT_EQ((*engine.tree_copy().histogram1d("/e"))->entries(), kRecords);
}

TEST_F(EngineTest, RewindClearsAndReruns) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.wait().state, EngineState::kFinished);

  EXPECT_EQ(engine.run().code(), StatusCode::kFailedPrecondition);  // must rewind
  ASSERT_TRUE(engine.rewind().is_ok());
  EXPECT_EQ(engine.progress().processed, 0u);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.wait().state, EngineState::kFinished);
  EXPECT_EQ((*engine.tree_copy().histogram1d("/e"))->entries(), kRecords);  // not doubled
}

TEST_F(EngineTest, HotCodeReloadBetweenRuns) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.wait().state, EngineState::kFinished);

  // Edit the analysis (different booking), rewind, re-run — no re-staging.
  const char* kV2 = R"(
func begin(tree) { tree.book_h1("/e2", 10, 0, 400); }
func process(event, tree) { tree.fill("/e2", event.num("energy") * 2); }
)";
  ASSERT_TRUE(engine.rewind().is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kV2)).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.wait().state, EngineState::kFinished);

  aida::Tree tree = engine.tree_copy();
  EXPECT_FALSE(tree.find("/e").is_ok());   // old booking gone after rewind
  auto hist = tree.histogram1d("/e2");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_EQ((*hist)->entries(), kRecords);
}

TEST_F(EngineTest, PauseResumeKeepsAccumulating) {
  AnalysisEngine engine({.snapshot_every = 50, .interp = {}});
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.run_records(200).is_ok());
  ASSERT_EQ(engine.wait().state, EngineState::kPaused);
  // Tree is readable while paused.
  EXPECT_EQ((*engine.tree_copy().histogram1d("/e"))->entries(), 200u);
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.wait().state, EngineState::kFinished);
  EXPECT_EQ((*engine.tree_copy().histogram1d("/e"))->entries(), kRecords);
}

TEST_F(EngineTest, StopThenRunContinuesFromPosition) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.run_records(120).is_ok());
  engine.wait();
  ASSERT_TRUE(engine.stop().is_ok());
  EXPECT_EQ(engine.state(), EngineState::kStopped);
  ASSERT_TRUE(engine.run().is_ok());
  const Progress p = engine.wait();
  EXPECT_EQ(p.state, EngineState::kFinished);
  EXPECT_EQ(p.processed, kRecords);
}

TEST_F(EngineTest, SnapshotsArriveDuringRun) {
  AnalysisEngine engine({.snapshot_every = 100, .interp = {}});
  std::atomic<int> snapshots{0};
  std::atomic<std::uint64_t> last_entries{0};
  engine.set_snapshot_handler([&](const ser::Bytes& bytes, const Progress&) {
    auto tree = aida::Tree::deserialize(bytes);
    ASSERT_TRUE(tree.is_ok());
    auto hist = tree->histogram1d("/e");
    if (hist.is_ok()) last_entries = (*hist)->entries();
    ++snapshots;
  });
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  ASSERT_EQ(engine.wait().state, EngineState::kFinished);
  // 500 records / 100 per snapshot = 5 interim + 1 final.
  EXPECT_GE(snapshots.load(), 5);
  EXPECT_EQ(last_entries.load(), kRecords);
}

TEST_F(EngineTest, ScriptRuntimeErrorFailsEngine) {
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  const char* kCrash = R"(
func begin(tree) { tree.book_h1("/e", 10, 0, 1); }
func process(event, tree) { return event.get("no-such-field"); }
)";
  ASSERT_TRUE(engine.stage_code(script_bundle(kCrash)).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  const Progress p = engine.wait();
  EXPECT_EQ(p.state, EngineState::kFailed);
  EXPECT_NE(p.error.find("no-such-field"), std::string::npos);
  // Recoverable: fix the code and rewind.
  ASSERT_TRUE(engine.stage_code(script_bundle(kSumScript)).is_ok());
  ASSERT_TRUE(engine.rewind().is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_EQ(engine.wait().state, EngineState::kFinished);
}

TEST_F(EngineTest, ControlsRejectWrongStates) {
  AnalysisEngine engine;
  EXPECT_FALSE(engine.pause().is_ok());
  EXPECT_FALSE(engine.stop().is_ok());
  EXPECT_FALSE(engine.rewind().is_ok());  // no dataset yet
  EXPECT_FALSE(engine.run_records(0).is_ok());
}

TEST_F(EngineTest, StagingWhileRunningRejected) {
  // A slow script keeps the engine busy long enough to probe the guards.
  const char* kSlow = R"(
func begin(tree) { tree.book_h1("/e", 10, 0, 1); }
func process(event, tree) {
  let x = 0;
  for (let i = 0; i < 2000; i += 1) { x += i; }
}
)";
  AnalysisEngine engine;
  ASSERT_TRUE(engine.stage_dataset(dataset_path_).is_ok());
  ASSERT_TRUE(engine.stage_code(script_bundle(kSlow)).is_ok());
  ASSERT_TRUE(engine.run().is_ok());
  EXPECT_EQ(engine.stage_dataset(dataset_path_).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.stage_code(script_bundle(kSumScript)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.rewind().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.stop().is_ok());
  engine.wait();
}

TEST_F(EngineTest, CodeBundleSerializeRoundTrip) {
  const CodeBundle bundle{CodeBundle::Kind::kScript, "v1", "func process(e, t) { }"};
  ser::Writer w;
  bundle.encode(w);
  ser::Reader r(w.data());
  auto back = CodeBundle::decode(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, bundle);
}

TEST_F(EngineTest, EngineStateNames) {
  EXPECT_EQ(to_string(EngineState::kIdle), "idle");
  EXPECT_EQ(to_string(EngineState::kRunning), "running");
  EXPECT_EQ(to_string(EngineState::kFailed), "failed");
}

}  // namespace
}  // namespace ipa::engine
