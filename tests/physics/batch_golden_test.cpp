// Golden batch-size invariance: an analyzer must produce byte-identical
// trees whether it is fed one row at a time (the scalar reference) or any
// other cut of the same rows into batches — for both the native Higgs
// plugin and the PawScript path, and through the full engine loop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "aida/tree.hpp"
#include "data/dataset.hpp"
#include "engine/analyzer.hpp"
#include "engine/engine.hpp"
#include "physics/event_gen.hpp"

namespace ipa::physics {
namespace {

class BatchGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: ctest -j runs each TEST as its own process, and a
    // shared path would race SetUp against another case's remove_all.
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-batch-golden-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "events.ipd").string();
    GeneratorConfig config;
    config.signal_fraction = 0.35;
    ASSERT_TRUE(generate_dataset(path_, "golden", 600, config, 42).is_ok());
    register_higgs_plugin();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // Runs a fresh analyzer over the whole dataset straight off the reader,
  // cutting batches by cycling through `chunks`.
  ser::Bytes run(const std::function<std::unique_ptr<engine::Analyzer>()>& make,
                 const std::vector<std::uint64_t>& chunks) {
    const std::unique_ptr<engine::Analyzer> analyzer = make();
    aida::Tree tree;
    EXPECT_TRUE(analyzer->begin(tree).is_ok());
    auto reader = data::DatasetReader::open(path_);
    EXPECT_TRUE(reader.is_ok());
    data::RecordBatch batch = reader->make_batch();
    for (std::size_t i = 0;; ++i) {
      batch.clear();
      auto appended = reader->read_batch(batch, chunks[i % chunks.size()]);
      EXPECT_TRUE(appended.is_ok()) << appended.status().to_string();
      if (*appended == 0) break;
      EXPECT_TRUE(analyzer->process_batch(batch, tree).is_ok());
    }
    EXPECT_TRUE(analyzer->end(tree).is_ok());
    return tree.serialize();
  }

  // Every batch cut must match the one-row-at-a-time reference.
  void expect_batch_size_invariant(
      const std::function<std::unique_ptr<engine::Analyzer>()>& make) {
    const ser::Bytes reference = run(make, {1});
    EXPECT_EQ(run(make, {7}), reference) << "chunk 7";
    EXPECT_EQ(run(make, {256}), reference) << "chunk 256";
    EXPECT_EQ(run(make, {5, 1, 64, 2, 256, 31}), reference) << "uneven schedule";
  }

  static std::unique_ptr<engine::Analyzer> higgs_plugin() {
    auto analyzer = engine::AnalyzerRegistry::instance().create("higgs-mass");
    EXPECT_TRUE(analyzer.is_ok());
    return std::move(*analyzer);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(BatchGoldenTest, HiggsPluginScalarAndBatchBitIdentical) {
  expect_batch_size_invariant(higgs_plugin);
}

TEST_F(BatchGoldenTest, PawScriptScalarAndBatchBitIdentical) {
  expect_batch_size_invariant([]() -> std::unique_ptr<engine::Analyzer> {
    auto analyzer = engine::ScriptAnalyzer::compile(higgs_script());
    EXPECT_TRUE(analyzer.is_ok());
    return std::move(*analyzer);
  });
}

TEST_F(BatchGoldenTest, EngineRunMatchesManualScalarLoop) {
  // Full engine (batched process_loop) vs the one-row-at-a-time reference.
  const ser::Bytes reference = run(higgs_plugin, {1});

  engine::AnalysisEngine eng({.snapshot_every = 100, .batch_size = 37, .interp = {}});
  ASSERT_TRUE(eng.stage_dataset(path_).is_ok());
  ASSERT_TRUE(eng.stage_code({engine::CodeBundle::Kind::kPlugin, "p", "higgs-mass"}).is_ok());
  ASSERT_TRUE(eng.run().is_ok());
  ASSERT_EQ(eng.wait().state, engine::EngineState::kFinished);
  EXPECT_EQ(eng.snapshot(), reference);
}

TEST_F(BatchGoldenTest, RunRecordsBudgetExactWithBatching) {
  engine::AnalysisEngine eng({.snapshot_every = 1000, .batch_size = 64, .interp = {}});
  ASSERT_TRUE(eng.stage_dataset(path_).is_ok());
  ASSERT_TRUE(eng.stage_code({engine::CodeBundle::Kind::kPlugin, "p", "higgs-mass"}).is_ok());
  ASSERT_TRUE(eng.run_records(100).is_ok());
  EXPECT_EQ(eng.wait().processed, 100u);  // batch cap must not overshoot
  ASSERT_TRUE(eng.run_records(33).is_ok());
  EXPECT_EQ(eng.wait().processed, 133u);
}

}  // namespace
}  // namespace ipa::physics
