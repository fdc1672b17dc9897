#include "workloads/workloads.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "engine/engine.hpp"

namespace ipa::workloads {
namespace {

TEST(Dna, ReadShapeAndComposition) {
  Rng rng(1);
  DnaConfig config;
  const data::Record read = generate_read(rng, config, 5);
  EXPECT_EQ(read.index(), 5u);
  const std::string seq = read.str_or("seq");
  EXPECT_EQ(static_cast<int>(seq.size()), config.read_length);
  for (const char base : seq) {
    EXPECT_TRUE(base == 'A' || base == 'C' || base == 'G' || base == 'T') << base;
  }
  EXPECT_GT(read.real_or("quality"), 0.0);
}

TEST(Dna, GcContentMatchesConfig) {
  Rng rng(3);
  DnaConfig config;
  config.gc_content = 0.6;
  config.motif_rate = 0.0;
  double total = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    total += gc_fraction(generate_read(rng, config, static_cast<std::uint64_t>(i)).str_or("seq"));
  }
  EXPECT_NEAR(total / n, 0.6, 0.02);
}

TEST(Dna, MotifPlantedAtRate) {
  Rng rng(5);
  DnaConfig config;
  config.motif_rate = 0.5;
  int with_motif = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const std::string seq =
        generate_read(rng, config, static_cast<std::uint64_t>(i)).str_or("seq");
    if (count_motif(seq, config.motif) > 0) ++with_motif;
  }
  // Planted rate plus rare random occurrences.
  EXPECT_NEAR(static_cast<double>(with_motif) / n, 0.5, 0.06);
}

TEST(Dna, Helpers) {
  EXPECT_DOUBLE_EQ(gc_fraction("GGCC"), 1.0);
  EXPECT_DOUBLE_EQ(gc_fraction("AATT"), 0.0);
  EXPECT_DOUBLE_EQ(gc_fraction(""), 0.0);
  EXPECT_EQ(count_motif("GATTACAGATTACA", "GATTACA"), 2);
  EXPECT_EQ(count_motif("AAAA", "GATTACA"), 0);
  EXPECT_EQ(count_motif("AAAA", ""), 0);
}

TEST(Stocks, TickShapeAndWalk) {
  StockTickGenerator generator({}, 7);
  double last_ts = -1;
  for (int i = 0; i < 100; ++i) {
    const data::Record tick = generator.next();
    EXPECT_FALSE(tick.str_or("symbol").empty());
    EXPECT_GT(tick.real_or("price"), 0.0);
    EXPECT_GE(tick.int_or("volume"), 1);
    EXPECT_GT(static_cast<double>(tick.int_or("ts")), last_ts);
    last_ts = static_cast<double>(tick.int_or("ts"));
  }
}

TEST(Stocks, PricesStayPerSymbolContinuous) {
  StockConfig config;
  config.symbols = {"ONE"};
  config.volatility = 0.01;
  StockTickGenerator generator(config, 11);
  double prev = generator.next().real_or("price");
  for (int i = 0; i < 200; ++i) {
    const double price = generator.next().real_or("price");
    // 1% log-sigma: consecutive ticks stay within ~5%.
    EXPECT_NEAR(price / prev, 1.0, 0.05);
    prev = price;
  }
}

class WorkloadDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-wl-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  aida::Tree run_engine(const std::string& dataset, const char* script) {
    engine::AnalysisEngine eng;
    EXPECT_TRUE(eng.stage_dataset(dataset).is_ok());
    EXPECT_TRUE(eng.stage_code({engine::CodeBundle::Kind::kScript, "wl", script}).is_ok());
    EXPECT_TRUE(eng.run().is_ok());
    const auto done = eng.wait();
    EXPECT_EQ(done.state, engine::EngineState::kFinished) << done.error;
    return eng.tree_copy();
  }

  std::filesystem::path dir_;
};

TEST_F(WorkloadDatasetTest, DnaScriptAnalyzesReads) {
  const std::string path = (dir_ / "dna.ipd").string();
  DnaConfig config;
  config.motif_rate = 0.4;
  ASSERT_TRUE(generate_dna_dataset(path, "reads", 300, config, 3).is_ok());

  aida::Tree tree = run_engine(path, dna_script());
  auto gc = tree.histogram1d("/dna/gc");
  ASSERT_TRUE(gc.is_ok());
  EXPECT_EQ((*gc)->entries(), 300u);
  EXPECT_NEAR((*gc)->mean(), 0.42, 0.05);
  auto hits = tree.histogram1d("/dna/motif_hits");
  ASSERT_TRUE(hits.is_ok());
  // ~40% of reads carry >= 1 motif: bin 0 holds < 80% of entries.
  EXPECT_LT((*hits)->bin_height(0), 0.8 * 300);
}

TEST_F(WorkloadDatasetTest, StockScriptComputesVwapInputs) {
  const std::string path = (dir_ / "ticks.ipd").string();
  ASSERT_TRUE(generate_stock_dataset(path, "ticks", 500, {}, 9).is_ok());

  aida::Tree tree = run_engine(path, stock_script());
  auto price = tree.histogram1d("/stocks/price");
  ASSERT_TRUE(price.is_ok());
  EXPECT_EQ((*price)->entries(), 500u);
  auto vwap = tree.tuple("/stocks/vwap");
  ASSERT_TRUE(vwap.is_ok());
  EXPECT_EQ((*vwap)->rows(), 500u);
  auto pv = (*vwap)->column("price_x_volume");
  auto v = (*vwap)->column("volume");
  ASSERT_TRUE(pv.is_ok() && v.is_ok());
  double sum_pv = 0, sum_v = 0;
  for (const double x : *pv) sum_pv += x;
  for (const double x : *v) sum_v += x;
  const double computed_vwap = sum_pv / sum_v;
  EXPECT_GT(computed_vwap, 0.0);
  EXPECT_LT(computed_vwap, 1000.0);
}

TEST_F(WorkloadDatasetTest, GeneratedDatasetsCarryDomainMetadata) {
  const std::string dna = (dir_ / "d.ipd").string();
  const std::string stocks = (dir_ / "s.ipd").string();
  auto dna_info = generate_dna_dataset(dna, "d", 10);
  auto stock_info = generate_stock_dataset(stocks, "s", 10);
  ASSERT_TRUE(dna_info.is_ok() && stock_info.is_ok());
  EXPECT_EQ(dna_info->metadata.at("experiment"), "genome");
  EXPECT_EQ(stock_info->metadata.at("domain"), "finance");
}

}  // namespace
}  // namespace ipa::workloads
