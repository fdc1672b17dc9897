#include "physics/event_gen.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "engine/engine.hpp"

namespace ipa::physics {
namespace {

TEST(FourVector, BasicKinematics) {
  const FourVector v = FourVector::from_polar(3.0, 3.14159265358979 / 2, 0.0, 4.0);
  EXPECT_NEAR(v.px, 3.0, 1e-12);
  EXPECT_NEAR(v.py, 0.0, 1e-12);
  EXPECT_NEAR(v.pz, 0.0, 1e-12);
  EXPECT_NEAR(v.e, 5.0, 1e-12);  // 3-4-5
  EXPECT_NEAR(v.mass(), 4.0, 1e-12);
  EXPECT_NEAR(v.pt(), 3.0, 1e-12);
  EXPECT_NEAR(v.eta(), 0.0, 1e-9);
}

TEST(FourVector, PairMassOfBackToBackMasslessParticles) {
  const FourVector a = FourVector::from_polar(62.5, 1.0, 0.3);
  const FourVector b{-a.px, -a.py, -a.pz, a.e};
  EXPECT_NEAR(pair_mass(a, b), 125.0, 1e-9);
}

TEST(FourVector, BoostPreservesInvariantMass) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const FourVector v =
        FourVector::from_polar(rng.uniform(1, 50), std::acos(rng.uniform(-1, 1)),
                               rng.uniform(0, 6.28), rng.uniform(0, 20));
    const double bx = rng.uniform(-0.4, 0.4);
    const double by = rng.uniform(-0.4, 0.4);
    const double bz = rng.uniform(-0.4, 0.4);
    EXPECT_NEAR(v.boosted(bx, by, bz).mass(), v.mass(), 1e-6 * (1 + v.mass()));
  }
}

TEST(FourVector, BoostedPairKeepsResonanceMass) {
  // The generator's core operation: decay at rest, boost both daughters.
  const double m = 125.0;
  const FourVector d1 = FourVector::from_polar(m / 2, 0.7, 2.1);
  const FourVector d2{-d1.px, -d1.py, -d1.pz, d1.e};
  const auto a = d1.boosted(0.2, -0.1, 0.35);
  const auto b = d2.boosted(0.2, -0.1, 0.35);
  EXPECT_NEAR(pair_mass(a, b), m, 1e-9 * m);
}

TEST(EventGen, RecordShape) {
  Rng rng(1);
  const data::Record record = generate_event(rng, {}, 42);
  EXPECT_EQ(record.index(), 42u);
  EXPECT_TRUE(record.has("sig"));
  ASSERT_NE(record.vec_or_null("px"), nullptr);
  const auto n = record.vec_or_null("px")->size();
  EXPECT_EQ(record.vec_or_null("py")->size(), n);
  EXPECT_EQ(record.vec_or_null("pz")->size(), n);
  EXPECT_EQ(record.vec_or_null("e")->size(), n);
  EXPECT_EQ(static_cast<std::uint64_t>(record.int_or("ntrk")), n);
  EXPECT_GE(n, 2u);
}

TEST(EventGen, SignalFractionApproximatelyRespected) {
  Rng rng(5);
  GeneratorConfig config;
  config.signal_fraction = 0.3;
  int signals = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    signals += generate_event(rng, config, static_cast<std::uint64_t>(i)).int_or("sig") ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(signals) / n, 0.3, 0.03);
}

TEST(EventGen, SignalEventsReconstructNearResonance) {
  Rng rng(9);
  GeneratorConfig config;
  config.signal_fraction = 1.0;  // all signal
  int near_peak = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const data::Record record = generate_event(rng, config, static_cast<std::uint64_t>(i));
    const double mass = leading_pair_mass(record);
    if (std::abs(mass - config.resonance_mass) < 20.0) ++near_peak;
  }
  // The two daughters are usually the leading-pT pair; allow combinatoric
  // losses from hard background candidates.
  EXPECT_GT(near_peak, n * 6 / 10);
}

TEST(EventGen, BackgroundHasNoPeak) {
  Rng rng(13);
  GeneratorConfig config;
  config.signal_fraction = 0.0;
  auto hist = aida::Histogram1D::create("bg", 25, 100, 150);
  int filled = 0;
  for (int i = 0; i < 4000; ++i) {
    const double mass =
        leading_pair_mass(generate_event(rng, config, static_cast<std::uint64_t>(i)));
    if (mass > 0) {
      hist->fill(mass);
      ++filled;
    }
  }
  // No bin in the 100-150 window should dominate (flat-ish combinatorics):
  // peak bin below 4x the mean occupancy of that window.
  const double mean = hist->sum_height() / 25.0;
  EXPECT_LT(hist->bin_height(hist->max_bin()), 4.0 * mean + 8);
  EXPECT_GT(filled, 3000);
}

class PhysicsDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-phys-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(PhysicsDatasetTest, GenerateDatasetRoundTrips) {
  const std::string path = (dir_ / "lc.ipd").string();
  auto info = generate_dataset(path, "lc-test", 500, {}, 7);
  ASSERT_TRUE(info.is_ok()) << info.status().to_string();
  EXPECT_EQ(info->record_count, 500u);
  EXPECT_EQ(info->metadata.at("experiment"), "LC");
  auto records = data::read_all(path);
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records->size(), 500u);
}

TEST_F(PhysicsDatasetTest, DeterministicForSameSeed) {
  const std::string a = (dir_ / "a.ipd").string();
  const std::string b = (dir_ / "b.ipd").string();
  ASSERT_TRUE(generate_dataset(a, "x", 100, {}, 99).is_ok());
  ASSERT_TRUE(generate_dataset(b, "x", 100, {}, 99).is_ok());
  EXPECT_EQ(*data::read_all(a), *data::read_all(b));
}

TEST_F(PhysicsDatasetTest, ScriptAndPluginAgreeExactly) {
  // The PawScript Higgs analysis and the native plugin must produce
  // identical histograms over the same part — the paper's two code paths.
  const std::string path = (dir_ / "events.ipd").string();
  ASSERT_TRUE(generate_dataset(path, "ev", 400, {}, 31).is_ok());
  register_higgs_plugin();

  const auto run = [&](const engine::CodeBundle& bundle) {
    engine::AnalysisEngine eng;
    EXPECT_TRUE(eng.stage_dataset(path).is_ok());
    EXPECT_TRUE(eng.stage_code(bundle).is_ok());
    EXPECT_TRUE(eng.run().is_ok());
    EXPECT_EQ(eng.wait().state, engine::EngineState::kFinished);
    return eng.tree_copy();
  };

  aida::Tree from_script = run({engine::CodeBundle::Kind::kScript, "s", higgs_script()});
  aida::Tree from_plugin = run({engine::CodeBundle::Kind::kPlugin, "p", "higgs-mass"});

  auto hs = from_script.histogram1d("/higgs/mass");
  auto hp = from_plugin.histogram1d("/higgs/mass");
  ASSERT_TRUE(hs.is_ok() && hp.is_ok());
  EXPECT_EQ((*hs)->entries(), (*hp)->entries());
  for (int i = 0; i < 60; ++i) {
    EXPECT_NEAR((*hs)->bin_height(i), (*hp)->bin_height(i), 1e-9) << "bin " << i;
  }
  EXPECT_NEAR((*hs)->mean(), (*hp)->mean(), 1e-9);
}

TEST_F(PhysicsDatasetTest, PeakIsFoundByAnalysis) {
  const std::string path = (dir_ / "peak.ipd").string();
  GeneratorConfig config;
  config.signal_fraction = 0.5;
  ASSERT_TRUE(generate_dataset(path, "peak", 3000, config, 17).is_ok());
  register_higgs_plugin();

  engine::AnalysisEngine eng;
  ASSERT_TRUE(eng.stage_dataset(path).is_ok());
  ASSERT_TRUE(eng.stage_code({engine::CodeBundle::Kind::kPlugin, "p", "higgs-mass"}).is_ok());
  ASSERT_TRUE(eng.run().is_ok());
  ASSERT_EQ(eng.wait().state, engine::EngineState::kFinished);

  auto tree = eng.tree_copy();
  auto mass = tree.histogram1d("/higgs/mass");
  ASSERT_TRUE(mass.is_ok());
  const double peak_center = (*mass)->axis().bin_center((*mass)->max_bin());
  EXPECT_NEAR(peak_center, 125.0, 10.0);
}

TEST(Candidates, RejectsMalformedRecords) {
  data::Record record(0);
  EXPECT_FALSE(candidates(record).is_ok());
  record.set("px", data::Value::RealVec{1, 2});
  record.set("py", data::Value::RealVec{1, 2});
  record.set("pz", data::Value::RealVec{1, 2});
  record.set("e", data::Value::RealVec{1});  // mismatched length
  EXPECT_FALSE(candidates(record).is_ok());
  EXPECT_DOUBLE_EQ(leading_pair_mass(record), 0.0);
}

}  // namespace
}  // namespace ipa::physics
