#include "aida/tree.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace ipa::aida {
namespace {

TEST(Profile1D, PerBinMeanAndSpread) {
  auto profile = Profile1D::create("pt vs eta", 4, 0, 4);
  ASSERT_TRUE(profile.is_ok());
  // Bin 0 gets y ~ {1,3}; bin 2 gets y = 10 exactly.
  profile->fill(0.5, 1.0);
  profile->fill(0.5, 3.0);
  profile->fill(2.5, 10.0);
  EXPECT_DOUBLE_EQ(profile->bin_mean(0), 2.0);
  EXPECT_DOUBLE_EQ(profile->bin_rms(0), 1.0);
  EXPECT_DOUBLE_EQ(profile->bin_mean(2), 10.0);
  EXPECT_DOUBLE_EQ(profile->bin_rms(2), 0.0);
  EXPECT_DOUBLE_EQ(profile->bin_mean(1), 0.0);  // empty
  EXPECT_EQ(profile->entries(), 3u);
}

TEST(Profile1D, BinErrorShrinksWithStatistics) {
  auto profile = Profile1D::create("p", 1, 0, 1);
  ASSERT_TRUE(profile.is_ok());
  Rng rng(5);
  for (int i = 0; i < 100; ++i) profile->fill(0.5, rng.normal(0, 1));
  const double err100 = profile->bin_error(0);
  for (int i = 0; i < 9900; ++i) profile->fill(0.5, rng.normal(0, 1));
  const double err10000 = profile->bin_error(0);
  EXPECT_LT(err10000, err100 / 5.0);  // ~1/sqrt(n) scaling
}

TEST(Profile1D, MergeMatchesCombined) {
  auto all = Profile1D::create("m", 8, 0, 8);
  auto a = Profile1D::create("m", 8, 0, 8);
  auto b = Profile1D::create("m", 8, 0, 8);
  ASSERT_TRUE(all.is_ok() && a.is_ok() && b.is_ok());
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0, 8), y = rng.normal(x, 0.5), w = rng.uniform(0.5, 1.5);
    all->fill(x, y, w);
    (i % 2 ? *a : *b).fill(x, y, w);
  }
  ASSERT_TRUE(a->merge(*b).is_ok());
  EXPECT_EQ(a->entries(), all->entries());
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(a->bin_mean(i), all->bin_mean(i), 1e-9) << "bin " << i;
    EXPECT_NEAR(a->bin_rms(i), all->bin_rms(i), 1e-9) << "bin " << i;
    EXPECT_NEAR(a->bin_weight(i), all->bin_weight(i), 1e-9) << "bin " << i;
  }
}

TEST(Profile1D, SerializeRoundTrip) {
  auto profile = Profile1D::create("sp", 5, -1, 1);
  ASSERT_TRUE(profile.is_ok());
  profile->fill(0.0, 2.5, 1.2);
  profile->fill(0.9, -1.0);
  ser::Writer w;
  profile->encode(w);
  ser::Reader r(w.data());
  auto back = Profile1D::decode(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, *profile);
}

TEST(Cloud1D, StoresPointsThenConverts) {
  Cloud1D cloud("c", 100);
  for (int i = 0; i < 99; ++i) cloud.fill(i);
  EXPECT_FALSE(cloud.is_converted());
  EXPECT_EQ(cloud.entries(), 99u);
  cloud.fill(99);
  EXPECT_TRUE(cloud.is_converted());
  EXPECT_EQ(cloud.entries(), 100u);
  auto hist = cloud.histogram();
  ASSERT_TRUE(hist.is_ok());
  EXPECT_EQ(hist->entries(), 100u);
  EXPECT_DOUBLE_EQ(hist->sum_height(), 100.0);  // all in-range after conversion
}

TEST(Cloud1D, UnbinnedStatisticsExact) {
  Cloud1D cloud("c");
  cloud.fill(1.0);
  cloud.fill(3.0);
  EXPECT_DOUBLE_EQ(cloud.mean(), 2.0);
  EXPECT_DOUBLE_EQ(cloud.rms(), 1.0);
  EXPECT_DOUBLE_EQ(cloud.lower_edge(), 1.0);
  EXPECT_DOUBLE_EQ(cloud.upper_edge(), 3.0);
}

TEST(Cloud1D, StatisticsSurviveConversionApproximately) {
  Cloud1D cloud("c", 1000);
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) cloud.fill(rng.normal(10, 2));
  ASSERT_TRUE(cloud.is_converted());
  EXPECT_NEAR(cloud.mean(), 10.0, 0.2);
  EXPECT_NEAR(cloud.rms(), 2.0, 0.2);
}

TEST(Cloud1D, DegenerateSingleValueConverts) {
  Cloud1D cloud("c", 4);
  for (int i = 0; i < 4; ++i) cloud.fill(7.0);
  ASSERT_TRUE(cloud.is_converted());
  auto hist = cloud.histogram();
  ASSERT_TRUE(hist.is_ok());
  EXPECT_DOUBLE_EQ(hist->sum_height(), 4.0);
}

TEST(Cloud1D, EmptyCloudHasNoHistogram) {
  Cloud1D cloud("c");
  EXPECT_FALSE(cloud.histogram().is_ok());
  EXPECT_DOUBLE_EQ(cloud.mean(), 0.0);
}

TEST(Cloud1D, MergeUnconvertedConcatenates) {
  Cloud1D a("c"), b("c");
  a.fill(1);
  b.fill(2);
  b.fill(3);
  ASSERT_TRUE(a.merge(b).is_ok());
  EXPECT_EQ(a.entries(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Cloud1D, SerializeRoundTripBothModes) {
  Cloud1D raw("raw", 100);
  raw.fill(1.5, 2.0);
  raw.fill(-3.0);
  ser::Writer w1;
  raw.encode(w1);
  ser::Reader r1(w1.data());
  auto raw_back = Cloud1D::decode(r1);
  ASSERT_TRUE(raw_back.is_ok());
  EXPECT_FALSE(raw_back->is_converted());
  EXPECT_EQ(raw_back->entries(), 2u);
  EXPECT_DOUBLE_EQ(raw_back->mean(), raw.mean());

  Cloud1D conv("conv", 2);
  conv.fill(1);
  conv.fill(2);
  ASSERT_TRUE(conv.is_converted());
  ser::Writer w2;
  conv.encode(w2);
  ser::Reader r2(w2.data());
  auto conv_back = Cloud1D::decode(r2);
  ASSERT_TRUE(conv_back.is_ok());
  EXPECT_TRUE(conv_back->is_converted());
  EXPECT_EQ(conv_back->entries(), 2u);
}

TEST(Tuple, FillAndColumns) {
  Tuple tuple("events", {"mass", "pt", "ntrk"});
  ASSERT_TRUE(tuple.fill({125.0, 44.0, 7}).is_ok());
  ASSERT_TRUE(tuple.fill({91.2, 12.0, 3}).is_ok());
  EXPECT_EQ(tuple.rows(), 2u);
  auto mass = tuple.column("mass");
  ASSERT_TRUE(mass.is_ok());
  EXPECT_EQ(*mass, (std::vector<double>{125.0, 91.2}));
  EXPECT_FALSE(tuple.column("absent").is_ok());
  EXPECT_EQ(tuple.fill({1.0}).code(), StatusCode::kInvalidArgument);
}

TEST(Tuple, MergeAndSchemaMismatch) {
  Tuple a("t", {"x"}), b("t", {"x"}), c("t", {"y"});
  ASSERT_TRUE(a.fill({1}).is_ok());
  ASSERT_TRUE(b.fill({2}).is_ok());
  ASSERT_TRUE(a.merge(b).is_ok());
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.merge(c).code(), StatusCode::kFailedPrecondition);
}

TEST(Tuple, SerializeRoundTrip) {
  Tuple tuple("t", {"a", "b"});
  ASSERT_TRUE(tuple.fill({1, 2}).is_ok());
  ASSERT_TRUE(tuple.fill({3, 4}).is_ok());
  ser::Writer w;
  tuple.encode(w);
  ser::Reader r(w.data());
  auto back = Tuple::decode(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, tuple);
}

TEST(Tuple, ZeroColumnTupleTakesNoRows) {
  Tuple tuple("empty", {});
  EXPECT_EQ(tuple.fill({}).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tuple.rows(), 0u);
  // The shape fill() allows still round-trips.
  ser::Writer w;
  tuple.encode(w);
  ser::Reader r(w.data());
  auto back = Tuple::decode(r);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, tuple);
}

// --- Tree -------------------------------------------------------------------

Tree make_engine_tree(std::uint64_t seed, int fills) {
  Tree tree;
  auto mass = Histogram1D::create("mass", 50, 0, 250);
  auto corr = Histogram2D::create("pt vs eta", 10, -2, 2, 10, 0, 100);
  Tuple tuple("raw", {"mass"});
  Rng rng(seed);
  for (int i = 0; i < fills; ++i) {
    const double m = rng.breit_wigner(125, 5);
    mass->fill(m);
    corr->fill(rng.uniform(-2, 2), rng.exponential(0.05));
    (void)tuple.fill({m});
  }
  tree.put("/higgs/mass", std::move(*mass));
  tree.put("/qc/pteta", std::move(*corr));
  tree.put("/raw/tuple", std::move(tuple));
  return tree;
}

TEST(Tree, PutFindTypedAccess) {
  Tree tree = make_engine_tree(1, 10);
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_TRUE(tree.histogram1d("/higgs/mass").is_ok());
  ASSERT_TRUE(tree.histogram2d("/qc/pteta").is_ok());
  ASSERT_TRUE(tree.tuple("/raw/tuple").is_ok());
  // Wrong-type access reports the actual kind.
  const auto wrong = tree.histogram2d("/higgs/mass");
  ASSERT_FALSE(wrong.is_ok());
  EXPECT_NE(wrong.status().message().find("Histogram1D"), std::string::npos);
  EXPECT_EQ(tree.find("/nope").status().code(), StatusCode::kNotFound);
}

TEST(Tree, PathNormalization) {
  Tree tree;
  auto hist = Histogram1D::create("h", 2, 0, 1);
  ASSERT_TRUE(hist.is_ok());
  tree.put("dir/h", *hist);
  EXPECT_TRUE(tree.find("/dir/h").is_ok());
  EXPECT_TRUE(tree.find("dir/h").is_ok());
  EXPECT_TRUE(tree.find("//dir//h").is_ok());
}

TEST(Tree, ListAndPaths) {
  Tree tree = make_engine_tree(1, 5);
  EXPECT_EQ(tree.paths(),
            (std::vector<std::string>{"/higgs/mass", "/qc/pteta", "/raw/tuple"}));
  EXPECT_EQ(tree.list("higgs"), (std::vector<std::string>{"/higgs/mass"}));
  EXPECT_EQ(tree.list("/").size(), 3u);
  EXPECT_TRUE(tree.list("/absent").empty());
}

TEST(Tree, MergeEqualsSingleEngineResult) {
  // The paper's core invariant: merging N engine trees equals the tree one
  // engine would produce over the concatenated data.
  Tree combined;
  Tree parts[4];
  {
    auto mass = Histogram1D::create("mass", 50, 0, 250);
    ASSERT_TRUE(mass.is_ok());
    combined.put("/higgs/mass", std::move(*mass));
  }
  Rng rng(99);
  for (int i = 0; i < 8000; ++i) {
    const double m = rng.breit_wigner(125, 5);
    auto h = combined.histogram1d("/higgs/mass");
    (*h)->fill(m);
    Tree& part = parts[i % 4];
    if (part.empty()) {
      auto mass = Histogram1D::create("mass", 50, 0, 250);
      part.put("/higgs/mass", std::move(*mass));
    }
    (*part.histogram1d("/higgs/mass"))->fill(m);
  }
  Tree merged;
  for (Tree& part : parts) ASSERT_TRUE(merged.merge(part).is_ok());
  auto merged_hist = merged.histogram1d("/higgs/mass");
  auto combined_hist = combined.histogram1d("/higgs/mass");
  ASSERT_TRUE(merged_hist.is_ok() && combined_hist.is_ok());
  EXPECT_EQ((*merged_hist)->entries(), (*combined_hist)->entries());
  for (int i = 0; i < 50; ++i) {
    EXPECT_NEAR((*merged_hist)->bin_height(i), (*combined_hist)->bin_height(i), 1e-9);
  }
  EXPECT_NEAR((*merged_hist)->mean(), (*combined_hist)->mean(), 1e-9);
}

TEST(Tree, MergeKindMismatchFails) {
  Tree a, b;
  auto hist = Histogram1D::create("x", 2, 0, 1);
  a.put("/x", std::move(*hist));
  b.put("/x", Tuple("x", {"c"}));
  EXPECT_EQ(a.merge(b).code(), StatusCode::kFailedPrecondition);
}

TEST(Tree, SerializeRoundTrip) {
  Tree tree = make_engine_tree(5, 500);
  const ser::Bytes snapshot = tree.serialize();
  auto back = Tree::deserialize(snapshot);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->paths(), tree.paths());
  EXPECT_EQ(**back->histogram1d("/higgs/mass"), **tree.histogram1d("/higgs/mass"));
  EXPECT_EQ(**back->tuple("/raw/tuple"), **tree.tuple("/raw/tuple"));
}

TEST(Tree, DeserializeRejectsGarbage) {
  ser::Bytes junk = {0xff, 0x00, 0x13, 0x37};
  EXPECT_FALSE(Tree::deserialize(junk).is_ok());
}

TEST(Tree, RemoveAndClear) {
  Tree tree = make_engine_tree(2, 5);
  EXPECT_TRUE(tree.remove("/higgs/mass"));
  EXPECT_FALSE(tree.remove("/higgs/mass"));
  EXPECT_EQ(tree.size(), 2u);
  tree.clear();
  EXPECT_TRUE(tree.empty());
}

TEST(Tree, ObjectKindNames) {
  EXPECT_EQ(object_kind(Object(Histogram1D())), "Histogram1D");
  EXPECT_EQ(object_kind(Object(Histogram2D())), "Histogram2D");
  EXPECT_EQ(object_kind(Object(Profile1D())), "Profile1D");
  EXPECT_EQ(object_kind(Object(Cloud1D())), "Cloud1D");
  EXPECT_EQ(object_kind(Object(Tuple())), "Tuple");
}

}  // namespace
}  // namespace ipa::aida
