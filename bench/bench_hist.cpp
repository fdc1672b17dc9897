// AIDA micro-costs: histogram fill, merge and (de)serialization — the three
// operations on the engine -> manager -> client hot path.
#include <benchmark/benchmark.h>

#include "aida/histogram1d.hpp"
#include "aida/histogram2d.hpp"
#include "aida/tree.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

using namespace ipa;

namespace {

void BM_Fill1D(benchmark::State& state) {
  auto hist = aida::Histogram1D::create("h", static_cast<int>(state.range(0)), 0, 100);
  Rng rng(1);
  // Pre-draw values so the RNG is not part of the measurement.
  std::vector<double> values(4096);
  for (double& v : values) v = rng.uniform(-10, 110);
  std::size_t i = 0;
  for (auto _ : state) {
    hist->fill(values[i++ & 4095]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fill1D)->Arg(50)->Arg(1000);

void BM_FillN1D(benchmark::State& state) {
  // Bulk fill used by the batched engine path; items = individual fills so
  // throughput is directly comparable with BM_Fill1D.
  auto hist = aida::Histogram1D::create("h", static_cast<int>(state.range(0)), 0, 100);
  Rng rng(1);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.uniform(-10, 110);
  for (auto _ : state) {
    hist->fill_n(values);
    benchmark::DoNotOptimize(*hist);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_FillN1D)->Arg(50)->Arg(1000);

void BM_Fill2D(benchmark::State& state) {
  auto hist = aida::Histogram2D::create("h", 50, 0, 100, 50, 0, 100);
  Rng rng(1);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.uniform(0, 100);
  std::size_t i = 0;
  for (auto _ : state) {
    hist->fill(values[i & 4095], values[(i + 1) & 4095]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fill2D);

void BM_Merge1D(benchmark::State& state) {
  const int bins = static_cast<int>(state.range(0));
  auto a = aida::Histogram1D::create("h", bins, 0, 100);
  auto b = aida::Histogram1D::create("h", bins, 0, 100);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    a->fill(rng.uniform(0, 100));
    b->fill(rng.uniform(0, 100));
  }
  for (auto _ : state) {
    auto copy = *a;
    benchmark::DoNotOptimize(copy.merge(*b));
  }
}
BENCHMARK(BM_Merge1D)->Arg(50)->Arg(1000)->Arg(10000);

void BM_TreeSerialize(benchmark::State& state) {
  aida::Tree tree;
  Rng rng(1);
  for (int h = 0; h < static_cast<int>(state.range(0)); ++h) {
    auto hist = aida::Histogram1D::create(strings::format("h%d", h), 100, 0, 100);
    for (int i = 0; i < 500; ++i) hist->fill(rng.uniform(0, 100));
    tree.put("/d/h" + std::to_string(h), std::move(*hist));
  }
  for (auto _ : state) {
    auto bytes = tree.serialize();
    benchmark::DoNotOptimize(bytes);
    state.counters["snapshot_bytes"] = static_cast<double>(bytes.size());
  }
}
BENCHMARK(BM_TreeSerialize)->Arg(1)->Arg(8)->Arg(64);

void BM_TreeDeserialize(benchmark::State& state) {
  aida::Tree tree;
  Rng rng(1);
  for (int h = 0; h < static_cast<int>(state.range(0)); ++h) {
    auto hist = aida::Histogram1D::create(strings::format("h%d", h), 100, 0, 100);
    for (int i = 0; i < 500; ++i) hist->fill(rng.uniform(0, 100));
    tree.put("/d/h" + std::to_string(h), std::move(*hist));
  }
  const ser::Bytes bytes = tree.serialize();
  for (auto _ : state) {
    auto back = aida::Tree::deserialize(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_TreeDeserialize)->Arg(1)->Arg(8)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
