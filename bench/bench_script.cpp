// The interpreted-code tax: per-event cost of the PawScript Higgs analysis
// vs its natively compiled twin (the paper ships PNUTS scripts but notes
// Java classes as the fast path; C++ plugins play that role here).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "engine/analyzer.hpp"
#include "physics/event_gen.hpp"

using namespace ipa;

namespace {

std::vector<data::Record> make_events(int n) {
  Rng rng(7);
  std::vector<data::Record> events;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    events.push_back(physics::generate_event(rng, {}, static_cast<std::uint64_t>(i)));
  }
  return events;
}

void BM_ScriptAnalyzer(benchmark::State& state) {
  const auto events = make_events(512);
  auto analyzer = engine::make_analyzer(
      {engine::CodeBundle::Kind::kScript, "higgs", physics::higgs_script()});
  aida::Tree tree;
  (void)(*analyzer)->begin(tree);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*analyzer)->process(events[i++ & 511], tree));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScriptAnalyzer);

void BM_NativeAnalyzer(benchmark::State& state) {
  physics::register_higgs_plugin();
  const auto events = make_events(512);
  auto analyzer =
      engine::make_analyzer({engine::CodeBundle::Kind::kPlugin, "higgs", "higgs-mass"});
  aida::Tree tree;
  (void)(*analyzer)->begin(tree);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*analyzer)->process(events[i++ & 511], tree));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NativeAnalyzer);

// Script compile cost: what a hot-reload actually pays.
void BM_ScriptCompile(benchmark::State& state) {
  for (auto _ : state) {
    auto analyzer = engine::ScriptAnalyzer::compile(physics::higgs_script());
    benchmark::DoNotOptimize(analyzer);
  }
}
BENCHMARK(BM_ScriptCompile);

// Raw interpreter dispatch: a numeric inner loop per call; an item is one
// loop iteration.
void BM_ScriptArithmetic(benchmark::State& state) {
  constexpr int kIterations = 100;
  script::Interp interp;
  (void)interp.load(R"(
func work(n) {
  let total = 0;
  for (let i = 0; i < n; i += 1) { total += i * 2 - 1; }
  return total;
}
)");
  for (auto _ : state) {
    auto result = interp.call("work", {script::Value(static_cast<double>(kIterations))});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kIterations);
}
BENCHMARK(BM_ScriptArithmetic);

}  // namespace

BENCHMARK_MAIN();
