// The interpreted-code tax: per-event cost of the PawScript Higgs analysis
// vs its natively compiled twin (the paper ships PNUTS scripts but notes
// Java classes as the fast path; C++ plugins play that role here). Both are
// fed record batches through process_batch, as the engine feeds them.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "engine/analyzer.hpp"
#include "physics/event_gen.hpp"

using namespace ipa;

namespace {

constexpr std::size_t kBatchRows = 256;

// 512 generated events as two 256-row batches: the unit the engine hands an
// analyzer. Each iteration processes one batch; an item is one event.
std::vector<data::RecordBatch> make_batches() {
  Rng rng(7);
  std::vector<data::RecordBatch> batches;
  for (int b = 0; b < 2; ++b) {
    std::vector<data::Record> events;
    events.reserve(kBatchRows);
    for (std::size_t i = 0; i < kBatchRows; ++i) {
      events.push_back(physics::generate_event(rng, {}, b * kBatchRows + i));
    }
    batches.push_back(data::RecordBatch::from_records(events));
  }
  return batches;
}

void run_analyzer(benchmark::State& state, const engine::CodeBundle& bundle) {
  const auto batches = make_batches();
  auto analyzer = engine::make_analyzer(bundle);
  if (!analyzer.is_ok()) {
    state.SkipWithError(analyzer.status().to_string().c_str());
    return;
  }
  aida::Tree tree;
  (void)(*analyzer)->begin(tree);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*analyzer)->process_batch(batches[i++ & 1], tree));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatchRows));
}

void BM_ScriptAnalyzer(benchmark::State& state) {
  run_analyzer(state, {engine::CodeBundle::Kind::kScript, "higgs", physics::higgs_script()});
}
BENCHMARK(BM_ScriptAnalyzer);

void BM_NativeAnalyzer(benchmark::State& state) {
  physics::register_higgs_plugin();
  run_analyzer(state, {engine::CodeBundle::Kind::kPlugin, "higgs", "higgs-mass"});
}
BENCHMARK(BM_NativeAnalyzer);

// Script compile cost: what a hot-reload actually pays (parse, compile and
// run the top level in a fresh interpreter); an item is one compile.
void BM_ScriptCompile(benchmark::State& state) {
  for (auto _ : state) {
    auto analyzer = engine::ScriptAnalyzer::compile(physics::higgs_script());
    benchmark::DoNotOptimize(analyzer);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
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
