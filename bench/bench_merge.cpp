// The paper's §2.5 bottleneck claim: "the component that performs the
// merging ... will become a bottleneck if there are a large number of
// [engines]. The system should ... accommodate a sub-level of components
// that performs the merging."
//
// Measures the AIDA manager's merge cost vs engine count, flat vs the
// two-level (fan-in 8) hierarchy, and tree size.
#include <benchmark/benchmark.h>

#include "aida/histogram1d.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "services/aida_manager.hpp"

using namespace ipa;

namespace {

ser::Bytes make_snapshot(std::uint64_t seed, int histograms, int bins) {
  aida::Tree tree;
  Rng rng(seed);
  for (int h = 0; h < histograms; ++h) {
    auto hist = aida::Histogram1D::create(strings::format("h%d", h), bins, 0, 100);
    for (int i = 0; i < 200; ++i) hist->fill(rng.uniform(0, 100));
    tree.put("/dir/h" + std::to_string(h), std::move(*hist));
  }
  return tree.serialize();
}

void run_merge(benchmark::State& state, std::size_t fan_in) {
  const int engines = static_cast<int>(state.range(0));
  const int histograms = static_cast<int>(state.range(1));
  std::vector<ser::Bytes> snapshots;
  for (int e = 0; e < engines; ++e) {
    snapshots.push_back(make_snapshot(static_cast<std::uint64_t>(e) + 1, histograms, 100));
  }
  std::uint64_t version = 0;
  for (auto _ : state) {
    state.PauseTiming();
    services::AidaManager manager(fan_in);
    (void)manager.open_session("s");
    for (int e = 0; e < engines; ++e) {
      services::PushRequest request;
      request.session_id = "s";
      request.report.engine_id = strings::format("e%d", e);
      request.snapshot = snapshots[static_cast<std::size_t>(e)];
      (void)manager.push(request);
    }
    state.ResumeTiming();
    auto poll = manager.poll("s", version);
    if (!poll.is_ok() || !poll->changed) {
      state.SkipWithError("poll failed");
      break;
    }
    benchmark::DoNotOptimize(poll->merged);
  }
  // items/s = engine snapshots merged per second (the BENCH_batch.json gate).
  state.SetItemsProcessed(state.iterations() * engines);
  state.counters["engines"] = engines;
  state.counters["hists"] = histograms;
}

void BM_MergeFlat(benchmark::State& state) { run_merge(state, 0); }
void BM_MergeHierarchical(benchmark::State& state) { run_merge(state, 8); }

// Wall time: a merge that fans out to other threads must not look free.
BENCHMARK(BM_MergeFlat)
    ->Args({2, 8})
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({64, 8})
    ->Args({16, 64})
    ->UseRealTime();
BENCHMARK(BM_MergeHierarchical)
    ->Args({2, 8})
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({64, 8})
    ->Args({16, 64})
    ->UseRealTime();

// Incremental-poll cost when nothing changed (the common polling case).
void BM_PollUnchanged(benchmark::State& state) {
  services::AidaManager manager;
  (void)manager.open_session("s");
  services::PushRequest request;
  request.session_id = "s";
  request.report.engine_id = "e0";
  request.snapshot = make_snapshot(1, 8, 100);
  (void)manager.push(request);
  const auto first = manager.poll("s", 0);
  const std::uint64_t version = first->version;
  for (auto _ : state) {
    auto poll = manager.poll("s", version);
    benchmark::DoNotOptimize(poll);
  }
}
BENCHMARK(BM_PollUnchanged);

}  // namespace

BENCHMARK_MAIN();
