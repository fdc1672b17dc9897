// Staging-pipeline throughput: the single-pass parallel split (records/s,
// gated at 16 parts in BENCH_batch.json) and the session's concurrent seat
// fan-out, at 1/4/16 seats.
//
// The fan-out benches model the paper's parallel-transfer claim with a
// fixed per-seat latency (a 2 ms sleep standing in for one staging RPC):
// SerialFanOut pays it once per seat, FanOut pays it once per operation.
// The BENCH_batch.json gate on FanOut/16 sits above anything a serialized
// fan-out could reach, so a regression to one-seat-at-a-time fails the gate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "data/splitter.hpp"
#include "physics/event_gen.hpp"
#include "services/session.hpp"

using namespace ipa;

namespace {

constexpr auto kSeatLatency = std::chrono::milliseconds(2);

/// One staged engine whose every operation costs a fixed latency.
class DelayHandle final : public services::EngineHandle {
 public:
  explicit DelayHandle(std::string id) : id_(std::move(id)) {}

  const std::string& engine_id() const override { return id_; }
  Status stage_dataset(const std::string&) override { return wait(); }
  Status stage_code(const engine::CodeBundle&) override { return wait(); }
  Status control(services::ControlVerb, std::uint64_t) override { return wait(); }
  services::EngineReport report() const override {
    services::EngineReport report;
    report.engine_id = id_;
    return report;
  }

 private:
  static Status wait() {
    std::this_thread::sleep_for(kSeatLatency);
    return Status::ok();
  }

  std::string id_;
};

data::SplitResult fake_split(int parts) {
  data::SplitResult split;
  for (int i = 0; i < parts; ++i) {
    data::PartInfo part;
    part.path = "part-" + std::to_string(i);
    split.parts.push_back(std::move(part));
  }
  return split;
}

std::shared_ptr<services::Session> make_session(int seats) {
  auto session = std::make_shared<services::Session>("bench", "bench", seats, "interactive");
  std::vector<std::unique_ptr<services::EngineHandle>> engines;
  for (int i = 0; i < seats; ++i) {
    const std::string id = "eng-" + std::to_string(i);
    session->mark_ready(id);
    engines.push_back(std::make_unique<DelayHandle>(id));
  }
  if (!session->attach_engines(std::move(engines)).is_ok()) return nullptr;
  if (!session->distribute_parts(fake_split(seats)).is_ok()) return nullptr;
  return session;
}

/// Parallel fan-out: one control verb across N seats per iteration.
void BM_FanOut(benchmark::State& state) {
  const int seats = static_cast<int>(state.range(0));
  auto session = make_session(seats);
  if (!session) {
    state.SkipWithError("session setup failed");
    return;
  }
  for (auto _ : state) {
    if (!session->control(services::ControlVerb::kPause).is_ok()) {
      state.SkipWithError("control failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["seats"] = seats;
  (void)session->close();
}
BENCHMARK(BM_FanOut)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

/// Serial baseline: the pre-parallel fan-out, one seat after another. Kept
/// runnable so the parallel speedup stays measurable on any machine.
void BM_SerialFanOut(benchmark::State& state) {
  const int seats = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<services::EngineHandle>> engines;
  for (int i = 0; i < seats; ++i) {
    engines.push_back(std::make_unique<DelayHandle>("eng-" + std::to_string(i)));
  }
  for (auto _ : state) {
    for (auto& engine : engines) {
      if (!engine->control(services::ControlVerb::kPause, 0).is_ok()) {
        state.SkipWithError("control failed");
        return;
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["seats"] = seats;
}
BENCHMARK(BM_SerialFanOut)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

/// Code staging through the same parallel path (code_stage phase twin).
void BM_StageCode(benchmark::State& state) {
  const int seats = static_cast<int>(state.range(0));
  auto session = make_session(seats);
  if (!session) {
    state.SkipWithError("session setup failed");
    return;
  }
  engine::CodeBundle bundle;
  bundle.name = "bench";
  bundle.source = "func process(event, tree) {}";
  for (auto _ : state) {
    if (!session->stage_code(bundle).is_ok()) {
      state.SkipWithError("stage_code failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["seats"] = seats;
  (void)session->close();
}
BENCHMARK(BM_StageCode)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

// --- single-pass split -----------------------------------------------------

class StagingSplitFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (!source_.empty()) return;
    dir_ = std::filesystem::temp_directory_path() / "ipa-bench-staging";
    std::filesystem::create_directories(dir_);
    source_ = (dir_ / "src.ipd").string();
    (void)physics::generate_dataset(source_, "bench", kRecords);
    bytes_ = std::filesystem::file_size(source_);
  }

  static constexpr std::int64_t kRecords = 20000;
  static std::filesystem::path dir_;
  static std::string source_;
  static std::uintmax_t bytes_;
};

std::filesystem::path StagingSplitFixture::dir_;
std::string StagingSplitFixture::source_;
std::uintmax_t StagingSplitFixture::bytes_ = 0;

BENCHMARK_DEFINE_F(StagingSplitFixture, SinglePassSplit)(benchmark::State& state) {
  const int parts = static_cast<int>(state.range(0));
  int round = 0;
  for (auto _ : state) {
    const std::string prefix = (dir_ / ("out" + std::to_string(round++))).string();
    auto split = data::split_dataset(source_, prefix, parts);
    if (!split.is_ok()) {
      state.SkipWithError("split failed");
      break;
    }
    benchmark::DoNotOptimize(*split);
    state.PauseTiming();
    for (const auto& part : split->parts) std::filesystem::remove(part.path);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRecords);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes_));
  state.counters["parts"] = parts;
}
BENCHMARK_REGISTER_F(StagingSplitFixture, SinglePassSplit)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
