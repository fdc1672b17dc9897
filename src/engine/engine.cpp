#include "engine/engine.hpp"

#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ipa::engine {
namespace {

/// Handles resolved once per process: the batch loop is the bench-gated hot
/// path, so each batch costs a few relaxed atomic adds and nothing else.
struct EngineMetrics {
  obs::Counter& records;
  obs::Counter& batches;
  obs::Histogram& batch_records;
  obs::Histogram& batch_pull;
  obs::Counter& pauses;
  obs::Counter& snapshots;

  static EngineMetrics& instance() {
    static EngineMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new EngineMetrics{
          r.counter("ipa_engine_records_processed_total", {},
                    "Records pushed through analysis engines."),
          r.counter("ipa_engine_batches_total", {}, "Record batches processed."),
          r.histogram("ipa_engine_batch_records", {}, obs::exponential_bounds(1, 4, 10),
                      "Records per processed batch."),
          r.histogram("ipa_engine_batch_pull_seconds", {}, obs::default_latency_bounds(),
                      "Time the engine loop stalled pulling the next record batch "
                      "from its dataset reader."),
          r.counter("ipa_engine_pauses_total", {},
                    "Engine pauses (control verb or run budget exhausted)."),
          r.counter("ipa_engine_snapshots_total", {},
                    "Histogram snapshots emitted to the manager."),
      };
    }();
    return *m;
  }
};

/// How long one run slice may hold its pool thread before it reposts
/// itself: a heartbeat queued behind it waits about this long.
constexpr double kSliceQuantumS = 0.005;

/// Flight-journal a state transition; called on the thread that made it.
void note_state(EngineState state) {
  obs::flight(obs::FlightKind::kState, "engine.state", to_string(state));
}

}  // namespace

std::string_view to_string(EngineState state) {
  switch (state) {
    case EngineState::kIdle: return "idle";
    case EngineState::kRunning: return "running";
    case EngineState::kPaused: return "paused";
    case EngineState::kStopped: return "stopped";
    case EngineState::kFinished: return "finished";
    case EngineState::kFailed: return "failed";
  }
  return "?";
}

AnalysisEngine::AnalysisEngine(Config config) : config_(std::move(config)) {
  if (config_.snapshot_every == 0) config_.snapshot_every = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
}

AnalysisEngine::~AnalysisEngine() {
  {
    LockGuard lock(mutex_);
    if (state_ == EngineState::kRunning) state_ = EngineState::kStopped;
  }
  LockGuard run(anchor_->run_mutex);  // waits for an executing slice, not a queued one
  close_out_run();
  anchor_->engine = nullptr;
}

Status AnalysisEngine::stage_dataset(const std::string& path) {
  LockGuard run(anchor_->run_mutex);
  close_out_run();
  LockGuard lock(mutex_);
  if (state_ == EngineState::kRunning) {
    return failed_precondition("engine: cannot stage a dataset while running");
  }
  auto reader = data::DatasetReader::open(path);
  IPA_RETURN_IF_ERROR(reader.status());
  reader_ = std::make_unique<data::DatasetReader>(std::move(*reader));
  batch_ = std::make_unique<data::RecordBatch>(reader_->make_batch());
  has_dataset_ = true;
  processed_.store(0);
  total_.store(reader_->size());
  begin_pending_ = true;
  state_ = EngineState::kIdle;
  error_.clear();
  tree_.clear();
  return Status::ok();
}

Status AnalysisEngine::stage_code(const CodeBundle& bundle) {
  LockGuard run(anchor_->run_mutex);
  close_out_run();
  LockGuard lock(mutex_);
  if (state_ == EngineState::kRunning) {
    return failed_precondition("engine: cannot reload code while running (pause first)");
  }
  auto analyzer = make_analyzer(bundle, config_.interp);
  IPA_RETURN_IF_ERROR(analyzer.status());
  analyzer_ = std::move(*analyzer);
  has_code_ = true;
  // New code means new booking on the next (re)start from the beginning;
  // when resuming mid-dataset the existing tree keeps accumulating.
  if (state_ == EngineState::kIdle) begin_pending_ = true;
  if (state_ == EngineState::kFailed) {
    state_ = reader_ ? EngineState::kIdle : EngineState::kFailed;
    error_.clear();
  }
  return Status::ok();
}

void AnalysisEngine::set_snapshot_handler(SnapshotFn handler) {
  LockGuard lock(mutex_);
  snapshot_handler_ = std::move(handler);
}

Status AnalysisEngine::run() { return start(0); }

Status AnalysisEngine::run_records(std::uint64_t n) {
  if (n == 0) return invalid_argument("engine: run_records needs n > 0");
  return start(n);
}

Status AnalysisEngine::start(std::uint64_t budget) {
  {
    LockGuard lock(mutex_);
    if (state_ == EngineState::kRunning) {
      return budget == 0 ? Status::ok() : failed_precondition("engine: already running");
    }
    if (budget > 0 && (state_ == EngineState::kFinished || state_ == EngineState::kFailed)) {
      return failed_precondition("engine: not runnable in state " +
                                 std::string(to_string(state_)));
    }
    if (state_ == EngineState::kFinished) {
      return failed_precondition("engine: dataset finished; rewind to re-run");
    }
    if (state_ == EngineState::kFailed) {
      return failed_precondition("engine: failed (" + error_ + "); reload code or rewind");
    }
    if (!has_dataset_) return failed_precondition("engine: no dataset staged");
    if (!has_code_) return failed_precondition("engine: no analysis code staged");
    run_budget_ = budget;
    state_ = EngineState::kRunning;
    ++runs_;
    note_state(state_);
    // A live chain, even one queued since before a pause, picks the new run up.
    if (chain_live_) return Status::ok();
    chain_live_ = true;
  }
  post_slice(anchor_);
  return Status::ok();
}

Status AnalysisEngine::pause() {
  LockGuard lock(mutex_);
  if (state_ != EngineState::kRunning) {
    return failed_precondition("engine: not running");
  }
  state_ = EngineState::kPaused;
  note_state(state_);
  EngineMetrics::instance().pauses.inc();
  cv_.notify_all();
  return Status::ok();
}

Status AnalysisEngine::stop() {
  LockGuard lock(mutex_);
  if (state_ != EngineState::kRunning && state_ != EngineState::kPaused) {
    return failed_precondition("engine: not running or paused");
  }
  state_ = EngineState::kStopped;
  note_state(state_);
  cv_.notify_all();
  return Status::ok();
}

Status AnalysisEngine::rewind() {
  LockGuard run(anchor_->run_mutex);
  close_out_run();
  LockGuard lock(mutex_);
  if (state_ == EngineState::kRunning) {
    return failed_precondition("engine: pause or stop before rewinding");
  }
  if (!reader_) return failed_precondition("engine: no dataset staged");
  IPA_RETURN_IF_ERROR(reader_->seek(0));
  processed_.store(0);
  tree_.clear();
  begin_pending_ = true;
  error_.clear();
  state_ = EngineState::kIdle;
  note_state(state_);
  return Status::ok();
}

Progress AnalysisEngine::wait() {
  UniqueLock lock(mutex_);
  cv_.wait(lock, [&]() IPA_REQUIRES(mutex_) { return state_ != EngineState::kRunning; });
  return progress_locked();
}

EngineState AnalysisEngine::state() const {
  LockGuard lock(mutex_);
  return state_;
}

Progress AnalysisEngine::progress() const {
  LockGuard lock(mutex_);
  return progress_locked();
}

Progress AnalysisEngine::progress_locked() const {
  return Progress{state_, processed_.load(), total_.load(), snapshots_.load(), error_};
}

aida::Tree AnalysisEngine::tree_copy() const {
  LockGuard run(anchor_->run_mutex);
  auto bytes = tree_.serialize();
  auto copy = aida::Tree::deserialize(bytes);
  return copy.is_ok() ? std::move(*copy) : aida::Tree();
}

ser::Bytes AnalysisEngine::snapshot() const {
  LockGuard run(anchor_->run_mutex);
  return tree_.serialize();
}

void AnalysisEngine::post_slice(const std::shared_ptr<Anchor>& anchor) {
  const bool posted = site_pool().post([anchor] {
    bool more = false;
    {
      LockGuard run(anchor->run_mutex);
      if (anchor->engine != nullptr) more = anchor->engine->run_slice();
    }
    if (more) post_slice(anchor);
  });
  if (posted) return;
  LockGuard run(anchor->run_mutex);
  if (anchor->engine == nullptr) return;
  anchor->engine->fail("engine: site pool is shut down");
  (void)anchor->engine->run_slice();  // closes the run out and retires the chain
}

bool AnalysisEngine::run_slice() {
  const double deadline = WallClock::instance().now() + kSliceQuantumS;
  while (true) {
    // Check controls and size the next batch. Capping at the remaining
    // run budget and the distance to the next snapshot makes the batched
    // loop land pauses and snapshots on exactly the same record counts as
    // record-at-a-time processing; control verbs act at batch boundaries.
    std::uint64_t cap;
    {
      UniqueLock lock(mutex_);
      if (serving_ != 0 && (state_ != EngineState::kRunning || serving_ != runs_)) {
        // The run this chain served has ended: publish where it stopped.
        serving_ = 0;
        lock.unlock();
        emit_snapshot();
        continue;
      }
      if (state_ != EngineState::kRunning) {
        chain_live_ = false;
        cv_.notify_all();
        return false;
      }
      if (serving_ == 0) {
        // A run starts: begin() on a fresh one, snapshot cadence from zero.
        serving_ = runs_;
        since_snapshot_ = 0;
        if (begin_pending_) {
          const Status status = analyzer_->begin(tree_);
          if (!status.is_ok()) {
            state_ = EngineState::kFailed;
            error_ = status.to_string();
            serving_ = 0;  // nothing to publish
            continue;
          }
          begin_pending_ = false;
        }
      } else if (WallClock::instance().now() >= deadline) {
        return true;  // yield the pool thread; the chain goes on
      }
      cap = config_.batch_size;
      if (run_budget_ > 0 && run_budget_ < cap) cap = run_budget_;
    }
    if (config_.snapshot_every - since_snapshot_ < cap) {
      cap = config_.snapshot_every - since_snapshot_;
    }

    batch_->clear();
    const double pull_t0 = WallClock::instance().now();
    const auto appended = reader_->read_batch(*batch_, cap);
    EngineMetrics::instance().batch_pull.observe(WallClock::instance().now() - pull_t0);
    if (!appended.is_ok()) {
      fail("dataset read: " + appended.status().to_string());
      continue;
    }
    if (*appended == 0) {
      // Dataset exhausted: run end() and finish.
      const Status status = analyzer_->end(tree_);
      LockGuard lock(mutex_);
      if (!status.is_ok()) {
        state_ = EngineState::kFailed;
        error_ = status.to_string();
        obs::flight(obs::FlightKind::kError, "engine.fail", error_);
      } else {
        state_ = EngineState::kFinished;
      }
      note_state(state_);
      continue;
    }

    const Status status = analyzer_->process_batch(*batch_, tree_);
    if (!status.is_ok()) {
      fail(status.to_string());
      continue;
    }
    processed_.fetch_add(*appended, std::memory_order_relaxed);
    EngineMetrics& metrics = EngineMetrics::instance();
    metrics.records.inc(*appended);
    metrics.batches.inc();
    metrics.batch_records.observe(static_cast<double>(*appended));

    since_snapshot_ += *appended;
    if (since_snapshot_ >= config_.snapshot_every) {
      since_snapshot_ = 0;
      emit_snapshot();
    }

    // Bounded runs ("run N events"); the cap above never lets a batch
    // overshoot the budget.
    LockGuard lock(mutex_);
    if (run_budget_ > 0) {
      run_budget_ -= *appended;
      if (run_budget_ == 0) {
        state_ = EngineState::kPaused;
        note_state(state_);
        EngineMetrics::instance().pauses.inc();
      }
    }
  }
}

void AnalysisEngine::close_out_run() {
  {
    LockGuard lock(mutex_);
    if (serving_ == 0 || state_ == EngineState::kRunning) return;
    serving_ = 0;
  }
  emit_snapshot();
}

void AnalysisEngine::fail(std::string message) {
  // Log from the local copy: error_ is guarded by mutex_, and another
  // control thread may already be clearing it (rewind) once we release.
  IPA_LOG(warn) << "analysis engine failed: " << message;
  obs::flight(obs::FlightKind::kError, "engine.fail", message);
  {
    LockGuard lock(mutex_);
    state_ = EngineState::kFailed;
    error_ = std::move(message);
  }
  note_state(EngineState::kFailed);
}

void AnalysisEngine::emit_snapshot() {
  SnapshotFn handler;
  {
    LockGuard lock(mutex_);
    handler = snapshot_handler_;
  }
  if (!handler) return;
  ++snapshots_;
  EngineMetrics::instance().snapshots.inc();
  handler(tree_.serialize(), progress());
}

}  // namespace ipa::engine
