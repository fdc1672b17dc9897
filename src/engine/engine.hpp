// The analysis engine: the process the paper starts on each worker node.
//
// Lifecycle (paper §2.3/§3.6): the engine is started for a session, signals
// ready, receives a staged dataset part and the analysis code, and then
// obeys interactive controls — run, pause, stop, rewind — while pushing
// intermediate result snapshots to the AIDA manager. Code can be replaced
// between runs without re-staging the data.
//
// Threading: an engine owns no thread. A run is a chain of slices on
// site_pool(): each slice processes batches until a 5 ms quantum has passed
// (at least one batch), then reposts itself while the engine is running, so
// heartbeats queued on the same pool wait about one quantum. At most one slice per engine is
// queued or executing. The dataset reader, the analyzer and the AIDA tree
// belong to whoever holds the run lock: the executing slice, or a staging
// verb, which therefore never swaps them under a batch.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "aida/tree.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "data/dataset.hpp"
#include "engine/analyzer.hpp"

namespace ipa::engine {

enum class EngineState {
  kIdle,      // no dataset/code yet, or stopped before any processing
  kRunning,
  kPaused,
  kStopped,   // explicitly stopped; position retained
  kFinished,  // dataset exhausted; end() ran
  kFailed,    // analyzer or I/O error; see Progress::error
};

std::string_view to_string(EngineState state);

struct Progress {
  EngineState state = EngineState::kIdle;
  std::uint64_t processed = 0;  // records consumed since last rewind
  std::uint64_t total = 0;      // records in the staged part
  std::uint64_t snapshots = 0;  // snapshots emitted since construction
  std::string error;            // set when state == kFailed
};

/// Engine tuning knobs.
struct EngineConfig {
  /// Emit a snapshot every N processed records (plus one at completion).
  std::uint64_t snapshot_every = 2000;
  /// Records decoded per columnar batch on the hot path. Each loop
  /// iteration is capped so snapshot cadence and run_records() pause points
  /// land on exactly the same record counts as record-at-a-time processing;
  /// control verbs take effect at batch boundaries.
  std::uint64_t batch_size = 256;
  script::InterpOptions interp;
};

class AnalysisEngine {
 public:
  using Config = EngineConfig;

  /// Called with a serialized Tree and progress by the slice, verb or
  /// destructor that publishes a snapshot.
  using SnapshotFn = std::function<void(const ser::Bytes& snapshot, const Progress& progress)>;

  explicit AnalysisEngine(Config config = {});
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Stage the dataset part this engine will analyze. Allowed when not
  /// running. Resets position to 0.
  Status stage_dataset(const std::string& path);

  /// Stage (or hot-replace) the analysis code. Allowed when not running.
  /// Compilation errors are reported here, before any record is touched.
  Status stage_code(const CodeBundle& bundle);

  void set_snapshot_handler(SnapshotFn handler);

  // --- interactive controls (paper §3.6) -----------------------------------
  /// Start or resume processing. From kIdle/kStopped-at-0/kFinished-after-
  /// rewind the analyzer's begin() runs first.
  Status run();
  Status pause();
  Status stop();
  /// Reset to record 0 and clear results; allowed when not running.
  Status rewind();
  /// Process at most `n` records then pause (the JAS "run N events" button).
  Status run_records(std::uint64_t n);

  /// Block until the engine leaves kRunning (finished, paused, stopped or
  /// failed). Returns the final progress.
  Progress wait();

  EngineState state() const;
  Progress progress() const;

  /// Copy of the current results (thread-safe; while running, it waits for
  /// the executing slice).
  aida::Tree tree_copy() const;
  /// Serialized form of tree_copy().
  ser::Bytes snapshot() const;

 private:
  /// What a queued slice holds: the engine, cleared by its destructor. An
  /// executing slice holds `run_mutex` throughout, so the destructor waits for
  /// it, while a queued one finds no engine and retires.
  struct Anchor {
    explicit Anchor(AnalysisEngine* owner) : engine(owner) {}
    Mutex run_mutex{LockRank::kEngineRun, "engine-run"};
    AnalysisEngine* engine IPA_GUARDED_BY(run_mutex);
  };

  /// Queue the next slice; if the pool refuses it (shut down), the engine
  /// fails. Unchecked: the analysis cannot see that anchor->run_mutex is the
  /// engine's anchor_->run_mutex.
  static void post_slice(const std::shared_ptr<Anchor>& anchor)
      IPA_NO_THREAD_SAFETY_ANALYSIS;
  /// Process batches until the engine leaves kRunning or the quantum ends;
  /// true while the chain must go on.
  bool run_slice() IPA_REQUIRES(anchor_->run_mutex);
  /// Publish a run that ended while its chain was queued, as the chain
  /// would at its next batch boundary.
  void close_out_run() IPA_REQUIRES(anchor_->run_mutex);
  Status start(std::uint64_t budget);  // run() (budget 0) and run_records()
  Progress progress_locked() const IPA_REQUIRES(mutex_);
  void fail(std::string message);
  void emit_snapshot() IPA_REQUIRES(anchor_->run_mutex);

  Config config_;
  const std::shared_ptr<Anchor> anchor_ = std::make_shared<Anchor>(this);

  mutable Mutex mutex_{LockRank::kEngine, "engine-control"};
  CondVar cv_;  // wait()
  EngineState state_ IPA_GUARDED_BY(mutex_) = EngineState::kIdle;
  std::uint64_t run_budget_ IPA_GUARDED_BY(mutex_) = 0;  // 0 = unlimited
  std::string error_ IPA_GUARDED_BY(mutex_);
  std::uint64_t runs_ IPA_GUARDED_BY(mutex_) = 0;   // runs started by run()/run_records()
  bool chain_live_ IPA_GUARDED_BY(mutex_) = false;  // a slice is queued or executing
  bool has_dataset_ IPA_GUARDED_BY(mutex_) = false;  // reader_ set, for run() to see
  bool has_code_ IPA_GUARDED_BY(mutex_) = false;     // analyzer_ set, likewise
  SnapshotFn snapshot_handler_ IPA_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> processed_{0};  // records since last rewind
  std::atomic<std::uint64_t> total_{0};      // records in the staged part
  std::atomic<std::uint64_t> snapshots_{0};  // snapshots emitted

  // The run the chain serves (0 = none; it ends on leaving kRunning or when
  // a newer run starts) and its records since the last snapshot.
  std::uint64_t serving_ IPA_GUARDED_BY(anchor_->run_mutex) = 0;
  std::uint64_t since_snapshot_ IPA_GUARDED_BY(anchor_->run_mutex) = 0;
  bool begin_pending_ IPA_GUARDED_BY(anchor_->run_mutex) = true;
  std::unique_ptr<data::DatasetReader> reader_ IPA_GUARDED_BY(anchor_->run_mutex);
  // One batch reused for the whole dataset: columns keep their capacity
  // across clear(), and analyzers' per-batch slot resolutions stay valid
  // because the schema is shared with the reader.
  std::unique_ptr<data::RecordBatch> batch_ IPA_GUARDED_BY(anchor_->run_mutex);
  std::unique_ptr<Analyzer> analyzer_ IPA_GUARDED_BY(anchor_->run_mutex);
  aida::Tree tree_ IPA_GUARDED_BY(anchor_->run_mutex);
};

}  // namespace ipa::engine
