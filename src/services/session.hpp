// Session service resources (paper §3.2): "the session service creates a
// session for each dataset analysis; a dataset can only be analyzed in the
// context of this session".
//
// A Session is the WSRF resource behind the Session web service: it owns
// the analysis engines granted to one user, tracks staging state and fans
// client control verbs out to every engine.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "data/splitter.hpp"
#include "obs/trace.hpp"
#include "perf/scenario.hpp"
#include "services/worker_host.hpp"

namespace ipa::services {

enum class SessionState {
  kCreated,        // resource exists, engines not started
  kEnginesReady,   // engines started and all signalled ready
  kDatasetStaged,  // parts distributed to engines
  kClosed,
};

std::string_view to_string(SessionState state);

class Session {
 public:
  Session(std::string id, std::string owner, int granted_nodes, std::string queue);

  const std::string& id() const { return id_; }
  const std::string& owner() const { return owner_; }
  int granted_nodes() const { return granted_nodes_; }
  const std::string& queue() const { return queue_; }
  SessionState state() const;

  /// Install the engines once the compute element started them (all must
  /// have signalled ready).
  Status attach_engines(std::vector<std::unique_ptr<EngineHandle>> engines);

  /// Record a ready signal from the worker registry.
  void mark_ready(const std::string& engine_id);
  bool all_ready() const;

  /// Distribute staged dataset parts to the engines (one part each; part
  /// count must equal the engine count).
  Status distribute_parts(const data::SplitResult& split);

  /// Ship analysis code to every engine.
  Status stage_code(const engine::CodeBundle& bundle);

  /// Fan a control verb out to every live engine (lost seats are skipped —
  /// that is the degraded mode). The per-engine calls run in parallel on
  /// the shared site pool, outside the session lock; the first error in
  /// seat order is returned, naming the engine that failed.
  Status control(ControlVerb verb, std::uint64_t records = 0);

  std::vector<EngineReport> reports() const;

  /// The staged dataset id ("" when none). By value: the field is guarded
  /// and may be rewritten by a concurrent select_dataset.
  std::string dataset_id() const;
  void set_dataset_id(std::string id);

  // --- Phase timing (the live perf::ScenarioTimings column) -----------

  /// Record one observed phase duration; `phase` is a ScenarioTimings
  /// phase name (locate/split/transfer/code_stage/run/merge). Repeated
  /// observations of a phase accumulate (e.g. merge over many polls).
  void record_phase(std::string_view phase, double seconds);
  /// The accumulated live phase breakdown, for GET /status and the shell.
  perf::ScenarioTimings phase_timings() const;

  /// The run phase is asynchronous: this marks it started (the run verb
  /// was fanned out) and captures the calling thread's trace context as
  /// the eventual run span's parent.
  void note_run_started(double now_s);
  struct RunCompletion {
    double start_s = 0;
    obs::TraceContext parent;
  };
  /// Check whether the run phase just finished: returns the captured start
  /// exactly once, on the first call after every live engine reached a
  /// terminal state. Called from the AidaManager push path.
  std::optional<RunCompletion> try_complete_run();

  // --- Fault handling -------------------------------------------------

  /// Everything the manager needs to rebuild a seat's engine elsewhere.
  struct RestartPlan {
    std::string part_path;                      // "" when no dataset staged
    std::optional<engine::CodeBundle> code;     // staged analysis code
    std::optional<ControlVerb> verb;            // last control verb to replay
    std::uint64_t verb_records = 0;
    int restarts = 0;                           // count including this one
  };

  /// Abruptly destroy an engine's handle (chaos hook: the "process died"
  /// event). The seat stays; the heartbeat monitor notices the silence.
  Status kill_engine(const std::string& engine_id);

  /// Claim a dead seat for restarting: tears down the old handle, bumps the
  /// restart count and returns the replay plan. Fails with
  /// kResourceExhausted once `max_restarts` is reached, kFailedPrecondition
  /// when the seat is lost/closed or a restart is already in flight.
  Result<RestartPlan> begin_restart(const std::string& engine_id, int max_restarts);

  /// Install the freshly started replacement engine (already staged and
  /// replayed by the manager, outside the session lock).
  Status complete_restart(const std::string& engine_id,
                          std::unique_ptr<EngineHandle> handle);

  /// Give up on an engine: its seat is flagged lost and its handle freed.
  /// The session keeps running on the surviving engines.
  void mark_engine_lost(const std::string& engine_id, const std::string& reason);

  /// True once any engine was marked lost (results are partial).
  bool degraded() const;

  Status close();

 private:
  /// One granted node: the engine handle plus what was staged on it, so a
  /// replacement can be rebuilt after a failure. The handle is shared so
  /// fan-out paths can snapshot it under the lock and issue the RPC outside
  /// it; a seat torn down mid-call keeps the old handle alive until the
  /// call returns.
  struct EngineSeat {
    std::shared_ptr<EngineHandle> handle;
    std::string part_path;
    int restarts = 0;
    bool restarting = false;
    bool lost = false;
    std::string lost_reason;
  };

  EngineSeat* find_seat_locked(const std::string& engine_id) IPA_REQUIRES(mutex_);
  const EngineSeat* find_seat_locked(const std::string& engine_id) const
      IPA_REQUIRES(mutex_);

  std::string id_;
  std::string owner_;
  int granted_nodes_;
  std::string queue_;

  mutable Mutex mutex_{LockRank::kSession, "session"};
  SessionState state_ IPA_GUARDED_BY(mutex_) = SessionState::kCreated;
  std::vector<EngineSeat> seats_ IPA_GUARDED_BY(mutex_);
  // engine id per seat, fixed at attach
  std::vector<std::string> seat_ids_ IPA_GUARDED_BY(mutex_);
  std::set<std::string> ready_engines_ IPA_GUARDED_BY(mutex_);
  std::string dataset_id_ IPA_GUARDED_BY(mutex_);
  std::optional<engine::CodeBundle> staged_code_ IPA_GUARDED_BY(mutex_);
  std::optional<ControlVerb> last_verb_ IPA_GUARDED_BY(mutex_);
  std::uint64_t last_verb_records_ IPA_GUARDED_BY(mutex_) = 0;

  perf::ScenarioTimings phase_timings_ IPA_GUARDED_BY(mutex_);
  bool run_started_ IPA_GUARDED_BY(mutex_) = false;
  double run_start_s_ IPA_GUARDED_BY(mutex_) = 0;
  obs::TraceContext run_parent_ IPA_GUARDED_BY(mutex_);
};

}  // namespace ipa::services
