#include "services/session.hpp"

#include <algorithm>
#include <functional>
#include <future>

#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace ipa::services {
namespace {

/// One snapshotted seat for a fan-out: the handle is pinned by shared_ptr
/// so the RPC can run after the session lock is released.
struct SeatCall {
  std::size_t seat = 0;
  std::string engine_id;
  std::shared_ptr<EngineHandle> handle;
};

/// Issue `fn` against every snapshotted handle in parallel on the shared
/// site pool — the session lock must NOT be held. Every call runs to
/// completion; the first error in seat order wins and is prefixed with the
/// failing engine's id, so the aggregate result is deterministic no matter
/// how the parallel calls interleave.
Status fan_out(const std::vector<SeatCall>& calls,
               const std::function<Status(const SeatCall&)>& fn) {
  if (calls.empty()) return Status::ok();
  if (calls.size() == 1) {
    return fn(calls[0]).with_prefix("engine " + calls[0].engine_id);
  }
  std::vector<std::future<Status>> results;
  results.reserve(calls.size());
  for (const SeatCall& call : calls) {
    results.push_back(site_pool().submit([&call, &fn] { return fn(call); }));
  }
  Status first = Status::ok();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    Status status = results[i].get().with_prefix("engine " + calls[i].engine_id);
    if (first.is_ok() && !status.is_ok()) first = std::move(status);
  }
  return first;
}

}  // namespace

std::string_view to_string(SessionState state) {
  switch (state) {
    case SessionState::kCreated: return "created";
    case SessionState::kEnginesReady: return "engines-ready";
    case SessionState::kDatasetStaged: return "dataset-staged";
    case SessionState::kClosed: return "closed";
  }
  return "?";
}

Session::Session(std::string id, std::string owner, int granted_nodes, std::string queue)
    : id_(std::move(id)),
      owner_(std::move(owner)),
      granted_nodes_(granted_nodes),
      queue_(std::move(queue)) {}

SessionState Session::state() const {
  LockGuard lock(mutex_);
  return state_;
}

Session::EngineSeat* Session::find_seat_locked(const std::string& engine_id) {
  for (std::size_t i = 0; i < seat_ids_.size(); ++i) {
    if (seat_ids_[i] == engine_id) return &seats_[i];
  }
  return nullptr;
}

const Session::EngineSeat* Session::find_seat_locked(const std::string& engine_id) const {
  for (std::size_t i = 0; i < seat_ids_.size(); ++i) {
    if (seat_ids_[i] == engine_id) return &seats_[i];
  }
  return nullptr;
}

Status Session::attach_engines(std::vector<std::unique_ptr<EngineHandle>> engines) {
  LockGuard lock(mutex_);
  if (state_ != SessionState::kCreated) {
    return failed_precondition("session: engines already attached");
  }
  if (static_cast<int>(engines.size()) != granted_nodes_) {
    return internal_error("session: engine count != granted nodes");
  }
  for (const auto& engine : engines) {
    if (ready_engines_.count(engine->engine_id()) == 0) {
      return failed_precondition("session: engine '" + engine->engine_id() +
                                 "' never signalled ready");
    }
  }
  seats_.clear();
  seat_ids_.clear();
  for (auto& engine : engines) {
    seat_ids_.push_back(engine->engine_id());
    EngineSeat seat;
    seat.handle = std::move(engine);
    seats_.push_back(std::move(seat));
  }
  state_ = SessionState::kEnginesReady;
  return Status::ok();
}

void Session::mark_ready(const std::string& engine_id) {
  LockGuard lock(mutex_);
  ready_engines_.insert(engine_id);
}

std::string Session::dataset_id() const {
  LockGuard lock(mutex_);
  return dataset_id_;
}

void Session::set_dataset_id(std::string id) {
  LockGuard lock(mutex_);
  dataset_id_ = std::move(id);
}

bool Session::all_ready() const {
  LockGuard lock(mutex_);
  return static_cast<int>(ready_engines_.size()) >= granted_nodes_;
}

Status Session::distribute_parts(const data::SplitResult& split) {
  std::vector<SeatCall> calls;
  {
    LockGuard lock(mutex_);
    if (state_ == SessionState::kCreated) {
      return failed_precondition("session: engines not started yet");
    }
    if (state_ == SessionState::kClosed) return failed_precondition("session: closed");
    if (split.parts.size() != seats_.size()) {
      return internal_error("session: part count != engine count");
    }
    for (std::size_t i = 0; i < seats_.size(); ++i) {
      seats_[i].part_path = split.parts[i].path;  // lost seats keep the assignment
      if (!seats_[i].handle) continue;  // lost or mid-restart: degraded fan-out
      calls.push_back({i, seat_ids_[i], seats_[i].handle});
    }
  }
  // The per-seat RPCs run in parallel outside the lock: one slow engine no
  // longer serializes the transfer, and poll/report paths stay responsive.
  IPA_RETURN_IF_ERROR(fan_out(calls, [&split](const SeatCall& call) {
    return call.handle->stage_dataset(split.parts[call.seat].path);
  }));
  LockGuard lock(mutex_);
  if (state_ != SessionState::kClosed) state_ = SessionState::kDatasetStaged;
  return Status::ok();
}

Status Session::stage_code(const engine::CodeBundle& bundle) {
  std::vector<SeatCall> calls;
  {
    LockGuard lock(mutex_);
    if (state_ == SessionState::kCreated) {
      return failed_precondition("session: engines not started yet");
    }
    if (state_ == SessionState::kClosed) return failed_precondition("session: closed");
    staged_code_ = bundle;
    for (std::size_t i = 0; i < seats_.size(); ++i) {
      if (!seats_[i].handle) continue;  // lost or mid-restart: degraded fan-out
      calls.push_back({i, seat_ids_[i], seats_[i].handle});
    }
  }
  return fan_out(calls, [&bundle](const SeatCall& call) {
    return call.handle->stage_code(bundle);
  });
}

Status Session::control(ControlVerb verb, std::uint64_t records) {
  std::vector<SeatCall> calls;
  {
    LockGuard lock(mutex_);
    if (state_ != SessionState::kDatasetStaged) {
      return failed_precondition("session: dataset not staged");
    }
    last_verb_ = verb;
    last_verb_records_ = records;
    for (std::size_t i = 0; i < seats_.size(); ++i) {
      if (!seats_[i].handle) continue;  // lost or mid-restart: degraded fan-out
      calls.push_back({i, seat_ids_[i], seats_[i].handle});
    }
  }
  return fan_out(calls, [verb, records](const SeatCall& call) {
    return call.handle->control(verb, records);
  });
}

std::vector<EngineReport> Session::reports() const {
  // Snapshot the seats under the lock, then query the engines without it —
  // report() may be a network round-trip on remote handles.
  std::vector<std::shared_ptr<EngineHandle>> handles;
  std::vector<EngineReport> out;
  {
    LockGuard lock(mutex_);
    handles.reserve(seats_.size());
    out.reserve(seats_.size());
    for (std::size_t i = 0; i < seats_.size(); ++i) {
      handles.push_back(seats_[i].handle);
      // Lost (or mid-restart) seat: fabricate the degraded view.
      EngineReport report;
      report.engine_id = seat_ids_[i];
      report.state = engine::EngineState::kFailed;
      report.lost = true;
      report.error = seats_[i].lost ? seats_[i].lost_reason : "engine restarting";
      out.push_back(std::move(report));
    }
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (handles[i]) out[i] = handles[i]->report();
  }
  return out;
}

void Session::record_phase(std::string_view phase, double seconds) {
  LockGuard lock(mutex_);
  if (phase == "locate") phase_timings_.locate_s += seconds;
  else if (phase == "split") phase_timings_.split_s += seconds;
  else if (phase == "transfer") phase_timings_.transfer_s += seconds;
  else if (phase == "code_stage") phase_timings_.code_stage_s += seconds;
  else if (phase == "run") phase_timings_.run_s += seconds;
  else if (phase == "merge") phase_timings_.merge_s += seconds;
}

perf::ScenarioTimings Session::phase_timings() const {
  LockGuard lock(mutex_);
  return phase_timings_;
}

void Session::note_run_started(double now_s) {
  LockGuard lock(mutex_);
  run_started_ = true;
  run_start_s_ = now_s;
  run_parent_ = obs::current_trace();
}

std::optional<Session::RunCompletion> Session::try_complete_run() {
  // Snapshot under the lock, query the engines without it (report() may be
  // a network call on remote handles), then re-check under the lock so the
  // completion is still reported exactly once across racing push handlers.
  std::vector<std::shared_ptr<EngineHandle>> handles;
  {
    LockGuard lock(mutex_);
    if (!run_started_ || seats_.empty()) return std::nullopt;
    for (std::size_t i = 0; i < seats_.size(); ++i) {
      if (seats_[i].lost) continue;  // degraded seats cannot hold the run open
      if (!seats_[i].handle) return std::nullopt;  // mid-restart: still running
      handles.push_back(seats_[i].handle);
    }
  }
  for (const auto& handle : handles) {
    const engine::EngineState state = handle->report().state;
    if (state == engine::EngineState::kRunning || state == engine::EngineState::kIdle) {
      return std::nullopt;
    }
  }
  LockGuard lock(mutex_);
  if (!run_started_) return std::nullopt;  // a racing pusher reported it first
  run_started_ = false;  // completion is reported exactly once
  return RunCompletion{run_start_s_, run_parent_};
}

Status Session::kill_engine(const std::string& engine_id) {
  LockGuard lock(mutex_);
  EngineSeat* seat = find_seat_locked(engine_id);
  if (seat == nullptr) return not_found("session: no engine '" + engine_id + "'");
  if (!seat->handle) return failed_precondition("session: engine already dead");
  seat->handle.reset();
  IPA_LOG(warn) << "session " << id_ << ": engine " << engine_id << " killed";
  return Status::ok();
}

Result<Session::RestartPlan> Session::begin_restart(const std::string& engine_id,
                                                    int max_restarts) {
  LockGuard lock(mutex_);
  if (state_ == SessionState::kClosed) return failed_precondition("session: closed");
  EngineSeat* seat = find_seat_locked(engine_id);
  if (seat == nullptr) return not_found("session: no engine '" + engine_id + "'");
  if (seat->lost) return failed_precondition("session: engine already lost");
  if (seat->restarting) return failed_precondition("session: restart already in flight");
  if (seat->restarts >= max_restarts) {
    return resource_exhausted("session: engine '" + engine_id + "' exceeded " +
                              std::to_string(max_restarts) + " restarts");
  }
  seat->handle.reset();  // whatever is left of the old engine goes away now
  seat->restarting = true;
  ++seat->restarts;

  RestartPlan plan;
  plan.part_path = seat->part_path;
  plan.code = staged_code_;
  plan.verb = last_verb_;
  plan.verb_records = last_verb_records_;
  plan.restarts = seat->restarts;
  return plan;
}

Status Session::complete_restart(const std::string& engine_id,
                                 std::unique_ptr<EngineHandle> handle) {
  LockGuard lock(mutex_);
  EngineSeat* seat = find_seat_locked(engine_id);
  if (seat == nullptr) return not_found("session: no engine '" + engine_id + "'");
  if (!seat->restarting) return failed_precondition("session: no restart in flight");
  if (state_ == SessionState::kClosed) {
    return failed_precondition("session: closed during restart");
  }
  seat->handle = std::move(handle);
  seat->restarting = false;
  IPA_LOG(info) << "session " << id_ << ": engine " << engine_id << " restarted (attempt "
                << seat->restarts << ")";
  return Status::ok();
}

void Session::mark_engine_lost(const std::string& engine_id, const std::string& reason) {
  LockGuard lock(mutex_);
  EngineSeat* seat = find_seat_locked(engine_id);
  if (seat == nullptr) return;
  seat->handle.reset();
  seat->restarting = false;
  seat->lost = true;
  seat->lost_reason = reason;
  IPA_LOG(warn) << "session " << id_ << ": engine " << engine_id << " lost: " << reason;
}

bool Session::degraded() const {
  LockGuard lock(mutex_);
  return std::any_of(seats_.begin(), seats_.end(),
                     [](const EngineSeat& seat) { return seat.lost; });
}

Status Session::close() {
  LockGuard lock(mutex_);
  if (state_ == SessionState::kClosed) return Status::ok();
  // Drops the seats' owning references: worker hosts shut down as the last
  // reference goes (an in-flight fan-out call finishes on its pinned handle
  // first, then destruction runs on that thread).
  seats_.clear();
  seat_ids_.clear();
  state_ = SessionState::kClosed;
  IPA_LOG(debug) << "session " << id_ << " closed";
  return Status::ok();
}

}  // namespace ipa::services
