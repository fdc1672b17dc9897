#include "services/aida_manager.hpp"

#include <algorithm>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ipa::services {

Status AidaManager::open_session(const std::string& session_id) {
  LockGuard lock(mutex_);
  if (sessions_.count(session_id) != 0) {
    return already_exists("aida manager: session '" + session_id + "' already open");
  }
  sessions_.emplace(session_id, std::make_shared<SessionMerge>());
  return Status::ok();
}

Status AidaManager::close_session(const std::string& session_id) {
  LockGuard lock(mutex_);
  if (sessions_.erase(session_id) == 0) {
    return not_found("aida manager: no session '" + session_id + "'");
  }
  return Status::ok();
}

Status AidaManager::push(const PushRequest& request) {
  // Validate the snapshot before accepting it, without the lock.
  IPA_RETURN_IF_ERROR(aida::Tree::deserialize(request.snapshot)
                          .status()
                          .with_prefix("aida manager: bad snapshot"));
  auto snapshot = std::make_shared<const ser::Bytes>(request.snapshot);
  LockGuard lock(mutex_);
  const auto it = sessions_.find(request.session_id);
  if (it == sessions_.end()) {
    return not_found("aida manager: no session '" + request.session_id + "'");
  }
  it->second->engine_snapshots[request.report.engine_id] = std::move(snapshot);
  it->second->reports[request.report.engine_id] = request.report;
  auto& health = it->second->health[request.report.engine_id];
  health.last_seen = clock_->now();
  health.lost = false;  // a resurrected engine counts as alive again
  ++it->second->version;
  return Status::ok();
}

void AidaManager::heartbeat(const std::string& session_id, const std::string& engine_id) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  auto& health = it->second->health[engine_id];
  health.last_seen = clock_->now();
  health.lost = false;
}

std::vector<std::string> AidaManager::stale_engines(const std::string& session_id,
                                                    double timeout_s) const {
  LockGuard lock(mutex_);
  std::vector<std::string> stale;
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return stale;
  const double now = clock_->now();
  for (const auto& [engine_id, health] : it->second->health) {
    if (health.lost || now - health.last_seen < timeout_s) continue;
    const auto report = it->second->reports.find(engine_id);
    if (report != it->second->reports.end() &&
        (report->second.state == engine::EngineState::kFinished ||
         report->second.state == engine::EngineState::kFailed)) {
      continue;  // done engines are allowed to go quiet
    }
    stale.push_back(engine_id);
  }
  return stale;
}

void AidaManager::mark_engine_lost(const std::string& session_id,
                                   const std::string& engine_id,
                                   const std::string& reason) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second->health[engine_id].lost = true;
  EngineReport& report = it->second->reports[engine_id];  // may fabricate one
  report.engine_id = engine_id;
  report.lost = true;
  if (report.error.empty()) report.error = reason;
  ++it->second->version;  // pollers must observe the degradation
  IPA_LOG(warn) << "aida manager: engine " << engine_id << " lost in session "
                << session_id << ": " << reason;
}

void AidaManager::forget_engine(const std::string& session_id,
                                const std::string& engine_id) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  it->second->health.erase(engine_id);
}

Result<ser::Bytes> AidaManager::merge_snapshots(
    const std::vector<std::pair<std::string, Snapshot>>& snapshots) const {
  // Two-level hierarchy (paper §2.5): sub-mergers of bounded fan-in whose
  // results merge at the top in group order; fan-in 0 is one group. The
  // polling thread runs the groups: on the site pool, polls waited for pool
  // threads competing with the engines for cores (docs/perf.md).
  const std::size_t fan_in = merge_fan_in_ == 0 ? snapshots.size() : merge_fan_in_;
  aida::Tree merged;
  std::size_t groups = 0;
  for (std::size_t begin = 0; begin < snapshots.size(); begin += fan_in, ++groups) {
    aida::Tree sub;
    for (std::size_t i = begin; i < std::min(begin + fan_in, snapshots.size()); ++i) {
      auto tree = aida::Tree::deserialize(*snapshots[i].second);
      IPA_RETURN_IF_ERROR(tree.status().with_prefix("merge: engine " + snapshots[i].first));
      IPA_RETURN_IF_ERROR(sub.merge(*tree));
    }
    IPA_RETURN_IF_ERROR(merged.merge(sub));
  }
  if (groups > 1) {
    obs::Registry& registry = obs::Registry::global();
    registry
        .counter("ipa_aida_submerges_total", {},
                 "Sub-merges run by the two-level merge hierarchy.")
        .inc(groups);
    registry
        .gauge("ipa_aida_merge_fan_in", {},
               "Configured sub-merger fan-in (0 = single-level merge).")
        .set(static_cast<double>(merge_fan_in_));
  }
  return merged.serialize();
}

Result<PollResponse> AidaManager::poll(const std::string& session_id,
                                       std::uint64_t since_version) const {
  PollResponse response;
  std::shared_ptr<SessionMerge> session;
  std::vector<std::pair<std::string, Snapshot>> snapshots;
  Snapshot merged;
  {
    LockGuard lock(mutex_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return not_found("aida manager: no session '" + session_id + "'");
    }
    session = it->second;
    response.version = session->version;
    for (const auto& [engine_id, report] : session->reports) response.engines.push_back(report);
    if (session->version <= since_version) return response;  // changed = false
    if (session->merged_cache_version == session->version) {
      merged = session->merged_cache;
    } else {
      snapshots.assign(session->engine_snapshots.begin(), session->engine_snapshots.end());
    }
  }
  if (!merged) {
    // The rebuild is the live "merge" phase: span + histogram, accumulated
    // per session so /status can report a ScenarioTimings-shaped total.
    obs::ScopedSpan merge_span("merge", *clock_, obs::SpanRing::global(), session_id);
    auto rebuilt = merge_snapshots(snapshots);
    if (!rebuilt.is_ok()) {
      merge_span.set_status(rebuilt.status());
      return rebuilt.status();
    }
    merged = std::make_shared<const ser::Bytes>(std::move(*rebuilt));
    const double elapsed = merge_span.elapsed_s();
    {
      LockGuard lock(mutex_);
      session->merge_total_s += elapsed;
      // A poll that pinned an older version may finish last: never go back.
      if (response.version > session->merged_cache_version) {
        session->merged_cache = merged;
        session->merged_cache_version = response.version;
      }
    }
    obs::Registry::global()
        .histogram("ipa_session_phase_seconds", {{"phase", "merge"}}, {},
                   "Live session phase durations; phases match perf::ScenarioTimings.")
        .observe(elapsed);
  }
  response.changed = true;
  response.merged = *merged;
  return response;
}

double AidaManager::merge_seconds(const std::string& session_id) const {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? 0.0 : it->second->merge_total_s;
}

std::uint64_t AidaManager::merged_version(const std::string& session_id) const {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? 0 : it->second->merged_cache_version;
}

Status AidaManager::reset_session(const std::string& session_id) {
  LockGuard lock(mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return not_found("aida manager: no session '" + session_id + "'");
  }
  it->second->engine_snapshots.clear();
  it->second->reports.clear();
  ++it->second->version;
  return Status::ok();
}

std::size_t AidaManager::session_count() const {
  LockGuard lock(mutex_);
  return sessions_.size();
}

}  // namespace ipa::services
