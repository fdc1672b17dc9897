// The AIDA manager: merges intermediate results from all analysis engines
// of a session and serves them to the polling client (paper §3.7).
//
// Engines push serialized tree snapshots; each push replaces that engine's
// contribution and bumps the session's merge version. The client polls with
// its last-seen version and receives the merged tree only when something
// changed — the paper's JAS plug-in "constantly polls the AIDA manager with
// RMI calls to check for any updated histograms".
//
// Scaling (paper §2.5): with many engines the single merger becomes a
// bottleneck, so the merge can be arranged as a two-level tree: engines are
// assigned to sub-mergers of bounded fan-in whose outputs merge at the top.
// merge_fan_in == 0 disables the hierarchy (single-level merge).
//
// The manager lock only pins state: poll() pins the snapshots of the version
// it reports, merges them unlocked on the polling thread and then
// installs the result if it is newer than the cached merge, so heartbeats
// and pushes never wait on a merge.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aida/tree.hpp"
#include "common/clock.hpp"
#include "common/sync.hpp"
#include "services/protocol.hpp"

namespace ipa::services {

class AidaManager {
 public:
  /// `clock` drives liveness stamps and merge timing; tests inject a
  /// ManualClock to make heartbeat timeouts and merge latency deterministic.
  /// The clock must outlive the manager.
  explicit AidaManager(std::size_t merge_fan_in = 0,
                       const Clock& clock = WallClock::instance())
      : merge_fan_in_(merge_fan_in), clock_(&clock) {}

  /// Create merge state for a session.
  Status open_session(const std::string& session_id);
  Status close_session(const std::string& session_id);

  /// Engine snapshot arrival (idempotent per engine: latest wins).
  Status push(const PushRequest& request);

  /// Client poll: merged tree if version > since_version.
  Result<PollResponse> poll(const std::string& session_id, std::uint64_t since_version) const;

  /// Drop all engine contributions for a session (rewind support).
  Status reset_session(const std::string& session_id);

  /// Liveness: record that `engine_id` was heard from (ready, heartbeat or
  /// push). Unknown sessions are ignored — heartbeats race session close.
  void heartbeat(const std::string& session_id, const std::string& engine_id);

  /// Engines that were heard from but have been silent for `timeout_s`
  /// seconds. Skips engines already finished, failed or marked lost.
  std::vector<std::string> stale_engines(const std::string& session_id,
                                         double timeout_s) const;

  /// Degrade: keep the engine's last snapshot in the merge but flag its
  /// report lost/failed so pollers can tell the result is partial.
  void mark_engine_lost(const std::string& session_id, const std::string& engine_id,
                        const std::string& reason);

  /// Forget liveness state for an engine (restart: the replacement starts
  /// with a fresh heartbeat clock).
  void forget_engine(const std::string& session_id, const std::string& engine_id);

  std::size_t session_count() const;

  /// Accumulated time spent rebuilding a session's merged tree (the live
  /// "merge" phase, summed over every poll that re-merged).
  double merge_seconds(const std::string& session_id) const;

  /// Version of the session's cached merged tree (0 = none or no session).
  std::uint64_t merged_version(const std::string& session_id) const;

 private:
  struct EngineHealth {
    double last_seen = 0;  // WallClock seconds of the last ready/push/heartbeat
    bool lost = false;
  };

  using Snapshot = std::shared_ptr<const ser::Bytes>;

  struct SessionMerge {
    std::map<std::string, Snapshot> engine_snapshots;  // engine id -> latest
    std::map<std::string, EngineReport> reports;
    std::map<std::string, EngineHealth> health;
    std::uint64_t version = 0;
    // Merged tree of version merged_cache_version, rebuilt lazily on poll.
    Snapshot merged_cache;
    std::uint64_t merged_cache_version = 0;
    double merge_total_s = 0;  // live "merge" phase accumulator
  };

  /// Deserialize and merge pinned snapshots; runs without the lock.
  Result<ser::Bytes> merge_snapshots(
      const std::vector<std::pair<std::string, Snapshot>>& snapshots) const;

  std::size_t merge_fan_in_;
  const Clock* clock_;
  mutable Mutex mutex_{LockRank::kAida, "aida-manager"};
  // shared_ptr: a poll installs into the entry it pinned, even if the id reopened.
  std::map<std::string, std::shared_ptr<SessionMerge>> sessions_ IPA_GUARDED_BY(mutex_);
};

}  // namespace ipa::services
