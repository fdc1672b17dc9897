// Worker-node side: hosts one analysis engine, pushes its snapshots to the
// AIDA manager over RPC and signals readiness to the worker registry — the
// process GRAM starts on each grid node in the paper. A periodic heartbeat
// job on the site pool keeps telling the registry the engine is alive so the
// manager can detect dead engines between snapshots.
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "common/uri.hpp"
#include "engine/engine.hpp"
#include "net/periodic.hpp"
#include "rpc/rpc.hpp"
#include "services/protocol.hpp"

namespace ipa::services {

/// How the session service drives an engine, wherever it runs. The local
/// implementation wraps an in-process engine; a fully remote deployment
/// would put an RPC proxy behind the same interface.
class EngineHandle {
 public:
  virtual ~EngineHandle() = default;

  virtual const std::string& engine_id() const = 0;
  virtual Status stage_dataset(const std::string& part_path) = 0;
  virtual Status stage_code(const engine::CodeBundle& bundle) = 0;
  virtual Status control(ControlVerb verb, std::uint64_t records = 0) = 0;
  virtual EngineReport report() const = 0;
};

/// One engine + the RPC client it uses to reach the manager node.
class WorkerHost final : public EngineHandle {
 public:
  /// Connects to the manager's RPC endpoint, signals ready, wires the
  /// engine's snapshot stream to AidaManager.push and starts heartbeating
  /// (heartbeat_interval_s <= 0 disables the heartbeat).
  static Result<std::unique_ptr<WorkerHost>> start(const std::string& session_id,
                                                   const std::string& engine_id,
                                                   const Uri& manager_rpc_endpoint,
                                                   engine::EngineConfig config = {},
                                                   double heartbeat_interval_s = 0.05);

  ~WorkerHost() override;

  const std::string& engine_id() const override { return engine_id_; }
  Status stage_dataset(const std::string& part_path) override;
  Status stage_code(const engine::CodeBundle& bundle) override;
  Status control(ControlVerb verb, std::uint64_t records) override;
  EngineReport report() const override;

 private:
  WorkerHost(std::string session_id, std::string engine_id, rpc::RpcClient client,
             engine::EngineConfig config);

  void push_snapshot(const ser::Bytes& snapshot, const engine::Progress& progress);

  std::string session_id_;
  std::string engine_id_;
  std::unique_ptr<rpc::RpcClient> rpc_;
  std::unique_ptr<engine::AnalysisEngine> engine_;
  net::PeriodicJob heartbeat_;  // cancelled first in the destructor
};

}  // namespace ipa::services
