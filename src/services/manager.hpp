// The IPA manager node: "a broker node on the Grid that we call a 'Manager
// Node'. All of the manager services are Web Services hosted in a Globus
// container" (paper §3).
//
// One ManagerNode hosts:
//   SOAP ("grid calls"):  Control, Session, DatasetCatalog, Locator
//   binary RPC ("RMI"):   AidaManager (snapshot merge + polling),
//                         WorkerRegistry (engine ready signals)
// plus the splitter service, the VO security context and the compute
// element that starts analysis engines.
#pragma once

#include <memory>
#include <string>

#include "catalog/catalog.hpp"
#include "common/config.hpp"
#include "common/sync.hpp"
#include "net/periodic.hpp"
#include "rpc/rpc.hpp"
#include "security/credentials.hpp"
#include "services/aida_manager.hpp"
#include "services/locator.hpp"
#include "services/session.hpp"
#include "services/splitter_service.hpp"
#include "soap/soap.hpp"

namespace ipa::services {

/// How the manager starts analysis engines. The default implementation
/// spawns in-process worker hosts (pool-run engines standing in for nodes);
/// gridsim models the timing of the real GRAM path.
class ComputeElement {
 public:
  virtual ~ComputeElement() = default;

  /// Start a single engine — also the restart path when the dead-engine
  /// scan replaces an engine on a surviving compute slot.
  virtual Result<std::unique_ptr<EngineHandle>> start_engine(
      const std::string& session_id, const std::string& engine_id,
      const Uri& manager_rpc_endpoint) = 0;

  /// Start `count` engines with ids "<session>-eng<i>". The default loops
  /// over start_engine.
  virtual Result<std::vector<std::unique_ptr<EngineHandle>>> start_engines(
      const std::string& session_id, int count, const Uri& manager_rpc_endpoint);
};

class LocalComputeElement final : public ComputeElement {
 public:
  explicit LocalComputeElement(engine::EngineConfig config = {},
                               double heartbeat_interval_s = 0.05)
      : config_(config), heartbeat_interval_s_(heartbeat_interval_s) {}
  Result<std::unique_ptr<EngineHandle>> start_engine(
      const std::string& session_id, const std::string& engine_id,
      const Uri& manager_rpc_endpoint) override;

 private:
  engine::EngineConfig config_;
  double heartbeat_interval_s_;
};

struct ManagerConfig {
  std::string soap_host = "127.0.0.1";
  std::uint16_t soap_port = 0;        // 0 = ephemeral
  Uri rpc_endpoint;                   // empty host = fresh inproc endpoint
  std::string staging_dir = "/tmp/ipa-staging";
  std::string vo_secret = "ipa-dev-secret";
  /// VO policy text (security::VoPolicy format). Empty = permissive default
  /// policy "role.analysis.max_nodes = 16, queue interactive".
  std::string policy_text;
  /// Maximum engines regardless of role policy ("pre-configured number of
  /// analysis engines", paper §3.2).
  int site_max_nodes = 16;
  /// AidaManager merge fan-in (0 = single level).
  std::size_t merge_fan_in = 0;
  engine::EngineConfig engine_config;
  /// How often worker hosts heartbeat the registry (<= 0 disables).
  double heartbeat_interval_s = 0.05;
  /// An engine silent for this long is treated as dead.
  double heartbeat_timeout_s = 1.0;
  /// Dead-engine scan period (<= 0 disables the scan).
  double monitor_interval_s = 0.25;
  /// false = skip restarts entirely: dead engines degrade the merge to a
  /// partial result immediately.
  bool restart_lost_engines = true;
  /// Clock for phase timing and engine liveness (null = WallClock). Tests
  /// inject a ManualClock; must outlive the manager.
  const Clock* clock = nullptr;
  /// Worker-pool bounds for the SOAP/HTTP server and the RPC server. Both
  /// bound concurrent handler executions only: open connections (one per
  /// engine, heartbeating) live on the servers' reactors and hold no
  /// worker, so neither pool caps the site's engine count.
  net::ServerPoolOptions soap_pool;
  net::ServerPoolOptions rpc_pool;
  /// Spans at least this long are kept with their child tree in the span
  /// ring's slow list and served at GET /debug/slow. <= 0 keeps every
  /// completed span (tests).
  double slow_op_threshold_s = 0.25;
};

class ManagerNode {
 public:
  /// Build, bind and start every service.
  static Result<std::unique_ptr<ManagerNode>> start(ManagerConfig config);
  ~ManagerNode();

  ManagerNode(const ManagerNode&) = delete;
  ManagerNode& operator=(const ManagerNode&) = delete;

  void stop();

  Uri soap_endpoint() const { return soap_->endpoint(); }
  Uri rpc_endpoint() const { return rpc_bound_; }

  /// Site administration: publish a dataset file into catalog + locator.
  Status publish_dataset(const std::string& catalog_path, const std::string& dataset_id,
                         std::map<std::string, std::string> metadata,
                         const std::string& file_path);

  security::CredentialAuthority& authority() { return authority_; }
  AidaManager& aida() { return aida_; }

  /// Swap the compute element (tests inject failures through this).
  void set_compute_element(std::unique_ptr<ComputeElement> element);

  std::size_t active_sessions() const;

  /// Chaos hook: abruptly destroy a session's engine, as if its grid node
  /// died. The dead-engine scan then restarts or degrades it.
  Status kill_engine(const std::string& session_id, const std::string& engine_id);

 private:
  explicit ManagerNode(ManagerConfig config);

  Status initialize();
  void register_soap_operations();
  void register_rpc_services();
  void register_observability_routes();
  http::Response handle_status(const http::Request& request);
  const Clock& clock() const;
  /// Close out the "run" phase if this terminal engine report was the last
  /// one outstanding (called from the AidaManager push handler).
  void maybe_complete_run(const std::string& session_id);
  void handle_dead_engine(const std::shared_ptr<Session>& session,
                          const std::string& engine_id);
  Status restart_engine(const std::shared_ptr<Session>& session,
                        const std::string& engine_id, const Session::RestartPlan& plan);

  // SOAP operation bodies.
  Result<xml::Node> op_create_session(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_activate(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_select_dataset(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_stage_code(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_control(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_status(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_close(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_browse(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_search(const soap::SoapContext& ctx, const xml::Node& args);
  Result<xml::Node> op_locate(const soap::SoapContext& ctx, const xml::Node& args);

  Result<std::shared_ptr<Session>> session_for(const soap::SoapContext& ctx);

  ManagerConfig config_;
  security::CredentialAuthority authority_;
  std::unique_ptr<security::VoPolicy> policy_;
  catalog::Catalog catalog_;
  Locator locator_;
  SplitterService splitter_;
  AidaManager aida_;
  std::unique_ptr<ComputeElement> compute_ IPA_GUARDED_BY(mutex_);

  std::unique_ptr<soap::SoapServer> soap_;
  std::unique_ptr<rpc::RpcServer> rpc_;
  Uri rpc_bound_;

  rpc::ResourceSet<Session> sessions_;
  // Guards compute_ only (swappable via set_compute_element); sessions_ has
  // its own internal lock.
  mutable Mutex mutex_{LockRank::kManager, "manager-compute"};
  net::PeriodicJob monitor_;  // the dead-engine scan
};

}  // namespace ipa::services
