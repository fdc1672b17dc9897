#include "services/worker_host.hpp"

#include "common/log.hpp"

namespace ipa::services {

Result<std::unique_ptr<WorkerHost>> WorkerHost::start(const std::string& session_id,
                                                      const std::string& engine_id,
                                                      const Uri& manager_rpc_endpoint,
                                                      engine::EngineConfig config,
                                                      double heartbeat_interval_s) {
  register_idempotent_methods();
  rpc::RetryPolicy policy;
  // A dropped push/heartbeat response must cost one attempt, not a whole
  // call deadline: the data path only stays fresh if retries are quick.
  policy.attempt_timeout_s = 0.25;
  auto client = rpc::RpcClient::connect(manager_rpc_endpoint, 5.0, policy);
  IPA_RETURN_IF_ERROR(client.status().with_prefix("worker: manager connect"));

  std::unique_ptr<WorkerHost> host(
      new WorkerHost(session_id, engine_id, std::move(*client), std::move(config)));

  // Ready signal (paper Figure 2, step "Ready Signal with Reference").
  auto ack = host->rpc_->call(kWorkerRegistryService, "ready",
                              encode_ready(session_id, engine_id));
  IPA_RETURN_IF_ERROR(ack.status().with_prefix("worker: ready signal"));

  if (heartbeat_interval_s > 0) {
    host->heartbeat_.start(heartbeat_interval_s, [raw = host.get()] {
      const auto beat = raw->rpc_->call(kWorkerRegistryService, "heartbeat",
                                        encode_ready(raw->session_id_, raw->engine_id_), "",
                                        /*timeout_s=*/1.0);
      if (!beat.is_ok()) {
        IPA_LOG(debug) << "worker " << raw->engine_id_
                       << ": heartbeat failed: " << beat.status().to_string();
      }
    });
  }
  return host;
}

WorkerHost::WorkerHost(std::string session_id, std::string engine_id, rpc::RpcClient client,
                       engine::EngineConfig config)
    : session_id_(std::move(session_id)),
      engine_id_(std::move(engine_id)),
      rpc_(std::make_unique<rpc::RpcClient>(std::move(client))),
      engine_(std::make_unique<engine::AnalysisEngine>(std::move(config))) {
  engine_->set_snapshot_handler(
      [this](const ser::Bytes& snapshot, const engine::Progress& progress) {
        push_snapshot(snapshot, progress);
      });
}

WorkerHost::~WorkerHost() {
  // Heartbeats stop first, then the snapshot handler, so nothing touches
  // the RPC client while it is being closed.
  heartbeat_.cancel();
  engine_->set_snapshot_handler(nullptr);
  engine_.reset();
  if (rpc_) rpc_->close();
}

void WorkerHost::push_snapshot(const ser::Bytes& snapshot, const engine::Progress& progress) {
  PushRequest request;
  request.session_id = session_id_;
  request.report.engine_id = engine_id_;
  request.report.state = progress.state;
  request.report.processed = progress.processed;
  request.report.total = progress.total;
  request.report.error = progress.error;
  request.snapshot = snapshot;
  const auto result = rpc_->call(kAidaManagerService, "push", encode_push(request));
  if (!result.is_ok()) {
    IPA_LOG(warn) << "worker " << engine_id_ << ": snapshot push failed: "
                  << result.status().to_string();
  }
}

Status WorkerHost::stage_dataset(const std::string& part_path) {
  return engine_->stage_dataset(part_path);
}

Status WorkerHost::stage_code(const engine::CodeBundle& bundle) {
  return engine_->stage_code(bundle);
}

Status WorkerHost::control(ControlVerb verb, std::uint64_t records) {
  switch (verb) {
    case ControlVerb::kRun: return engine_->run();
    case ControlVerb::kPause: return engine_->pause();
    case ControlVerb::kStop: return engine_->stop();
    case ControlVerb::kRewind: return engine_->rewind();
    case ControlVerb::kRunRecords: return engine_->run_records(records);
  }
  return internal_error("worker: unhandled verb");
}

EngineReport WorkerHost::report() const {
  const engine::Progress progress = engine_->progress();
  EngineReport report;
  report.engine_id = engine_id_;
  report.state = progress.state;
  report.processed = progress.processed;
  report.total = progress.total;
  report.error = progress.error;
  return report;
}

}  // namespace ipa::services
