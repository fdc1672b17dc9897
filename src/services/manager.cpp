#include "services/manager.hpp"

#include <cstdlib>

#include "common/ids.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "obs/build_info.hpp"
#include "obs/flight.hpp"
#include "obs/lock_stats.hpp"
#include "obs/log_metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ipa::services {

Result<std::vector<std::unique_ptr<EngineHandle>>> ComputeElement::start_engines(
    const std::string& session_id, int count, const Uri& manager_rpc_endpoint) {
  std::vector<std::unique_ptr<EngineHandle>> engines;
  engines.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string engine_id = session_id + "-eng" + std::to_string(i);
    IPA_ASSIGN_OR_RETURN(auto engine,
                         start_engine(session_id, engine_id, manager_rpc_endpoint));
    engines.push_back(std::move(engine));
  }
  return engines;
}

Result<std::unique_ptr<EngineHandle>> LocalComputeElement::start_engine(
    const std::string& session_id, const std::string& engine_id,
    const Uri& manager_rpc_endpoint) {
  auto host = WorkerHost::start(session_id, engine_id, manager_rpc_endpoint, config_,
                                heartbeat_interval_s_);
  IPA_RETURN_IF_ERROR(host.status());
  return std::unique_ptr<EngineHandle>(std::move(*host));
}

namespace {

/// Restarts allowed per engine before it is given up as lost.
constexpr int kMaxEngineRestarts = 1;
/// Default cap on spans returned by GET /status?session=... (override per
/// request with ?spans=N). Newest spans win when the cap bites.
constexpr std::size_t kStatusSpanLimit = 128;

constexpr const char* kDefaultPolicy = R"(
vo.name = ipa-vo
role.analysis.max_nodes = 16
role.analysis.queue = interactive
role.student.max_nodes = 2
role.student.queue = batch
)";

/// One histogram family for every live phase; the `phase` label values are
/// exactly perf::ScenarioTimings field names.
obs::Histogram& phase_histogram(const char* phase) {
  return obs::Registry::global().histogram(
      "ipa_session_phase_seconds", {{"phase", phase}}, {},
      "Live session phase durations; phases match perf::ScenarioTimings.");
}

/// Times one synchronous pipeline phase: a session-labeled span (child of
/// the surrounding SOAP op span), a phase-histogram sample and the
/// session's accumulated ScenarioTimings entry — recorded even when the
/// phase fails, so a stuck phase still shows up in the breakdown.
class PhaseTimer {
 public:
  PhaseTimer(const char* phase, std::shared_ptr<Session> session, const Clock& clock)
      : phase_(phase),
        session_(std::move(session)),
        span_(phase, clock, obs::SpanRing::global(), session_->id()) {}

  ~PhaseTimer() {
    const double elapsed = span_.elapsed_s();
    session_->record_phase(phase_, elapsed);
    phase_histogram(phase_).observe(elapsed);
  }

  void set_status(const Status& status) { span_.set_status(status); }

 private:
  const char* phase_;
  std::shared_ptr<Session> session_;
  obs::ScopedSpan span_;
};

/// Value of one query parameter in a request target ("" when absent).
std::string query_param(const std::string& target, const std::string& key) {
  const auto uri = Uri::parse("http://site" + target);
  return uri.is_ok() ? uri->query_or(key) : "";
}

}  // namespace

ManagerNode::ManagerNode(ManagerConfig config)
    : config_(std::move(config)),
      authority_("ipa-vo", config_.vo_secret),
      splitter_(config_.staging_dir),
      aida_(config_.merge_fan_in,
            config_.clock != nullptr ? *config_.clock : WallClock::instance()),
      compute_(std::make_unique<LocalComputeElement>(config_.engine_config,
                                                     config_.heartbeat_interval_s)) {}

const Clock& ManagerNode::clock() const {
  return config_.clock != nullptr ? *config_.clock : WallClock::instance();
}

ManagerNode::~ManagerNode() { stop(); }

Result<std::unique_ptr<ManagerNode>> ManagerNode::start(ManagerConfig config) {
  std::unique_ptr<ManagerNode> node(new ManagerNode(std::move(config)));
  IPA_RETURN_IF_ERROR(node->initialize());
  return node;
}

Status ManagerNode::initialize() {
  // VO policy.
  const std::string policy_text =
      config_.policy_text.empty() ? kDefaultPolicy : config_.policy_text;
  IPA_ASSIGN_OR_RETURN(const Config policy_config, Config::parse(policy_text));
  auto policy = security::VoPolicy::from_config(policy_config);
  IPA_RETURN_IF_ERROR(policy.status());
  policy_ = std::make_unique<security::VoPolicy>(std::move(*policy));

  // RPC server ("RMI" side): AidaManager + WorkerRegistry.
  Uri rpc_endpoint = config_.rpc_endpoint;
  if (rpc_endpoint.scheme.empty()) {
    rpc_endpoint.scheme = "inproc";
    rpc_endpoint.host = make_id("ipa-mgr-rpc");
  }
  rpc_ = std::make_unique<rpc::RpcServer>(rpc_endpoint, config_.rpc_pool);
  register_rpc_services();
  IPA_ASSIGN_OR_RETURN(rpc_bound_, rpc_->start());

  // SOAP server ("web service" side).
  soap_ = std::make_unique<soap::SoapServer>(config_.soap_host, config_.soap_port,
                                             "/ipa/services", config_.soap_pool);
  soap_->set_auth([this](const std::string& token) -> Result<std::string> {
    auto identity = authority_.verify(token);
    IPA_RETURN_IF_ERROR(identity.status());
    return identity->subject;
  });
  register_soap_operations();
  register_observability_routes();
  IPA_RETURN_IF_ERROR(soap_->start().status());

  if (config_.monitor_interval_s > 0) {
    monitor_.start(config_.monitor_interval_s, [this] {
      for (const std::string& session_id : sessions_.ids()) {
        auto session = sessions_.find(session_id);
        if (!session.is_ok()) continue;
        for (const std::string& engine_id :
             aida_.stale_engines(session_id, config_.heartbeat_timeout_s)) {
          handle_dead_engine(*session, engine_id);
        }
      }
    });
  }
  IPA_LOG(info) << "IPA manager up: soap=" << soap_->endpoint().to_string()
                << " rpc=" << rpc_bound_.to_string();
  return Status::ok();
}

void ManagerNode::stop() {
  // The scan goes first: cancel() waits for a restart in flight, so it
  // cannot race the session teardown below.
  monitor_.cancel();
  // Close all sessions first so worker hosts disconnect before servers die.
  for (const std::string& id : sessions_.ids()) {
    if (auto session = sessions_.find(id); session.is_ok()) {
      (void)(*session)->close();
      (void)aida_.close_session(id);
      (void)splitter_.cleanup(id);
    }
    sessions_.destroy(id);
  }
  if (soap_) soap_->stop();
  if (rpc_) rpc_->stop();
}

Status ManagerNode::publish_dataset(const std::string& catalog_path,
                                    const std::string& dataset_id,
                                    std::map<std::string, std::string> metadata,
                                    const std::string& file_path) {
  // Enrich metadata from the file itself.
  auto reader = data::DatasetReader::open(file_path);
  IPA_RETURN_IF_ERROR(reader.status().with_prefix("publish"));
  metadata["records"] = std::to_string(reader->size());
  metadata["size_mb"] =
      strings::format("%.1f", static_cast<double>(reader->info().file_bytes) / 1e6);
  IPA_RETURN_IF_ERROR(catalog_.add(catalog_path, dataset_id, std::move(metadata)));
  DatasetLocation location;
  location.location.scheme = "file";
  location.location.path = file_path;
  location.splitter = "splitter-0";
  return locator_.register_dataset(dataset_id, std::move(location));
}

void ManagerNode::set_compute_element(std::unique_ptr<ComputeElement> element) {
  LockGuard lock(mutex_);
  compute_ = std::move(element);
}

std::size_t ManagerNode::active_sessions() const { return sessions_.size(); }

Status ManagerNode::kill_engine(const std::string& session_id,
                                const std::string& engine_id) {
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, sessions_.find(session_id));
  return session->kill_engine(engine_id);
}

// ---------------------------------------------------------------------------
// Dead-engine detection and recovery
// ---------------------------------------------------------------------------

/// Replace a dead engine: start a fresh one on the compute element, replay
/// the session's staging (dataset part, code, last control verb) and swap
/// it into the seat. Runs without the session lock — the new engine's
/// ready signal re-enters the manager.
Status ManagerNode::restart_engine(const std::shared_ptr<Session>& session,
                                   const std::string& engine_id,
                                   const Session::RestartPlan& plan) {
  ComputeElement* compute;
  {
    LockGuard lock(mutex_);
    compute = compute_.get();
  }
  IPA_ASSIGN_OR_RETURN(std::unique_ptr<EngineHandle> handle,
                       compute->start_engine(session->id(), engine_id, rpc_bound_));
  if (!plan.part_path.empty()) {
    IPA_RETURN_IF_ERROR(handle->stage_dataset(plan.part_path).with_prefix("restart"));
  }
  if (plan.code) {
    IPA_RETURN_IF_ERROR(handle->stage_code(*plan.code).with_prefix("restart"));
  }
  if (plan.verb) {
    IPA_RETURN_IF_ERROR(
        handle->control(*plan.verb, plan.verb_records).with_prefix("restart"));
  }
  return session->complete_restart(engine_id, std::move(handle));
}

void ManagerNode::handle_dead_engine(const std::shared_ptr<Session>& session,
                                     const std::string& engine_id) {
  IPA_LOG(warn) << "manager: engine " << engine_id << " in session " << session->id()
                << " missed heartbeats";
  std::string reason = "heartbeat timeout";
  if (config_.restart_lost_engines) {
    auto plan = session->begin_restart(engine_id, kMaxEngineRestarts);
    if (plan.is_ok()) {
      // Fresh liveness clock for the replacement.
      aida_.forget_engine(session->id(), engine_id);
      const Status restarted = restart_engine(session, engine_id, *plan);
      if (restarted.is_ok()) return;
      reason = "restart failed: " + restarted.message();
    } else if (plan.status().code() == StatusCode::kFailedPrecondition) {
      return;  // already lost, closed, or a restart is in flight
    } else {
      reason = plan.status().message();
    }
  }
  // Degrade: the session carries on with the surviving engines and the
  // merge keeps the dead engine's last snapshot, flagged partial.
  session->mark_engine_lost(engine_id, reason);
  aida_.mark_engine_lost(session->id(), engine_id, reason);
  obs::flight(obs::FlightKind::kError, "engine.lost", engine_id);
}

// ---------------------------------------------------------------------------
// Observability endpoints (served by the SOAP server's HTTP listener)
// ---------------------------------------------------------------------------

namespace {

/// Positive integer query parameter, or `fallback` when absent/garbage.
std::size_t query_limit(const http::Request& request, const char* key,
                        std::size_t fallback) {
  const std::string raw = query_param(request.target, key);
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (end == raw.c_str() || value == 0) return fallback;
  return static_cast<std::size_t>(value);
}

}  // namespace

void ManagerNode::register_observability_routes() {
  // The log layer's first metrics consumer: per-level line counters.
  obs::install_log_metrics();
  obs::install_build_info();
  obs::SpanRing::global().set_slow_threshold(config_.slow_op_threshold_s);
  // Prefix patterns: route matching sees the full request target, so exact
  // routes would miss "/status?session=...".
  soap_->http().route("/metrics*", [](const http::Request&) {
    // Lock-contention counters accumulate in the sync layer's atomics; fold
    // the latest deltas into the registry before rendering.
    obs::export_lock_metrics();
    return http::Response::make(200, obs::Registry::global().render_prometheus(),
                                "text/plain; version=0.0.4; charset=utf-8");
  });
  soap_->http().route("/status*",
                      [this](const http::Request& req) { return handle_status(req); });
  // Debug introspection: flight-recorder journals, lock contention by rank,
  // retained slow operations. All JSON, all bounded, all ?limit=N-capped.
  soap_->http().route("/debug/journal*", [](const http::Request& req) {
    const std::size_t limit = query_limit(req, "limit", 128);
    return http::Response::make(200, obs::FlightRecorder::global().render_json(limit),
                                "application/json");
  });
  soap_->http().route("/debug/locks*", [](const http::Request&) {
    return http::Response::make(200, obs::render_locks_json(), "application/json");
  });
  soap_->http().route("/debug/slow*", [](const http::Request& req) {
    const std::size_t limit = query_limit(req, "limit", 32);
    return http::Response::make(200, obs::SpanRing::global().render_slow_json(limit),
                                "application/json");
  });
}

http::Response ManagerNode::handle_status(const http::Request& request) {
  const std::string filter = query_param(request.target, "session");
  std::vector<std::string> ids;
  if (filter.empty()) {
    ids = sessions_.ids();
  } else {
    ids.push_back(filter);
  }

  std::string body = "{\"sessions\":[";
  bool first_session = true;
  for (const std::string& id : ids) {
    auto session = sessions_.find(id);
    if (!session.is_ok()) {
      if (!filter.empty()) {
        return http::Response::make(
            404, "{\"error\":\"no session '" + strings::json_escape(id) + "'\"}",
            "application/json");
      }
      continue;  // closed between ids() and find()
    }
    perf::ScenarioTimings timings = (*session)->phase_timings();
    // The merge phase accumulates on the AIDA manager side.
    timings.merge_s = aida_.merge_seconds(id);

    if (!first_session) body += ',';
    first_session = false;
    body += "{\"id\":\"" + strings::json_escape(id) + "\"";
    body += ",\"state\":\"" + std::string(to_string((*session)->state())) + "\"";
    body += ",\"dataset\":\"" + strings::json_escape((*session)->dataset_id()) + "\"";
    body += ",\"degraded\":" + std::string((*session)->degraded() ? "true" : "false");
    body += ",\"phases\":{";
    const double values[6] = {timings.locate_s, timings.split_s,     timings.transfer_s,
                              timings.code_stage_s, timings.run_s, timings.merge_s};
    for (int i = 0; i < 6; ++i) {
      if (i != 0) body += ',';
      body += "\"" + std::string(perf::ScenarioTimings::kPhaseNames[i]) +
              "\":" + strings::format("%.6f", values[i]);
    }
    body += "},\"total\":" + strings::format("%.6f", timings.total_s());
    // Bounded span dump: the ring holds thousands of spans per session and
    // a status page must not balloon with them. Newest spans win; the full
    // count is reported so a capped response is recognisable.
    const std::size_t span_limit = query_limit(request, "spans", kStatusSpanLimit);
    const std::vector<obs::SpanRecord> spans = obs::SpanRing::global().snapshot_session(id);
    body += ",\"spans_total\":" + std::to_string(spans.size());
    body += ",\"spans\":[";
    std::size_t emitted = 0;
    for (auto it = spans.rbegin(); it != spans.rend() && emitted < span_limit;
         ++it, ++emitted) {
      if (emitted != 0) body += ',';
      body += obs::span_json(*it);
    }
    body += "]}";
  }
  body += "]}";
  return http::Response::make(200, std::move(body), "application/json");
}

void ManagerNode::maybe_complete_run(const std::string& session_id) {
  auto session = sessions_.find(session_id);
  if (!session.is_ok()) return;
  auto done = (*session)->try_complete_run();
  if (!done) return;
  const double end_s = clock().now();
  const double duration = end_s - done->start_s;
  (*session)->record_phase("run", duration);
  phase_histogram("run").observe(duration);
  // The run span is assembled by hand: it started on the control op's
  // thread and ends here on the push handler's thread, so RAII scoping
  // cannot carry it. Its parent is the control op span captured at start.
  obs::SpanRecord span;
  span.name = "run";
  span.session = session_id;
  span.trace_id = done->parent.valid() ? done->parent.trace_id : obs::new_trace_id();
  span.span_id = obs::new_trace_id();
  span.parent_id = done->parent.valid() ? done->parent.span_id : 0;
  span.start_s = done->start_s;
  span.end_s = end_s;
  obs::SpanRing::global().record(std::move(span));
  IPA_LOG(debug) << "session " << session_id << ": run phase complete in " << duration
                 << "s";
}

// ---------------------------------------------------------------------------
// RPC services (the "RMI" side)
// ---------------------------------------------------------------------------

void ManagerNode::register_rpc_services() {
  auto registry = std::make_shared<rpc::Service>(kWorkerRegistryService);
  registry->register_method(
      "ready",
      [this](const rpc::CallContext&, const ser::Bytes& payload) -> Result<ser::Bytes> {
        IPA_ASSIGN_OR_RETURN(const auto ready, decode_ready(payload));
        auto session = sessions_.find(ready.first);
        IPA_RETURN_IF_ERROR(session.status());
        (*session)->mark_ready(ready.second);
        aida_.heartbeat(ready.first, ready.second);  // alive from the start
        return ser::Bytes{};
      },
      /*idempotent=*/true);
  registry->register_method(
      "heartbeat",
      [this](const rpc::CallContext&, const ser::Bytes& payload) -> Result<ser::Bytes> {
        IPA_ASSIGN_OR_RETURN(const auto beat, decode_ready(payload));
        aida_.heartbeat(beat.first, beat.second);
        return ser::Bytes{};
      },
      /*idempotent=*/true);
  rpc_->add_service(std::move(registry));

  auto aida = std::make_shared<rpc::Service>(kAidaManagerService);
  aida->register_method(
      "push",
      [this](const rpc::CallContext&, const ser::Bytes& payload) -> Result<ser::Bytes> {
        IPA_ASSIGN_OR_RETURN(const PushRequest request, decode_push(payload));
        IPA_RETURN_IF_ERROR(aida_.push(request));
        if (request.report.state != engine::EngineState::kRunning &&
            request.report.state != engine::EngineState::kIdle) {
          maybe_complete_run(request.session_id);
        }
        return ser::Bytes{};
      },
      /*idempotent=*/true);
  aida->register_method(
      "poll",
      [this](const rpc::CallContext&, const ser::Bytes& payload) -> Result<ser::Bytes> {
        IPA_ASSIGN_OR_RETURN(const auto request, decode_poll_request(payload));
        IPA_ASSIGN_OR_RETURN(const PollResponse response,
                             aida_.poll(request.first, request.second));
        return encode_poll_response(response);
      },
      /*idempotent=*/true);
  rpc_->add_service(std::move(aida));
}

// ---------------------------------------------------------------------------
// SOAP operations (the web-service side)
// ---------------------------------------------------------------------------

void ManagerNode::register_soap_operations() {
  const auto bind = [this](const char* service, const char* op,
                           Result<xml::Node> (ManagerNode::*fn)(const soap::SoapContext&,
                                                                const xml::Node&)) {
    soap_->register_operation(
        service, op,
        [this, fn](const soap::SoapContext& ctx, const xml::Node& args) {
          return (this->*fn)(ctx, args);
        },
        /*require_auth=*/true);
  };

  bind(kControlService, "createSession", &ManagerNode::op_create_session);
  bind(kSessionService, "activate", &ManagerNode::op_activate);
  bind(kSessionService, "selectDataset", &ManagerNode::op_select_dataset);
  bind(kSessionService, "stageCode", &ManagerNode::op_stage_code);
  bind(kSessionService, "control", &ManagerNode::op_control);
  bind(kSessionService, "status", &ManagerNode::op_status);
  bind(kSessionService, "close", &ManagerNode::op_close);
  bind(kCatalogService, "browse", &ManagerNode::op_browse);
  bind(kCatalogService, "search", &ManagerNode::op_search);
  bind(kLocatorService, "locate", &ManagerNode::op_locate);
}

Result<std::shared_ptr<Session>> ManagerNode::session_for(const soap::SoapContext& ctx) {
  if (ctx.resource.empty()) {
    return invalid_argument("session call without a Resource header");
  }
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, sessions_.find(ctx.resource));
  if (session->owner() != ctx.principal) {
    return permission_denied("session '" + ctx.resource + "' belongs to " + session->owner());
  }
  return session;
}

Result<xml::Node> ManagerNode::op_create_session(const soap::SoapContext& ctx,
                                                 const xml::Node& args) {
  // Authorize node count against VO policy and site limit.
  IPA_ASSIGN_OR_RETURN(const security::Identity identity, authority_.verify(ctx.token));
  std::int64_t requested = config_.site_max_nodes;
  if (const xml::Node* nodes = args.find("nodes")) {
    if (!strings::parse_i64(nodes->text(), requested)) {
      return invalid_argument("createSession: bad <nodes> value");
    }
  }
  IPA_ASSIGN_OR_RETURN(int granted,
                       policy_->authorize_nodes(identity, static_cast<int>(requested)));
  granted = std::min(granted, config_.site_max_nodes);
  IPA_ASSIGN_OR_RETURN(const std::string queue, policy_->queue_for(identity));

  const std::string id = make_id("sess");
  auto session = std::make_shared<Session>(id, ctx.principal, granted, queue);
  IPA_RETURN_IF_ERROR(sessions_.insert(id, session));
  IPA_RETURN_IF_ERROR(aida_.open_session(id).with_prefix("createSession"));
  obs::flight(obs::FlightKind::kOp, "session.create", id,
              static_cast<std::uint64_t>(granted));

  xml::Node reply("ipa:createSessionResponse");
  reply.add_child(text_element("sessionId", id));
  reply.add_child(text_element("grantedNodes", std::to_string(granted)));
  reply.add_child(text_element("queue", queue));
  reply.add_child(text_element("rmiEndpoint", rpc_bound_.to_string()));
  return reply;
}

Result<xml::Node> ManagerNode::op_activate(const soap::SoapContext& ctx, const xml::Node&) {
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, session_for(ctx));
  if (session->state() != SessionState::kCreated) {
    return failed_precondition("activate: session already active");
  }
  ComputeElement* compute;
  {
    LockGuard lock(mutex_);
    compute = compute_.get();
  }
  auto engines = compute->start_engines(session->id(), session->granted_nodes(), rpc_bound_);
  IPA_RETURN_IF_ERROR(engines.status().with_prefix("activate"));
  if (!session->all_ready()) {
    return unavailable("activate: not all engines signalled ready");
  }
  IPA_RETURN_IF_ERROR(session->attach_engines(std::move(*engines)));

  xml::Node reply("ipa:activateResponse");
  reply.add_child(text_element("engines", std::to_string(session->granted_nodes())));
  return reply;
}

Result<xml::Node> ManagerNode::op_select_dataset(const soap::SoapContext& ctx,
                                                 const xml::Node& args) {
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, session_for(ctx));
  const std::string dataset_id = args.child_text("datasetId");
  if (dataset_id.empty()) return invalid_argument("selectDataset: missing <datasetId>");

  // The first three paper phases, timed live against the session clock.
  Result<DatasetLocation> location = not_found("locate: not attempted");
  {
    PhaseTimer timer("locate", session, clock());
    location = locator_.locate(dataset_id);
    if (!location.is_ok()) timer.set_status(location.status());
  }
  IPA_RETURN_IF_ERROR(location.status());

  Result<data::SplitResult> split = internal_error("split: not attempted");
  {
    PhaseTimer timer("split", session, clock());
    split = splitter_.stage(session->id(), location->location, session->granted_nodes());
    if (!split.is_ok()) timer.set_status(split.status());
  }
  IPA_RETURN_IF_ERROR(split.status());

  {
    PhaseTimer timer("transfer", session, clock());
    const Status distributed = session->distribute_parts(*split);
    if (!distributed.is_ok()) {
      timer.set_status(distributed);
      return distributed;
    }
  }
  session->set_dataset_id(dataset_id);

  xml::Node reply("ipa:selectDatasetResponse");
  reply.add_child(text_element("parts", std::to_string(split->parts.size())));
  reply.add_child(text_element("records", std::to_string(split->total_records)));
  reply.add_child(text_element("bytes", std::to_string(split->total_bytes)));
  return reply;
}

Result<xml::Node> ManagerNode::op_stage_code(const soap::SoapContext& ctx,
                                             const xml::Node& args) {
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, session_for(ctx));
  engine::CodeBundle bundle;
  const std::string kind = args.child_text("kind", "script");
  if (kind == "script") {
    bundle.kind = engine::CodeBundle::Kind::kScript;
  } else if (kind == "plugin") {
    bundle.kind = engine::CodeBundle::Kind::kPlugin;
  } else {
    return invalid_argument("stageCode: unknown kind '" + kind + "'");
  }
  bundle.name = args.child_text("name", "anonymous");
  bundle.source = args.child_text("source");
  if (bundle.source.empty()) return invalid_argument("stageCode: missing <source>");
  {
    PhaseTimer timer("code_stage", session, clock());
    const Status staged = session->stage_code(bundle);
    if (!staged.is_ok()) {
      timer.set_status(staged);
      return staged;
    }
  }

  xml::Node reply("ipa:stageCodeResponse");
  reply.add_child(text_element("bytes", std::to_string(bundle.byte_size())));
  return reply;
}

Result<xml::Node> ManagerNode::op_control(const soap::SoapContext& ctx, const xml::Node& args) {
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, session_for(ctx));
  IPA_ASSIGN_OR_RETURN(const ControlVerb verb, parse_verb(args.child_text("verb")));
  std::uint64_t records = 0;
  if (verb == ControlVerb::kRunRecords) {
    if (!strings::parse_u64(args.child_text("records", "0"), records) || records == 0) {
      return invalid_argument("control: run_records needs <records>");
    }
  }
  IPA_RETURN_IF_ERROR(session->control(verb, records));
  // A rewind also clears the manager-side merge state so stale engine
  // contributions do not linger.
  if (verb == ControlVerb::kRewind) {
    IPA_RETURN_IF_ERROR(aida_.reset_session(session->id()));
  }
  if (verb == ControlVerb::kRun || verb == ControlVerb::kRunRecords) {
    // The run phase ends asynchronously: the push handler closes it when the
    // last engine reports a terminal state. Captures the current (SOAP op)
    // span as the run span's parent. Engines that finished before this line
    // pushed while no run was noted, so check for completion once here too.
    session->note_run_started(clock().now());
    maybe_complete_run(session->id());
  }
  xml::Node reply("ipa:controlResponse");
  reply.add_child(text_element("applied", std::string(to_string(verb))));
  return reply;
}

Result<xml::Node> ManagerNode::op_status(const soap::SoapContext& ctx, const xml::Node&) {
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, session_for(ctx));
  xml::Node reply("ipa:statusResponse");
  reply.add_child(text_element("state", std::string(to_string(session->state()))));
  reply.add_child(text_element("dataset", session->dataset_id()));
  reply.add_child(text_element("degraded", session->degraded() ? "true" : "false"));
  xml::Node engines("engines");
  for (const EngineReport& report : session->reports()) {
    xml::Node engine("engine");
    engine.set_attribute("id", report.engine_id);
    engine.set_attribute("state", engine_state_name(report.state));
    engine.set_attribute("processed", std::to_string(report.processed));
    engine.set_attribute("total", std::to_string(report.total));
    if (report.lost) engine.set_attribute("lost", "true");
    if (!report.error.empty()) engine.set_attribute("error", report.error);
    engines.add_child(std::move(engine));
  }
  reply.add_child(std::move(engines));
  return reply;
}

Result<xml::Node> ManagerNode::op_close(const soap::SoapContext& ctx, const xml::Node&) {
  IPA_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, session_for(ctx));
  IPA_RETURN_IF_ERROR(session->close());
  (void)aida_.close_session(session->id());
  (void)splitter_.cleanup(session->id());
  sessions_.destroy(session->id());
  obs::flight(obs::FlightKind::kOp, "session.close", session->id());
  xml::Node reply("ipa:closeResponse");
  return reply;
}

Result<xml::Node> ManagerNode::op_browse(const soap::SoapContext&, const xml::Node& args) {
  const std::string path = args.child_text("path");
  IPA_ASSIGN_OR_RETURN(const catalog::Listing listing, catalog_.browse(path));
  xml::Node reply("ipa:browseResponse");
  for (const std::string& folder : listing.folders) {
    reply.add_child(text_element("folder", folder));
  }
  for (const catalog::DatasetEntry& entry : listing.datasets) {
    xml::Node ds("dataset");
    ds.set_attribute("id", entry.id);
    ds.set_attribute("path", entry.path);
    for (const auto& [key, value] : entry.metadata) {
      xml::Node meta("meta");
      meta.set_attribute("key", key);
      meta.set_attribute("value", value);
      ds.add_child(std::move(meta));
    }
    reply.add_child(std::move(ds));
  }
  return reply;
}

Result<xml::Node> ManagerNode::op_search(const soap::SoapContext&, const xml::Node& args) {
  const std::string query = args.child_text("query");
  if (query.empty()) return invalid_argument("search: missing <query>");
  IPA_ASSIGN_OR_RETURN(const auto matches, catalog_.search(query));
  xml::Node reply("ipa:searchResponse");
  for (const catalog::DatasetEntry& entry : matches) {
    xml::Node ds("dataset");
    ds.set_attribute("id", entry.id);
    ds.set_attribute("path", entry.path);
    reply.add_child(std::move(ds));
  }
  return reply;
}

Result<xml::Node> ManagerNode::op_locate(const soap::SoapContext&, const xml::Node& args) {
  const std::string dataset_id = args.child_text("datasetId");
  if (dataset_id.empty()) return invalid_argument("locate: missing <datasetId>");
  IPA_ASSIGN_OR_RETURN(const DatasetLocation location, locator_.locate(dataset_id));
  xml::Node reply("ipa:locateResponse");
  reply.add_child(text_element("location", location.location.to_string()));
  reply.add_child(text_element("splitter", location.splitter));
  return reply;
}

}  // namespace ipa::services
