#include "rpc/rpc.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ipa::rpc {
namespace {

constexpr std::uint8_t kRequest = 0;
constexpr std::uint8_t kResponse = 1;

/// Read the optional trailing trace context (two varints after the payload).
/// Frames from pre-trace clients simply end at the payload, so absence is
/// not an error.
obs::TraceContext read_trace_trailer(ser::Reader& r) {
  if (r.remaining() == 0) return {};
  auto trace_id = r.varint();
  if (!trace_id.is_ok()) return {};
  auto span_id = r.varint();
  if (!span_id.is_ok()) return {};
  return {*trace_id, *span_id};
}

ser::Bytes encode_error_response(std::uint64_t call_id, const Status& status) {
  ser::Writer w;
  w.u8(kResponse);
  w.varint(call_id);
  w.u8(0);
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.string(status.message());
  return std::move(w).take();
}

ser::Bytes encode_ok_response(std::uint64_t call_id, const ser::Bytes& payload) {
  ser::Writer w;
  w.u8(kResponse);
  w.varint(call_id);
  w.u8(1);
  w.bytes(payload);
  return std::move(w).take();
}

/// Render a frame in the transport's wire form (u32 LE length prefix) for
/// the reactor's byte-stream write path.
std::string frame_wire(const ser::Bytes& frame) {
  std::string out;
  out.reserve(4 + frame.size());
  const auto len = static_cast<std::uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(len >> (8 * i)));
  out.append(reinterpret_cast<const char*>(frame.data()), frame.size());
  return out;
}

// Silent peers (a crashed engine, a half-open socket after a dead NAT
// entry) are reaped after this long by default. Generous, because a client
// that lost its connection simply re-dials on the next call — but a
// non-idempotent first call after a reap fails fast, so the default must be
// far beyond any real polling gap.
constexpr double kDefaultRpcIdleTimeoutS = 600.0;

net::StreamOptions rpc_stream_options(const net::ServerPoolOptions& pool) {
  net::StreamOptions options;
  options.idle_timeout_s =
      pool.idle_timeout_s == 0 ? kDefaultRpcIdleTimeoutS : std::max(pool.idle_timeout_s, 0.0);
  options.max_input_bytes = net::kMaxFrameBytes + 4;
  return options;
}

}  // namespace

MethodTraits& MethodTraits::instance() {
  static MethodTraits traits;
  return traits;
}

void MethodTraits::mark_idempotent(std::string_view service, std::string_view method) {
  LockGuard lock(mutex_);
  idempotent_[std::string(service) + "#" + std::string(method)] = true;
}

bool MethodTraits::is_idempotent(std::string_view service, std::string_view method) const {
  LockGuard lock(mutex_);
  const auto it = idempotent_.find(std::string(service) + "#" + std::string(method));
  return it != idempotent_.end() && it->second;
}

void Service::register_method(std::string method, Method fn, bool idempotent) {
  if (idempotent) MethodTraits::instance().mark_idempotent(name_, method);
  methods_.emplace(std::move(method), std::move(fn));
}

Result<ser::Bytes> Service::dispatch(const CallContext& ctx, const ser::Bytes& payload) const {
  const auto it = methods_.find(ctx.method);
  if (it == methods_.end()) {
    return unimplemented("service '" + name_ + "' has no method '" + ctx.method + "'");
  }
  return it->second(ctx, payload);
}

RpcServer::RpcServer(Uri endpoint, net::ServerPoolOptions pool)
    : requested_(std::move(endpoint)),
      reactor_({.name = "rpc"}),
      acceptor_(reactor_, "rpc", rpc_stream_options(pool),
                [this] {
                  return [this](const std::shared_ptr<net::Stream>& stream, std::string& input) {
                    return on_data(stream, input);
                  };
                }),
      pool_(pool.max_workers, pool.queue_capacity) {}

RpcServer::~RpcServer() { stop(); }

void RpcServer::add_service(std::shared_ptr<Service> service) {
  LockGuard lock(mutex_);
  services_[service->name()] = std::move(service);
}

Result<Uri> RpcServer::start() {
  IPA_ASSIGN_OR_RETURN(net::Listening listening, net::listen(requested_));
  bound_ = listening.endpoint;
  IPA_RETURN_IF_ERROR(reactor_.start());
  if (Status started = acceptor_.start(std::move(listening)); !started.is_ok()) {
    reactor_.stop();
    return started;
  }
  IPA_LOG(debug) << "rpc server listening on " << bound_.to_string();
  return bound_;
}

void RpcServer::stop() {
  acceptor_.close_listener();  // no new connections while the pool drains
  pool_.shutdown();   // in-flight calls finish and send their responses
  reactor_.stop();    // after the pool: late response sends still land
  acceptor_.stop();
}

// Incremental u32-length-prefix framing on the loop thread. Complete frames
// go to the dispatch pool; responses come back through the stream's write
// queue in completion order — that interleaving is the multiplexing.
Status RpcServer::on_data(const std::shared_ptr<net::Stream>& stream, std::string& input) {
  while (input.size() >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(input[i])) << (8 * i);
    }
    if (len > net::kMaxFrameBytes) return data_loss("rpc: oversized frame announced");
    if (input.size() < 4u + len) break;  // wait for the rest of the frame
    const auto* body = reinterpret_cast<const std::uint8_t*>(input.data()) + 4;
    const Admission admission = pool_stats_.admit(
        pool_, [this, stream, frame = ser::Bytes(body, body + len)] { dispatch(stream, frame); });
    if (admission == Admission::kSaturated) {
      // Shed this call, keep the connection: the response is tagged with
      // the call id so the other in-flight calls on the stream are
      // untouched. The request WAS read, so only idempotent methods may
      // be replayed blindly.
      ser::Reader r(body, len);
      const auto type = r.u8();
      const auto id = r.varint();
      if (!type.is_ok() || *type != kRequest || !id.is_ok()) {
        return data_loss("rpc: undecodable frame on saturated dispatch");
      }
      stream->send(frame_wire(encode_error_response(
          *id, resource_exhausted("rpc: server saturated, retry after backoff"))));
    }
    input.erase(0, 4u + len);
    if (admission == Admission::kStopped) return cancelled("rpc: server stopping");
  }
  return Status::ok();
}

void RpcServer::dispatch(const std::shared_ptr<net::Stream>& stream, const ser::Bytes& frame) {
  const ser::Bytes reply = handle_frame(frame, stream->peer());
  // An undecodable frame means the stream's integrity is gone (e.g. a
  // truncated request): drop the connection instead of answering, so the
  // client classifies it as a transport failure.
  if (reply.empty()) {
    stream->close();
    return;
  }
  stream->send(frame_wire(reply));
}

ser::Bytes RpcServer::handle_frame(const ser::Bytes& frame, const std::string& peer) {
  ser::Reader r(frame);
  std::uint64_t call_id = 0;

  const auto type = r.u8();
  if (!type.is_ok() || *type != kRequest) return {};  // not a request: close
  const auto id = r.varint();
  if (!id.is_ok()) return {};  // unreadable call id: close
  call_id = *id;

  CallContext ctx;
  ctx.peer = peer;
  auto service_name = r.string();
  auto method = r.string();
  auto resource = r.string();
  auto auth = r.string();
  auto payload = r.bytes();
  if (!service_name.is_ok() || !method.is_ok() || !resource.is_ok() || !auth.is_ok() ||
      !payload.is_ok()) {
    return {};  // truncated/corrupted request: close
  }
  ctx.service = std::move(*service_name);
  ctx.method = std::move(*method);
  ctx.resource = std::move(*resource);
  ctx.auth_token = std::move(*auth);

  // Adopt the caller's trace for the dispatch; the method runs as a child
  // span of the client's attempt span.
  obs::TraceContextScope trace_scope(read_trace_trailer(r));
  obs::ScopedSpan dispatch_span("rpc." + ctx.service + "." + ctx.method);
  dispatch_span.set_session(ctx.resource);
  obs::Registry::global()
      .counter("ipa_rpc_server_requests_total",
               {{"method", ctx.method}, {"service", ctx.service}},
               "RPC requests dispatched by the server, by service and method.")
      .inc();

  std::shared_ptr<Service> service;
  {
    LockGuard lock(mutex_);
    const auto it = services_.find(ctx.service);
    if (it != services_.end()) service = it->second;
  }
  if (!service) {
    return encode_error_response(call_id, not_found("rpc: no service '" + ctx.service + "'"));
  }

  if (service->require_auth()) {
    if (!auth_) {
      return encode_error_response(call_id,
                                   unauthenticated("rpc: service requires auth but none set"));
    }
    auto principal = auth_(ctx.auth_token);
    if (!principal.is_ok()) {
      return encode_error_response(call_id, principal.status());
    }
    ctx.principal = std::move(*principal);
  }

  // A throwing method fails its own call, not the site: the caller gets
  // INTERNAL with the exception text and the connection stays up.
  auto result = [&]() -> Result<ser::Bytes> {
    try {
      return service->dispatch(ctx, *payload);
    } catch (const std::exception& e) {
      const std::string name = ctx.service + "." + ctx.method;
      obs::flight(obs::FlightKind::kError, "rpc.method_threw", name);
      IPA_LOG(error) << "rpc: " << name << " threw: " << e.what();
      return internal_error("rpc: " + name + " threw: " + e.what());
    }
  }();
  if (!result.is_ok()) {
    dispatch_span.set_status(result.status());
    return encode_error_response(call_id, result.status());
  }
  return encode_ok_response(call_id, *result);
}

RpcClient::RpcClient(net::ConnectionPtr conn, Uri endpoint, RetryPolicy policy)
    : endpoint_(std::move(endpoint)),
      policy_(policy),
      conn_(std::move(conn)),
      backoff_rng_(policy.seed) {}

Result<RpcClient> RpcClient::connect(const Uri& endpoint, double timeout_s,
                                     RetryPolicy policy) {
  IPA_ASSIGN_OR_RETURN(net::ConnectionPtr conn, net::connect(endpoint, timeout_s));
  return RpcClient(std::move(conn), endpoint, policy);
}

void RpcClient::set_auth_token(std::string token) {
  LockGuard lock(*call_mutex_);
  auth_token_ = std::move(token);
}

std::string RpcClient::auth_token() const {
  LockGuard lock(*call_mutex_);
  return auth_token_;
}

void RpcClient::set_retry_policy(RetryPolicy policy) {
  LockGuard lock(*call_mutex_);
  policy_ = policy;
  backoff_rng_.reseed(policy.seed);
}

RetryPolicy RpcClient::retry_policy() const {
  LockGuard lock(*call_mutex_);
  return policy_;
}

RetryStats RpcClient::stats() const {
  LockGuard lock(*call_mutex_);
  return stats_;
}

Status RpcClient::reconnect_locked(double deadline) {
  const double remaining = deadline - WallClock::instance().now();
  if (remaining <= 0) return deadline_exceeded("rpc: deadline exhausted before reconnect");
  // ipa-analyze: allow(blocking-under-lock) -- the dial is deadline-bounded
  // and the channel lock MUST serialize it: every caller shares conn_, and
  // releasing the lock mid-reconnect would let two callers race the dial.
  auto conn = net::connect(endpoint_, std::min(remaining, policy_.connect_timeout_s));
  IPA_RETURN_IF_ERROR(conn.status().with_prefix("rpc: reconnect"));
  conn_ = std::move(*conn);
  ++conn_gen_;
  ++stats_.reconnects;
  obs::Registry::global()
      .counter("ipa_rpc_reconnects_total", {}, "Successful client re-dials after link loss.")
      .inc();
  IPA_LOG(debug) << "rpc: reconnected to " << endpoint_.to_string();
  return Status::ok();
}

void RpcClient::kill_connection_locked(std::uint64_t gen, const Status& status) {
  if (gen != conn_gen_) return;  // that connection is already gone
  ++conn_gen_;
  if (conn_) conn_->close();
  conn_.reset();
  // Every in-flight call on the dead link fails as a transport fault; each
  // caller then applies its own idempotency/retry decision.
  for (auto& [id, slot] : pending_) {
    slot->done = true;
    slot->transport = true;
    slot->status = status;
  }
  pending_.clear();
  call_cv_->notify_all();
}

void RpcClient::demux_frame_locked(std::uint64_t gen, const ser::Bytes& frame) {
  ser::Reader r(frame);
  const auto type = r.u8();
  if (!type.is_ok() || *type != 1 /* kResponse */) {
    kill_connection_locked(gen, data_loss("rpc: expected response frame"));
    return;
  }
  const auto reply_id = r.varint();
  if (!reply_id.is_ok()) {
    kill_connection_locked(gen, data_loss("rpc: unreadable response id"));
    return;
  }
  const auto it = pending_.find(*reply_id);
  if (it == pending_.end()) return;  // stale reply from an abandoned attempt
  PendingCall* slot = it->second;
  const auto ok_flag = r.u8();
  if (!ok_flag.is_ok()) {
    kill_connection_locked(gen, data_loss("rpc: truncated response"));
    return;
  }
  if (*ok_flag == 1) {
    auto body = r.bytes();
    if (!body.is_ok()) {
      kill_connection_locked(gen, data_loss("rpc: truncated response body"));
      return;
    }
    slot->transport = false;
    slot->body = std::move(*body);
  } else {
    const auto code = r.u8();
    const auto message = r.string();
    if (!code.is_ok() || !message.is_ok()) {
      kill_connection_locked(gen, data_loss("rpc: truncated error response"));
      return;
    }
    slot->transport = false;  // a well-formed remote error is not a link fault
    if (*code == 0 || *code > static_cast<std::uint8_t>(StatusCode::kCancelled)) {
      slot->status = internal_error("rpc: remote error with invalid code: " + *message);
    } else {
      slot->status = Status(static_cast<StatusCode>(*code), *message);
    }
  }
  slot->done = true;
  pending_.erase(it);
  call_cv_->notify_all();
}

Result<ser::Bytes> RpcClient::call(std::string_view service, std::string_view method,
                                   const ser::Bytes& payload, std::string_view resource,
                                   double timeout_s) {
  // The call span covers the full deadline window: every attempt, reconnect
  // and backoff sleep happens under it, so per-attempt spans are its
  // children even across retries.
  obs::ScopedSpan call_span("rpc.call." + std::string(service) + "." + std::string(method));
  call_span.set_session(std::string(resource));
  // Each series is looked up where it is incremented, so a call that
  // succeeds on its first attempt does one registry lookup.
  const obs::Labels rpc_labels = {{"method", std::string(method)},
                                  {"service", std::string(service)}};
  obs::Registry& registry = obs::Registry::global();
  const auto fail = [&](Status status) -> Result<ser::Bytes> {
    if (status.code() == StatusCode::kDeadlineExceeded) {
      registry
          .counter("ipa_rpc_deadline_exceeded_total", rpc_labels,
                   "Calls that failed because the deadline expired.")
          .inc();
    }
    call_span.set_status(status);
    return status;
  };
  const auto give_up = [&](Status status) IPA_REQUIRES(*call_mutex_) {
    ++stats_.giveups;
    registry
        .counter("ipa_rpc_giveups_total", rpc_labels,
                 "Calls that exhausted attempts or deadline.")
        .inc();
    return fail(std::move(status));
  };

  // How long one receive() slice holds the receiver baton: short enough
  // that a caller whose response another thread demuxed exits promptly.
  constexpr double kReceiveSliceS = 0.05;

  UniqueLock lock(*call_mutex_);
  if (closed_) return fail(unavailable("rpc client closed"));

  const bool idempotent = MethodTraits::instance().is_idempotent(service, method);
  const double deadline = WallClock::instance().now() + timeout_s;
  double backoff = policy_.initial_backoff_s;
  Status last_error = Status::ok();

  for (int attempt = 1;; ++attempt) {
    if (closed_) return fail(unavailable("rpc client closed"));
    // (Re)establish the link first; this is safe for any method because no
    // request has been sent on the fresh connection yet.
    if (!conn_) {
      const Status reconnected =
          policy_.reconnect ? reconnect_locked(deadline)
                            : unavailable("rpc: connection lost and reconnect disabled");
      if (!reconnected.is_ok()) {
        last_error = reconnected;
      }
    }

    if (conn_) {
      const std::uint64_t call_id = next_call_id_++;
      PendingCall slot;
      pending_[call_id] = &slot;
      std::shared_ptr<net::Connection> conn = conn_;
      const std::uint64_t gen = conn_gen_;

      // Each wire attempt is its own child span, so a retried call shows
      // one call span fanning into N attempt spans.
      obs::ScopedSpan attempt_span("rpc.attempt");
      attempt_span.set_session(std::string(resource));

      ser::Writer w;
      w.u8(0 /* kRequest */);
      w.varint(call_id);
      w.string(service);
      w.string(method);
      w.string(resource);
      w.string(auth_token_);
      w.bytes(payload);
      // Trailing trace context: the attempt span rides after the payload
      // so the server's dispatch span parents to this exact attempt. Old
      // servers never read past the payload, so the frame stays
      // backward-compatible.
      const obs::TraceContext trace = obs::current_trace();
      if (trace.valid()) {
        w.varint(trace.trace_id);
        w.varint(trace.span_id);
      }
      const ser::Bytes request = std::move(w).take();

      ++stats_.attempts;
      if (attempt > 1) ++stats_.retries;

      // Send with the lock released: concurrent calls multiplex onto the
      // shared connection (it serializes whole frames internally), and a
      // slow socket never stalls other callers' bookkeeping. The registry
      // lookups happen here too, off the call mutex.
      lock.unlock();
      registry
          .counter("ipa_rpc_attempts_total", rpc_labels, "Call attempts that reached the wire.")
          .inc();
      if (attempt > 1) {
        registry
            .counter("ipa_rpc_retries_total", rpc_labels, "Attempts after the first, per call.")
            .inc();
      }
      const Status sent = conn->send(request);
      lock.lock();
      if (!sent.is_ok()) kill_connection_locked(gen, sent);

      // This attempt's receive window; attempt_timeout_s caps it so a lost
      // response costs one attempt, not the whole deadline.
      double attempt_deadline = deadline;
      if (policy_.attempt_timeout_s > 0) {
        attempt_deadline =
            std::min(deadline, WallClock::instance().now() + policy_.attempt_timeout_s);
      }

      // Receive phase: one caller at a time takes the receiver baton and
      // demuxes whatever frame arrives — its own or another call's; the
      // rest park on the condvar until their slot fills.
      while (!slot.done) {
        const double now = WallClock::instance().now();
        if (now >= attempt_deadline) {
          // The connection itself may be healthy (the response could be
          // merely slow or shed): abandon only this call. If the reply ever
          // arrives, its id no longer matches anything and is dropped.
          pending_.erase(call_id);
          slot.done = true;
          slot.transport = true;
          slot.status = deadline_exceeded("rpc: timed out awaiting response");
          // With nobody else in flight there is no evidence the link is
          // alive at all (a half-open peer absorbs sends silently forever):
          // drop it so the next attempt re-dials instead of wedging.
          if (pending_.empty()) kill_connection_locked(gen, slot.status);
          break;
        }
        const double wait = std::min(attempt_deadline - now, kReceiveSliceS);
        if (!receiver_active_ && conn_ && conn_gen_ == gen) {
          receiver_active_ = true;
          const std::shared_ptr<net::Connection> rconn = conn_;
          lock.unlock();
          auto frame = rconn->receive(wait);
          lock.lock();
          receiver_active_ = false;
          call_cv_->notify_all();
          if (frame.is_ok()) {
            demux_frame_locked(gen, *frame);
          } else if (frame.status().code() != StatusCode::kDeadlineExceeded) {
            kill_connection_locked(gen, frame.status());
          }
        } else {
          call_cv_->wait_for(lock, std::chrono::duration<double>(wait),
                             [&]() IPA_REQUIRES(*call_mutex_) {
                               return slot.done || !receiver_active_;
                             });
        }
      }

      if (!slot.transport) {
        // Success or a genuine remote error.
        if (!slot.status.is_ok()) {
          attempt_span.set_status(slot.status);
          call_span.set_status(slot.status);
          return slot.status;
        }
        return std::move(slot.body);
      }

      last_error = slot.status;
      attempt_span.set_status(slot.status);

      if (!idempotent) {
        // Fail fast: the request may have reached the server, so replaying
        // it is not safe. The next call will reconnect lazily.
        if (last_error.code() == StatusCode::kDeadlineExceeded) return fail(last_error);
        return fail(unavailable("rpc: " + std::string(service) + "." +
                                std::string(method) +
                                " transport failure (not retried): " + last_error.message()));
      }
    }

    if (attempt >= policy_.max_attempts) {
      return give_up(last_error.with_prefix("rpc: giving up after " +
                                            std::to_string(attempt) + " attempts"));
    }
    const double now = WallClock::instance().now();
    if (now >= deadline) {
      return give_up(deadline_exceeded("rpc: deadline exceeded after " +
                                       std::to_string(attempt) +
                                       " attempts: " + last_error.message()));
    }
    // Exponential backoff with deterministic jitter, clipped to the deadline.
    const double jitter = 1.0 + policy_.jitter * (2.0 * backoff_rng_.uniform() - 1.0);
    double sleep_s = std::min(backoff * jitter, policy_.max_backoff_s);
    backoff *= policy_.backoff_multiplier;
    const bool expires = now + sleep_s >= deadline;
    if (expires) sleep_s = deadline - now;
    stats_.backoff_total_s += sleep_s;
    registry
        .histogram("ipa_rpc_backoff_seconds", rpc_labels, {},
                   "Backoff sleeps between retry attempts.")
        .observe(sleep_s);
    // The lock is released across the sleep so concurrent calls keep
    // flowing on the shared connection while this one backs off.
    lock.unlock();
    // ipa-lint: allow(blocking-under-lock) -- lock released just above
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
    lock.lock();
    if (expires) {
      return give_up(deadline_exceeded("rpc: deadline expired during backoff: " +
                                       last_error.message()));
    }
  }
}

void RpcClient::close() {
  LockGuard lock(*call_mutex_);
  closed_ = true;
  // Fails every in-flight call and wakes its waiter; the closed socket also
  // unblocks whoever holds the receiver baton.
  kill_connection_locked(conn_gen_, unavailable("rpc client closed"));
}

void RpcClient::drop_connection() {
  LockGuard lock(*call_mutex_);
  kill_connection_locked(conn_gen_, unavailable("rpc: connection dropped"));
}

}  // namespace ipa::rpc
