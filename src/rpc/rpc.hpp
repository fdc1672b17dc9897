// Binary RPC: the framework's method-call plumbing.
//
// The paper's manager node speaks two protocols: SOAP web-service calls
// (session control) and Java RMI (high-frequency histogram polling). Both
// map onto this layer — the SOAP module renders the same calls as XML
// envelopes, while "RMI" uses the compact binary form below.
//
// Request frame:  u8(kRequest)  varint(call_id) string(service)
//                 string(method) string(resource) string(auth) bytes(payload)
// Response frame: u8(kResponse) varint(call_id) u8(ok)
//                 ok: bytes(payload)    err: u8(code) string(message)
//
// Services are objects registered by name on an RpcServer; each carries a
// method table. A WSRF-style ResourceSet gives services addressable,
// stateful instances (the paper's "Web Service resources").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "net/acceptor.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"
#include "net/worker_pool.hpp"
#include "serialize/serialize.hpp"

namespace ipa::rpc {

/// Process-global idempotency declarations: method tables declare which
/// calls are safe to retry after a transport failure, and RpcClient
/// consults the same table before retrying. Registering a method via
/// Service::register_method(..., idempotent=true) populates it.
class MethodTraits {
 public:
  static MethodTraits& instance();

  void mark_idempotent(std::string_view service, std::string_view method);
  bool is_idempotent(std::string_view service, std::string_view method) const;

 private:
  mutable Mutex mutex_{LockRank::kRegistry, "method-traits"};
  std::map<std::string, bool, std::less<>> idempotent_
      IPA_GUARDED_BY(mutex_);  // "Service#method"
};

/// Per-call server-side context.
struct CallContext {
  std::string service;
  std::string method;
  std::string resource;   // WSRF resource id; empty = the service singleton
  std::string auth_token; // opaque credential, verified by the auth hook
  std::string peer;       // transport-level peer description
  std::string principal;  // filled in by the auth hook on success
};

/// A method: consumes the request payload, produces the response payload.
using Method =
    std::function<Result<ser::Bytes>(const CallContext&, const ser::Bytes&)>;

/// A named service: a method table with optional per-service auth.
class Service {
 public:
  explicit Service(std::string name, bool require_auth = false)
      : name_(std::move(name)), require_auth_(require_auth) {}
  virtual ~Service() = default;

  const std::string& name() const { return name_; }
  bool require_auth() const { return require_auth_; }

  /// `idempotent` marks the method safe for client-side retry (recorded in
  /// the process-global MethodTraits table).
  void register_method(std::string method, Method fn, bool idempotent = false);
  Result<ser::Bytes> dispatch(const CallContext& ctx, const ser::Bytes& payload) const;

 private:
  std::string name_;
  bool require_auth_;
  std::map<std::string, Method, std::less<>> methods_;
};

/// Authentication hook: given the opaque token, returns the principal name
/// or an error. Installed once per server.
using AuthFn = std::function<Result<std::string>(const std::string& token)>;

/// Event-driven RPC server with connection multiplexing, the same for every
/// scheme (inproc, tcp, chaos+*): an epoll reactor thread owns every
/// connection, decodes the u32-length-prefixed frames incrementally, feeds
/// each complete request to the server's own ThreadPool, and interleaves
/// frame-tagged responses back onto the shared stream out of order — many
/// logical calls in flight per connection, no thread held by any of them,
/// and idle peers reaped after `pool.idle_timeout_s`. Dispatch saturation
/// answers the offending call with a frame-tagged RESOURCE_EXHAUSTED
/// (counted on `ipa_server_overflow_total{server="rpc"}`). A method that
/// throws answers its call with INTERNAL; the connection stays up.
class RpcServer {
 public:
  explicit RpcServer(Uri endpoint, net::ServerPoolOptions pool = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void add_service(std::shared_ptr<Service> service);
  void set_auth(AuthFn auth) { auth_ = std::move(auth); }

  /// Bind and start serving. Returns the actual endpoint (ephemeral ports
  /// resolved).
  Result<Uri> start();
  void stop();

  Uri endpoint() const { return bound_; }
  std::size_t active_connections() const { return acceptor_.open_connections(); }
  /// Dispatch workers live now (at most `pool.max_workers`).
  std::size_t worker_count() const { return pool_.worker_count(); }

 private:
  Status on_data(const std::shared_ptr<net::Stream>& stream,
                 std::string& input);  // loop thread
  void dispatch(const std::shared_ptr<net::Stream>& stream,
                const ser::Bytes& frame);  // pool worker
  /// Decode + dispatch one request frame. An empty result means the frame
  /// was undecodable and the connection must be dropped.
  ser::Bytes handle_frame(const ser::Bytes& frame, const std::string& peer);

  Uri requested_;
  Uri bound_;
  net::Reactor reactor_;
  net::Acceptor acceptor_;
  AuthFn auth_;
  mutable Mutex mutex_{LockRank::kServer, "rpc-services"};
  std::map<std::string, std::shared_ptr<Service>, std::less<>> services_
      IPA_GUARDED_BY(mutex_);
  net::ServerPoolStats pool_stats_{"rpc"};
  ThreadPool pool_;
};

/// Client-side retry behaviour. Retries apply only to methods declared
/// idempotent in MethodTraits; everything else fails fast on transport
/// errors (but still reconnects lazily before the next call).
struct RetryPolicy {
  int max_attempts = 4;            // total attempts, including the first
  double initial_backoff_s = 0.01;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 0.25;
  double jitter = 0.2;             // backoff scaled by 1 +/- jitter
  std::uint64_t seed = Rng::kDefaultSeed;  // deterministic jitter stream
  /// Cap on one attempt's receive wait (0 = the call's full deadline). Set
  /// this when responses can be lost in flight: a dropped response then
  /// costs one attempt, not the whole deadline.
  double attempt_timeout_s = 0.0;
  double connect_timeout_s = 5.0;
  bool reconnect = true;           // re-dial the endpoint on kUnavailable
};

/// Observable retry behaviour, for callers that distinguish slow from
/// broken ("surfacing retry state", paper §3.4's interactive ethos).
struct RetryStats {
  std::uint64_t attempts = 0;    // call attempts that reached the wire
  std::uint64_t retries = 0;     // attempts after the first, per call
  std::uint64_t reconnects = 0;  // successful re-dials
  std::uint64_t giveups = 0;     // calls that exhausted attempts/deadline
  double backoff_total_s = 0.0;  // time spent sleeping between attempts
};

/// Synchronous RPC client with connection multiplexing. Thread-safe:
/// concurrent calls share the single underlying connection, each tagged
/// with its own call id — one caller at a time plays receiver, demuxing
/// response frames to whichever call they belong to, so slow calls never
/// serialize fast ones. On transport failure the client reconnects and,
/// for idempotent methods, retries with exponential backoff and jitter;
/// the per-call deadline spans all attempts, reconnects and backoff.
class RpcClient {
 public:
  static Result<RpcClient> connect(const Uri& endpoint, double timeout_s = 5.0,
                                   RetryPolicy policy = {});

  RpcClient(RpcClient&&) = default;
  RpcClient& operator=(RpcClient&&) = default;

  /// Invoke service.method; the error Status of a remote failure carries the
  /// remote code and message. `timeout_s` is the call's total deadline: it
  /// survives reconnects and bounds every backoff sleep.
  Result<ser::Bytes> call(std::string_view service, std::string_view method,
                          const ser::Bytes& payload, std::string_view resource = "",
                          double timeout_s = 30.0);

  void set_auth_token(std::string token);
  std::string auth_token() const;

  void set_retry_policy(RetryPolicy policy);
  RetryPolicy retry_policy() const;
  RetryStats stats() const;

  /// Permanently close: further calls fail with kUnavailable.
  void close();

  /// Sever the current connection but keep the client usable: the next
  /// call re-dials the endpoint (chaos hook and reconnect test aid).
  void drop_connection();

 private:
  RpcClient(net::ConnectionPtr conn, Uri endpoint, RetryPolicy policy);

  /// One in-flight call's completion slot. Lives on the calling thread's
  /// stack; registered in `pending_` by call id until the receiver (any
  /// caller thread holding the receive baton) fills it.
  struct PendingCall {
    bool done = false;
    bool transport = false;  // failure came from the link, not the method
    Status status = Status::ok();
    ser::Bytes body;
  };

  Status reconnect_locked(double deadline) IPA_REQUIRES(*call_mutex_);
  /// Fail every pending call and drop the connection; no-ops when `gen` is
  /// stale (someone else already killed this connection).
  void kill_connection_locked(std::uint64_t gen, const Status& status)
      IPA_REQUIRES(*call_mutex_);
  /// Route one received response frame to its pending call (unknown ids are
  /// stale replies from abandoned attempts and are dropped).
  void demux_frame_locked(std::uint64_t gen, const ser::Bytes& frame)
      IPA_REQUIRES(*call_mutex_);

  Uri endpoint_;
  // In a unique_ptr (not inline) so the client stays movable.
  std::unique_ptr<Mutex> call_mutex_ =
      std::make_unique<Mutex>(LockRank::kChannel, "rpc-client");
  std::unique_ptr<CondVar> call_cv_ = std::make_unique<CondVar>();
  RetryPolicy policy_ IPA_GUARDED_BY(*call_mutex_);
  // Shared so a sender/receiver can use the connection with the lock
  // released while another thread swaps it out.
  std::shared_ptr<net::Connection> conn_ IPA_GUARDED_BY(*call_mutex_);
  std::uint64_t conn_gen_ IPA_GUARDED_BY(*call_mutex_) = 1;
  bool receiver_active_ IPA_GUARDED_BY(*call_mutex_) = false;
  std::map<std::uint64_t, PendingCall*> pending_ IPA_GUARDED_BY(*call_mutex_);
  std::string auth_token_ IPA_GUARDED_BY(*call_mutex_);
  std::uint64_t next_call_id_ IPA_GUARDED_BY(*call_mutex_) = 1;
  Rng backoff_rng_ IPA_GUARDED_BY(*call_mutex_){Rng::kDefaultSeed};
  RetryStats stats_ IPA_GUARDED_BY(*call_mutex_);
  bool closed_ IPA_GUARDED_BY(*call_mutex_) = false;
};

/// WSRF-style resource set: stateful instances of a web service, addressed
/// by opaque ids ("creating an instance of a Web Service means creation of
/// Web Service resources" — paper §3.2).
template <typename T>
class ResourceSet {
 public:
  /// Store a resource; returns its new id.
  std::string create(std::shared_ptr<T> resource, std::string_view prefix = "res") {
    LockGuard lock(mutex_);
    std::string id = make_id(prefix);
    items_.emplace(id, std::move(resource));
    return id;
  }

  /// Store a resource under a caller-chosen id.
  Status insert(std::string id, std::shared_ptr<T> resource) {
    LockGuard lock(mutex_);
    if (items_.count(id) != 0) return already_exists("resource '" + id + "' exists");
    items_.emplace(std::move(id), std::move(resource));
    return Status::ok();
  }

  Result<std::shared_ptr<T>> find(const std::string& id) const {
    LockGuard lock(mutex_);
    const auto it = items_.find(id);
    if (it == items_.end()) return not_found("resource '" + id + "'");
    return it->second;
  }

  bool destroy(const std::string& id) {
    LockGuard lock(mutex_);
    return items_.erase(id) > 0;
  }

  std::vector<std::string> ids() const {
    LockGuard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(items_.size());
    for (const auto& [id, _] : items_) out.push_back(id);
    return out;
  }

  std::size_t size() const {
    LockGuard lock(mutex_);
    return items_.size();
  }

 private:
  mutable Mutex mutex_{LockRank::kResourceSet, "resource-set"};
  std::map<std::string, std::shared_ptr<T>> items_ IPA_GUARDED_BY(mutex_);
};

}  // namespace ipa::rpc
