// Wire-level HTTP/1.1: incremental parser, server and client.
//
// The paper's manager services are SOAP web services in a Globus container;
// this module is the container's transport: a real HTTP/1.1 stack over
// POSIX sockets with keep-alive, Content-Length bodies and standard status
// codes. The soap module layers envelopes on top.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/sync.hpp"
#include "common/uri.hpp"
#include "net/acceptor.hpp"
#include "net/reactor.hpp"
#include "net/worker_pool.hpp"

namespace ipa::http {

/// Header map with case-insensitive keys (HTTP field names).
struct CaseInsensitiveLess {
  bool operator()(const std::string& a, const std::string& b) const;
};
using Headers = std::map<std::string, std::string, CaseInsensitiveLess>;

struct Request {
  std::string method = "GET";
  std::string target = "/";
  Headers headers;
  std::string body;

  std::string header_or(const std::string& name, std::string fallback = "") const;
  /// Render as on-the-wire bytes (adds Content-Length).
  std::string serialize() const;
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  std::string body;

  std::string header_or(const std::string& name, std::string fallback = "") const;
  std::string serialize() const;

  static Response make(int status, std::string body,
                       std::string content_type = "text/plain");
};

std::string reason_phrase(int status);

/// Incremental HTTP/1.1 message parser. Feed arbitrary byte chunks; it
/// yields complete messages. Handles Content-Length framing (chunked
/// transfer encoding is not generated by this stack and is rejected).
template <typename Message>
class Parser {
 public:
  /// Append bytes to the internal buffer.
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Try to extract one complete message. Returns:
  ///   ok(true)  - `out` filled
  ///   ok(false) - need more bytes
  ///   error     - malformed stream (connection should be dropped)
  Result<bool> next(Message& out);

 private:
  std::string buffer_;
};

using RequestParser = Parser<Request>;
using ResponseParser = Parser<Response>;

/// Maximum accepted header block / body sizes (DoS guard).
inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 256u << 20;

/// Request handler: path-routed at the server level.
using Handler = std::function<Response(const Request&)>;

/// Event-driven HTTP/1.1 server with keep-alive. A single epoll reactor
/// thread accepts connections, parses requests incrementally, and flushes
/// responses; handlers run on the server's own ThreadPool (grown on demand to
/// `pool.max_workers`, idle workers retired). Connection capacity is therefore
/// independent of pool size — idle keep-alive connections cost a few KB, not
/// a thread. Parsed requests beyond the queue capacity are answered with a
/// best-effort 503 + Retry-After and counted on
/// `ipa_server_overflow_total{server="http"}`; open sockets are tracked on
/// `ipa_server_open_connections{server="http"}` and idle peers (slow-loris,
/// half-open) are reaped after `pool.idle_timeout_s`. A handler that throws
/// answers 500 with the exception text.
class Server {
 public:
  /// host may be empty (=127.0.0.1); port 0 picks an ephemeral port.
  Server(std::string host, std::uint16_t port, net::ServerPoolOptions pool = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Route by exact path, or prefix when the pattern ends with '*'
  /// ("/ipa/*"). Longest pattern wins.
  void route(std::string pattern, Handler handler);

  Result<Uri> start();
  void stop();

  Uri endpoint() const { return bound_; }
  std::uint64_t requests_served() const { return served_.load(); }
  /// Currently open client connections (includes idle keep-alive peers).
  std::size_t open_connections() const { return acceptor_.open_connections(); }

 private:
  /// Per-connection parse state, owned by the connection's data callback
  /// and touched only on the loop thread.
  struct Conn;

  void pump(const std::shared_ptr<Conn>& conn,
            const std::shared_ptr<net::Stream>& stream);  // loop thread
  void handle(const std::shared_ptr<Conn>& conn, const std::shared_ptr<net::Stream>& stream,
              const Request& request, bool keep_alive);  // pool worker
  Handler find_handler(const std::string& path) const;

  std::string host_;
  std::uint16_t port_;
  Uri bound_;
  net::Reactor reactor_;
  net::Acceptor acceptor_;
  mutable SharedMutex mutex_{LockRank::kServer, "http-routes"};
  std::vector<std::pair<std::string, Handler>> routes_ IPA_GUARDED_BY(mutex_);
  net::ServerPoolStats pool_stats_{"http"};
  ThreadPool pool_;
  std::atomic<std::uint64_t> served_{0};
};

/// Blocking HTTP/1.1 client with a persistent (keep-alive) connection.
class Client {
 public:
  static Result<Client> connect(const std::string& host, std::uint16_t port,
                                double timeout_s = 5.0);

  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;
  ~Client();

  /// Send a request, wait for the response. Thread-safe (serialized).
  /// `got_any_bytes`, when provided, reports whether any response bytes
  /// arrived before a failure — a zero-byte failure means the request died
  /// on a stale connection and is safe to replay on a fresh one.
  Result<Response> send(Request request, double timeout_s = 30.0,
                        bool* got_any_bytes = nullptr);

  /// Convenience wrappers.
  Result<Response> get(const std::string& target, double timeout_s = 30.0);
  Result<Response> post(const std::string& target, std::string body,
                        const std::string& content_type = "text/xml", double timeout_s = 30.0);

  void close();

 private:
  Client(int fd, std::string host_header);

  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace ipa::http
