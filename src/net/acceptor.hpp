// Server-side accept path shared by the HTTP and RPC servers.
//
// An Acceptor puts a listening socket from net::listen() on a Reactor and
// turns every accepted connection — TCP or inproc AF_UNIX alike — into a
// reactor Stream with the server's idle timeout and input cap. It owns the
// live streams, keeps `ipa_server_open_connections{server=...}` and
// `ipa_server_connections_total{server=...}`, and releases whatever is still
// open when the server stops. No connection ever holds a thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "common/sync.hpp"
#include "net/reactor.hpp"
#include "net/transport.hpp"

namespace ipa::obs {
class Counter;
class Gauge;
}  // namespace ipa::obs

namespace ipa::net {

class Acceptor {
 public:
  /// One connection's bytes, on the loop thread: consume what you can from
  /// `input` in place; an error closes the connection.
  using DataFn =
      std::function<Status(const std::shared_ptr<Stream>& stream, std::string& input)>;
  /// Builds the data callback for a freshly accepted connection (loop
  /// thread); per-connection state lives in its captures. The callback is
  /// handed its stream on every call, so it never needs to keep it.
  using ConnFn = std::function<DataFn()>;

  /// `server` labels the connection metrics ("http", "rpc").
  Acceptor(Reactor& reactor, const std::string& server, StreamOptions options,
           ConnFn on_connection);
  ~Acceptor();

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Register the listening socket with the running reactor.
  Status start(Listening listening);
  /// Stop accepting: take the listening socket off the reactor. Servers call
  /// this first in stop(), so no connection arrives while their pool drains.
  /// Idempotent.
  void close_listener();
  /// Close the listening socket and release every surviving connection.
  /// Call once the reactor has stopped, so no callback races the teardown.
  /// Idempotent.
  void stop();

  std::size_t open_connections() const;

 private:
  void on_accept_ready();  // loop thread
  void forget(std::uint64_t id);

  Reactor& reactor_;
  const StreamOptions options_;
  const ConnFn on_connection_;
  obs::Gauge& open_gauge_;
  obs::Counter& accepted_;
  Listening listening_;
  std::uint64_t listen_token_ = 0;  // reactor registration; 0 = none
  mutable Mutex mutex_{LockRank::kServer, "server-conns"};
  std::uint64_t next_id_ IPA_GUARDED_BY(mutex_) = 0;
  std::map<std::uint64_t, std::shared_ptr<Stream>> conns_ IPA_GUARDED_BY(mutex_);
};

}  // namespace ipa::net
