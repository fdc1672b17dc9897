// Message-oriented transport abstraction.
//
// Every client↔service hop in IPA (SOAP calls, binary RPC, the result
// polling path) moves length-framed byte messages over a Connection. Both
// schemes are stream sockets with one wire format (u32 little-endian payload
// length, then payload), so one socket Connection serves both:
//
//   inproc://name      - an AF_UNIX stream socket in the Linux abstract
//                        namespace, keyed by pid and name (tests, the
//                        functional grid built by examples); private to
//                        its process: peers from another pid are refused
//   tcp://host:port    - IPv4 sockets; gives the examples an actual network
//                        hop like the paper's JAS client → Globus container
//                        path
//
// chaos+inproc and chaos+tcp (net/fault.hpp) inject faults on the dialing
// side. Servers put the listening socket from listen() on their reactor
// (net/acceptor.hpp), so every scheme is served the same way.
//
// Frames are limited to kMaxFrameBytes; a misbehaving peer cannot force an
// unbounded allocation.
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "common/uri.hpp"
#include "net/socket_io.hpp"
#include "serialize/serialize.hpp"

namespace ipa::net {

inline constexpr std::size_t kMaxFrameBytes = 64u << 20;  // 64 MiB

/// A bidirectional, message-framed duplex channel. One thread may send
/// while another receives, and concurrent senders serialize internally —
/// whole frames never interleave on the wire (the multiplexed RpcClient
/// relies on this to share one connection across caller threads).
/// Concurrent *receivers* are not supported: exactly one thread drains.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Send one frame. Fails with kUnavailable once the peer closed.
  virtual Status send(const ser::Bytes& frame) = 0;

  /// Receive one frame; blocks up to `timeout_s` (<0 = wait forever).
  /// kDeadlineExceeded on timeout, kUnavailable when the peer closed.
  virtual Result<ser::Bytes> receive(double timeout_s) = 0;

  /// Half-close: wakes any blocked receive on both sides.
  virtual void close() = 0;

  /// Peer description for diagnostics ("tcp:127.0.0.1:38412").
  virtual std::string peer() const = 0;
};

using ConnectionPtr = std::unique_ptr<Connection>;

/// A bound, non-blocking listening socket and the endpoint dialers should
/// use: the ephemeral port of tcp://host:0 resolved, a chaos+ endpoint
/// re-branded with its policy query.
struct Listening {
  Fd fd;
  Uri endpoint;
};

/// Bind an inproc, tcp, chaos+inproc or chaos+tcp endpoint.
Result<Listening> listen(const Uri& endpoint);

/// Wait up to `timeout_s` (<0 = forever) for one connection and serve it
/// from the calling thread. kDeadlineExceeded on timeout.
Result<ConnectionPtr> accept(const Listening& listening, double timeout_s);

/// Dial an endpoint; chaos+ endpoints come back wrapped with their policy.
Result<ConnectionPtr> connect(const Uri& endpoint, double timeout_s = 5.0);

}  // namespace ipa::net
