// Framed stream-socket transport: inproc (AF_UNIX) and tcp (IPv4).
//
// Wire format per frame: u32 little-endian payload length, then payload.
#include "net/transport.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>

#include "common/clock.hpp"
#include "common/strings.hpp"
#include "common/sync.hpp"
#include "net/fault.hpp"

namespace ipa::net {
namespace {

class SocketConnection final : public Connection {
 public:
  SocketConnection(Fd fd, std::string peer) : fd_(std::move(fd)), peer_(std::move(peer)) {}

  Status send(const ser::Bytes& frame) override {
    if (frame.size() > kMaxFrameBytes) return invalid_argument("socket: frame too large");
    // ipa-lint: allow(blocking-under-lock) -- the send lock exists precisely
    // to serialize whole frames onto the socket; write_all under it is the point.
    LockGuard lock(send_mutex_);
    if (!fd_.valid()) return unavailable("socket: connection closed");
    std::uint8_t header[4];
    const auto len = static_cast<std::uint32_t>(frame.size());
    for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
    IPA_RETURN_IF_ERROR(write_all(fd_.get(), header, 4));
    if (!frame.empty()) IPA_RETURN_IF_ERROR(write_all(fd_.get(), frame.data(), frame.size()));
    return Status::ok();
  }

  Result<ser::Bytes> receive(double timeout_s) override {
    if (!fd_.valid()) return unavailable("socket: connection closed");
    std::uint8_t header[4];
    IPA_RETURN_IF_ERROR(read_exact(fd_.get(), header, 4, timeout_s));
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
    if (len > kMaxFrameBytes) return data_loss("socket: oversized frame announced");
    ser::Bytes frame(len);
    if (len > 0) IPA_RETURN_IF_ERROR(read_exact(fd_.get(), frame.data(), len, timeout_s));
    return frame;
  }

  void close() override {
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  }

  std::string peer() const override { return peer_; }

 private:
  Fd fd_;
  Mutex send_mutex_{LockRank::kTransport, "socket-send"};
  std::string peer_;
};

}  // namespace

Result<Listening> listen(const Uri& endpoint) {
  if (is_chaos_scheme(endpoint.scheme)) return listen_chaos(endpoint);
  Listening listening;
  listening.endpoint = endpoint;
  if (endpoint.scheme == "inproc") {
    IPA_ASSIGN_OR_RETURN(listening.fd, inproc_listen_fd(endpoint.host));
  } else if (endpoint.scheme == "tcp") {
    std::uint16_t bound_port = 0;
    IPA_ASSIGN_OR_RETURN(listening.fd, tcp_listen_fd(endpoint.host, endpoint.port, bound_port));
    listening.endpoint.port = bound_port;
    if (listening.endpoint.host.empty()) listening.endpoint.host = "127.0.0.1";
  } else {
    return invalid_argument("listen: unsupported scheme '" + endpoint.scheme + "'");
  }
  return listening;
}

Result<ConnectionPtr> accept(const Listening& listening, double timeout_s) {
  const double deadline = WallClock::instance().now() + timeout_s;
  for (;;) {
    const double left =
        timeout_s < 0 ? -1.0 : std::max(0.0, deadline - WallClock::instance().now());
    IPA_RETURN_IF_ERROR(wait_ready(listening.fd.get(), POLLIN, left));
    std::string peer;
    IPA_ASSIGN_OR_RETURN(Fd fd, accept_fd(listening.fd.get(), listening.endpoint.host, peer));
    // Invalid: nothing left pending — the peer that woke us was refused
    // (another process) or gave up.
    if (fd.valid()) return ConnectionPtr(new SocketConnection(std::move(fd), std::move(peer)));
  }
}

Result<ConnectionPtr> connect(const Uri& endpoint, double timeout_s) {
  if (is_chaos_scheme(endpoint.scheme)) return connect_chaos(endpoint, timeout_s);
  if (endpoint.scheme == "inproc") {
    IPA_ASSIGN_OR_RETURN(Fd fd, inproc_connect_fd(endpoint.host, timeout_s));
    return ConnectionPtr(new SocketConnection(std::move(fd), "inproc:" + endpoint.host));
  }
  if (endpoint.scheme == "tcp") {
    IPA_ASSIGN_OR_RETURN(Fd fd, tcp_connect_fd(endpoint.host, endpoint.port, timeout_s));
    return ConnectionPtr(new SocketConnection(
        std::move(fd),
        strings::format("tcp:%s:%u", endpoint.host.c_str(), static_cast<unsigned>(endpoint.port))));
  }
  return invalid_argument("connect: unsupported scheme '" + endpoint.scheme + "'");
}

}  // namespace ipa::net
