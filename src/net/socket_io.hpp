// Low-level POSIX socket helpers shared by the framed transport, the
// reactor accept path and the byte-stream HTTP client.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace ipa::net {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

  /// Relinquish ownership; the caller must close the returned descriptor.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

Status errno_status(const char* what);

/// Block until the fd is ready for `events` (POLLIN/POLLOUT) or timeout.
/// timeout_s < 0 waits forever.
Status wait_ready(int fd, short events, double timeout_s);

/// Read up to `len` bytes; returns the count (0 never returned — peer close
/// is kUnavailable). Waits up to timeout_s for readability.
Result<std::size_t> read_some(int fd, std::uint8_t* buf, std::size_t len, double timeout_s);

/// Read exactly `len` bytes or fail.
Status read_exact(int fd, std::uint8_t* buf, std::size_t len, double timeout_s);

/// Write all bytes (handles partial writes and EAGAIN).
Status write_all(int fd, const std::uint8_t* buf, std::size_t len);

/// Connect to host:port with timeout; returns a blocking socket.
Result<Fd> tcp_connect_fd(const std::string& host, std::uint16_t port, double timeout_s);

/// Listen on host:port (port 0 = ephemeral); returns the non-blocking
/// socket and fills `bound_port` with the actual port.
Result<Fd> tcp_listen_fd(const std::string& host, std::uint16_t port, std::uint16_t& bound_port);

/// inproc://name: an AF_UNIX stream socket in the Linux abstract namespace
/// at "ipa/<pid>/<name>", so names from different processes never collide.
/// The kernel is the endpoint registry: listening on a bound name fails
/// with kAlreadyExists, dialing a name nobody listens on with kUnavailable.
/// An empty or over-long name is kInvalidArgument. Abstract names have no
/// filesystem permissions; accept_fd() keeps inproc process-private by
/// refusing every peer from another pid.
Result<Fd> inproc_listen_fd(const std::string& name);  // non-blocking
Result<Fd> inproc_connect_fd(const std::string& name, double timeout_s);

/// Accept one pending connection from a non-blocking listening socket as a
/// non-blocking fd; an invalid Fd when none is pending. AF_UNIX peers whose
/// SO_PEERCRED pid is not this process are closed and skipped. TCP peers
/// get TCP_NODELAY and are named "tcp:127.0.0.1:38412"; AF_UNIX peers are
/// named "inproc:<listen_name>#<n>" with n a process-wide sequence number.
Result<Fd> accept_fd(int listen_fd, const std::string& listen_name, std::string& peer);

}  // namespace ipa::net
