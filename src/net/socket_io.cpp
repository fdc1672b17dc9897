#include "net/socket_io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>

#include "common/ids.hpp"
#include "common/strings.hpp"

namespace ipa::net {

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status errno_status(const char* what) {
  return unavailable(std::string(what) + ": " + std::strerror(errno));
}

Status wait_ready(int fd, short events, double timeout_s) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int timeout_ms = timeout_s < 0 ? -1 : static_cast<int>(timeout_s * 1000.0);
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::ok();
    if (rc == 0) return deadline_exceeded("socket: poll timeout");
    if (errno == EINTR) continue;
    return errno_status("socket: poll");
  }
}

Result<std::size_t> read_some(int fd, std::uint8_t* buf, std::size_t len, double timeout_s) {
  while (true) {
    IPA_RETURN_IF_ERROR(wait_ready(fd, POLLIN, timeout_s));
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) return unavailable("socket: peer closed");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return errno_status("socket: recv");
  }
}

Status read_exact(int fd, std::uint8_t* buf, std::size_t len, double timeout_s) {
  std::size_t done = 0;
  while (done < len) {
    IPA_ASSIGN_OR_RETURN(const std::size_t n, read_some(fd, buf + done, len - done, timeout_s));
    done += n;
  }
  return Status::ok();
}

Status write_all(int fd, const std::uint8_t* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        IPA_RETURN_IF_ERROR(wait_ready(fd, POLLOUT, -1));
        continue;
      }
      return errno_status("socket: send");
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

namespace {

Result<sockaddr_in> resolve(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string target = (host.empty() || host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, target.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(target.c_str(), nullptr, &hints, &result) != 0 || result == nullptr) {
    return unavailable("socket: cannot resolve host '" + host + "'");
  }
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return addr;
}

}  // namespace

Result<Fd> tcp_connect_fd(const std::string& host, std::uint16_t port, double timeout_s) {
  IPA_ASSIGN_OR_RETURN(sockaddr_in addr, resolve(host, port));
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_status("socket: socket");

  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) return errno_status("socket: connect");
  if (rc != 0) {
    IPA_RETURN_IF_ERROR(wait_ready(fd.get(), POLLOUT, timeout_s));
    int err = 0;
    socklen_t err_len = sizeof err;
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) return unavailable(std::string("socket: connect: ") + std::strerror(err));
  }
  ::fcntl(fd.get(), F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Result<Fd> tcp_listen_fd(const std::string& host, std::uint16_t port, std::uint16_t& bound_port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status("socket: socket");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  IPA_ASSIGN_OR_RETURN(sockaddr_in addr, resolve(host, port));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return errno_status("socket: bind");
  }
  // Deep backlog: connection storms (bench_server opens thousands at once)
  // must queue rather than drop SYNs while the reactor drains its accept loop.
  if (::listen(fd.get(), 1024) != 0) return errno_status("socket: listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return errno_status("socket: getsockname");
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

namespace {

struct InprocAddress {
  sockaddr_un addr{};
  socklen_t len = 0;
};

Result<InprocAddress> inproc_address(const std::string& name) {
  if (name.empty()) return invalid_argument("inproc: empty endpoint name");
  const std::string path = "ipa/" + std::to_string(::getpid()) + "/" + name;
  InprocAddress out;
  out.addr.sun_family = AF_UNIX;
  // sun_path[0] stays NUL: the abstract namespace, no file on disk.
  if (1 + path.size() > sizeof out.addr.sun_path) {
    return invalid_argument("inproc: endpoint name '" + name + "' is too long");
  }
  std::memcpy(out.addr.sun_path + 1, path.data(), path.size());
  out.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + path.size());
  return out;
}

}  // namespace

Result<Fd> inproc_listen_fd(const std::string& name) {
  IPA_ASSIGN_OR_RETURN(const InprocAddress address, inproc_address(name));
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status("inproc: socket");
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address.addr), address.len) != 0) {
    if (errno == EADDRINUSE) return already_exists("inproc: endpoint '" + name + "' in use");
    return errno_status("inproc: bind");
  }
  if (::listen(fd.get(), 1024) != 0) return errno_status("inproc: listen");
  return fd;
}

Result<Fd> inproc_connect_fd(const std::string& name, double timeout_s) {
  IPA_ASSIGN_OR_RETURN(const InprocAddress address, inproc_address(name));
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return errno_status("inproc: socket");
  // A blocking AF_UNIX connect only waits while the listener's backlog is
  // full; the send timeout bounds that wait (zero = no bound).
  timeval wait{};
  if (timeout_s > 0) {
    wait.tv_sec = static_cast<time_t>(timeout_s);
    wait.tv_usec = static_cast<suseconds_t>((timeout_s - static_cast<double>(wait.tv_sec)) * 1e6);
  }
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &wait, sizeof wait);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address.addr), address.len) != 0) {
    if (errno == ECONNREFUSED) return unavailable("inproc: no listener at '" + name + "'");
    return errno_status("inproc: connect");
  }
  const timeval unbounded{};
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &unbounded, sizeof unbounded);
  return fd;
}

Result<Fd> accept_fd(int listen_fd, const std::string& listen_name, std::string& peer) {
  for (;;) {
    sockaddr_storage addr{};
    socklen_t addr_len = sizeof addr;
    Fd fd(::accept4(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len,
                    SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Fd();
      return errno_status("socket: accept");
    }
    if (addr.ss_family == AF_UNIX) {
      // Abstract sockets carry no filesystem permissions, so any process in
      // the network namespace could dial this name. inproc stays private to
      // its process: a peer from another pid is hung up on.
      ucred cred{};
      socklen_t cred_len = sizeof cred;
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_PEERCRED, &cred, &cred_len) != 0 ||
          cred.pid != ::getpid()) {
        continue;
      }
    }
    if (addr.ss_family == AF_INET) {
      const auto& in = reinterpret_cast<const sockaddr_in&>(addr);
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      char ip[INET_ADDRSTRLEN] = {};
      ::inet_ntop(AF_INET, &in.sin_addr, ip, sizeof ip);
      peer = strings::format("tcp:%s:%u", ip, static_cast<unsigned>(ntohs(in.sin_port)));
    } else {
      peer = "inproc:" + listen_name + "#" + std::to_string(next_sequence());
    }
    return fd;
  }
}

}  // namespace ipa::net
