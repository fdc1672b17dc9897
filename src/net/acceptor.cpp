#include "net/acceptor.hpp"

#include <sys/epoll.h>

#include "obs/metrics.hpp"

namespace ipa::net {

Acceptor::Acceptor(Reactor& reactor, const std::string& server, StreamOptions options,
                   ConnFn on_connection)
    : reactor_(reactor),
      options_(options),
      on_connection_(std::move(on_connection)),
      open_gauge_(obs::Registry::global().gauge(
          "ipa_server_open_connections", {{"server", server}},
          "Currently open client connections, idle keep-alive peers included.")),
      accepted_(obs::Registry::global().counter(
          "ipa_server_connections_total", {{"server", server}},
          "Client connections accepted since process start.")) {}

Acceptor::~Acceptor() { stop(); }

Status Acceptor::start(Listening listening) {
  listening_ = std::move(listening);
  IPA_ASSIGN_OR_RETURN(listen_token_,
                       reactor_.add_fd(listening_.fd.get(), EPOLLIN,
                                       [this](std::uint32_t) { on_accept_ready(); }));
  return Status::ok();
}

void Acceptor::close_listener() {
  if (listen_token_ == 0) return;
  reactor_.remove_fd(listen_token_);
  listen_token_ = 0;
}

void Acceptor::stop() {
  close_listener();
  listening_.fd.reset();
  std::map<std::uint64_t, std::shared_ptr<Stream>> survivors;
  {
    LockGuard lock(mutex_);
    survivors.swap(conns_);
  }
  // Survivors never saw on_close (the reactor is gone); dropping them here
  // closes their sockets.
  open_gauge_.add(-static_cast<double>(survivors.size()));
}

std::size_t Acceptor::open_connections() const {
  LockGuard lock(mutex_);
  return conns_.size();
}

void Acceptor::on_accept_ready() {
  // Level-triggered: drain the backlog fully each readiness event.
  for (;;) {
    std::string peer;
    auto fd = accept_fd(listening_.fd.get(), listening_.endpoint.host, peer);
    // Backlog drained (invalid fd), or a transient accept error.
    if (!fd.is_ok() || !fd->valid()) return;
    std::uint64_t id = 0;
    {
      LockGuard lock(mutex_);
      id = ++next_id_;
    }
    // The stream owns its data callback, so the callback sees the stream
    // through a weak link; it is always live while the stream dispatches.
    auto self = std::make_shared<std::weak_ptr<Stream>>();
    auto stream = Stream::adopt(
        reactor_, std::move(*fd), std::move(peer), options_,
        [self, on_data = on_connection_()](std::string& input) {
          return on_data(self->lock(), input);
        },
        [this, id] { forget(id); });
    if (!stream.is_ok()) continue;  // fd closed by the dropped net::Fd
    // Safe after adopt: this runs on the loop thread, so the stream cannot
    // dispatch before we return.
    *self = *stream;
    {
      LockGuard lock(mutex_);
      conns_[id] = std::move(*stream);
    }
    open_gauge_.add(1);
    accepted_.inc();
  }
}

void Acceptor::forget(std::uint64_t id) {
  bool erased = false;
  {
    LockGuard lock(mutex_);
    erased = conns_.erase(id) > 0;
  }
  if (erased) open_gauge_.add(-1);
}

}  // namespace ipa::net
