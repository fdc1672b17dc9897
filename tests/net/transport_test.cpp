#include "net/transport.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <thread>

#include "common/strings.hpp"

namespace ipa::net {
namespace {

ser::Bytes bytes_of(std::string_view s) {
  return ser::Bytes(s.begin(), s.end());
}

class TransportTest : public ::testing::TestWithParam<std::string> {
 protected:
  // "chaos+" endpoints carry no fault query: the decorator must be a pure
  // passthrough, so every transport contract holds under it verbatim.
  Uri make_endpoint() {
    const std::string& scheme = GetParam();
    Uri uri;
    uri.scheme = scheme;
    if (scheme == "tcp" || scheme == "chaos+tcp") {
      uri.host = "127.0.0.1";
      uri.port = 0;
    } else {
      static std::atomic<int> counter{0};
      uri.host = "test-ep-" + std::to_string(counter.fetch_add(1));
    }
    return uri;
  }
};

TEST_P(TransportTest, EchoRoundTrip) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();

  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    auto frame = (*conn)->receive(5.0);
    ASSERT_TRUE(frame.is_ok());
    ASSERT_TRUE((*conn)->send(*frame).is_ok());
  });

  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  ASSERT_TRUE((*client)->send(bytes_of("ping")).is_ok());
  auto echoed = (*client)->receive(5.0);
  ASSERT_TRUE(echoed.is_ok());
  EXPECT_EQ(*echoed, bytes_of("ping"));
}

TEST_P(TransportTest, ManySequentialFramesPreserveOrderAndContent) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());

  constexpr int kFrames = 200;
  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    for (int i = 0; i < kFrames; ++i) {
      auto frame = (*conn)->receive(5.0);
      ASSERT_TRUE(frame.is_ok());
      EXPECT_EQ(*frame, bytes_of("msg-" + std::to_string(i)));
    }
    ASSERT_TRUE((*conn)->send(bytes_of("done")).is_ok());
  });

  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE((*client)->send(bytes_of("msg-" + std::to_string(i))).is_ok());
  }
  EXPECT_EQ((*client)->receive(5.0).value(), bytes_of("done"));
}

TEST_P(TransportTest, LargeFrameRoundTrip) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());

  ser::Bytes big(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);

  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    auto frame = (*conn)->receive(10.0);
    ASSERT_TRUE(frame.is_ok());
    ASSERT_TRUE((*conn)->send(*frame).is_ok());
  });

  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE((*client)->send(big).is_ok());
  auto echoed = (*client)->receive(10.0);
  ASSERT_TRUE(echoed.is_ok());
  EXPECT_EQ(*echoed, big);
}

TEST_P(TransportTest, EmptyFrameIsValid) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());
  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    auto frame = (*conn)->receive(5.0);
    ASSERT_TRUE(frame.is_ok());
    EXPECT_TRUE(frame->empty());
    ASSERT_TRUE((*conn)->send({}).is_ok());
  });
  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE((*client)->send({}).is_ok());
  EXPECT_TRUE((*client)->receive(5.0).value().empty());
}

TEST_P(TransportTest, ReceiveTimesOut) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());
  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    // Keep the connection open (sending nothing) past the client's timeout.
    // ipa-lint: allow(sleep-sync) -- the silent window is the behavior under test: the server stays
    // open past the client's receive deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  });
  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  const auto result = (*client)->receive(0.05);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_P(TransportTest, AcceptTimesOut) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());
  const auto result = accept(*listener, 0.05);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_P(TransportTest, PeerCloseUnblocksReceive) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());

  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    (*conn)->close();
  });

  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  const auto result = (*client)->receive(5.0);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_P(TransportTest, ConcurrentConnections) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());

  constexpr int kClients = 8;
  std::vector<std::jthread> echoers;
  std::jthread server([&] {
    for (int i = 0; i < kClients; ++i) {
      auto conn = accept(*listener, 5.0);
      ASSERT_TRUE(conn.is_ok());
      echoers.emplace_back([c = std::shared_ptr<Connection>(conn->release())] {
        auto frame = c->receive(5.0);
        if (frame.is_ok()) (void)c->send(*frame);
      });
    }
  });

  std::vector<std::jthread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = connect(listener->endpoint);
      if (!client.is_ok()) return;
      const ser::Bytes msg = bytes_of("client-" + std::to_string(i));
      if (!(*client)->send(msg).is_ok()) return;
      auto echoed = (*client)->receive(5.0);
      if (echoed.is_ok() && *echoed == msg) ++ok_count;
    });
  }
  clients.clear();
  EXPECT_EQ(ok_count.load(), kClients);
}

TEST_P(TransportTest, FrameAtMaxSizeIsDelivered) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());

  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    auto frame = (*conn)->receive(30.0);
    ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
    EXPECT_EQ(frame->size(), kMaxFrameBytes);
    EXPECT_EQ(frame->front(), 0xAB);
    EXPECT_EQ(frame->back(), 0xCD);
    ASSERT_TRUE((*conn)->send(bytes_of("got it")).is_ok());
  });

  ser::Bytes frame(kMaxFrameBytes, 0);
  frame.front() = 0xAB;
  frame.back() = 0xCD;
  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE((*client)->send(frame).is_ok());
  EXPECT_EQ((*client)->receive(30.0).value(), bytes_of("got it"));
}

TEST_P(TransportTest, OversizedFrameIsRejectedAtSend) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());
  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  const ser::Bytes frame(kMaxFrameBytes + 1, 0);
  EXPECT_EQ((*client)->send(frame).code(), StatusCode::kInvalidArgument);
}

TEST_P(TransportTest, SelfCloseWakesBlockedReceive) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());
  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    // Keep the server end open and silent; only the client's own close may
    // end its blocked receive.
    // ipa-lint: allow(sleep-sync) -- the server's silence is the scenario: only the client's own close
    // may end its blocked receive.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  std::shared_ptr<Connection> conn(client->release());

  std::jthread closer([conn] {
    // ipa-lint: allow(sleep-sync) -- delays the close so the main thread is parked inside its blocked
    // receive; an earlier close exercises the same return path.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    conn->close();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto result = conn->receive(5.0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(result.is_ok());
  // Woke on the close, not the 5 s deadline.
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST_P(TransportTest, ConcurrentSendAndReceiveAreFullDuplex) {
  auto listener = listen(make_endpoint());
  ASSERT_TRUE(listener.is_ok());

  constexpr int kFrames = 100;
  std::jthread server([&] {
    auto conn = accept(*listener, 5.0);
    ASSERT_TRUE(conn.is_ok());
    std::shared_ptr<Connection> c(conn->release());
    std::jthread tx([c] {
      for (int i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(c->send(bytes_of(strings::format("s%d", i))).is_ok());
      }
    });
    for (int i = 0; i < kFrames; ++i) {
      auto frame = c->receive(5.0);
      ASSERT_TRUE(frame.is_ok());
      EXPECT_EQ(*frame, bytes_of(strings::format("c%d", i)));
    }
  });

  auto client = connect(listener->endpoint);
  ASSERT_TRUE(client.is_ok());
  std::shared_ptr<Connection> c(client->release());
  std::jthread tx([c] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(c->send(bytes_of(strings::format("c%d", i))).is_ok());
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    auto frame = c->receive(5.0);
    ASSERT_TRUE(frame.is_ok());
    EXPECT_EQ(*frame, bytes_of(strings::format("s%d", i)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values("inproc", "tcp", "chaos+inproc", "chaos+tcp"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '+', '_');
                           return name;
                         });

TEST(InProc, ConnectWithoutListenerFails) {
  Uri uri;
  uri.scheme = "inproc";
  uri.host = "nobody-home";
  EXPECT_EQ(connect(uri).status().code(), StatusCode::kUnavailable);
}

TEST(InProc, DuplicateListenRejected) {
  Uri uri;
  uri.scheme = "inproc";
  uri.host = "dup-ep";
  auto first = listen(uri);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(listen(uri).status().code(), StatusCode::kAlreadyExists);
  first->fd.reset();
  // After close the name is free again.
  auto second = listen(uri);
  EXPECT_TRUE(second.is_ok());
}

TEST(InProc, OverLongNameRejected) {
  Uri uri;
  uri.scheme = "inproc";
  uri.host = std::string(200, 'n');
  EXPECT_EQ(listen(uri).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(connect(uri).status().code(), StatusCode::kInvalidArgument);
}

TEST(InProc, PeerFromAnotherProcessIsRefused) {
  // Abstract sockets have no filesystem permissions: a forked child can
  // dial the parent's inproc name directly, and accept must hang up on it.
  Uri uri;
  uri.scheme = "inproc";
  uri.host = "private-ep";
  auto listener = listen(uri);
  ASSERT_TRUE(listener.is_ok());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = "ipa/" + std::to_string(::getpid()) + "/" + uri.host;
  std::memcpy(addr.sun_path + 1, path.data(), path.size());
  const auto addr_len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + path.size());
  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Async-signal-safe calls only: exit 0 once the parent hung up.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), addr_len) != 0) ::_exit(2);
    const char one = 1;
    if (::write(ready[1], &one, 1) != 1) ::_exit(3);
    pollfd pfd{fd, POLLIN, 0};
    char byte;
    ::_exit(::poll(&pfd, 1, 5000) == 1 && ::read(fd, &byte, 1) <= 0 ? 0 : 1);
  }
  ::close(ready[1]);
  char one = 0;
  ASSERT_EQ(::read(ready[0], &one, 1), 1);  // the child's connect is pending
  ::close(ready[0]);
  EXPECT_EQ(accept(*listener, 0.2).status().code(), StatusCode::kDeadlineExceeded);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the child was not hung up on";
}

TEST(Tcp, EphemeralPortIsReported) {
  Uri uri;
  uri.scheme = "tcp";
  uri.host = "127.0.0.1";
  uri.port = 0;
  auto listener = listen(uri);
  ASSERT_TRUE(listener.is_ok());
  EXPECT_GT(listener->endpoint.port, 0);
}

TEST(Tcp, ConnectToClosedPortFails) {
  Uri uri;
  uri.scheme = "tcp";
  uri.host = "127.0.0.1";
  uri.port = 1;  // almost certainly closed
  const auto result = connect(uri, 1.0);
  EXPECT_FALSE(result.is_ok());
}

TEST(Transport, UnknownSchemeRejected) {
  Uri uri;
  uri.scheme = "carrier-pigeon";
  uri.host = "x";
  EXPECT_EQ(listen(uri).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(connect(uri).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ipa::net
