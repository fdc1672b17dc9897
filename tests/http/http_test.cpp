#include "http/http.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ipa::http {
namespace {

TEST(HttpCodec, SerializeRequestAddsContentLength) {
  Request req;
  req.method = "POST";
  req.target = "/ipa/services";
  req.headers["Content-Type"] = "text/xml";
  req.body = "<x/>";
  const std::string wire = req.serialize();
  EXPECT_NE(wire.find("POST /ipa/services HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 4\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n<x/>"), std::string::npos);
}

TEST(HttpCodec, ParseRequestRoundTrip) {
  Request req;
  req.method = "POST";
  req.target = "/a/b?c=1";
  req.headers["SOAPAction"] = "\"Session#create\"";
  req.body = "payload bytes";

  RequestParser parser;
  parser.feed(req.serialize());
  Request out;
  auto got = parser.next(out);
  ASSERT_TRUE(got.is_ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(out.method, "POST");
  EXPECT_EQ(out.target, "/a/b?c=1");
  EXPECT_EQ(out.header_or("soapaction"), "\"Session#create\"");  // case-insensitive
  EXPECT_EQ(out.body, "payload bytes");
}

TEST(HttpCodec, ParseResponseRoundTrip) {
  Response resp = Response::make(404, "nothing here");
  ResponseParser parser;
  parser.feed(resp.serialize());
  Response out;
  auto got = parser.next(out);
  ASSERT_TRUE(got.is_ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(out.status, 404);
  EXPECT_EQ(out.reason, "Not Found");
  EXPECT_EQ(out.body, "nothing here");
}

TEST(HttpCodec, IncrementalFeedByteByByte) {
  Request req;
  req.method = "GET";
  req.target = "/x";
  req.body = "abc";
  const std::string wire = req.serialize();

  RequestParser parser;
  Request out;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.feed(std::string_view(&wire[i], 1));
    auto got = parser.next(out);
    ASSERT_TRUE(got.is_ok());
    EXPECT_FALSE(*got) << "completed too early at byte " << i;
  }
  parser.feed(std::string_view(&wire[wire.size() - 1], 1));
  auto got = parser.next(out);
  ASSERT_TRUE(got.is_ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(out.body, "abc");
}

TEST(HttpCodec, PipelinedMessages) {
  Request a, b;
  a.method = "GET";
  a.target = "/first";
  b.method = "GET";
  b.target = "/second";
  RequestParser parser;
  parser.feed(a.serialize() + b.serialize());
  Request out;
  ASSERT_TRUE(parser.next(out).value());
  EXPECT_EQ(out.target, "/first");
  ASSERT_TRUE(parser.next(out).value());
  EXPECT_EQ(out.target, "/second");
  EXPECT_FALSE(parser.next(out).value());
}

TEST(HttpCodec, MalformedStartLineRejected) {
  RequestParser parser;
  parser.feed("NOT-HTTP\r\n\r\n");
  Request out;
  EXPECT_FALSE(parser.next(out).is_ok());
}

TEST(HttpCodec, BadContentLengthRejected) {
  RequestParser parser;
  parser.feed("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  Request out;
  EXPECT_FALSE(parser.next(out).is_ok());
}

TEST(HttpCodec, ChunkedEncodingRejected) {
  ResponseParser parser;
  parser.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
  Response out;
  EXPECT_FALSE(parser.next(out).is_ok());
}

TEST(HttpCodec, ResponseReasonWithSpaces) {
  ResponseParser parser;
  parser.feed("HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n");
  Response out;
  ASSERT_TRUE(parser.next(out).value());
  EXPECT_EQ(out.status, 500);
  EXPECT_EQ(out.reason, "Internal Server Error");
}

TEST(HttpServer, ServesRoutedRequests) {
  Server server("127.0.0.1", 0);
  server.route("/hello", [](const Request&) { return Response::make(200, "hi there"); });
  server.route("/ipa/*", [](const Request& req) {
    return Response::make(200, "prefix:" + req.target);
  });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  auto client = Client::connect(bound->host, bound->port);
  ASSERT_TRUE(client.is_ok());

  auto r1 = client->get("/hello");
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(r1->status, 200);
  EXPECT_EQ(r1->body, "hi there");

  auto r2 = client->get("/ipa/session/create");
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r2->body, "prefix:/ipa/session/create");

  auto r3 = client->get("/nothing");
  ASSERT_TRUE(r3.is_ok());
  EXPECT_EQ(r3->status, 404);

  server.stop();
}

TEST(HttpServer, KeepAliveReusesConnection) {
  Server server("127.0.0.1", 0);
  server.route("/count", [](const Request&) { return Response::make(200, "ok"); });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  auto client = Client::connect(bound->host, bound->port);
  ASSERT_TRUE(client.is_ok());
  for (int i = 0; i < 20; ++i) {
    auto resp = client->get("/count");
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    EXPECT_EQ(resp->status, 200);
  }
  EXPECT_EQ(server.requests_served(), 20u);
  server.stop();
}

TEST(HttpServer, ThrowingHandlerAnswers500AndKeepsServing) {
  Server server("127.0.0.1", 0);
  server.route("/boom", [](const Request&) -> Response {
    throw std::runtime_error("render failed");
  });
  server.route("/ok", [](const Request&) { return Response::make(200, "fine"); });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  auto client = Client::connect(bound->host, bound->port);
  ASSERT_TRUE(client.is_ok());
  auto boom = client->get("/boom");
  ASSERT_TRUE(boom.is_ok()) << boom.status().to_string();
  EXPECT_EQ(boom->status, 500);
  EXPECT_NE(boom->body.find("render failed"), std::string::npos);
  // Same keep-alive connection, next request.
  auto ok = client->get("/ok");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok->status, 200);
  server.stop();
}

TEST(HttpServer, PostBodyRoundTrip) {
  Server server("127.0.0.1", 0);
  server.route("/echo", [](const Request& req) {
    Response resp = Response::make(200, req.body, req.header_or("Content-Type", "text/plain"));
    return resp;
  });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  auto client = Client::connect(bound->host, bound->port);
  ASSERT_TRUE(client.is_ok());
  const std::string body(100000, 'z');
  auto resp = client->post("/echo", body, "application/octet-stream");
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(resp->body, body);
  EXPECT_EQ(resp->header_or("content-type"), "application/octet-stream");
  server.stop();
}

TEST(HttpServer, ConcurrentClients) {
  Server server("127.0.0.1", 0);
  server.route("/w", [](const Request&) { return Response::make(200, "done"); });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());

  std::atomic<int> ok{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 5; ++t) {
      threads.emplace_back([&] {
        auto client = Client::connect(bound->host, bound->port);
        if (!client.is_ok()) return;
        for (int i = 0; i < 10; ++i) {
          auto resp = client->get("/w");
          if (resp.is_ok() && resp->status == 200) ++ok;
        }
      });
    }
  }
  EXPECT_EQ(ok.load(), 50);
  server.stop();
}

TEST(HttpServer, HostHeaderAutoFilled) {
  Server server("127.0.0.1", 0);
  std::string seen_host;
  server.route("/h", [&](const Request& req) {
    seen_host = req.header_or("Host");
    return Response::make(200, "");
  });
  auto bound = server.start();
  ASSERT_TRUE(bound.is_ok());
  auto client = Client::connect(bound->host, bound->port);
  ASSERT_TRUE(client.is_ok());
  ASSERT_TRUE(client->get("/h").is_ok());
  EXPECT_EQ(seen_host, bound->host + ":" + std::to_string(bound->port));
  server.stop();
}

}  // namespace
}  // namespace ipa::http
