#include "http/http.hpp"

#include <cctype>
#include <exception>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "net/socket_io.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace ipa::http {

bool CaseInsensitiveLess::operator()(const std::string& a, const std::string& b) const {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int ca = std::tolower(static_cast<unsigned char>(a[i]));
    const int cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

std::string reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string Request::header_or(const std::string& name, std::string fallback) const {
  const auto it = headers.find(name);
  return it == headers.end() ? std::move(fallback) : it->second;
}

std::string Response::header_or(const std::string& name, std::string fallback) const {
  const auto it = headers.find(name);
  return it == headers.end() ? std::move(fallback) : it->second;
}

namespace {

void write_headers(std::string& out, const Headers& headers, std::size_t body_size) {
  bool have_length = false;
  for (const auto& [name, value] : headers) {
    if (strings::iequals(name, "content-length")) have_length = true;
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  if (!have_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

}  // namespace

std::string Request::serialize() const {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  write_headers(out, headers, body.size());
  out += body;
  return out;
}

std::string Response::serialize() const {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " + reason + "\r\n";
  write_headers(out, headers, body.size());
  out += body;
  return out;
}

Response Response::make(int status, std::string body, std::string content_type) {
  Response resp;
  resp.status = status;
  resp.reason = reason_phrase(status);
  resp.headers["Content-Type"] = std::move(content_type);
  resp.body = std::move(body);
  return resp;
}

namespace {

/// Parse the start line; specialization point between Request and Response.
Status parse_start_line(std::string_view line, Request& out) {
  const auto parts = strings::split(std::string(line), ' ');
  if (parts.size() != 3) return data_loss("http: malformed request line");
  if (!strings::starts_with(parts[2], "HTTP/1.")) {
    return data_loss("http: unsupported protocol '" + parts[2] + "'");
  }
  out.method = parts[0];
  out.target = parts[1];
  return Status::ok();
}

Status parse_start_line(std::string_view line, Response& out) {
  // "HTTP/1.1 200 OK" — reason phrase may contain spaces.
  if (!strings::starts_with(line, "HTTP/1.")) return data_loss("http: malformed status line");
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return data_loss("http: malformed status line");
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  const std::string_view code_text =
      line.substr(sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos : sp2 - sp1 - 1);
  std::int64_t code = 0;
  if (!strings::parse_i64(code_text, code) || code < 100 || code > 599) {
    return data_loss("http: bad status code");
  }
  out.status = static_cast<int>(code);
  out.reason = sp2 == std::string_view::npos ? "" : std::string(line.substr(sp2 + 1));
  return Status::ok();
}

}  // namespace

template <typename Message>
Result<bool> Parser<Message>::next(Message& out) {
  const std::size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > kMaxHeaderBytes) return data_loss("http: header block too large");
    return false;
  }

  // Parse the header block (without consuming yet: the body may be partial).
  const std::string_view head(buffer_.data(), header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view start_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  Message msg;
  IPA_RETURN_IF_ERROR(parse_start_line(start_line, msg));

  std::size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return data_loss("http: malformed header line");
    const std::string name(strings::trim(line.substr(0, colon)));
    const std::string value(strings::trim(line.substr(colon + 1)));
    if (name.empty()) return data_loss("http: empty header name");
    msg.headers[name] = value;
  }

  if (strings::iequals(msg.header_or("Transfer-Encoding", ""), "chunked")) {
    return data_loss("http: chunked transfer encoding not supported");
  }

  std::uint64_t content_length = 0;
  const std::string length_text = msg.header_or("Content-Length", "0");
  if (!strings::parse_u64(length_text, content_length)) {
    return data_loss("http: bad Content-Length");
  }
  if (content_length > kMaxBodyBytes) return data_loss("http: body too large");

  const std::size_t total = header_end + 4 + static_cast<std::size_t>(content_length);
  if (buffer_.size() < total) return false;

  msg.body = buffer_.substr(header_end + 4, static_cast<std::size_t>(content_length));
  buffer_.erase(0, total);
  out = std::move(msg);
  return true;
}

template class Parser<Request>;
template class Parser<Response>;

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

namespace {

// Keep-alive peers that go silent are reaped after this long by default; a
// throwaway analyst tab should not pin server memory forever, but polling
// UIs with multi-second gaps must survive.
constexpr double kDefaultHttpIdleTimeoutS = 75.0;

net::StreamOptions http_stream_options(const net::ServerPoolOptions& pool) {
  net::StreamOptions options;
  options.idle_timeout_s =
      pool.idle_timeout_s == 0 ? kDefaultHttpIdleTimeoutS : std::max(pool.idle_timeout_s, 0.0);
  options.max_input_bytes = kMaxHeaderBytes + kMaxBodyBytes;
  return options;
}

}  // namespace

struct Server::Conn {
  RequestParser parser;
  bool busy = false;     // a worker owns the next response
  bool closing = false;  // stop feeding the parser
};

Server::Server(std::string host, std::uint16_t port, net::ServerPoolOptions pool)
    : host_(std::move(host)),
      port_(port),
      reactor_({.name = "http"}),
      acceptor_(reactor_, "http", http_stream_options(pool),
                [this] {
                  auto conn = std::make_shared<Conn>();
                  return [this, conn](const std::shared_ptr<net::Stream>& stream,
                                      std::string& input) {
                    if (!conn->closing) {
                      conn->parser.feed(input);
                      pump(conn, stream);
                    }
                    input.clear();
                    return Status::ok();
                  };
                }),
      pool_(pool.max_workers, pool.queue_capacity) {}

Server::~Server() { stop(); }

void Server::route(std::string pattern, Handler handler) {
  WriterLock lock(mutex_);
  routes_.emplace_back(std::move(pattern), std::move(handler));
}

Result<Uri> Server::start() {
  Uri requested;
  requested.scheme = "tcp";
  requested.host = host_;
  requested.port = port_;
  IPA_ASSIGN_OR_RETURN(net::Listening listening, net::listen(requested));
  bound_ = listening.endpoint;
  bound_.scheme = "http";
  IPA_RETURN_IF_ERROR(reactor_.start());
  if (Status started = acceptor_.start(std::move(listening)); !started.is_ok()) {
    reactor_.stop();
    return started;
  }
  IPA_LOG(debug) << "http server on " << bound_.to_string();
  return bound_;
}

void Server::stop() {
  acceptor_.close_listener();  // no new connections while the pool drains
  pool_.shutdown();  // in-flight handlers finish; their response posts may
                     // still reach the reactor, which is stopped after them
  reactor_.stop();   // drops pending posts, clears fd/timer registrations
  acceptor_.stop();
}

Handler Server::find_handler(const std::string& path) const {
  ReaderLock lock(mutex_);
  const std::pair<std::string, Handler>* best = nullptr;
  for (const auto& route : routes_) {
    const std::string& pattern = route.first;
    bool match;
    if (!pattern.empty() && pattern.back() == '*') {
      match = strings::starts_with(path, pattern.substr(0, pattern.size() - 1));
    } else {
      match = (path == pattern);
    }
    if (match && (best == nullptr || pattern.size() > best->first.size())) {
      best = &route;
    }
  }
  return best ? best->second : Handler{};
}

// Advance one connection's parse → dispatch cycle. Only ever runs on the
// loop thread; the `busy` flag keeps at most one request per connection in
// flight so pipelined responses go out in request order.
void Server::pump(const std::shared_ptr<Conn>& conn,
                  const std::shared_ptr<net::Stream>& stream) {
  while (!conn->busy && !conn->closing) {
    Request request;
    auto got = conn->parser.next(request);
    if (!got.is_ok()) {
      Response bad = Response::make(400, got.status().message());
      bad.headers["Connection"] = "close";
      conn->closing = true;
      stream->send(bad.serialize(), /*close_after=*/true);
      return;
    }
    if (!*got) return;  // need more bytes; the reactor will call back

    const bool keep_alive =
        !strings::iequals(request.header_or("Connection", "keep-alive"), "close");
    conn->busy = true;
    // A full queue sheds load per request instead of queueing unboundedly —
    // but tells the client so: a best-effort 503 with a Retry-After hint
    // beats the ambiguous silent close (which reads as a network fault and
    // makes clients retry immediately, amplifying the overload).
    switch (pool_stats_.admit(pool_, [this, conn, stream, request = std::move(request),
                                      keep_alive] { handle(conn, stream, request, keep_alive); })) {
      case Admission::kAdmitted:
        return;  // the worker's completion post resumes this pump
      case Admission::kSaturated: {
        Response busy = Response::make(503, "server saturated; retry later\n");
        busy.headers["Retry-After"] = "1";
        busy.headers["Connection"] = "close";
        conn->busy = false;
        conn->closing = true;
        stream->send(busy.serialize(), /*close_after=*/true);
        return;
      }
      case Admission::kStopped:
        conn->busy = false;
        conn->closing = true;
        stream->close();
        return;
    }
  }
}

void Server::handle(const std::shared_ptr<Conn>& conn,
                    const std::shared_ptr<net::Stream>& stream, const Request& request,
                    bool keep_alive) {
  Handler handler = find_handler(request.target);
  Response response;
  if (!handler) {
    response = Response::make(404, "no route for " + request.target);
  } else {
    // A throwing handler fails its own request, not the site.
    try {
      response = handler(request);
    } catch (const std::exception& e) {
      obs::flight(obs::FlightKind::kError, "http.handler_threw", request.target);
      IPA_LOG(error) << "http: handler for " << request.target << " threw: " << e.what();
      response = Response::make(500, std::string("handler threw: ") + e.what());
    }
  }
  if (response.reason.empty()) response.reason = reason_phrase(response.status);
  response.headers["Connection"] = keep_alive ? "keep-alive" : "close";
  const std::string wire = response.serialize();
  obs::Registry& registry = obs::Registry::global();
  registry
      .counter("ipa_http_requests_total",
               {{"method", request.method}, {"status", std::to_string(response.status)}},
               "HTTP requests served, by method and status code.")
      .inc();
  registry
      .counter("ipa_http_request_bytes_total", {},
               "HTTP request body bytes received by servers in this process.")
      .inc(request.body.size());
  registry
      .counter("ipa_http_response_bytes_total", {},
               "HTTP response bytes (headers included) written by servers.")
      .inc(wire.size());
  ++served_;  // counted before the write so it is visible once the
              // client has the response in hand
  stream->send(wire, /*close_after=*/!keep_alive);
  if (keep_alive) {
    reactor_.post([this, conn, stream] {
      conn->busy = false;
      pump(conn, stream);  // serve the next pipelined/keep-alive request, if parsed
    });
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct Client::State {
  net::Fd fd;
  std::string host_header;
  ResponseParser parser;
  Mutex mutex{LockRank::kChannel, "http-client"};
};

Client::Client(int fd, std::string host_header) : state_(std::make_unique<State>()) {
  state_->fd = net::Fd(fd);
  state_->host_header = std::move(host_header);
}

Client::~Client() = default;
Client::Client(Client&&) noexcept = default;
Client& Client::operator=(Client&&) noexcept = default;

Result<Client> Client::connect(const std::string& host, std::uint16_t port, double timeout_s) {
  auto fd = net::tcp_connect_fd(host, port, timeout_s);
  IPA_RETURN_IF_ERROR(fd.status());
  return Client(fd->release(), host + ":" + std::to_string(port));
}

Result<Response> Client::send(Request request, double timeout_s, bool* got_any_bytes) {
  if (got_any_bytes) *got_any_bytes = false;
  if (!state_) return unavailable("http client moved-from");
  // ipa-lint: allow(blocking-under-lock) -- the channel lock serializes whole
  // request/response exchanges on the persistent connection by design.
  LockGuard lock(state_->mutex);
  if (!state_->fd.valid()) return unavailable("http client closed");
  if (request.headers.find("Host") == request.headers.end()) {
    request.headers["Host"] = state_->host_header;
  }
  const std::string wire = request.serialize();
  IPA_RETURN_IF_ERROR(net::write_all(state_->fd.get(),
                                     reinterpret_cast<const std::uint8_t*>(wire.data()),
                                     wire.size()));
  std::uint8_t chunk[16 * 1024];
  Response response;
  while (true) {
    auto got = state_->parser.next(response);
    IPA_RETURN_IF_ERROR(got.status());
    if (*got) return response;
    IPA_ASSIGN_OR_RETURN(const std::size_t n,
                         net::read_some(state_->fd.get(), chunk, sizeof chunk, timeout_s));
    if (n > 0 && got_any_bytes) *got_any_bytes = true;
    state_->parser.feed(std::string_view(reinterpret_cast<const char*>(chunk), n));
  }
}

Result<Response> Client::get(const std::string& target, double timeout_s) {
  Request req;
  req.method = "GET";
  req.target = target;
  return send(std::move(req), timeout_s);
}

Result<Response> Client::post(const std::string& target, std::string body,
                              const std::string& content_type, double timeout_s) {
  Request req;
  req.method = "POST";
  req.target = target;
  req.headers["Content-Type"] = content_type;
  req.body = std::move(body);
  return send(std::move(req), timeout_s);
}

void Client::close() {
  if (!state_) return;
  LockGuard lock(state_->mutex);
  state_->fd.reset();
}

}  // namespace ipa::http
