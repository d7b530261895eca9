#include "server/http_admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "core/durability.hpp"
#include "server/server.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fast::server {

namespace {

storage::Status posix_error(const char* what) {
  return storage::Status::error(storage::StatusCode::kIoError,
                                std::string(what) + ": " +
                                    std::strerror(errno));
}

/// Seconds on the steady clock — the CounterRateTracker time base.
double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_socket_timeout(int fd, long ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Writes the whole buffer, tolerating short writes; false on error or
/// timeout (the client gets cut off — admin responses are best-effort).
bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default:  return "OK";
  }
}

void send_http(int fd, int status, const std::string& content_type,
               const std::string& body) {
  char head[256];
  const int n = std::snprintf(
      head, sizeof(head),
      "HTTP/1.0 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      status, reason_phrase(status), content_type.c_str(), body.size());
  if (n <= 0) return;
  if (write_all(fd, {head, static_cast<std::size_t>(n)})) {
    write_all(fd, body);
  }
}

/// JSON string escaping for metric names (conservative: quotes,
/// backslashes and control bytes).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const char* sa_backend_name(core::FastConfig::SaBackend b) {
  return b == core::FastConfig::SaBackend::kPStable ? "pstable" : "minhash";
}

const char* chs_backend_name(core::FastConfig::ChsBackend b) {
  switch (b) {
    case core::FastConfig::ChsBackend::kFlatCuckoo: return "flat";
    case core::FastConfig::ChsBackend::kChained: return "chained";
    case core::FastConfig::ChsBackend::kCompactFlatCuckoo:
      return "flat_compact";
  }
  return "unknown";
}

const char* state_name(ServerState s) {
  switch (s) {
    case ServerState::kStarting: return "starting";
    case ServerState::kServing: return "serving";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "unknown";
}

constexpr std::string_view kIndexBody =
    "fast admin plane (DESIGN.md \xc2\xa7"
    "3j)\n"
    "  /healthz  liveness\n"
    "  /readyz   readiness (503 while draining)\n"
    "  /metrics  Prometheus text exposition\n"
    "  /varz     JSON counters, gauges, histograms + windowed rates\n"
    "  /statusz  build/config/engine status\n"
    "  /tracez   slow queries + sampled spans (Chrome trace JSON)\n";

}  // namespace

HttpParse parse_http_request(std::string_view data, std::size_t max_bytes,
                             HttpRequest* out) {
  const std::size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return data.size() > max_bytes ? HttpParse::kTooLarge
                                   : HttpParse::kNeedMore;
  }
  if (head_end + 4 > max_bytes) return HttpParse::kTooLarge;
  *out = HttpRequest{};
  const std::string_view head = data.substr(0, head_end);

  // Request line: METHOD SP TARGET SP VERSION — exactly three tokens.
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return HttpParse::kBad;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) return HttpParse::kBad;
  const std::string_view version = line.substr(sp2 + 1);
  if (version.empty() || version.find(' ') != std::string_view::npos ||
      version.substr(0, 5) != "HTTP/") {
    return HttpParse::kBad;
  }
  out->method.assign(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // The ?query suffix is stripped: no endpoint takes parameters, and a
  // scraper appending ?format=... should still route.
  const std::size_t q = target.find('?');
  if (q != std::string_view::npos) target = target.substr(0, q);
  out->target.assign(target);

  // Header lines: anything after the request line must contain a colon.
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view header = head.substr(pos, eol - pos);
    if (!header.empty()) {
      const std::size_t colon = header.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return HttpParse::kBad;
      }
      ++out->header_count;
    }
    pos = eol + 2;
  }
  return HttpParse::kOk;
}

/// /varz's windowed-rate state; heap-held so the header stays light.
struct HttpAdmin::RateState {
  util::CounterRateTracker tracker{64};
};

HttpAdmin::HttpAdmin(core::QueryEngine& engine, const Server* server,
                     HttpAdminOptions options)
    : engine_(engine),
      server_(server),
      options_(std::move(options)),
      rates_(std::make_unique<RateState>()) {}

HttpAdmin::~HttpAdmin() { stop(); }

storage::Status HttpAdmin::start() {
  if (running_.load(std::memory_order_acquire)) {
    return storage::Status::error(storage::StatusCode::kIoError,
                                  "admin plane already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return posix_error("socket");
  const auto fail = [this](const char* what) {
    storage::Status s = posix_error(what);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  };
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return storage::Status::error(storage::StatusCode::kIoError,
                                  "bad bind address: " + options_.bind_addr);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 16) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  bound_port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return {};
}

void HttpAdmin::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpAdmin::serve_loop() {
  // Blocking accept behind a short poll, so stop() is observed within one
  // poll interval without a wake pipe.
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int n = ::poll(&pfd, 1, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    set_socket_timeout(fd, options_.client_timeout_ms);
    serve_client(fd);
    ::close(fd);
  }
}

void HttpAdmin::serve_client(int fd) {
  std::string data;
  char buf[4096];
  HttpRequest request;
  while (true) {
    const HttpParse outcome =
        parse_http_request(data, options_.max_request_bytes, &request);
    if (outcome == HttpParse::kOk) break;
    if (outcome == HttpParse::kTooLarge) {
      send_http(fd, 431, "text/plain", "request too large\n");
      return;
    }
    if (outcome == HttpParse::kBad) {
      send_http(fd, 400, "text/plain", "bad request\n");
      return;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client closed or timed out before a full request head
    }
    data.append(buf, static_cast<std::size_t>(n));
  }
  respond(fd, request);
}

void HttpAdmin::respond(int fd, const HttpRequest& request) {
  if (request.method != "GET") {
    send_http(fd, 405, "text/plain", "method not allowed\n");
    return;
  }
  const std::string& t = request.target;
  if (t == "/" || t.empty()) {
    send_http(fd, 200, "text/plain; charset=utf-8",
              std::string(kIndexBody));
  } else if (t == "/healthz") {
    send_http(fd, 200, "text/plain", "ok\n");
  } else if (t == "/readyz") {
    const bool ready =
        server_ == nullptr || server_->state() == ServerState::kServing;
    if (ready) {
      send_http(fd, 200, "text/plain", "ready\n");
    } else {
      send_http(fd, 503, "text/plain", "draining\n");
    }
  } else if (t == "/metrics") {
    send_http(fd, 200, "text/plain; version=0.0.4; charset=utf-8",
              metrics_body());
  } else if (t == "/varz") {
    send_http(fd, 200, "application/json", varz_body());
  } else if (t == "/statusz") {
    send_http(fd, 200, "application/json", statusz_body());
  } else if (t == "/tracez") {
    send_http(fd, 200, "application/json",
              util::Tracer::global().tracez_json());
  } else {
    send_http(fd, 404, "text/plain", "not found\n");
  }
}

std::string HttpAdmin::metrics_body() {
  util::sample_process_gauges(engine_.metrics());
  const util::MetricsSnapshot snapshot = engine_.metrics().snapshot();
  // Feed the rate rings on every scrape, whichever endpoint triggered it,
  // so /varz rates stay fresh even when only Prometheus is polling.
  rates_->tracker.feed(snapshot.counters, steady_now_s());
  return util::metrics_to_prometheus(snapshot);
}

std::string HttpAdmin::varz_body() {
  util::sample_process_gauges(engine_.metrics());
  const util::MetricsSnapshot snapshot = engine_.metrics().snapshot();
  const double now_s = steady_now_s();
  rates_->tracker.feed(snapshot.counters, now_s);
  std::string out = "{\n";
  out += "  \"uptime_s\": " + fmt_double(util::process_uptime_s()) + ",\n";
  if (server_ != nullptr) {
    const ServerState s = server_->state();
    out += "  \"state\": " +
           std::to_string(static_cast<unsigned>(
               static_cast<std::uint8_t>(s))) +
           ",\n  \"state_name\": \"" + state_name(s) + "\",\n";
  }
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + fmt_double(value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"p50\": " +
           fmt_double(h.percentile(50)) + ", \"p99\": " +
           fmt_double(h.percentile(99)) + "}";
  }
  out += "\n  },\n  \"rates\": {";
  first = true;
  for (const auto& [name, value] : snapshot.counters) {
    (void)value;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"rate_10s\": " +
           fmt_double(rates_->tracker.rate(name, 10, now_s)) +
           ", \"rate_60s\": " +
           fmt_double(rates_->tracker.rate(name, 60, now_s)) + "}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string HttpAdmin::statusz_body() {
  const core::FastConfig& config = engine_.config();
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64,
                core::config_fingerprint(config));
  std::string out = "{\n";
#if defined(__VERSION__)
  out += "  \"compiler\": \"" + json_escape(__VERSION__) + "\",\n";
#endif
  out += "  \"cxx_standard\": " + std::to_string(__cplusplus) + ",\n";
#if defined(NDEBUG)
  out += "  \"build\": \"release\",\n";
#else
  out += "  \"build\": \"debug\",\n";
#endif
  out += "  \"uptime_s\": " + fmt_double(util::process_uptime_s()) + ",\n";
  out += "  \"config_fingerprint\": \"" + std::string(fp) + "\",\n";
  out += "  \"engine\": {\n";
  out += "    \"durable\": ";
  out += engine_.durable() ? "true" : "false";
  out += ",\n    \"tiered\": ";
  out += config.tier.enabled ? "true" : "false";
  out += ",\n    \"size\": " + std::to_string(engine_.size()) + "\n  },\n";
  out += "  \"config\": {\n";
  out += "    \"bloom_bits\": " + std::to_string(config.bloom_bits) + ",\n";
  out += "    \"bloom_hashes\": " + std::to_string(config.bloom_hashes) +
         ",\n";
  out += "    \"sa_backend\": \"" +
         std::string(sa_backend_name(config.sa_backend)) + "\",\n";
  out += "    \"chs_backend\": \"" +
         std::string(chs_backend_name(config.chs_backend)) + "\",\n";
  out += "    \"lsh_tables\": " + std::to_string(config.lsh.tables) + ",\n";
  out += "    \"shard_routing_bits\": " +
         std::to_string(config.shard_routing_bits) + ",\n";
  out += "    \"tier_enabled\": ";
  out += config.tier.enabled ? "true" : "false";
  out += "\n  }";
  if (server_ != nullptr) {
    const ServerState s = server_->state();
    out += ",\n  \"server\": {\n    \"state\": " +
           std::to_string(static_cast<unsigned>(
               static_cast<std::uint8_t>(s))) +
           ",\n    \"state_name\": \"" + state_name(s) +
           "\",\n    \"port\": " + std::to_string(server_->port()) +
           ",\n    \"connections\": " +
           std::to_string(server_->connection_count()) + "\n  }";
  }
  out += "\n}\n";
  return out;
}

bool http_get(const std::string& host, std::uint16_t port,
              const std::string& target, int* status_out,
              std::string* body_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  set_socket_timeout(fd, 5000);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const std::string request = "GET " + target +
                              " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (!write_all(fd, request)) {
    ::close(fd);
    return false;
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or error/timeout; parse what we have
  }
  ::close(fd);
  // Status line: "HTTP/1.x NNN Reason".
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos || response.substr(0, 5) != "HTTP/") {
    return false;
  }
  const int status = std::atoi(response.c_str() + sp + 1);
  if (status < 100 || status > 599) return false;
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  if (status_out != nullptr) *status_out = status;
  if (body_out != nullptr) *body_out = response.substr(head_end + 4);
  return true;
}

}  // namespace fast::server
