// Admin-plane tests (DESIGN.md §3j): the pure HTTP request-head parser
// against malformed/oversized/split inputs, the endpoints of a live
// HttpAdmin over a real engine via stock HTTP GETs, and the lifecycle
// ordering guarantee — /readyz flips 503 the moment draining starts,
// while the data listener still answers.
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_engine.hpp"
#include "core/tiered_index.hpp"
#include "server/client.hpp"
#include "server/http_admin.hpp"
#include "server/server.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace fast::server {
namespace {

constexpr std::size_t kMax = 8192;

// --- parse_http_request ----------------------------------------------------

TEST(HttpParseTest, ParsesSimpleGet) {
  HttpRequest req;
  EXPECT_EQ(parse_http_request("GET /metrics HTTP/1.0\r\n\r\n", kMax, &req),
            HttpParse::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_EQ(req.header_count, 0u);
}

TEST(HttpParseTest, ParsesHeadersAndCountsThem) {
  HttpRequest req;
  const std::string raw =
      "GET /varz HTTP/1.1\r\n"
      "Host: localhost:9900\r\n"
      "User-Agent: curl/8.0\r\n"
      "Accept: */*\r\n"
      "\r\n";
  EXPECT_EQ(parse_http_request(raw, kMax, &req), HttpParse::kOk);
  EXPECT_EQ(req.target, "/varz");
  EXPECT_EQ(req.header_count, 3u);
}

TEST(HttpParseTest, StripsQueryString) {
  HttpRequest req;
  EXPECT_EQ(parse_http_request("GET /metrics?format=prom HTTP/1.0\r\n\r\n",
                               kMax, &req),
            HttpParse::kOk);
  EXPECT_EQ(req.target, "/metrics");
}

TEST(HttpParseTest, NeedsMoreAtEverySplitPoint) {
  const std::string raw =
      "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n";
  // Every strict prefix must come back kNeedMore (never kBad/kOk), and the
  // full buffer must parse.
  for (std::size_t n = 0; n < raw.size(); ++n) {
    HttpRequest req;
    EXPECT_EQ(parse_http_request(raw.substr(0, n), kMax, &req),
              HttpParse::kNeedMore)
        << "prefix length " << n;
  }
  HttpRequest req;
  EXPECT_EQ(parse_http_request(raw, kMax, &req), HttpParse::kOk);
  EXPECT_EQ(req.target, "/healthz");
}

TEST(HttpParseTest, OversizedHeadIsTooLarge) {
  HttpRequest req;
  // No terminator and past the budget.
  const std::string big(kMax + 1, 'A');
  EXPECT_EQ(parse_http_request(big, kMax, &req), HttpParse::kTooLarge);
  // Terminator present but the head itself exceeds the budget.
  std::string padded = "GET /x HTTP/1.0\r\nX: ";
  padded.append(kMax, 'y');
  padded += "\r\n\r\n";
  EXPECT_EQ(parse_http_request(padded, kMax, &req), HttpParse::kTooLarge);
}

TEST(HttpParseTest, RejectsMalformedRequestLines) {
  HttpRequest req;
  // Not exactly METHOD SP TARGET SP VERSION.
  EXPECT_EQ(parse_http_request("GET /x\r\n\r\n", kMax, &req), HttpParse::kBad);
  EXPECT_EQ(parse_http_request("GET  /x HTTP/1.0\r\n\r\n", kMax, &req),
            HttpParse::kBad);
  EXPECT_EQ(parse_http_request("GET /x HTTP/1.0 extra\r\n\r\n", kMax, &req),
            HttpParse::kBad);
  // Version must start with HTTP/.
  EXPECT_EQ(parse_http_request("GET /x FTP/1.0\r\n\r\n", kMax, &req),
            HttpParse::kBad);
  // Empty request line.
  EXPECT_EQ(parse_http_request("\r\n\r\n", kMax, &req), HttpParse::kBad);
}

TEST(HttpParseTest, RejectsHeadersWithoutColon) {
  HttpRequest req;
  EXPECT_EQ(parse_http_request(
                "GET /x HTTP/1.0\r\nNoColonHere\r\n\r\n", kMax, &req),
            HttpParse::kBad);
  // A colon at position 0 means an empty header name.
  EXPECT_EQ(parse_http_request(
                "GET /x HTTP/1.0\r\n: value\r\n\r\n", kMax, &req),
            HttpParse::kBad);
}

/// Deterministic fuzz: random byte soup (with CRLFs sprinkled in so the
/// terminator is reachable) must never crash the parser and must always
/// return one of the four defined outcomes.
TEST(HttpParseTest, FuzzNeverCrashes) {
  util::Rng rng(0x5eed);
  const char alphabet[] = "GET /azr:\r\n \tHTTP/1.0\x01\x7f\xff";
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.uniform_u64(200);
    std::string data;
    data.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      data.push_back(alphabet[rng.uniform_u64(sizeof(alphabet) - 1)]);
    }
    HttpRequest req;
    const HttpParse r = parse_http_request(data, 128, &req);
    ASSERT_TRUE(r == HttpParse::kNeedMore || r == HttpParse::kOk ||
                r == HttpParse::kBad || r == HttpParse::kTooLarge);
  }
}

// --- Live admin plane ------------------------------------------------------

hash::SparseSignature make_signature(std::uint64_t key,
                                     std::size_t bloom_bits) {
  util::Rng rng(key * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(bloom_bits / 65));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(std::move(bits),
                               static_cast<std::uint32_t>(bloom_bits));
}

class HttpAdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.tier.enabled = true;
    cfg_.tier.background = false;
    pca_ = test::fake_pca();
    index_ = std::make_unique<core::TieredIndex>(cfg_, pca_);
    engine_ = std::make_unique<core::QueryEngine>(*index_);
  }

  void TearDown() override {
    if (admin_ != nullptr) admin_->stop();
    if (server_ != nullptr) server_->stop();
  }

  /// Starts the data plane + the admin plane bound to it.
  void start_both() {
    ServerOptions options;
    options.port = 0;
    server_ = std::make_unique<Server>(*engine_, options);
    ASSERT_TRUE(server_->start().ok());
    admin_ = std::make_unique<HttpAdmin>(*engine_, server_.get(),
                                         HttpAdminOptions{});
    ASSERT_TRUE(admin_->start().ok());
  }

  /// Starts an admin plane with no data-plane server attached.
  void start_admin_only() {
    admin_ = std::make_unique<HttpAdmin>(*engine_, nullptr,
                                         HttpAdminOptions{});
    ASSERT_TRUE(admin_->start().ok());
  }

  std::string get(const std::string& target, int* status) {
    std::string body;
    EXPECT_TRUE(http_get("127.0.0.1", admin_->port(), target, status, &body))
        << target;
    return body;
  }

  core::FastConfig cfg_;
  vision::PcaModel pca_;
  std::unique_ptr<core::TieredIndex> index_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<HttpAdmin> admin_;
};

TEST_F(HttpAdminTest, ServesAllEndpoints) {
  start_both();
  engine_->insert_signature(1, make_signature(1, cfg_.bloom_bits));

  int status = 0;
  std::string body = get("/healthz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  body = get("/readyz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ready\n");

  body = get("/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);
  EXPECT_NE(body.find("process_rss_bytes"), std::string::npos);
  EXPECT_NE(body.find("server_state"), std::string::npos);

  body = get("/varz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  EXPECT_NE(body.find("\"gauges\""), std::string::npos);
  EXPECT_NE(body.find("\"rates\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_s\""), std::string::npos);

  body = get("/statusz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"config_fingerprint\""), std::string::npos);
  EXPECT_NE(body.find("\"tiered\": true"), std::string::npos);
  EXPECT_NE(body.find("\"size\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"state_name\": \"serving\""), std::string::npos);

  body = get("/tracez", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);

  body = get("/", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("/metrics"), std::string::npos);
}

/// Sends raw bytes to the admin port and returns the status-line code
/// (-1 on any failure) — for requests http_get cannot express.
int raw_request(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string head;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<std::size_t>(n));
    if (head.find("\r\n") != std::string::npos) break;
  }
  ::close(fd);
  if (head.rfind("HTTP/", 0) != 0) return -1;
  const std::size_t sp = head.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(head.c_str() + sp + 1);
}

TEST_F(HttpAdminTest, AnswersErrorStatuses) {
  start_admin_only();
  int status = 0;
  get("/nope", &status);
  EXPECT_EQ(status, 404);

  // Query strings are stripped before routing.
  get("/healthz?verbose=1", &status);
  EXPECT_EQ(status, 200);

  // Non-GET method → 405.
  EXPECT_EQ(raw_request(admin_->port(),
                        "POST /metrics HTTP/1.0\r\n\r\n"),
            405);
  // Malformed request line → 400.
  EXPECT_EQ(raw_request(admin_->port(), "GARBAGE\r\n\r\n"), 400);
  // Oversized head → 431.
  std::string big = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  big.append(16384, 'a');
  big += "\r\n\r\n";
  EXPECT_EQ(raw_request(admin_->port(), big), 431);
}

TEST_F(HttpAdminTest, AdminOnlyReadyzAlwaysReady) {
  start_admin_only();
  int status = 0;
  const std::string body = get("/readyz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ready\n");
}

TEST_F(HttpAdminTest, VarzRatesAppearAcrossScrapes) {
  start_both();
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(client.ping().ok());

  int status = 0;
  // First scrape seeds the tracker; a second sees the rate objects.
  get("/varz", &status);
  ASSERT_EQ(status, 200);
  const std::string body = get("/varz", &status);
  ASSERT_EQ(status, 200);
  EXPECT_NE(body.find("\"rate_10s\""), std::string::npos);
  EXPECT_NE(body.find("\"rate_60s\""), std::string::npos);
}

/// The reply-path split is visible from the admin plane alone: replies
/// sent by the thread that produced them, replies left to the I/O thread,
/// and the deferred replies' wait for that thread's send. Lock-step pings
/// on an idle socket are always sent directly.
TEST_F(HttpAdminTest, ExportsReplyPathSplit) {
  start_both();
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(client.ping().ok());
  // A worker counts a direct reply after its send returns, so the 32nd
  // pong can arrive before the count moves. The count happens under the
  // connection's lock, which the next reply on this connection takes
  // before its send: once a 33rd pong is back, the first 32 are counted.
  ASSERT_TRUE(client.ping().ok());
  util::MetricsRegistry& r = engine_->metrics();
  EXPECT_GE(r.counter("server.replies_direct").value(), 32u);

  int status = 0;
  const std::string metrics = get("/metrics", &status);
  ASSERT_EQ(status, 200);
  EXPECT_NE(metrics.find("server_replies_direct "), std::string::npos);
  EXPECT_NE(metrics.find("server_replies_deferred "), std::string::npos);
  EXPECT_NE(metrics.find("server_flush_wait_s_count "), std::string::npos);

  const std::string varz = get("/varz", &status);
  ASSERT_EQ(status, 200);
  EXPECT_NE(varz.find("\"server.replies_direct\": "), std::string::npos);
  EXPECT_NE(varz.find("\"server.replies_deferred\": "), std::string::npos);
  EXPECT_NE(varz.find("\"histograms\""), std::string::npos);
  EXPECT_NE(varz.find("\"server.flush_wait_s\": {\"count\": "),
            std::string::npos);
}

/// The lifecycle ordering the whole readiness story hinges on: entering
/// draining flips /readyz to 503 while the data listener is still up and
/// answering — so a balancer drains routing before the cutoff — and the
/// state gauge walks kServing → kDraining → kStopped monotonically.
TEST_F(HttpAdminTest, ReadyzFlips503BeforeListenerCloses) {
  start_both();
  ASSERT_EQ(server_->state(), ServerState::kServing);

  int status = 0;
  get("/readyz", &status);
  ASSERT_EQ(status, 200);

  server_->enter_draining();
  EXPECT_EQ(server_->state(), ServerState::kDraining);

  std::string body = get("/readyz", &status);
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "draining\n");

  // The data plane still accepts and answers while draining.
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  const auto pong = client.ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().status, Status::kOk);

  // enter_draining is idempotent and never moves the state backwards.
  server_->enter_draining();
  EXPECT_EQ(server_->state(), ServerState::kDraining);

  server_->stop();
  EXPECT_EQ(server_->state(), ServerState::kStopped);
  get("/readyz", &status);
  EXPECT_EQ(status, 503);

  // The lifecycle gauge mirrors the final state for scrapers.
  const auto snap = engine_->metrics().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("server.state"), 3.0);
}

TEST_F(HttpAdminTest, StopIsIdempotentAndPortIsEphemeral) {
  start_admin_only();
  EXPECT_NE(admin_->port(), 0u);
  EXPECT_TRUE(admin_->running());
  admin_->stop();
  EXPECT_FALSE(admin_->running());
  admin_->stop();  // idempotent
}

}  // namespace
}  // namespace fast::server
