// Multi-tenant QoS tests (DESIGN.md §3i): exact-count quota enforcement,
// weighted two-lane dispatch, the adaptive retry-after hint, draining
// rejections, legacy tenant-less clients — plus wire-protocol property
// tests (random chunking, truncation, byte flips) and the load driver's
// ceil-rank percentile math.
//
// Determinism: every admission/ordering assertion uses the test-only
// worker hold (ServerOptions::debug_hold_workers) and the lane-depth
// accessor, so outcomes are proven by exact counts — wall-clock sleeps
// only ever wait for asynchronous delivery, never decide an assertion.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_engine.hpp"
#include "load_driver.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace fast::server {
namespace {

core::FastConfig small_config() {
  core::FastConfig cfg;
  cfg.cuckoo.capacity = 256;
  return cfg;
}

hash::SparseSignature make_signature(std::uint64_t key,
                                     std::size_t bloom_bits,
                                     std::size_t popcount = 96) {
  util::Rng rng(key * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  const std::uint32_t max_step =
      static_cast<std::uint32_t>(bloom_bits / (popcount + 1));
  for (std::size_t i = 0; i < popcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(max_step));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(std::move(bits),
                               static_cast<std::uint32_t>(bloom_bits));
}

/// Bounded wait for asynchronous I/O-thread admission to land; the
/// assertion itself is always an exact count afterwards.
bool wait_for_lane_depth(const Server& server, Lane lane, std::size_t want) {
  for (int i = 0; i < 5000; ++i) {
    if (server.debug_lane_depth(lane) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// --- The pure retry-after formula -------------------------------------------

TEST(QosRetryFormulaTest, EmptyLaneOrNoHistoryYieldsExactlyBase) {
  EXPECT_EQ(compute_retry_after_ms(0, 0.0, 10, 1000), 10u);
  EXPECT_EQ(compute_retry_after_ms(0, 5000.0, 10, 1000), 10u);
  EXPECT_EQ(compute_retry_after_ms(37, 0.0, 10, 1000), 10u);
}

TEST(QosRetryFormulaTest, MonotoneInDepthAndServiceTime) {
  std::uint32_t prev = 0;
  for (std::size_t depth = 0; depth <= 64; ++depth) {
    const std::uint32_t hint =
        compute_retry_after_ms(depth, 2000.0, 10, 100000);
    EXPECT_GE(hint, prev) << "depth " << depth;
    EXPECT_GE(hint, 10u);
    prev = hint;
  }
  // Strictly increasing when each queued item is worth >= 1ms.
  EXPECT_GT(compute_retry_after_ms(2, 2000.0, 10, 100000),
            compute_retry_after_ms(1, 2000.0, 10, 100000));
  EXPECT_GT(compute_retry_after_ms(5, 8000.0, 10, 100000),
            compute_retry_after_ms(5, 2000.0, 10, 100000));
}

TEST(QosRetryFormulaTest, ClampsToMaxAndHandlesDegenerateBounds) {
  EXPECT_EQ(compute_retry_after_ms(1000, 50000.0, 10, 250), 250u);
  // max below base degrades to base (never below the floor).
  EXPECT_EQ(compute_retry_after_ms(0, 0.0, 40, 5), 40u);
  // NaN/negative EWMA is treated as no history.
  EXPECT_EQ(compute_retry_after_ms(9, -1.0, 10, 1000), 10u);
}

TEST(QosRetryFormulaTest, LaneClassification) {
  EXPECT_EQ(lane_of(Op::kPing), Lane::kQuery);
  EXPECT_EQ(lane_of(Op::kQuery), Lane::kQuery);
  EXPECT_EQ(lane_of(Op::kQueryBatch), Lane::kQuery);
  EXPECT_EQ(lane_of(Op::kMetrics), Lane::kQuery);
  EXPECT_EQ(lane_of(Op::kHello), Lane::kQuery);
  EXPECT_EQ(lane_of(Op::kInsert), Lane::kBulk);
  EXPECT_EQ(lane_of(Op::kInsertBatch), Lane::kBulk);
  EXPECT_EQ(lane_of(Op::kErase), Lane::kBulk);
  EXPECT_EQ(lane_of(Op::kEraseBatch), Lane::kBulk);
}

// --- Load-driver percentile math --------------------------------------------

TEST(QosPercentileTest, EmptyAndSingleSample) {
  EXPECT_DOUBLE_EQ(bench::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(bench::percentile({}, 99.9), 0.0);
  const std::vector<double> one = {3.25};
  EXPECT_DOUBLE_EQ(bench::percentile(one, 50.0), 3.25);
  EXPECT_DOUBLE_EQ(bench::percentile(one, 99.0), 3.25);
  EXPECT_DOUBLE_EQ(bench::percentile(one, 99.9), 3.25);
}

TEST(QosPercentileTest, CeilRankOverUniformSamples) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(static_cast<double>(i));
  // Ceil-rank: p50 over 100 samples is the 50th, p99 the 99th, p99.9 the
  // 100th (rank 99.9 rounds up).
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 99.9), 100.0);
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 100.0), 100.0);
  // Two samples: ceil(0.5 * 2) = rank 1 — the lower one.
  EXPECT_DOUBLE_EQ(bench::percentile({1.0, 9.0}, 50.0), 1.0);
}

TEST(QosPercentileTest, TieHeavySamples) {
  // 990 ties at 1ms and a 10-sample tail at 50ms: p50 sits in the ties,
  // p99 exactly at the boundary sample, p99.9 in the tail.
  std::vector<double> sorted(990, 1.0);
  sorted.insert(sorted.end(), 10, 50.0);
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 99.0), 1.0);   // rank 990
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 99.1), 50.0);  // rank 991
  EXPECT_DOUBLE_EQ(bench::percentile(sorted, 99.9), 50.0);
}

TEST(QosPercentileTest, SeededSignaturesAreReproducible) {
  // The --seed contract: the same key always synthesizes the same
  // signature, so seeded runs replay identical wire bytes.
  const auto a = bench::synth_signature(1234, 16384, 64);
  const auto b = bench::synth_signature(1234, 16384, 64);
  EXPECT_EQ(a.set_bits(), b.set_bits());
  EXPECT_NE(a.set_bits(), bench::synth_signature(1235, 16384, 64).set_bits());
}

// --- Protocol property tests ------------------------------------------------

std::vector<std::vector<std::uint8_t>> sample_bodies() {
  std::vector<std::vector<std::uint8_t>> bodies;
  bodies.push_back(encode_ping(1));
  bodies.push_back(encode_hello(2, 42));
  bodies.push_back(encode_insert(3, 7, make_signature(7, 4096)));
  const std::vector<std::uint64_t> ids = {5, 6, 7};
  const std::vector<hash::SparseSignature> sigs = {
      make_signature(5, 4096), make_signature(6, 4096),
      make_signature(7, 4096)};
  bodies.push_back(encode_insert_batch(4, ids, sigs));
  bodies.push_back(encode_query(5, 10, make_signature(9, 4096)));
  bodies.push_back(encode_query_batch(6, 3, sigs));
  bodies.push_back(encode_erase(7, 11));
  bodies.push_back(encode_erase_batch(8, ids));
  bodies.push_back(encode_metrics(9));
  return bodies;
}

TEST(QosProtocolPropertyTest, AssemblerRecoversFramesAtRandomChunkings) {
  const auto bodies = sample_bodies();
  std::vector<std::uint8_t> stream;
  for (const auto& body : bodies) {
    const auto framed = frame(body);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  util::Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    FrameAssembler assembler;
    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint8_t> body;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = std::min<std::size_t>(
          1 + rng.uniform_u64(7), stream.size() - off);
      assembler.feed({stream.data() + off, n});
      off += n;
      while (assembler.next(&body)) got.push_back(body);
    }
    ASSERT_FALSE(assembler.error());
    ASSERT_EQ(got.size(), bodies.size()) << "round " << round;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      EXPECT_EQ(got[i], bodies[i]) << "round " << round << " frame " << i;
    }
    EXPECT_EQ(assembler.buffered(), 0u);
  }
}

TEST(QosProtocolPropertyTest, EveryStrictTruncationFailsSoft) {
  for (const auto& body : sample_bodies()) {
    for (std::size_t len = 0; len < body.size(); ++len) {
      const std::span<const std::uint8_t> prefix{body.data(), len};
      Request req;
      std::string error;
      EXPECT_FALSE(decode_request(prefix, &req, &error))
          << "len " << len << " of " << body.size();
    }
    // The full body still parses.
    Request req;
    std::string error;
    EXPECT_TRUE(decode_request(body, &req, &error)) << error;
  }
}

TEST(QosProtocolPropertyTest, ByteFlipsNeverCrashDecoders) {
  util::Rng rng(1337);
  for (const auto& body : sample_bodies()) {
    for (int flip = 0; flip < 200; ++flip) {
      std::vector<std::uint8_t> mutated = body;
      const std::size_t pos = rng.uniform_u64(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
      Request req;
      std::string error;
      // Fail-soft contract: either a clean parse of something else or a
      // clean rejection — never a crash, over-read or throw (ASan/UBSan
      // runs of this test enforce the memory half).
      (void)decode_request(mutated, &req, &error);
    }
  }
  // The tenant field specifically: every 16-bit value round-trips, and a
  // hello truncated inside the tenant field is rejected.
  for (std::uint32_t tenant = 0; tenant <= 0xffff; tenant += 257) {
    const auto body = encode_hello(1, static_cast<std::uint16_t>(tenant));
    Request req;
    std::string error;
    ASSERT_TRUE(decode_request(body, &req, &error));
    EXPECT_EQ(req.tenant, tenant);
    EXPECT_FALSE(decode_request({body.data(), body.size() - 1}, &req,
                                &error));
  }
}

TEST(QosProtocolPropertyTest, RandomGarbageNeverCrashesResponseDecoder) {
  util::Rng rng(4242);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> garbage(rng.uniform_u64(64));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    Request req;
    Response resp;
    std::string error;
    (void)decode_request(garbage, &req, &error);
    (void)decode_response(garbage, &resp, &error);
  }
  // kShuttingDown round-trips its adaptive hint + message.
  Response in;
  in.op = Op::kQuery;
  in.seq = 12;
  in.status = Status::kShuttingDown;
  in.retry_after_ms = 321;
  in.text = "shutting down";
  Response out;
  std::string error;
  ASSERT_TRUE(decode_response(encode_response(in), &out, &error)) << error;
  EXPECT_EQ(out.status, Status::kShuttingDown);
  EXPECT_EQ(out.retry_after_ms, 321u);
  EXPECT_EQ(out.text, "shutting down");
}

// --- Loopback QoS -----------------------------------------------------------

class QosServerTest : public ::testing::Test {
 protected:
  void start(ServerOptions options) {
    cfg_ = small_config();
    pca_ = test::fake_pca();
    flat_ = std::make_unique<core::FastIndex>(cfg_, pca_);
    engine_ = std::make_unique<core::QueryEngine>(*flat_);
    options.port = 0;
    server_ = std::make_unique<Server>(*engine_, options);
    ASSERT_TRUE(server_->start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
  }

  double counter(const std::string& name) {
    return static_cast<double>(engine_->metrics().counter(name).value());
  }

  core::FastConfig cfg_;
  vision::PcaModel pca_;
  std::unique_ptr<core::FastIndex> flat_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::unique_ptr<Server> server_;
};

/// Token bucket, exact counts: burst 3 with a negligible refill rate
/// admits exactly 3 of 10 pipelined requests — regardless of timing,
/// because the worker pool is held while the bucket decides.
TEST_F(QosServerTest, TokenBucketAdmitsExactlyBurst) {
  ServerOptions options;
  options.workers = 1;
  options.debug_hold_workers = true;
  options.tenant_rate = 1e-9;  // ~0: no refill within the test
  options.tenant_burst = 3.0;
  start(options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  const auto hello = client.hello(5);
  ASSERT_TRUE(hello.ok());
  ASSERT_EQ(hello.value().status, Status::kOk);

  const int kSent = 10;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(client.send(encode_ping(100 + i)).ok());
  }
  // Rejections are answered immediately, ahead of the held lane; the 7th
  // arriving proves every frame was processed.
  for (int i = 0; i < kSent - 3; ++i) {
    Response response;
    ASSERT_TRUE(client.recv(&response).ok());
    ASSERT_EQ(response.status, Status::kRetryAfter) << i;
  }
  EXPECT_EQ(server_->debug_lane_depth(Lane::kQuery), 3u);
  EXPECT_EQ(counter("server.tenant.5.requests"), 10.0);
  EXPECT_EQ(counter("server.tenant.5.rejected"), 7.0);

  server_->debug_hold_workers(false);
  for (int i = 0; i < 3; ++i) {
    Response response;
    ASSERT_TRUE(client.recv(&response).ok());
    EXPECT_EQ(response.status, Status::kOk);
    // The bucket admits in arrival order: seqs 100..102.
    EXPECT_EQ(response.seq, 100u + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(counter("server.tenant.5.ops"), 3.0);
}

/// The tenant admitted-inflight window caps at exactly `inflight`, and
/// window rejections carry the adaptive hint — exactly base here, since
/// nothing has completed yet (EWMA is empty).
TEST_F(QosServerTest, TenantInflightWindowEnforcedWithExactHint) {
  ServerOptions options;
  options.workers = 1;
  options.debug_hold_workers = true;
  options.tenant_inflight = 2;
  options.retry_after_ms = 11;
  start(options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(client.hello(9).value().status, Status::kOk);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send(encode_ping(200 + i)).ok());
  }
  for (int i = 0; i < 3; ++i) {
    Response response;
    ASSERT_TRUE(client.recv(&response).ok());
    ASSERT_EQ(response.status, Status::kRetryAfter);
    EXPECT_EQ(response.retry_after_ms, 11u);  // base exactly: no history
  }
  EXPECT_EQ(server_->debug_lane_depth(Lane::kQuery), 2u);
  server_->debug_hold_workers(false);
  for (int i = 0; i < 2; ++i) {
    Response response;
    ASSERT_TRUE(client.recv(&response).ok());
    EXPECT_EQ(response.status, Status::kOk);
  }
}

/// Weighted two-lane dispatch, exact drain order: with both lanes loaded
/// and query_weight=2, a single released worker must drain
/// Q Q B Q Q B Q Q B B B B — queries overtake bulk, bulk is never starved
/// (its first item completes by position 3), and a lone backlogged lane
/// drains at full speed.
TEST_F(QosServerTest, WeightedLaneDispatchExactOrder) {
  ServerOptions options;
  options.workers = 1;
  options.query_weight = 2;
  options.debug_hold_workers = true;
  start(options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t id = 1 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(client
                    .send(encode_insert(300 + i, id,
                                        make_signature(id, cfg_.bloom_bits)))
                    .ok());
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.send(encode_ping(400 + i)).ok());
  }
  ASSERT_TRUE(wait_for_lane_depth(*server_, Lane::kBulk, 6));
  ASSERT_TRUE(wait_for_lane_depth(*server_, Lane::kQuery, 6));

  server_->debug_hold_workers(false);
  // One worker, one connection: response order is execution order.
  const std::string want = "QQBQQBQQBBBB";
  std::string got;
  for (int i = 0; i < 12; ++i) {
    Response response;
    ASSERT_TRUE(client.recv(&response).ok());
    ASSERT_EQ(response.status, Status::kOk) << i;
    got.push_back(response.op == Op::kPing ? 'Q' : 'B');
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(counter("server.lane.query.executed"), 6.0);
  EXPECT_EQ(counter("server.lane.bulk.executed"), 6.0);
}

/// The adaptive hint is strictly increasing in injected queue depth (the
/// EWMA is pinned by one completed request, then the held lane is loaded
/// one request at a time) and always within [base, max].
TEST_F(QosServerTest, AdaptiveRetryAfterMonotoneInQueueDepth) {
  ServerOptions options;
  options.workers = 1;
  options.retry_after_ms = 5;
  options.retry_max_ms = 1000;
  options.debug_request_delay_us = 3000;  // EWMA >= 3ms per queued item
  start(options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(client.ping().value().status, Status::kOk);  // seeds the EWMA
  EXPECT_EQ(server_->current_retry_after_ms(Lane::kQuery), 5u);  // depth 0

  server_->debug_hold_workers(true);
  std::vector<std::uint32_t> hints;
  for (std::size_t depth = 1; depth <= 6; ++depth) {
    ASSERT_TRUE(client.send(encode_ping(500 + depth)).ok());
    ASSERT_TRUE(wait_for_lane_depth(*server_, Lane::kQuery, depth));
    hints.push_back(server_->current_retry_after_ms(Lane::kQuery));
  }
  for (std::size_t i = 0; i < hints.size(); ++i) {
    EXPECT_GE(hints[i], options.retry_after_ms) << i;
    EXPECT_LE(hints[i], options.retry_max_ms) << i;
    if (i > 0) {
      EXPECT_GT(hints[i], hints[i - 1]) << i;
    }
  }
  // The bulk lane is empty and shares no backlog: its hint stays at base.
  EXPECT_EQ(server_->current_retry_after_ms(Lane::kBulk), 5u);
  server_->debug_hold_workers(false);
  for (int i = 0; i < 6; ++i) {
    Response response;
    ASSERT_TRUE(client.recv(&response).ok());
    EXPECT_EQ(response.status, Status::kOk);
  }
}

/// A client that never sends kHello — every pre-QoS client — is served
/// unchanged and accounted to the default tenant 0.
TEST_F(QosServerTest, LegacyClientWithoutHelloIsServed) {
  ServerOptions options;
  start(options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(client.ping().value().status, Status::kOk);
  const auto sig = make_signature(1, cfg_.bloom_bits);
  ASSERT_EQ(client.insert(1, sig).value().status, Status::kOk);
  const auto got = client.query(sig, 1);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().status, Status::kOk);
  ASSERT_EQ(got.value().results.size(), 1u);
  ASSERT_FALSE(got.value().results[0].empty());
  EXPECT_EQ(got.value().results[0][0].id, 1u);
  EXPECT_GE(counter("server.tenant.0.requests"), 3.0);
  EXPECT_EQ(counter("server.tenant.0.rejected"), 0.0);

  // The per-tenant series export alongside the rest of the registry.
  const auto scrape = client.metrics();
  ASSERT_TRUE(scrape.ok());
  EXPECT_NE(scrape.value().text.find("server_tenant_0_requests"),
            std::string::npos);
}

/// Regression (draining rejections): a frame arriving during stop() is
/// answered kShuttingDown with the adaptive hint attached and counted as
/// server.rejected_draining — not dropped, not given a bare status.
///
/// Both orderings are pinned, not raced. The two 200 ms pings that hold
/// the drain open are admitted (lane depth 2 under held workers) before
/// stop() begins; a client send() returning only means the bytes left the
/// client, so without that wait stop() could reject them and drain at
/// once. The probe goes out only after the listener refuses connections:
/// the I/O thread closes it once it has seen draining_, so the probe can
/// only be rejected, and it lands while the held pings (400 ms of work)
/// still keep the I/O thread alive.
TEST_F(QosServerTest, DrainingRejectionCarriesHintAndIsCounted) {
  ServerOptions options;
  options.workers = 1;
  options.retry_after_ms = 8;
  options.retry_max_ms = 500;
  options.debug_request_delay_us = 200000;  // 200ms each: holds the drain
  options.debug_hold_workers = true;        // stop() releases the hold
  start(options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.send(encode_ping(600)).ok());
  ASSERT_TRUE(client.send(encode_ping(601)).ok());
  ASSERT_TRUE(wait_for_lane_depth(*server_, Lane::kQuery, 2));

  std::thread stopper([this] { server_->stop(); });
  bool listener_closed = false;
  for (int i = 0; i < 5000 && !listener_closed; ++i) {
    Client knock;
    listener_closed = !knock.connect("127.0.0.1", server_->port()).ok();
    if (!listener_closed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(listener_closed);

  ASSERT_TRUE(client.send(encode_ping(700)).ok());
  // Every frame is answered exactly once before the server closes: the
  // held pings kOk, the probe kShuttingDown with the adaptive hint.
  std::map<std::uint64_t, Response> answered;
  Response response;
  while (client.recv(&response).ok()) {
    EXPECT_TRUE(answered.emplace(response.seq, response).second)
        << "seq " << response.seq << " answered twice";
  }
  stopper.join();
  ASSERT_EQ(answered.size(), 3u);
  EXPECT_EQ(answered[600].status, Status::kOk);
  EXPECT_EQ(answered[601].status, Status::kOk);
  const Response& probe = answered[700];
  EXPECT_EQ(probe.status, Status::kShuttingDown);
  EXPECT_GE(probe.retry_after_ms, options.retry_after_ms);
  EXPECT_LE(probe.retry_after_ms, options.retry_max_ms);
  EXPECT_EQ(counter("server.rejected_draining"), 1.0);
  EXPECT_FALSE(server_->running());
}

}  // namespace
}  // namespace fast::server
