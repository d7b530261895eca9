// Serving front door tests (DESIGN.md §3g): wire-protocol round trips,
// the loopback server against an in-process ground truth, admission
// control, graceful shutdown with zero acked-write loss, and the
// QueryEngine mutating facade's bit-identical parity with direct index
// writes.
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_engine.hpp"
#include "core/tiered_index.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "storage/snapshot.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fast::server {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fast_server_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::FastConfig flat_config() {
  core::FastConfig cfg;
  cfg.cuckoo.capacity = 256;
  return cfg;
}

core::FastConfig tiered_config() {
  core::FastConfig cfg = flat_config();
  cfg.tier.enabled = true;
  cfg.tier.seal_threshold = 8;
  cfg.tier.lanes = 2;
  cfg.tier.compact_fanin = 2;
  cfg.tier.compact_trigger = 2;
  cfg.tier.background = false;
  return cfg;
}

/// Deterministic synthetic signature: same key, same signature — so the
/// wire workload and the in-process ground truth see identical bytes.
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

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// --- Protocol round trips --------------------------------------------------

TEST(ServerProtocolTest, RequestRoundTrips) {
  const auto sig = make_signature(7, 16384);
  const auto body = encode_insert(42, 7, sig);
  Request req;
  std::string error;
  ASSERT_TRUE(decode_request(body, &req, &error)) << error;
  EXPECT_EQ(req.op, Op::kInsert);
  EXPECT_EQ(req.seq, 42u);
  ASSERT_EQ(req.insert_ids.size(), 1u);
  EXPECT_EQ(req.insert_ids[0], 7u);
  ASSERT_EQ(req.sigs.size(), 1u);
  EXPECT_EQ(req.sigs[0].set_bits(), sig.set_bits());

  const std::vector<std::uint64_t> ids = {1, 2, 3};
  const std::vector<hash::SparseSignature> sigs = {
      make_signature(1, 4096), make_signature(2, 4096),
      make_signature(3, 4096)};
  const auto batch = encode_insert_batch(9, ids, sigs);
  ASSERT_TRUE(decode_request(batch, &req, &error)) << error;
  EXPECT_EQ(req.op, Op::kInsertBatch);
  ASSERT_EQ(req.insert_ids.size(), 3u);
  EXPECT_EQ(req.sigs[2].set_bits(), sigs[2].set_bits());

  const auto query = encode_query_batch(11, 5, sigs);
  ASSERT_TRUE(decode_request(query, &req, &error)) << error;
  EXPECT_EQ(req.op, Op::kQueryBatch);
  EXPECT_EQ(req.k, 5u);
  ASSERT_EQ(req.sigs.size(), 3u);

  const auto erase = encode_erase_batch(13, ids);
  ASSERT_TRUE(decode_request(erase, &req, &error)) << error;
  EXPECT_EQ(req.ids, ids);
}

TEST(ServerProtocolTest, ResponseRoundTrips) {
  Response in;
  in.op = Op::kQuery;
  in.seq = 77;
  in.status = Status::kOk;
  in.results = {{{5, 0.75}, {9, 0.5}}, {}};
  const auto body = encode_response(in);
  Response out;
  std::string error;
  ASSERT_TRUE(decode_response(body, &out, &error)) << error;
  EXPECT_EQ(out.seq, 77u);
  ASSERT_EQ(out.results.size(), 2u);
  ASSERT_EQ(out.results[0].size(), 2u);
  EXPECT_EQ(out.results[0][0].id, 5u);
  EXPECT_DOUBLE_EQ(out.results[0][0].score, 0.75);
  EXPECT_TRUE(out.results[1].empty());

  Response retry;
  retry.op = Op::kInsert;
  retry.seq = 3;
  retry.status = Status::kRetryAfter;
  retry.retry_after_ms = 25;
  ASSERT_TRUE(decode_response(encode_response(retry), &out, &error));
  EXPECT_EQ(out.status, Status::kRetryAfter);
  EXPECT_EQ(out.retry_after_ms, 25u);
}

TEST(ServerProtocolTest, DecodeRejectsMalformedBodies) {
  Request req;
  std::string error;
  // Truncated header.
  const std::vector<std::uint8_t> tiny = {1, 2, 3};
  EXPECT_FALSE(decode_request(tiny, &req, &error));
  // Unknown op.
  std::vector<std::uint8_t> unknown(9, 0);
  unknown[0] = 200;
  EXPECT_FALSE(decode_request(unknown, &req, &error));
  EXPECT_EQ(req.seq, 0u);  // seq still extracted for the error reply
  // Trailing garbage after a valid ping.
  auto ping = encode_ping(5);
  ping.push_back(0xff);
  EXPECT_FALSE(decode_request(ping, &req, &error));
  EXPECT_EQ(req.seq, 5u);
  // Hostile batch count.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kEraseBatch));
  w.u64(1);
  w.u32(0xffffffff);
  EXPECT_FALSE(decode_request(w.take(), &req, &error));
}

TEST(ServerProtocolTest, FrameAssemblerReassemblesChunkedFrames) {
  const auto body1 = encode_ping(1);
  const auto body2 = encode_erase(2, 99);
  std::vector<std::uint8_t> stream = frame(body1);
  const auto f2 = frame(body2);
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameAssembler assembler;
  std::vector<std::uint8_t> out;
  // Feed one byte at a time; frames pop exactly at their boundaries.
  std::vector<std::vector<std::uint8_t>> got;
  for (const std::uint8_t b : stream) {
    assembler.feed({&b, 1});
    while (assembler.next(&out)) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], body1);
  EXPECT_EQ(got[1], body2);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(ServerProtocolTest, FrameAssemblerRejectsOversizedFrames) {
  FrameAssembler assembler;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::uint8_t prefix[4];
  std::memcpy(prefix, &huge, 4);
  assembler.feed({prefix, 4});
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(assembler.next(&out));
  EXPECT_TRUE(assembler.error());
}

TEST(ServerProtocolTest, HelloCapsRoundTrip) {
  // Capability-bearing hello request.
  Request req;
  std::string error;
  ASSERT_TRUE(decode_request(encode_hello(4, 9, kCapServerTiming), &req,
                             &error))
      << error;
  EXPECT_EQ(req.op, Op::kHello);
  EXPECT_EQ(req.tenant, 9u);
  EXPECT_EQ(req.caps, kCapServerTiming);

  // A legacy 2-byte hello (no caps word) decodes with caps == 0 — the old
  // encoding is byte-identical and still accepted.
  ASSERT_TRUE(decode_request(encode_hello(4, 9), &req, &error)) << error;
  EXPECT_EQ(req.tenant, 9u);
  EXPECT_EQ(req.caps, 0u);

  // The kOk hello response echoes the accepted caps subset.
  Response in;
  in.op = Op::kHello;
  in.seq = 4;
  in.status = Status::kOk;
  in.caps = kCapServerTiming;
  Response out;
  ASSERT_TRUE(decode_response(encode_response(in), &out, &error)) << error;
  EXPECT_EQ(out.caps, kCapServerTiming);
  EXPECT_FALSE(out.has_timing);

  // caps == 0 encodes the legacy empty-payload hello ack.
  in.caps = 0;
  const auto legacy = encode_response(in);
  ASSERT_TRUE(decode_response(legacy, &out, &error)) << error;
  EXPECT_EQ(out.caps, 0u);
  // op(1) + seq(8) + status(1): no caps word, byte-identical to pre-caps.
  EXPECT_EQ(legacy.size(), 10u);
}

TEST(ServerProtocolTest, TimingTrailerRoundTrips) {
  Response in;
  in.op = Op::kQuery;
  in.seq = 21;
  in.status = Status::kOk;
  in.results = {{{5, 0.75}}};
  in.has_timing = true;
  in.queue_ns = 1234567;
  in.exec_ns = 89012345;

  Response out;
  std::string error;
  ASSERT_TRUE(decode_response(encode_response(in), &out, &error)) << error;
  EXPECT_TRUE(out.has_timing);
  EXPECT_EQ(out.queue_ns, 1234567u);
  EXPECT_EQ(out.exec_ns, 89012345u);
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_EQ(out.results[0][0].id, 5u);

  // The trailer rides on rejections too (admission-control visibility).
  Response retry;
  retry.op = Op::kInsert;
  retry.seq = 3;
  retry.status = Status::kRetryAfter;
  retry.retry_after_ms = 25;
  retry.has_timing = true;
  retry.queue_ns = 42;
  retry.exec_ns = 0;
  ASSERT_TRUE(decode_response(encode_response(retry), &out, &error)) << error;
  EXPECT_EQ(out.status, Status::kRetryAfter);
  EXPECT_EQ(out.retry_after_ms, 25u);
  EXPECT_TRUE(out.has_timing);
  EXPECT_EQ(out.queue_ns, 42u);

  // Without the flag the encoding is byte-identical to the legacy wire
  // format and decodes with has_timing == false.
  in.has_timing = false;
  ASSERT_TRUE(decode_response(encode_response(in), &out, &error)) << error;
  EXPECT_FALSE(out.has_timing);
  EXPECT_EQ(out.queue_ns, 0u);
}

// --- Engine facade parity --------------------------------------------------

/// Engine-routed writes must be bit-identical to direct index writes: same
/// ops through QueryEngine vs. straight on a durable index, then
/// byte-compare the two snapshot images.
TEST(EngineFacadeTest, FlatWritesBitIdenticalToDirect) {
  const core::FastConfig cfg = flat_config();
  const auto pca = test::fake_pca();
  core::DurabilityOptions direct_opts;
  direct_opts.dir = fresh_dir("facade_flat_direct");
  core::DurabilityOptions routed_opts;
  routed_opts.dir = fresh_dir("facade_flat_routed");
  auto direct_opened = core::FastIndex::open_or_recover(cfg, pca, direct_opts);
  auto routed_opened = core::FastIndex::open_or_recover(cfg, pca, routed_opts);
  ASSERT_TRUE(direct_opened.ok()) << direct_opened.status().to_string();
  ASSERT_TRUE(routed_opened.ok()) << routed_opened.status().to_string();
  core::FastIndex direct = std::move(direct_opened).value();
  core::FastIndex routed_backend = std::move(routed_opened).value();
  core::QueryEngine engine(routed_backend);
  ASSERT_TRUE(engine.writable());

  std::vector<core::EngineWrite> batch;
  for (std::uint64_t id = 1; id <= 40; ++id) {
    const auto sig = make_signature(id, cfg.bloom_bits);
    direct.insert_signature(id, sig);
    batch.push_back({id, sig});
  }
  engine.insert_batch(batch);
  for (std::uint64_t id = 5; id <= 15; ++id) direct.erase(id);
  std::vector<std::uint64_t> erase_ids;
  for (std::uint64_t id = 5; id <= 15; ++id) erase_ids.push_back(id);
  EXPECT_EQ(engine.erase_batch(erase_ids), erase_ids.size());
  ASSERT_EQ(engine.size(), direct.size());

  ASSERT_TRUE(direct.save_snapshot().ok());
  ASSERT_TRUE(engine.save_snapshot().ok());
  ASSERT_EQ(engine.index().last_seq(), direct.last_seq());
  const std::string name = storage::snapshot_file_name(direct.last_seq());
  const auto a = read_file(direct_opts.dir + "/" + name);
  const auto b = read_file(routed_opts.dir + "/" + name);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(EngineFacadeTest, TieredWritesMatchDirect) {
  const core::FastConfig cfg = tiered_config();
  const auto pca = test::fake_pca();
  core::TieredIndex direct(cfg, pca);
  core::TieredIndex routed_backend(cfg, pca);
  core::QueryEngine engine(routed_backend);
  ASSERT_TRUE(engine.writable());

  for (std::uint64_t id = 1; id <= 60; ++id) {
    const auto sig = make_signature(id, cfg.bloom_bits);
    direct.insert_signature(id, sig);
    engine.insert_signature(id, sig);
  }
  for (std::uint64_t id = 10; id <= 20; ++id) {
    EXPECT_EQ(direct.erase(id), engine.erase(id)) << id;
  }
  ASSERT_EQ(engine.size(), direct.size());
  for (std::uint64_t id = 1; id <= 60; ++id) {
    const auto sig = make_signature(id, cfg.bloom_bits);
    const auto want = direct.query_signature(sig, 4);
    const auto got = engine.query_signature(sig, 4);
    ASSERT_EQ(want.hits.size(), got.hits.size()) << id;
    for (std::size_t h = 0; h < want.hits.size(); ++h) {
      EXPECT_EQ(want.hits[h].id, got.hits[h].id);
      EXPECT_DOUBLE_EQ(want.hits[h].score, got.hits[h].score);
    }
  }
}

TEST(EngineFacadeTest, OpenYieldsWritableDurableEngine) {
  core::FastConfig cfg = flat_config();
  core::DurabilityOptions opts;
  opts.dir = fresh_dir("facade_open");
  auto engine = core::QueryEngine::open(cfg, test::fake_pca(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  const std::unique_ptr<core::QueryEngine>& eng = engine.value();
  EXPECT_TRUE(eng->writable());
  EXPECT_TRUE(eng->durable());
  eng->insert_signature(1, make_signature(1, cfg.bloom_bits));
  EXPECT_TRUE(eng->sync_wal().ok());
  EXPECT_EQ(eng->size(), 1u);
}

// --- Loopback server -------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  /// Starts a server over a fresh writable engine; returns the port.
  void start(core::FastConfig cfg, ServerOptions options = {}) {
    cfg_ = cfg;
    pca_ = test::fake_pca();
    if (cfg.tier.enabled) {
      tiered_ = std::make_unique<core::TieredIndex>(cfg, pca_);
      engine_ = std::make_unique<core::QueryEngine>(*tiered_);
    } else {
      flat_ = std::make_unique<core::FastIndex>(cfg, pca_);
      engine_ = std::make_unique<core::QueryEngine>(*flat_);
    }
    options.port = 0;
    server_ = std::make_unique<Server>(*engine_, options);
    ASSERT_TRUE(server_->start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
  }

  core::FastConfig cfg_;
  vision::PcaModel pca_;
  std::unique_ptr<core::FastIndex> flat_;
  std::unique_ptr<core::TieredIndex> tiered_;
  std::unique_ptr<core::QueryEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, StartPingStop) {
  start(flat_config());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  const auto pong = client.ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().status, Status::kOk);
  server_->stop();
  EXPECT_FALSE(server_->running());
  server_->stop();  // idempotent
}

/// The paper's serving workload over the wire vs. the same ops applied to
/// an in-process ground-truth index: every query answer must match
/// exactly, and no acked write may be missing.
TEST_F(ServerTest, MixedWorkloadMatchesGroundTruth) {
  const core::FastConfig cfg = tiered_config();
  start(cfg);
  core::TieredIndex truth(cfg, pca_);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());

  util::Rng rng(2024);
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t key = 1 + rng.uniform_u64(80);
    const auto sig = make_signature(key, cfg.bloom_bits);
    const double dice = rng.next_double();
    if (dice < 0.5) {
      const auto got = client.query(sig, 5);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value().status, Status::kOk);
      const auto want = truth.query_signature(sig, 5).hits;
      ASSERT_EQ(got.value().results.size(), 1u);
      const auto& hits = got.value().results[0];
      ASSERT_EQ(hits.size(), want.size()) << "step " << step;
      for (std::size_t h = 0; h < want.size(); ++h) {
        EXPECT_EQ(hits[h].id, want[h].id) << "step " << step;
        EXPECT_DOUBLE_EQ(hits[h].score, want[h].score) << "step " << step;
      }
    } else if (dice < 0.85) {
      const auto acked = client.insert(key, sig);
      ASSERT_TRUE(acked.ok());
      ASSERT_EQ(acked.value().status, Status::kOk);
      truth.insert_signature(key, sig);
    } else {
      const auto acked = client.erase(key);
      ASSERT_TRUE(acked.ok());
      ASSERT_EQ(acked.value().status, Status::kOk);
      const bool erased_truth = truth.erase(key);
      EXPECT_EQ(acked.value().count, erased_truth ? 1u : 0u);
    }
  }
  EXPECT_EQ(engine_->size(), truth.size());
}

/// queue_depth=1 with a slow handler: the first request is admitted, the
/// pipelined rest bounce with kRetryAfter — overload sheds instead of
/// queueing without bound.
TEST_F(ServerTest, AdmissionControlRejectsPastWindow) {
  ServerOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 7;
  options.debug_request_delay_us = 200000;
  start(flat_config(), options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  const int kPipelined = 4;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(client.send(encode_ping(100 + i)).ok());
  }
  int ok = 0, retries = 0;
  for (int i = 0; i < kPipelined; ++i) {
    Response response;
    ASSERT_TRUE(client.recv(&response).ok());
    if (response.status == Status::kOk) {
      ++ok;
      EXPECT_EQ(response.seq, 100u);  // only the first was admitted
    } else {
      ASSERT_EQ(response.status, Status::kRetryAfter);
      EXPECT_EQ(response.retry_after_ms, 7u);
      ++retries;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(retries, kPipelined - 1);
}

TEST_F(ServerTest, BadRequestsAnswerWithoutDroppingConnection) {
  start(flat_config());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());

  // Unknown op: body parses far enough to echo the seq.
  util::ByteWriter w;
  w.u8(200);
  w.u64(31337);
  ASSERT_TRUE(client.send(w.take()).ok());
  Response response;
  ASSERT_TRUE(client.recv(&response).ok());
  EXPECT_EQ(response.status, Status::kBadRequest);
  EXPECT_EQ(response.seq, 31337u);

  // Geometry mismatch: a signature at the wrong bloom_bits is a bad
  // request, not a server crash.
  const auto wrong = make_signature(1, cfg_.bloom_bits * 2);
  const auto r = client.insert(1, wrong);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().status, Status::kBadRequest);

  // The connection survives both.
  const auto pong = client.ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().status, Status::kOk);
}

TEST_F(ServerTest, OversizedFrameDropsConnection) {
  start(flat_config());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint32_t hostile = 64u << 20;  // above kMaxFrameBytes
  ASSERT_EQ(::send(fd, &hostile, sizeof(hostile), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hostile)));
  std::uint8_t byte = 0;
  // Server closes: recv returns 0 (EOF), never a response frame.
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

TEST_F(ServerTest, MetricsScrapeOverTheWire) {
  start(flat_config());
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(client.ping().value().status, Status::kOk);
  const auto scrape = client.metrics();
  ASSERT_TRUE(scrape.ok());
  ASSERT_EQ(scrape.value().status, Status::kOk);
  const std::string& text = scrape.value().text;
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("server_requests"), std::string::npos);
  EXPECT_NE(text.find("server_request_wall_s"), std::string::npos);
}

/// Graceful shutdown loses zero acked writes: insert through the wire
/// against a group-committed WAL, stop the server, recover the directory
/// in a fresh engine, and expect every acked id back.
TEST_F(ServerTest, NoLostAckedWritesAcrossGracefulShutdown) {
  core::FastConfig cfg = flat_config();
  core::DurabilityOptions opts;
  opts.dir = fresh_dir("no_lost_writes");
  // Group commit: without the shutdown-path sync_wal, the last records
  // would sit unsynced in the WAL tail.
  opts.wal_sync_every = 16;
  auto opened = core::QueryEngine::open(cfg, test::fake_pca(), opts);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<core::QueryEngine> engine = std::move(opened).value();
  auto server = std::make_unique<Server>(*engine, ServerOptions{});
  ASSERT_TRUE(server->start().ok());

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server->port()).ok());
  const std::uint64_t kWrites = 50;
  for (std::uint64_t id = 1; id <= kWrites; ++id) {
    const auto acked = client.insert(id, make_signature(id, cfg.bloom_bits));
    ASSERT_TRUE(acked.ok());
    ASSERT_EQ(acked.value().status, Status::kOk) << id;
  }
  server->stop();
  server.reset();
  engine.reset();  // release the directory before recovering it

  core::RecoveryStats stats;
  auto recovered = core::QueryEngine::open(cfg, test::fake_pca(), opts,
                                           &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  const std::unique_ptr<core::QueryEngine>& rec = recovered.value();
  EXPECT_EQ(rec->size(), kWrites);
  for (std::uint64_t id = 1; id <= kWrites; ++id) {
    const auto sig = make_signature(id, cfg.bloom_bits);
    const auto hits = rec->query_signature(sig, 1).hits;
    ASSERT_FALSE(hits.empty()) << id;
    EXPECT_EQ(hits[0].id, id);
  }
}

/// Requests racing stop(): every pipelined request gets exactly one
/// response — kOk for admitted ones, kShuttingDown for late arrivals —
/// and the connection drains cleanly.
TEST_F(ServerTest, ShutdownAnswersInFlightRequests) {
  ServerOptions options;
  options.workers = 2;
  options.queue_depth = 64;
  options.debug_request_delay_us = 2000;
  start(tiered_config(), options);

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server_->port()).ok());
  const int kPipelined = 32;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(
        client
            .send(encode_insert(i + 1, i + 1,
                                make_signature(i + 1, cfg_.bloom_bits)))
            .ok());
  }
  std::thread stopper([this] { server_->stop(); });
  int ok = 0;
  for (int i = 0; i < kPipelined; ++i) {
    Response response;
    // Ends with either a response or EOF once the server finished
    // flushing — never a hang.
    if (!client.recv(&response).ok()) break;
    if (response.status == Status::kOk) ++ok;
  }
  stopper.join();
  // The shutdown contract: whatever the race between frames and stop(),
  // every kOk-acked insert is actually in the engine — acks are never
  // issued for dropped work.
  EXPECT_EQ(engine_->size(), static_cast<std::size_t>(ok));
  EXPECT_FALSE(server_->running());
}

/// Capability negotiation end to end: a connection that asks for
/// kCapServerTiming gets it echoed in the hello ack and a queue/exec
/// trailer on every subsequent worker-executed response; a connection
/// that never negotiates sees the legacy format, trailer-free.
TEST_F(ServerTest, NegotiatedServerTimingOverTheWire) {
  start(flat_config());

  Client timed;
  ASSERT_TRUE(timed.connect("127.0.0.1", server_->port()).ok());
  const auto ack = timed.hello(0, kCapServerTiming);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack.value().status, Status::kOk);
  EXPECT_EQ(ack.value().caps, kCapServerTiming);

  const auto sig = make_signature(1, cfg_.bloom_bits);
  ASSERT_EQ(timed.insert(1, sig).value().status, Status::kOk);
  const auto got = timed.query(sig, 3);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().status, Status::kOk);
  EXPECT_TRUE(got.value().has_timing);
  // exec covers the actual engine work: positive and sane (< 10 s).
  EXPECT_GT(got.value().exec_ns, 0u);
  EXPECT_LT(got.value().exec_ns, 10'000'000'000ull);
  EXPECT_LT(got.value().queue_ns, 10'000'000'000ull);

  // Unknown capability bits are masked off, not echoed.
  Client greedy;
  ASSERT_TRUE(greedy.connect("127.0.0.1", server_->port()).ok());
  const auto masked = greedy.hello(0, 0xfffffffe);
  ASSERT_TRUE(masked.ok());
  ASSERT_EQ(masked.value().status, Status::kOk);
  EXPECT_EQ(masked.value().caps, 0u);

  // A legacy connection (no hello at all) never sees a trailer.
  Client legacy;
  ASSERT_TRUE(legacy.connect("127.0.0.1", server_->port()).ok());
  const auto plain = legacy.query(sig, 3);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain.value().status, Status::kOk);
  EXPECT_FALSE(plain.value().has_timing);
}

}  // namespace
}  // namespace fast::server
