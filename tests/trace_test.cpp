// Tests for the per-request tracing layer (util/trace.hpp): sampling
// decisions, span nesting and ordering, attributes, the slow-query ring,
// Chrome trace export, and — under TSan — concurrent traced pipeline
// traffic through one FastIndex.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/tiered_index.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace fast::util {
namespace {

/// Every test drives the process-global tracer, so each one starts by
/// configuring its own options and ends by switching tracing back off with
/// the buffers cleared — no state may leak between tests.
class TraceTest : public ::testing::Test {
 protected:
  void configure(double rate, double slow_s = 1e9,
                 std::size_t ring = 4, std::size_t max_profiles = 4096) {
    TraceOptions opts;
    opts.sample_rate = rate;
    opts.slow_query_s = slow_s;
    opts.slow_ring_capacity = ring;
    opts.max_profiles = max_profiles;
    Tracer::global().configure(opts);
    Tracer::global().reset();
  }
  void TearDown() override {
    configure(0.0);
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  configure(0.0);
  {
    TraceSpan root("query");
    EXPECT_FALSE(root.active());
    EXPECT_EQ(root.request_id(), 0u);
    root.attr("k", 10);  // must be a harmless no-op
    TraceSpan child("sa.keys");
    EXPECT_FALSE(child.active());
  }
  EXPECT_TRUE(Tracer::global().events().empty());
  const Tracer::Stats stats = Tracer::global().stats();
  EXPECT_EQ(stats.spans_recorded, 0u);
  EXPECT_EQ(stats.requests_seen, 0u);
}

TEST_F(TraceTest, RateOneRecordsNestedSpansWithSharedRequestId) {
  configure(1.0);
  {
    TraceSpan root("query");
    ASSERT_TRUE(root.active());
    EXPECT_NE(root.request_id(), 0u);
    TraceSpan keys("sa.keys");
    EXPECT_TRUE(keys.active());
    EXPECT_EQ(keys.request_id(), root.request_id());
  }
  {
    TraceSpan root2("insert");
    ASSERT_TRUE(root2.active());
  }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 3u);
  auto find = [&](const char* name) -> const TraceEvent& {
    for (const auto& e : events) {
      if (std::string(e.name) == name) return e;
    }
    ADD_FAILURE() << "missing span " << name;
    return events.front();
  };
  const TraceEvent& root = find("query");
  const TraceEvent& keys = find("sa.keys");
  const TraceEvent& insert = find("insert");
  EXPECT_EQ(root.depth, 1u);
  EXPECT_EQ(keys.depth, 2u);
  EXPECT_EQ(insert.depth, 1u);
  // Same request for the nested pair; a fresh request id for the next root.
  EXPECT_EQ(keys.request_id, root.request_id);
  EXPECT_NE(insert.request_id, root.request_id);
  // The child is contained in the parent's [start, start+dur] window and
  // both ran on the same exported thread id.
  EXPECT_GE(keys.start_ns, root.start_ns);
  EXPECT_LE(keys.start_ns + keys.dur_ns, root.start_ns + root.dur_ns);
  EXPECT_EQ(keys.tid, root.tid);
  // The root outlives the child, so the later root starts after it ends.
  EXPECT_GE(insert.start_ns, root.start_ns + root.dur_ns);
}

TEST_F(TraceTest, FractionalRateSamplesEveryNthRequest) {
  configure(0.25);  // period 4: requests 0, 4 of 8 are sampled
  for (int i = 0; i < 8; ++i) {
    TraceSpan root("query");
    TraceSpan child("sa.keys");  // only recorded for sampled requests
  }
  const Tracer::Stats stats = Tracer::global().stats();
  EXPECT_EQ(stats.requests_seen, 8u);
  EXPECT_EQ(stats.requests_sampled, 2u);
  EXPECT_EQ(Tracer::global().events().size(), 4u);  // 2 roots + 2 children
}

TEST_F(TraceTest, AttrsAreRecordedAndCappedAtMax) {
  configure(1.0);
  {
    TraceSpan span("chs.probe");
    span.attr("bucket_probes", 48);
    span.attr("candidates", 17);
    for (int i = 0; i < 32; ++i) span.attr("extra", i);  // past the cap
  }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events.front();
  EXPECT_EQ(e.attr_count, TraceEvent::kMaxAttrs);
  EXPECT_STREQ(e.attrs[0].key, "bucket_probes");
  EXPECT_DOUBLE_EQ(e.attrs[0].value, 48.0);
  EXPECT_STREQ(e.attrs[1].key, "candidates");
  EXPECT_DOUBLE_EQ(e.attrs[1].value, 17.0);
}

TEST_F(TraceTest, SlowQueryRingKeepsNewestAndEvictsOldest) {
  configure(1.0, /*slow_s=*/0.0, /*ring=*/3);
  for (int i = 0; i < 5; ++i) {
    QueryProfile p;
    p.request_id = static_cast<std::uint64_t>(i + 1);
    p.sampled = false;
    p.wall_s = 1.0;  // >= threshold 0: always slow
    Tracer::global().record_query(p);
  }
  std::vector<QueryProfile> slow = Tracer::global().slow_queries();
  ASSERT_EQ(slow.size(), 3u);  // ring capacity
  EXPECT_EQ(slow[0].request_id, 3u);  // oldest surviving entry first
  EXPECT_EQ(slow[1].request_id, 4u);
  EXPECT_EQ(slow[2].request_id, 5u);
  const Tracer::Stats stats = Tracer::global().stats();
  EXPECT_EQ(stats.slow_queries, 5u);
  EXPECT_EQ(stats.slow_evicted, 2u);
}

TEST_F(TraceTest, SampledProfileBudgetDropsExcess) {
  configure(1.0, /*slow_s=*/1e9, /*ring=*/4, /*max_profiles=*/2);
  for (int i = 0; i < 3; ++i) {
    QueryProfile p;
    p.sampled = true;
    p.wall_s = 1e-6;
    Tracer::global().record_query(p);
  }
  EXPECT_EQ(Tracer::global().sampled_profiles().size(), 2u);
  const Tracer::Stats stats = Tracer::global().stats();
  EXPECT_EQ(stats.profiles_recorded, 2u);
  EXPECT_EQ(stats.profiles_dropped, 1u);
}

TEST_F(TraceTest, ResetClearsDataButKeepsOptions) {
  configure(1.0, /*slow_s=*/0.0);
  {
    TraceSpan span("query");
  }
  QueryProfile p;
  p.sampled = true;
  p.wall_s = 1.0;
  Tracer::global().record_query(p);
  ASSERT_FALSE(Tracer::global().events().empty());
  Tracer::global().reset();
  EXPECT_TRUE(Tracer::global().events().empty());
  EXPECT_TRUE(Tracer::global().sampled_profiles().empty());
  EXPECT_TRUE(Tracer::global().slow_queries().empty());
  const Tracer::Stats stats = Tracer::global().stats();
  EXPECT_EQ(stats.spans_recorded, 0u);
  EXPECT_EQ(stats.slow_queries, 0u);
  EXPECT_TRUE(Tracer::global().enabled());  // options survive the reset
  EXPECT_DOUBLE_EQ(Tracer::global().options().sample_rate, 1.0);
}

TEST_F(TraceTest, ChromeTraceJsonHasCompleteEventsWithArgs) {
  configure(1.0);
  {
    TraceSpan span("query");
    span.attr("k", 10);
  }
  const std::string json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST_F(TraceTest, ProfilesJsonReportsThresholdAndBothLists) {
  configure(1.0, /*slow_s=*/0.0);
  QueryProfile p;
  p.sampled = true;
  p.wall_s = 0.25;
  p.candidates = 17;
  Tracer::global().record_query(p);
  const std::string json = Tracer::global().profiles_json();
  EXPECT_NE(json.find("\"slow_query_threshold_s\""), std::string::npos);
  EXPECT_NE(json.find("\"profiles\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_queries\""), std::string::npos);
  EXPECT_NE(json.find("\"candidates\": 17"), std::string::npos);
}

TEST_F(TraceTest, EnvConfigurationSetsRateThresholdAndRing) {
  ::setenv("FAST_TRACE", "0.5", 1);
  ::setenv("FAST_TRACE_SLOW_MS", "20", 1);
  ::setenv("FAST_TRACE_RING", "7", 1);
  EXPECT_TRUE(configure_global_tracer_from_env());
  const TraceOptions opts = Tracer::global().options();
  EXPECT_DOUBLE_EQ(opts.sample_rate, 0.5);
  EXPECT_DOUBLE_EQ(opts.slow_query_s, 0.020);
  EXPECT_EQ(opts.slow_ring_capacity, 7u);
  ::unsetenv("FAST_TRACE");
  ::unsetenv("FAST_TRACE_SLOW_MS");
  ::unsetenv("FAST_TRACE_RING");
}

// --- Pipeline integration -------------------------------------------------

core::FastConfig small_config() {
  core::FastConfig cfg;
  cfg.cuckoo.capacity = 512;
  return cfg;
}

hash::SparseSignature synthetic_signature(std::uint64_t id,
                                          std::size_t bloom_bits) {
  util::Rng rng(id * 0x9e3779b97f4a7c15ULL + 0x7ace);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(bloom_bits / 101));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(bits, bloom_bits);
}

TEST_F(TraceTest, FastIndexQueryEmitsStageSpansAndProfile) {
  configure(1.0, /*slow_s=*/0.0);
  core::FastIndex index(small_config(), test::fake_pca());
  const std::size_t bits = index.config().bloom_bits;
  for (std::uint64_t id = 0; id < 16; ++id) {
    index.insert_signature(id, synthetic_signature(id, bits));
  }
  Tracer::global().reset();  // keep only the query's spans

  (void)index.query_signature(synthetic_signature(3, bits), 5);

  std::vector<TraceEvent> events = Tracer::global().events();
  std::vector<std::string> names;
  for (const auto& e : events) names.emplace_back(e.name);
  for (const char* want : {"query", "sa.keys", "chs.probe", "rank.scorer",
                           "rank.score", "rank.topk"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "missing span " << want;
  }
  // All spans belong to one request, rooted at "query".
  for (const auto& e : events) {
    EXPECT_EQ(e.request_id, events.front().request_id);
    if (std::string(e.name) == "query") {
      EXPECT_EQ(e.depth, 1u);
    }
  }
  // The profile reached both the sampled list and (threshold 0) the ring.
  std::vector<QueryProfile> profiles = Tracer::global().sampled_profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_TRUE(profiles.front().sampled);
  EXPECT_EQ(profiles.front().k, 5u);
  EXPECT_GT(profiles.front().bucket_probes, 0u);
  EXPECT_GT(profiles.front().wall_s, 0.0);
  EXPECT_EQ(Tracer::global().slow_queries().size(), 1u);
}

TEST_F(TraceTest, UnsampledQueriesStillFeedTheSlowRing) {
  // Rate so low nothing is sampled in this test, but the threshold-0 ring
  // must still see every query: slow-query capture is enabled-gated, not
  // sample-gated.
  configure(1e-9, /*slow_s=*/0.0);
  core::FastIndex index(small_config(), test::fake_pca());
  const std::size_t bits = index.config().bloom_bits;
  for (std::uint64_t id = 0; id < 8; ++id) {
    index.insert_signature(id, synthetic_signature(id, bits));
  }
  Tracer::global().reset();
  // Sampling is deterministic: the first root span after reset() lands on
  // counter 0 and is always sampled. Burn that slot so the query is not.
  { TraceSpan warmup("warmup"); }
  (void)index.query_signature(synthetic_signature(1, bits), 3);
  EXPECT_TRUE(Tracer::global().sampled_profiles().empty());
  ASSERT_EQ(Tracer::global().slow_queries().size(), 1u);
  EXPECT_FALSE(Tracer::global().slow_queries().front().sampled);
}

// Both backends charge candidate scoring + top-k to the ranking layer under
// one name: a rank.wall_s sample per query (and one of each of its parts),
// and a QueryProfile whose
// sa_keys/probe/rank parts partition the query's wall time.
TEST_F(TraceTest, FlatAndTieredChargeRankTimeToRank) {
  configure(1.0, /*slow_s=*/0.0, /*ring=*/4, /*max_profiles=*/64);
  core::FastConfig tiered_cfg = small_config();
  tiered_cfg.tier.enabled = true;
  tiered_cfg.tier.seal_threshold = 8;
  tiered_cfg.tier.lanes = 2;
  tiered_cfg.tier.background = false;
  core::FastIndex flat(small_config(), test::fake_pca());
  core::TieredIndex tiered(tiered_cfg, test::fake_pca());
  const std::size_t bits = flat.config().bloom_bits;
  for (std::uint64_t id = 0; id < 24; ++id) {
    flat.insert_signature(id, synthetic_signature(id, bits));
    tiered.insert_signature(id, synthetic_signature(id, bits));
  }
  ASSERT_GE(tiered.segment_count(), 1u);  // segment scoring is exercised
  Tracer::global().reset();
  constexpr std::uint64_t kQueries = 3;
  for (std::uint64_t q = 0; q < kQueries; ++q) {
    (void)flat.query_signature(synthetic_signature(q, bits), 5);
    (void)tiered.query_signature(synthetic_signature(q, bits), 5);
  }
  for (const util::MetricsRegistry* r : {&flat.metrics(), &tiered.metrics()}) {
    const util::MetricsSnapshot snap = r->snapshot();
    ASSERT_EQ(snap.histograms.count("rank.wall_s"), 1u);
    EXPECT_EQ(snap.histograms.at("rank.wall_s").count, kQueries);
    EXPECT_GT(snap.histograms.at("rank.wall_s").sum, 0.0);
    // rank.wall_s is split into its three parts, one sample each per query.
    double parts = 0;
    for (const char* part : {"rank.scorer_s", "rank.score_s", "rank.topk_s"}) {
      ASSERT_EQ(snap.histograms.count(part), 1u) << part;
      EXPECT_EQ(snap.histograms.at(part).count, kQueries) << part;
      parts += snap.histograms.at(part).sum;
    }
    EXPECT_NEAR(parts, snap.histograms.at("rank.wall_s").sum, 1e-9);
  }
  const std::vector<QueryProfile> profiles =
      Tracer::global().sampled_profiles();
  ASSERT_EQ(profiles.size(), 2 * kQueries);
  for (const QueryProfile& p : profiles) {
    EXPECT_GT(p.rank_s, 0.0);
    EXPECT_GE(p.probe_s, 0.0);
    EXPECT_DOUBLE_EQ(p.sa_keys_s + p.probe_s + p.rank_s, p.wall_s);
    const std::string json = p.to_json();
    EXPECT_NE(json.find("\"probe_s\": "), std::string::npos);
    EXPECT_NE(json.find("\"rank_s\": "), std::string::npos);
    EXPECT_EQ(json.find("probe_rank_s"), std::string::npos);
  }
}

// Churn-aware slow-ring behavior: a tiered index whose seals, tombstones
// and inline compactions run BETWEEN traced queries must still feed every
// query into the threshold-0 ring, cap it at capacity, keep the newest
// entries in order and count the evictions — layer churn must not drop or
// duplicate ring entries.
TEST_F(TraceTest, TieredChurnFeedsSlowRingWithBoundedCapacity) {
  constexpr std::size_t kRing = 8;
  configure(1.0, /*slow_s=*/0.0, /*ring=*/kRing, /*max_profiles=*/1 << 16);
  core::FastConfig cfg = small_config();
  cfg.tier.enabled = true;
  cfg.tier.seal_threshold = 8;
  cfg.tier.lanes = 2;
  cfg.tier.compact_fanin = 2;
  cfg.tier.compact_trigger = 2;
  cfg.tier.background = false;  // seals + merges run inline during churn
  core::TieredIndex index(cfg, test::fake_pca());
  const std::size_t bits = cfg.bloom_bits;

  Tracer::global().reset();
  constexpr std::uint64_t kQueries = 24;
  std::uint64_t id = 0;
  for (std::uint64_t q = 0; q < kQueries; ++q) {
    // Churn between queries: inserts cross seal thresholds, erases leave
    // tombstones, and compaction merges segments mid-stream.
    for (int i = 0; i < 4; ++i) {
      index.insert_signature(id, synthetic_signature(id, bits));
      ++id;
    }
    if (q % 2 == 1) index.erase(id - 3);
    (void)index.query_signature(synthetic_signature(q, bits), 5);
  }
  ASSERT_GT(index.segment_count() + index.tombstone_count(), 0u);

  const Tracer::Stats stats = Tracer::global().stats();
  EXPECT_EQ(stats.slow_queries, kQueries);
  EXPECT_EQ(stats.slow_evicted, kQueries - kRing);
  std::vector<QueryProfile> slow = Tracer::global().slow_queries();
  ASSERT_EQ(slow.size(), kRing);
  // Oldest surviving entry first, strictly newer toward the tail: only the
  // LAST kRing queries of the churn stream survive.
  for (std::size_t i = 1; i < slow.size(); ++i) {
    EXPECT_GT(slow[i].request_id, slow[i - 1].request_id);
  }
  for (const auto& p : slow) {
    EXPECT_EQ(p.k, 5u);
    EXPECT_GE(p.wall_s, 0.0);
  }
}

// Concurrent traced traffic (runs under TSan in CI): readers and writers
// hammer one FastIndex while every request records spans, so the
// thread-buffer registration, sampling counters and profile/ring mutexes
// all get exercised cross-thread.
TEST_F(TraceTest, ConcurrentTracedInsertQueryEraseIsRaceFree) {
  configure(1.0, /*slow_s=*/0.0, /*ring=*/16, /*max_profiles=*/1 << 16);
  const vision::PcaModel pca = test::fake_pca();
  core::FastIndex index(small_config(), pca);
  const std::size_t bits = index.config().bloom_bits;
  constexpr std::uint64_t kIds = 64;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    index.insert_signature(id, synthetic_signature(id, bits));
  }

  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // writer: churn the upper id range
    for (std::uint64_t i = 0; i < 200; ++i) {
      const std::uint64_t id = kIds + (i % 16);
      index.insert_signature(id, synthetic_signature(id, bits));
      if (i % 3 == 0) index.erase(id);
    }
  });
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {  // readers: traced queries throughout
      for (std::uint64_t i = 0; i < 200; ++i) {
        const auto result = index.query_signature(
            synthetic_signature((i + static_cast<std::uint64_t>(r)) % kIds,
                                bits),
            5);
        ASSERT_LE(result.hits.size(), 5u);
      }
    });
  }
  for (auto& t : threads) t.join();

  const Tracer::Stats stats = Tracer::global().stats();
  EXPECT_GT(stats.spans_recorded, 0u);
  EXPECT_GT(stats.requests_sampled, 0u);
  EXPECT_EQ(stats.slow_queries,
            Tracer::global().stats().slow_queries);  // self-consistent read
  // Exports must be coherent snapshots even right after the storm.
  EXPECT_FALSE(Tracer::global().events().empty());
  EXPECT_FALSE(Tracer::global().chrome_trace_json().empty());
}

}  // namespace
}  // namespace fast::util
