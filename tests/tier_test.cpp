// Tiered index tests: the LSM-style assembly (memtable lanes + sealed
// segments + compaction) must be indistinguishable from a flat FastIndex
// holding the same live set — same hits, same scores — across seals,
// erases, re-inserts and compaction, while the tier-specific machinery
// (blooms, tombstone GC, background merges) does its job underneath.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_engine.hpp"
#include "core/sharded_index.hpp"
#include "core/tiered_index.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {
namespace {

class TierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new workload::Dataset(test::small_dataset(40));
    pca_ = new vision::PcaModel(test::fake_pca());
    FastIndex helper(flat_config(), *pca_);
    sigs_ = new std::vector<hash::SparseSignature>();
    for (const auto& photo : dataset_->photos) {
      sigs_->push_back(helper.summarize(photo.image));
    }
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete pca_;
    delete sigs_;
    dataset_ = nullptr;
    pca_ = nullptr;
    sigs_ = nullptr;
  }

  static FastConfig flat_config() {
    FastConfig cfg;
    cfg.cuckoo.capacity = 256;
    return cfg;
  }
  /// Tiny thresholds so a 40-image dataset exercises every tier
  /// transition; background off so seals and merges run inline and the
  /// tests are deterministic.
  static FastConfig tiered_config() {
    FastConfig cfg = flat_config();
    cfg.tier.enabled = true;
    cfg.tier.seal_threshold = 8;
    cfg.tier.lanes = 2;
    cfg.tier.compact_fanin = 2;
    cfg.tier.compact_trigger = 2;
    cfg.tier.background = false;
    return cfg;
  }

  static void expect_same_hits(const QueryResult& a, const QueryResult& b) {
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id) << "hit " << h;
      EXPECT_DOUBLE_EQ(a.hits[h].score, b.hits[h].score) << "hit " << h;
    }
  }

  static workload::Dataset* dataset_;
  static vision::PcaModel* pca_;
  static std::vector<hash::SparseSignature>* sigs_;
};

workload::Dataset* TierTest::dataset_ = nullptr;
vision::PcaModel* TierTest::pca_ = nullptr;
std::vector<hash::SparseSignature>* TierTest::sigs_ = nullptr;

TEST_F(TierTest, SealsAtThresholdAndQueriesSpanLayers) {
  TieredIndex index(tiered_config(), *pca_);
  for (std::size_t i = 0; i < 24; ++i) {
    index.insert_signature(i, (*sigs_)[i]);
  }
  EXPECT_EQ(index.size(), 24u);
  // 24 mentions over 2 lanes at threshold 8 must have sealed something.
  EXPECT_GE(index.segment_count(), 1u);
  // Every id is still retrievable, wherever its layer ended up.
  for (std::size_t i = 0; i < 24; ++i) {
    const QueryResult res = index.query_signature((*sigs_)[i], 1);
    ASSERT_FALSE(res.hits.empty()) << i;
    EXPECT_EQ(res.hits.front().id, i);
    EXPECT_DOUBLE_EQ(res.hits.front().score, 1.0);
  }
}

TEST_F(TierTest, MatchesFlatIndexExactly) {
  TieredIndex tiered(tiered_config(), *pca_);
  FastIndex flat(flat_config(), *pca_);
  // Insert, erase a slice, re-insert part of it: the live sets stay equal
  // while the tiered side accumulates tombstones and sealed segments.
  for (std::size_t i = 0; i < 32; ++i) {
    tiered.insert_signature(i, (*sigs_)[i]);
    flat.insert_signature(i, (*sigs_)[i]);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(tiered.erase(i));
    EXPECT_TRUE(flat.erase(i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    tiered.insert_signature(i, (*sigs_)[i]);
    flat.insert_signature(i, (*sigs_)[i]);
  }
  ASSERT_EQ(tiered.size(), flat.size());

  // Probe with every dataset signature (present and absent alike) and a
  // deep k: hit lists and scores must agree exactly.
  for (std::size_t q = 0; q < sigs_->size(); ++q) {
    const QueryResult a = tiered.query_signature((*sigs_)[q], 10);
    const QueryResult b = flat.query_signature((*sigs_)[q], 10);
    expect_same_hits(a, b);
  }
}

TEST_F(TierTest, EraseAcrossSealLeavesTombstone) {
  TieredIndex index(tiered_config(), *pca_);
  for (std::size_t i = 0; i < 8; ++i) {
    index.insert_signature(i, (*sigs_)[i]);
  }
  index.seal_active();
  ASSERT_GE(index.segment_count(), 1u);

  // The victim now lives in a sealed (immutable) segment; erasing it must
  // go through a tombstone, not an in-place delete.
  EXPECT_TRUE(index.erase(3));
  EXPECT_FALSE(index.erase(3));  // already gone
  EXPECT_EQ(index.size(), 7u);
  EXPECT_GE(index.tombstone_count(), 1u);
  EXPECT_FALSE(index.signature_of(3).has_value());
  const QueryResult res = index.query_signature((*sigs_)[3], 8);
  for (const auto& hit : res.hits) {
    EXPECT_NE(hit.id, 3u);
  }
}

TEST_F(TierTest, ReinsertShadowsSealedVersion) {
  TieredIndex index(tiered_config(), *pca_);
  index.insert_signature(7, (*sigs_)[7]);
  index.seal_active();
  // Same id, new content, no intervening erase: the memtable version must
  // shadow the sealed one.
  index.insert_signature(7, (*sigs_)[8]);
  EXPECT_EQ(index.size(), 1u);
  const QueryResult fresh = index.query_signature((*sigs_)[8], 1);
  ASSERT_FALSE(fresh.hits.empty());
  EXPECT_EQ(fresh.hits.front().id, 7u);
  EXPECT_DOUBLE_EQ(fresh.hits.front().score, 1.0);
  // The old signature no longer scores 1.0 anywhere.
  const QueryResult stale = index.query_signature((*sigs_)[7], 1);
  if (!stale.hits.empty()) {
    EXPECT_LT(stale.hits.front().score, 1.0);
  }
}

/// Shadowing between sealed segments, with no memtable version to hide
/// the stale one: id 7 lives in three segments of one lane (inserted,
/// then erased, then re-inserted with another signature), and
/// compact_trigger > compact_fanin keeps all three unmerged. A query for
/// the old signature must not resurrect it: the two newer segments shadow
/// the oldest one, so both queries match a flat index holding only the
/// newest version, score for score.
TEST_F(TierTest, NewerSegmentShadowsOlderSegmentVersion) {
  FastConfig cfg = tiered_config();
  cfg.tier.lanes = 1;
  cfg.tier.compact_fanin = 2;
  cfg.tier.compact_trigger = 8;
  TieredIndex tiered(cfg, *pca_);
  FastIndex flat(flat_config(), *pca_);
  for (std::size_t i = 20; i < 24; ++i) {
    tiered.insert_signature(i, (*sigs_)[i]);
    flat.insert_signature(i, (*sigs_)[i]);
  }
  tiered.insert_signature(7, (*sigs_)[7]);
  tiered.seal_active();
  EXPECT_TRUE(tiered.erase(7));
  tiered.seal_active();
  tiered.insert_signature(7, (*sigs_)[8]);
  tiered.seal_active();
  flat.insert_signature(7, (*sigs_)[8]);
  ASSERT_EQ(tiered.segment_count(), 3u);
  ASSERT_EQ(tiered.size(), flat.size());

  const QueryResult stale = tiered.query_signature((*sigs_)[7], 10);
  expect_same_hits(stale, flat.query_signature((*sigs_)[7], 10));
  const double newest_score =
      hash::SparseSignature::jaccard((*sigs_)[7], (*sigs_)[8]);
  for (const auto& hit : stale.hits) {
    if (hit.id == 7) {
      EXPECT_DOUBLE_EQ(hit.score, newest_score);
    }
  }
  const QueryResult fresh = tiered.query_signature((*sigs_)[8], 10);
  expect_same_hits(fresh, flat.query_signature((*sigs_)[8], 10));
  ASSERT_FALSE(fresh.hits.empty());
  EXPECT_EQ(fresh.hits.front().id, 7u);
  EXPECT_DOUBLE_EQ(fresh.hits.front().score, 1.0);
}

TEST_F(TierTest, CompactionPreservesContentAndDropsTombstones) {
  TieredIndex tiered(tiered_config(), *pca_);
  FastIndex flat(flat_config(), *pca_);
  for (std::size_t i = 0; i < 32; ++i) {
    tiered.insert_signature(i, (*sigs_)[i]);
    flat.insert_signature(i, (*sigs_)[i]);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    tiered.erase(i);
    flat.erase(i);
  }
  // Freeze the tombstones into segments, then merge until nothing is
  // eligible: bottom-level merges must GC them.
  tiered.seal_active();
  while (tiered.compact_once()) {
  }
  const auto metrics = tiered.metrics().snapshot();
  EXPECT_GE(metrics.counters.at("compaction.runs"), 1u);
  EXPECT_GE(metrics.counters.at("compaction.dropped_tombstones"), 1u);
  EXPECT_GE(metrics.counters.at("tier.seals"), 1u);

  ASSERT_EQ(tiered.size(), flat.size());
  for (std::size_t q = 0; q < sigs_->size(); ++q) {
    const QueryResult a = tiered.query_signature((*sigs_)[q], 10);
    const QueryResult b = flat.query_signature((*sigs_)[q], 10);
    expect_same_hits(a, b);
  }
}

TEST_F(TierTest, EraseBatchMatchesLoop) {
  TieredIndex index(tiered_config(), *pca_);
  for (std::size_t i = 0; i < 20; ++i) {
    index.insert_signature(i, (*sigs_)[i]);
  }
  const std::vector<std::uint64_t> victims = {1, 3, 5, 99, 3};
  // 99 is unknown and 3 repeats: only three distinct live ids go away.
  EXPECT_EQ(index.erase_batch(victims), 3u);
  EXPECT_EQ(index.size(), 17u);
  EXPECT_FALSE(index.signature_of(3).has_value());
  EXPECT_TRUE(index.signature_of(2).has_value());
}

TEST_F(TierTest, BloomSkipsColdSegments) {
  FastConfig cfg = tiered_config();
  cfg.tier.compact_trigger = 64;  // keep many small segments around
  TieredIndex index(cfg, *pca_);
  for (std::size_t i = 0; i < sigs_->size(); ++i) {
    index.insert_signature(i, (*sigs_)[i]);
  }
  index.seal_active();
  index.compact_once();  // finalizes blooms even when nothing merges
  ASSERT_GE(index.segment_count(), 3u);

  for (std::size_t q = 0; q < sigs_->size(); ++q) {
    const QueryResult res = index.query_signature((*sigs_)[q], 1);
    ASSERT_FALSE(res.hits.empty());
    EXPECT_EQ(res.hits.front().id, q);
  }
  // Each probe's keys live in one segment; the blooms must have pruned
  // most of the others.
  const auto metrics = index.metrics().snapshot();
  EXPECT_GT(metrics.counters.at("tier.segment_skips"), 0u);
}

TEST_F(TierTest, ExpositionCarriesTierMetrics) {
  TieredIndex index(tiered_config(), *pca_);
  for (std::size_t i = 0; i < 24; ++i) {
    index.insert_signature(i, (*sigs_)[i]);
  }
  index.seal_active();
  index.compact_once();

  const std::string prom = index.metrics().to_prometheus();
  EXPECT_NE(prom.find("segment_count"), std::string::npos);
  EXPECT_NE(prom.find("compaction_runs"), std::string::npos);
  EXPECT_NE(prom.find("compaction_merge_s"), std::string::npos);
  EXPECT_NE(prom.find("tier_memtable_entries"), std::string::npos);

  const std::string json = index.metrics().to_json();
  EXPECT_NE(json.find("segment.count"), std::string::npos);
  EXPECT_NE(json.find("compaction.merge_entries"), std::string::npos);
}

// make_backend picks the layout from tier.enabled; both answer the batch
// paths identically. Both count writer-lock acquisitions in one
// instrument: the flat layout takes its global lock once per batch, the
// tiered layout only its lanes' locks, once per item.
TEST_F(TierTest, ConcurrentFacadeDispatchesToTier) {
  util::ThreadPool pool(2);
  const std::unique_ptr<Backend> tiered = make_backend(tiered_config(), *pca_);
  const std::unique_ptr<Backend> flat = make_backend(flat_config(), *pca_);
  ASSERT_NE(dynamic_cast<TieredIndex*>(tiered.get()), nullptr);
  ASSERT_NE(dynamic_cast<FastIndex*>(flat.get()), nullptr);

  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 24; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  tiered->insert_batch(items, &pool);
  flat->insert_batch(items, &pool);
  EXPECT_EQ(tiered->size(), flat->size());
  // The tiered layout has no global writer lock — that is the point.
  const auto writer_locks = [](const Backend& b) {
    return b.metrics().snapshot().counters.at("index.writer_locks");
  };
  EXPECT_EQ(writer_locks(*tiered), items.size());
  EXPECT_EQ(writer_locks(*flat), 1u);

  const std::vector<std::uint64_t> victims = {0, 2, 4, 6};
  EXPECT_EQ(tiered->erase_batch(victims), flat->erase_batch(victims));
  EXPECT_EQ(tiered->size(), flat->size());

  std::vector<const img::Image*> queries;
  for (std::size_t i = 0; i < 8; ++i) {
    queries.push_back(&dataset_->photos[i].image);
  }
  const auto a = tiered->query_batch(queries, 5, &pool);
  const auto b = flat->query_batch(queries, 5, &pool);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same_hits(a[i], b[i]);
  }
}

TEST_F(TierTest, ShardedDeploymentRunsTieredShards) {
  ShardedFastIndex tiered(tiered_config(), *pca_, 2, 2);
  ShardedFastIndex flat(flat_config(), *pca_, 2, 2);
  ASSERT_NE(dynamic_cast<const TieredIndex*>(&tiered.shard(0)), nullptr);
  EXPECT_EQ(tiered.shard_count(), 2u);
  for (std::size_t i = 0; i < 24; ++i) {
    tiered.insert_signature(i, (*sigs_)[i]);
    flat.insert_signature(i, (*sigs_)[i]);
  }
  EXPECT_TRUE(tiered.erase(5));
  EXPECT_TRUE(flat.erase(5));
  EXPECT_FALSE(tiered.erase(5));
  EXPECT_EQ(tiered.size(), flat.size());

  for (std::size_t q = 0; q < 24; ++q) {
    const QueryResult a = tiered.query_signature((*sigs_)[q], 5);
    const QueryResult b = flat.query_signature((*sigs_)[q], 5);
    expect_same_hits(a, b);
  }
  // The per-shard accessor reaches the tiered shard directly.
  EXPECT_GT(tiered.shard(0).size() + tiered.shard(1).size(), 0u);
}

// Both layouts report the same placement work for the same insert: the
// lookups' slot reads and one lookup's worth of store writes per group
// created, so the first insert into an empty index prices alike.
TEST_F(TierTest, FirstInsertReportsFlatPlacementWork) {
  TieredIndex tiered(tiered_config(), *pca_);
  FastIndex flat(flat_config(), *pca_);
  const InsertResult a = tiered.insert_signature(0, (*sigs_)[0]);
  const InsertResult b = flat.insert_signature(0, (*sigs_)[0]);
  EXPECT_GT(b.store_writes, 0u);
  EXPECT_EQ(a.slot_reads, b.slot_reads);
  EXPECT_EQ(a.store_writes, b.store_writes);
}

TEST_F(TierTest, QueryEngineServesTieredBackend) {
  TieredIndex tiered(tiered_config(), *pca_);
  FastIndex flat(flat_config(), *pca_);
  for (std::size_t i = 0; i < 24; ++i) {
    tiered.insert_signature(i, (*sigs_)[i]);
    flat.insert_signature(i, (*sigs_)[i]);
  }
  QueryEngine tiered_engine(tiered, 2);
  QueryEngine flat_engine(flat, 2);
  ASSERT_EQ(&tiered_engine.tiered(), &tiered);

  const BatchReport a = tiered_engine.run_batch(*sigs_);
  const BatchReport b = flat_engine.run_batch(*sigs_);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    expect_same_hits(a.results[i], b.results[i]);
  }
  EXPECT_GE(tiered.metrics().snapshot().counters.at("engine.batches"), 1u);
}

// Bursts of eight identical summaries share every bucket key, so a sealed
// memtable holds an eighth as many keys per table as entries, far fewer
// than the seal-interval arena it was pre-sized with. Seals and merges
// rebuild the store at the size its keys need, which keeps the tiered
// index within twice the flat index's bytes for the same live set (a
// store frozen at the arena's size reads over three times). Case one
// seals without merging; case two merges every segment into one.
TEST_F(TierTest, SealedAndMergedStoresAreRightSized) {
  auto burst_signature = [](std::uint64_t burst, std::uint32_t bits) {
    util::Rng rng(burst * 0x9e3779b97f4a7c15ULL + 0xc4u);
    std::vector<std::uint32_t> set;
    std::uint32_t cur = 0;
    for (std::size_t i = 0; i < 100; ++i) {
      cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(bits / 101));
      if (cur >= bits) break;
      set.push_back(cur);
    }
    return hash::SparseSignature(set, bits);
  };
  struct Case {
    std::size_t inserts;
    std::size_t fanin;
  };
  for (const Case c : {Case{4096, 64}, Case{1536, 2}}) {
    FastConfig cfg = tiered_config();
    cfg.tier.seal_threshold = 512;  // memtable arena: 1,024 slots a table
    cfg.tier.lanes = 1;
    cfg.tier.compact_fanin = c.fanin;
    cfg.tier.compact_trigger = c.fanin;
    TieredIndex tiered(cfg, *pca_);
    FastIndex flat(flat_config(), *pca_);
    const auto bits = static_cast<std::uint32_t>(cfg.bloom_bits);
    for (std::size_t i = 0; i < c.inserts; ++i) {
      const hash::SparseSignature sig = burst_signature(i / 8, bits);
      tiered.insert_signature(i, sig);
      flat.insert_signature(i, sig);
    }
    tiered.seal_active();
    while (tiered.compact_once()) {
    }
    ASSERT_EQ(tiered.size(), flat.size());
    EXPECT_GE(tiered.segment_count(), 1u);
    const double ratio = static_cast<double>(tiered.index_bytes()) /
                         static_cast<double>(flat.index_bytes());
    EXPECT_LE(ratio, 2.0) << c.inserts << " inserts, fan-in " << c.fanin
                          << ", " << tiered.segment_count() << " segments";
    for (std::size_t q = 0; q < c.inserts; q += 97) {
      const hash::SparseSignature sig = burst_signature(q / 8, bits);
      expect_same_hits(tiered.query_signature(sig, 10),
                       flat.query_signature(sig, 10));
    }
  }
}

// Matches the TSan CI regex: readers and writers race real background
// seals and compactions.
class TierStressTest : public TierTest {};

TEST_F(TierStressTest, ChurnWithBackgroundCompaction) {
  FastConfig cfg = tiered_config();
  cfg.tier.background = true;
  cfg.tier.seal_threshold = 16;
  cfg.tier.lanes = 4;
  TieredIndex index(cfg, *pca_);

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 150;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad_hits{0};

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::uint64_t base = w * 100000;
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        index.insert_signature(base + i, (*sigs_)[i % sigs_->size()]);
        // Churn: every third insert retires an earlier id of this writer.
        if (i % 3 == 2) {
          index.erase(base + i - 2);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::size_t qi = static_cast<std::size_t>(r);
      while (!stop) {
        const QueryResult res =
            index.query_signature((*sigs_)[qi % sigs_->size()], 5);
        for (const auto& hit : res.hits) {
          if (hit.score < 0.0 || hit.score > 1.0) ++bad_hits;
        }
        ++qi;
      }
    });
  }
  for (auto& t : writers) t.join();
  stop = true;
  for (auto& t : readers) t.join();
  index.wait_idle();
  EXPECT_EQ(bad_hits.load(), 0u);

  // Each writer erased floor(kPerWriter / 3) of its own ids.
  const std::size_t erased_per_writer = kPerWriter / 3;
  EXPECT_EQ(index.size(), kWriters * (kPerWriter - erased_per_writer));
  for (std::size_t w = 0; w < kWriters; ++w) {
    const std::uint64_t base = w * 100000;
    EXPECT_FALSE(index.signature_of(base + 0).has_value());
    EXPECT_TRUE(index.signature_of(base + 1).has_value());
    EXPECT_TRUE(index.signature_of(base + kPerWriter - 1).has_value());
  }
}

/// Shutdown-under-serving-load regression: snapshots racing the background
/// compaction worker used to serialize next_segment_id_ before pinning the
/// lane segment lists, so a concurrent merge could persist a snapshot
/// whose newest segment id collided with the saved counter — duplicate
/// segment ids (and wrong-window splices) after recovery. save_snapshot
/// now excludes maintenance passes, and restore advances the counter past
/// every recovered segment. The destructor's stop_worker must likewise
/// leave the index consistent after churn.
TEST_F(TierTest, ShutdownUnderChurnPreservesAckedWrites) {
  FastConfig cfg = tiered_config();
  cfg.tier.background = true;  // real worker: snapshots race compactions
  DurabilityOptions opts;
  opts.dir = ::testing::TempDir() + "fast_tier_" +
             std::to_string(::getpid()) + "_shutdown_churn";
  std::filesystem::remove_all(opts.dir);
  std::filesystem::create_directories(opts.dir);

  const std::size_t kWrites = 400;
  {
    auto opened = TieredIndex::open_or_recover(cfg, *pca_, opts);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    std::unique_ptr<TieredIndex> index = std::move(opened).value();

    std::atomic<bool> stop{false};
    std::thread writer([&] {
      for (std::size_t id = 1; id <= kWrites; ++id) {
        index->insert_signature(id, (*sigs_)[id % sigs_->size()]);
      }
    });
    std::thread reader([&] {
      std::size_t qi = 0;
      while (!stop) {
        index->query_signature((*sigs_)[qi++ % sigs_->size()], 4);
      }
    });
    // Snapshot repeatedly while seals and merges are in flight — the
    // exact SIGTERM-during-serving shape.
    for (int s = 0; s < 5; ++s) {
      ASSERT_TRUE(index->save_snapshot().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer.join();
    ASSERT_TRUE(index->save_snapshot().ok());
    stop = true;
    reader.join();
    index->wait_idle();
    EXPECT_EQ(index->size(), kWrites);
    // unique_ptr teardown: stop_worker + WAL close under a quiesced index.
  }

  auto recovered = TieredIndex::open_or_recover(cfg, *pca_, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  std::unique_ptr<TieredIndex> index = std::move(recovered).value();
  EXPECT_EQ(index->size(), kWrites);
  // Post-recovery maintenance must splice cleanly: fresh segment ids may
  // not collide with recovered ones.
  index->seal_active();
  index->compact_once();
  index->wait_idle();
  EXPECT_EQ(index->size(), kWrites);
  for (std::size_t id = 1; id <= kWrites; id += 37) {
    EXPECT_TRUE(index->signature_of(id).has_value()) << id;
  }
}

}  // namespace
}  // namespace fast::core
