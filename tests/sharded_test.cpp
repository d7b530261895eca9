// Tests for the distributed index, deletion and persistence extensions.
#include <unistd.h>

#include <filesystem>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/sharded_index.hpp"
#include "core/sim_cost.hpp"
#include "core/tiered_index.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"

namespace fast::core {
namespace {

class ShardedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new workload::Dataset(test::small_dataset(36));
    pca_ = new vision::PcaModel(test::fake_pca());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete pca_;
    dataset_ = nullptr;
    pca_ = nullptr;
  }
  static FastConfig small_config() {
    FastConfig cfg;
    cfg.cuckoo.capacity = 256;
    return cfg;
  }
  static workload::Dataset* dataset_;
  static vision::PcaModel* pca_;
};

workload::Dataset* ShardedTest::dataset_ = nullptr;
vision::PcaModel* ShardedTest::pca_ = nullptr;

// ---------- ShardedFastIndex ----------

TEST_F(ShardedTest, InsertsRouteToOwningShard) {
  ShardedFastIndex index(small_config(), *pca_, 4, 2);
  for (std::size_t i = 0; i < 20; ++i) {
    index.insert(i, dataset_->photos[i].image);
  }
  EXPECT_EQ(index.size(), 20u);
  std::size_t sum = 0;
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    sum += index.shard(s).size();
  }
  EXPECT_EQ(sum, 20u);
  // Each id lives exactly in its mapped shard.
  for (std::size_t i = 0; i < 20; ++i) {
    const std::size_t owner = index.shard_of(i);
    EXPECT_TRUE(index.shard(owner).signature_of(i).has_value());
  }
}

TEST_F(ShardedTest, ScatterGatherMatchesSingleIndexTopHit) {
  ShardedFastIndex sharded(small_config(), *pca_, 4, 2);
  FastIndex single(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 24; ++i) {
    sigs.push_back(single.summarize(dataset_->photos[i].image));
    sharded.insert_signature(i, sigs.back());
    single.insert_signature(i, sigs.back());
  }
  for (std::size_t i = 0; i < 24; ++i) {
    const QueryResult a = sharded.query_signature(sigs[i], 1);
    const QueryResult b = single.query_signature(sigs[i], 1);
    ASSERT_FALSE(a.hits.empty());
    ASSERT_FALSE(b.hits.empty());
    EXPECT_DOUBLE_EQ(a.hits.front().score, b.hits.front().score);
  }
}

TEST_F(ShardedTest, QueryCostIncludesNetworkHops) {
  ShardedFastIndex index(small_config(), *pca_, 4, 2);
  const auto sig = index.shard(0).summarize(dataset_->photos[0].image);
  index.insert_signature(0, sig);
  const ShardedQueryResult r = index.query_signature(sig, 3);
  EXPECT_GT(r.cost.elapsed_s(), 2 * small_config().cost.net_rtt_s);
}

// An image query pays the same front end (feature extraction plus the
// Bloom hashing) on the distributed index as on the plain one: a 1-shard
// image query costs a FastIndex image query plus the scatter and gather
// hops.
TEST_F(ShardedTest, ImageQueryCostsPlainImageQueryPlusHops) {
  ShardedFastIndex sharded(small_config(), *pca_, 1, 1);
  FastIndex plain(small_config(), *pca_);
  for (std::size_t i = 0; i < 12; ++i) {
    const auto sig = plain.summarize(dataset_->photos[i].image);
    sharded.insert_signature(i, sig);
    plain.insert_signature(i, sig);
  }
  const sim::CostModel cost = small_config().cost;
  constexpr std::size_t kTopK = 5;
  const double hops_s =
      cost.net_transfer_s(512) +
      cost.net_transfer_s(kTopK * (sizeof(std::uint64_t) + sizeof(float)));
  for (std::size_t i = 0; i < 4; ++i) {
    const img::Image& image = dataset_->photos[i * 5].image;
    const ShardedQueryResult a = sharded.query(image, kTopK);
    const auto sig = plain.summarize(image);
    const sim::SimClock b =
        sim_cost::query(plain, sig, plain.query_signature(sig, kTopK),
                        /*from_image=*/true)
            .clock;
    EXPECT_NEAR(a.cost.elapsed_s(), b.elapsed_s() + hops_s,
                1e-12 * b.elapsed_s())
        << i;
    EXPECT_EQ(a.cost.hash_ops(), b.hash_ops()) << i;
  }
}

// The distributed insert reports exactly the placement work of the plain
// index underneath, whether it arrives as an image or as a signature.
TEST_F(ShardedTest, InsertWorkMatchesPlainIndex) {
  // One shard so the storage seed (and thus probe counts) match `plain`
  // exactly; the multi-shard batch path is covered by
  // InsertBatchMatchesPerItemInserts.
  ShardedFastIndex sharded(small_config(), *pca_, 1, 1);
  FastIndex plain(small_config(), *pca_);
  for (std::size_t i = 0; i < 8; ++i) {
    const InsertResult a = sharded.insert(i, dataset_->photos[i].image);
    const InsertResult b = plain.insert(i, dataset_->photos[i].image);
    EXPECT_EQ(a.slot_reads, b.slot_reads) << i;
    EXPECT_EQ(a.store_writes, b.store_writes) << i;
  }
}

TEST_F(ShardedTest, SingleShardDegeneratesToFastIndex) {
  ShardedFastIndex sharded(small_config(), *pca_, 1, 1);
  FastIndex single(small_config(), *pca_);
  const auto sig = single.summarize(dataset_->photos[5].image);
  sharded.insert_signature(5, sig);
  single.insert_signature(5, sig);
  const QueryResult a = sharded.query_signature(sig, 1);
  const QueryResult b = single.query_signature(sig, 1);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  EXPECT_EQ(a.hits.front().id, b.hits.front().id);
}

TEST_F(ShardedTest, IndexBytesSumOverShards) {
  ShardedFastIndex index(small_config(), *pca_, 3, 1);
  const std::size_t empty = index.index_bytes();
  index.insert(0, dataset_->photos[0].image);
  EXPECT_GT(index.index_bytes(), empty);
}

// ---------- erase ----------

TEST_F(ShardedTest, EraseRemovesFromResults) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 12; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  ASSERT_TRUE(index.erase(5));
  EXPECT_EQ(index.size(), 11u);
  EXPECT_FALSE(index.signature_of(5).has_value());
  const QueryResult r = index.query_signature(sigs[5], 12);
  for (const auto& hit : r.hits) {
    EXPECT_NE(hit.id, 5u);
  }
}

TEST_F(ShardedTest, EraseUnknownIdReturnsFalse) {
  FastIndex index(small_config(), *pca_);
  EXPECT_FALSE(index.erase(12345));
}

TEST_F(ShardedTest, EraseKeepsOtherImagesRetrievable) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 12; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  for (std::size_t i = 0; i < 6; ++i) index.erase(i);
  for (std::size_t i = 6; i < 12; ++i) {
    const QueryResult r = index.query_signature(sigs[i], 1);
    ASSERT_FALSE(r.hits.empty()) << i;
    EXPECT_DOUBLE_EQ(r.hits.front().score, 1.0);
  }
}

TEST_F(ShardedTest, ReinsertAfterErase) {
  FastIndex index(small_config(), *pca_);
  const auto sig = index.summarize(dataset_->photos[0].image);
  index.insert_signature(7, sig);
  index.erase(7);
  index.insert_signature(7, sig);
  const QueryResult r = index.query_signature(sig, 1);
  ASSERT_FALSE(r.hits.empty());
  EXPECT_EQ(r.hits.front().id, 7u);
}

// ---------- persistence ----------

TEST_F(ShardedTest, SaveLoadRoundTrip) {
  // A snapshot loaded back through recovery holds every signature and
  // answers each stored image as its own exact top hit.
  DurabilityOptions opts;
  opts.dir = (std::filesystem::temp_directory_path() /
              ("fast_index_snapshot_" + std::to_string(::getpid())))
                 .string();
  std::filesystem::remove_all(opts.dir);
  std::vector<hash::SparseSignature> sigs;
  {
    auto opened = FastIndex::open_or_recover(small_config(), *pca_, opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    FastIndex index = std::move(opened).value();
    for (std::size_t i = 0; i < 15; ++i) {
      sigs.push_back(index.summarize(dataset_->photos[i].image));
      index.insert_signature(i, sigs.back());
    }
    ASSERT_TRUE(index.save_snapshot().ok());
  }

  RecoveryStats stats;
  auto recovered =
      FastIndex::open_or_recover(small_config(), *pca_, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
  const FastIndex& restored = recovered.value();
  EXPECT_EQ(restored.size(), sigs.size());
  for (std::size_t i = 0; i < 15; ++i) {
    const auto sig = restored.signature_of(i);
    ASSERT_TRUE(sig.has_value());
    EXPECT_EQ(sig->set_bits(), sigs[i].set_bits());
    const QueryResult r = restored.query_signature(sigs[i], 1);
    ASSERT_FALSE(r.hits.empty());
    EXPECT_DOUBLE_EQ(r.hits.front().score, 1.0);
  }
  std::filesystem::remove_all(opts.dir);
}

// ---------- batch path ----------

TEST_F(ShardedTest, InsertBatchMatchesPerItemInserts) {
  ShardedFastIndex batched(small_config(), *pca_, 4, 2);
  ShardedFastIndex sequential(small_config(), *pca_, 4, 2);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 24; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  const auto batch_results = batched.insert_batch(items);
  std::vector<InsertResult> seq_results;
  for (const auto& item : items) {
    seq_results.push_back(sequential.insert(item.id, *item.image));
  }
  ASSERT_EQ(batch_results.size(), seq_results.size());
  EXPECT_EQ(batched.size(), sequential.size());
  for (std::size_t s = 0; s < batched.shard_count(); ++s) {
    EXPECT_EQ(batched.shard(s).size(), sequential.shard(s).size());
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(batch_results[i].ok, seq_results[i].ok);
    EXPECT_EQ(batch_results[i].slot_reads, seq_results[i].slot_reads);
    EXPECT_EQ(batch_results[i].store_writes, seq_results[i].store_writes);
  }
}

TEST_F(ShardedTest, QueryBatchMatchesPerItemQueries) {
  ShardedFastIndex index(small_config(), *pca_, 4, 2);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 24; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  index.insert_batch(items);

  std::vector<const img::Image*> queries;
  for (std::size_t i = 0; i < 8; ++i) {
    queries.push_back(&dataset_->photos[i].image);
  }
  const auto batch = index.query_batch(queries, 5);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ShardedQueryResult single = index.query(*queries[i], 5);
    ASSERT_EQ(batch[i].hits.size(), single.hits.size());
    EXPECT_EQ(batch[i].cost.elapsed_s(), single.cost.elapsed_s());
    EXPECT_EQ(batch[i].candidates, single.candidates);
    for (std::size_t h = 0; h < single.hits.size(); ++h) {
      EXPECT_EQ(batch[i].hits[h].id, single.hits[h].id);
      EXPECT_DOUBLE_EQ(batch[i].hits[h].score, single.hits[h].score);
    }
  }
}

// ---------- Bloofi-style shard routing ----------

hash::SparseSignature random_signature(std::uint64_t seed,
                                       std::size_t bloom_bits) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < 96; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(bloom_bits / 97));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(bits, bloom_bits);
}

FastConfig routed_config() {
  FastConfig cfg;
  cfg.cuckoo.capacity = 256;
  cfg.shard_routing_bits = 12;
  return cfg;
}

// Routing summaries have no false negatives, so a routed deployment must
// return bit-identical results to its routing-off twin — while actually
// skipping shards (counted in shard.routing_skips) for queries whose keys
// are resident on few of them.
TEST_F(ShardedTest, RoutingSkipsShardsWithIdenticalResults) {
  ShardedFastIndex routed(routed_config(), *pca_, 16, 2);
  ShardedFastIndex full(small_config(), *pca_, 16, 2);
  ASSERT_TRUE(routed.routing_enabled());
  ASSERT_FALSE(full.routing_enabled());

  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 24; ++i) {
    sigs.push_back(full.shard(0).summarize(dataset_->photos[i].image));
    routed.insert_signature(i, sigs.back());
    full.insert_signature(i, sigs.back());
  }

  // Resident queries: identical ranked results, hit by hit.
  for (std::size_t i = 0; i < 24; ++i) {
    const QueryResult a = routed.query_signature(sigs[i], 5);
    const QueryResult b = full.query_signature(sigs[i], 5);
    ASSERT_EQ(a.hits.size(), b.hits.size()) << i;
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id) << i;
      EXPECT_DOUBLE_EQ(a.hits[h].score, b.hits[h].score) << i;
    }
  }
  // Foreign queries share no bucket keys with the 24 residents, so routing
  // must skip (nearly) every shard on them.
  for (std::uint64_t q = 0; q < 8; ++q) {
    const auto sig = random_signature(q, routed_config().bloom_bits);
    const QueryResult a = routed.query_signature(sig, 5);
    const QueryResult b = full.query_signature(sig, 5);
    ASSERT_EQ(a.hits.size(), b.hits.size()) << q;
  }
  const auto m = routed.metrics().snapshot();
  EXPECT_GT(m.counters.at("shard.routing_skips"), 0u);
  const auto& probed = m.histograms.at("sharded.shards_probed");
  EXPECT_EQ(probed.count, 32u);  // every query observed
  EXPECT_LT(probed.sum, 32.0 * 16.0);  // ...and not all of them scattered wide
  // The routing-off twin never skips and always probes all 16.
  const auto mf = full.metrics().snapshot();
  EXPECT_EQ(mf.counters.at("shard.routing_skips"), 0u);
  EXPECT_EQ(mf.histograms.at("sharded.shards_probed").sum, 32.0 * 16.0);
}

// Erase must decrement the counting summaries: once every resident of a
// signature is gone, queries for it stop probing any shard, and re-inserts
// bring the routes back.
TEST_F(ShardedTest, RoutingEraseAndReinsertMaintainSummaries) {
  ShardedFastIndex routed(routed_config(), *pca_, 8, 2);
  ShardedFastIndex full(small_config(), *pca_, 8, 2);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 16; ++i) {
    sigs.push_back(full.shard(0).summarize(dataset_->photos[i].image));
    routed.insert_signature(i, sigs.back());
    full.insert_signature(i, sigs.back());
  }
  for (std::size_t i = 0; i < 16; i += 2) {
    EXPECT_TRUE(routed.erase(i));
    EXPECT_TRUE(full.erase(i));
  }
  EXPECT_FALSE(routed.erase(99));
  for (std::size_t i = 0; i < 16; ++i) {
    const QueryResult a = routed.query_signature(sigs[i], 5);
    const QueryResult b = full.query_signature(sigs[i], 5);
    ASSERT_EQ(a.hits.size(), b.hits.size()) << i;
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id) << i;
      EXPECT_DOUBLE_EQ(a.hits[h].score, b.hits[h].score) << i;
    }
  }
  // Re-insert with a DIFFERENT signature: the summary must drop the old
  // keys (no stale routes) and carry the new ones.
  routed.insert_signature(2, sigs[15]);
  full.insert_signature(2, sigs[15]);
  const QueryResult a = routed.query_signature(sigs[15], 8);
  const QueryResult b = full.query_signature(sigs[15], 8);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t h = 0; h < a.hits.size(); ++h) {
    EXPECT_EQ(a.hits[h].id, b.hits[h].id);
  }
}

// Summaries are derived state rebuilt on recovery — a recovered routed
// deployment answers exactly like its pre-crash self and still skips.
TEST_F(ShardedTest, RoutingSummariesRebuiltOnRecovery) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fast_sharded_routing")
          .string();
  std::filesystem::remove_all(dir);
  DurabilityOptions opts;
  opts.dir = dir;

  ShardedFastIndex reference(routed_config(), *pca_, 8, 2);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 16; ++i) {
    sigs.push_back(reference.shard(0).summarize(dataset_->photos[i].image));
  }
  {
    auto opened =
        ShardedFastIndex::open_or_recover(routed_config(), *pca_, 8, opts);
    ASSERT_TRUE(opened.ok());
    for (std::size_t i = 0; i < 16; ++i) {
      opened.value()->insert_signature(i, sigs[i]);
      reference.insert_signature(i, sigs[i]);
    }
    opened.value()->erase(3);
    reference.erase(3);
  }
  auto recovered =
      ShardedFastIndex::open_or_recover(routed_config(), *pca_, 8, opts);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered.value()->routing_enabled());
  EXPECT_EQ(recovered.value()->size(), reference.size());
  for (std::size_t i = 0; i < 16; ++i) {
    const QueryResult a = recovered.value()->query_signature(sigs[i], 5);
    const QueryResult b = reference.query_signature(sigs[i], 5);
    ASSERT_EQ(a.hits.size(), b.hits.size()) << i;
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id) << i;
      EXPECT_DOUBLE_EQ(a.hits[h].score, b.hits[h].score) << i;
    }
  }
  std::filesystem::remove_all(dir);
}

// Routing over tiered shards: live-signature enumeration spans memtables
// and sealed segments, and erase consults the tiered lookup path.
TEST_F(ShardedTest, RoutingWorksOnTieredShards) {
  FastConfig cfg = routed_config();
  cfg.tier.enabled = true;
  cfg.tier.seal_threshold = 4;
  cfg.tier.background = false;
  FastConfig cfg_off = cfg;
  cfg_off.shard_routing_bits = 0;
  ShardedFastIndex routed(cfg, *pca_, 4, 2);
  ShardedFastIndex full(cfg_off, *pca_, 4, 2);
  ASSERT_NE(dynamic_cast<const TieredIndex*>(&routed.shard(0)), nullptr);

  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 20; ++i) {
    sigs.push_back(routed.shard(0).summarize(dataset_->photos[i].image));
    routed.insert_signature(i, sigs.back());
    full.insert_signature(i, sigs.back());
  }
  routed.erase(7);
  full.erase(7);
  for (std::size_t i = 0; i < 20; ++i) {
    const QueryResult a = routed.query_signature(sigs[i], 5);
    const QueryResult b = full.query_signature(sigs[i], 5);
    ASSERT_EQ(a.hits.size(), b.hits.size()) << i;
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id) << i;
      EXPECT_DOUBLE_EQ(a.hits[h].score, b.hits[h].score) << i;
    }
  }
}

// query_batch applies per-query routing: batch results must match the
// per-item routed queries exactly, cost included.
TEST_F(ShardedTest, RoutedQueryBatchMatchesPerItemQueries) {
  ShardedFastIndex index(routed_config(), *pca_, 8, 2);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 24; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  index.insert_batch(items);

  std::vector<const img::Image*> queries;
  for (std::size_t i = 0; i < 8; ++i) {
    queries.push_back(&dataset_->photos[i].image);
  }
  const auto batch = index.query_batch(queries, 5);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ShardedQueryResult single = index.query(*queries[i], 5);
    ASSERT_EQ(batch[i].hits.size(), single.hits.size());
    EXPECT_EQ(batch[i].cost.elapsed_s(), single.cost.elapsed_s());
    EXPECT_EQ(batch[i].candidates, single.candidates);
    for (std::size_t h = 0; h < single.hits.size(); ++h) {
      EXPECT_EQ(batch[i].hits[h].id, single.hits[h].id);
      EXPECT_DOUBLE_EQ(batch[i].hits[h].score, single.hits[h].score);
    }
  }
}

}  // namespace
}  // namespace fast::core
