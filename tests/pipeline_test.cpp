// Batch-first execution path and stage composition: insert_batch /
// query_batch must be indistinguishable from sequential per-item calls
// (identical final index state, hits, scores, and reported work), and
// the stage-injection constructor must compose caller-provided backends.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/pipeline/factory.hpp"
#include "hash/group_stores.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new workload::Dataset(test::small_dataset(32));
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
  static std::vector<BatchImage> batch_of(std::size_t n) {
    std::vector<BatchImage> items;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(BatchImage{i, &dataset_->photos[i].image});
    }
    return items;
  }
  static workload::Dataset* dataset_;
  static vision::PcaModel* pca_;
};

workload::Dataset* PipelineTest::dataset_ = nullptr;
vision::PcaModel* PipelineTest::pca_ = nullptr;

TEST_F(PipelineTest, InsertBatchMatchesSequentialInserts) {
  FastIndex sequential(small_config(), *pca_);
  FastIndex batched(small_config(), *pca_);
  const auto items = batch_of(20);

  std::vector<InsertResult> seq_results;
  for (const auto& item : items) {
    seq_results.push_back(sequential.insert(item.id, *item.image));
  }
  util::ThreadPool pool(4);
  const std::vector<InsertResult> batch_results =
      batched.insert_batch(items, &pool);

  ASSERT_EQ(batch_results.size(), seq_results.size());
  EXPECT_EQ(batched.size(), sequential.size());
  EXPECT_EQ(batched.group_count(), sequential.group_count());
  EXPECT_EQ(batched.rehash_count(), sequential.rehash_count());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(batch_results[i].ok, seq_results[i].ok);
    EXPECT_EQ(batch_results[i].rehashes, seq_results[i].rehashes);
    EXPECT_EQ(batch_results[i].slot_reads, seq_results[i].slot_reads);
    EXPECT_EQ(batch_results[i].store_writes, seq_results[i].store_writes);
  }
  // The resulting indexes answer identically.
  for (const auto& item : items) {
    const QueryResult a = sequential.query(*item.image, 5);
    const QueryResult b = batched.query(*item.image, 5);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id);
      EXPECT_DOUBLE_EQ(a.hits[h].score, b.hits[h].score);
    }
  }
}

TEST_F(PipelineTest, InsertBatchWithoutPoolIsEquivalent) {
  FastIndex with_pool(small_config(), *pca_);
  FastIndex without_pool(small_config(), *pca_);
  const auto items = batch_of(10);
  util::ThreadPool pool(2);
  with_pool.insert_batch(items, &pool);
  without_pool.insert_batch(items, nullptr);
  EXPECT_EQ(with_pool.size(), without_pool.size());
  EXPECT_EQ(with_pool.group_count(), without_pool.group_count());
}

TEST_F(PipelineTest, QueryBatchMatchesIndividualQueries) {
  FastIndex index(small_config(), *pca_);
  const auto items = batch_of(16);
  index.insert_batch(items);

  std::vector<const img::Image*> queries;
  for (std::size_t i = 0; i < 8; ++i) {
    queries.push_back(&dataset_->photos[i].image);
  }
  util::ThreadPool pool(4);
  const std::vector<QueryResult> batch = index.query_batch(queries, 3, &pool);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult single = index.query(*queries[i], 3);
    ASSERT_EQ(batch[i].hits.size(), single.hits.size());
    EXPECT_EQ(batch[i].candidates, single.candidates);
    EXPECT_EQ(batch[i].table_slot_reads, single.table_slot_reads);
    for (std::size_t h = 0; h < single.hits.size(); ++h) {
      EXPECT_EQ(batch[i].hits[h].id, single.hits[h].id);
      EXPECT_DOUBLE_EQ(batch[i].hits[h].score, single.hits[h].score);
    }
  }
}

TEST_F(PipelineTest, StageInjectionComposesCustomBackends) {
  // Hand the index explicit stages — the config-driven factory is bypassed,
  // so a chained store rides behind a MinHash aggregator even though the
  // config says flat cuckoo.
  FastConfig cfg = small_config();
  auto summarizer = pipeline::make_summarizer(cfg, *pca_);
  auto aggregator = pipeline::make_aggregator(cfg);
  auto store = std::make_unique<hash::ChainedGroupStore>(
      cfg.chained_buckets, cfg.cuckoo.seed, aggregator->table_count());
  FastIndex injected(cfg, std::move(summarizer), std::move(aggregator),
                     std::move(store));
  FastIndex stock(cfg, *pca_);

  const auto items = batch_of(12);
  injected.insert_batch(items);
  stock.insert_batch(items);
  EXPECT_EQ(injected.size(), stock.size());
  // Same aggregation keys + same group-assignment order => same answers,
  // independent of the storage backend.
  for (const auto& item : items) {
    const QueryResult a = injected.query(*item.image, 3);
    const QueryResult b = stock.query(*item.image, 3);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id);
      EXPECT_DOUBLE_EQ(a.hits[h].score, b.hits[h].score);
    }
  }
}

TEST_F(PipelineTest, ChainedBackendSupportsEraseAndRehashFreeInserts) {
  FastConfig cfg = small_config();
  cfg.chs_backend = FastConfig::ChsBackend::kChained;
  FastIndex index(cfg, *pca_);
  const auto items = batch_of(16);
  const auto results = index.insert_batch(items);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.rehashes, 0u);  // chains never displace
  }
  EXPECT_EQ(index.rehash_count(), 0u);

  ASSERT_TRUE(index.erase(3));
  EXPECT_EQ(index.size(), 15u);
  const QueryResult r = index.query(*items[3].image, 5);
  for (const auto& hit : r.hits) EXPECT_NE(hit.id, 3u);
}

}  // namespace
}  // namespace fast::core
