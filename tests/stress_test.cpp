// Concurrency stress tests, built to run under TSan: a mixed
// insert/query/erase/batch workload hammers one FastIndex from many
// threads at once, and ShardedFastIndex serves concurrent scatter-gather
// queries between (single-writer) batch-ingest phases. Invariants checked
// throughout: no crashes/races, scores stay in [0, 1], acknowledged inserts
// remain retrievable, and the metrics registry's counts add up.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/sharded_index.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {
namespace {

class StressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new workload::Dataset(test::small_dataset(32));
    pca_ = new vision::PcaModel(test::fake_pca());
    FastIndex helper(small_config(), *pca_);
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
  static FastConfig small_config() {
    FastConfig cfg;
    cfg.cuckoo.capacity = 512;
    return cfg;
  }
  static workload::Dataset* dataset_;
  static vision::PcaModel* pca_;
  static std::vector<hash::SparseSignature>* sigs_;
};

workload::Dataset* StressTest::dataset_ = nullptr;
vision::PcaModel* StressTest::pca_ = nullptr;
std::vector<hash::SparseSignature>* StressTest::sigs_ = nullptr;

// The headline stress: one per-item writer (insert/erase), one batch writer
// (insert_batch), readers mixing query_signature, query_batch and size()
// probes, all racing on one FastIndex (batch FE+SM on a shared pool).
TEST_F(StressTest, MixedInsertQueryEraseBatchRace) {
  util::ThreadPool pool(2);
  FastIndex index(small_config(), *pca_);
  const std::size_t n = sigs_->size();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> violations{0};

  // Writer A: per-item inserts and erases over a rolling id window.
  std::thread item_writer([&] {
    for (std::size_t round = 0; round < 8; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        index.insert_signature(1000 + round * n + i, (*sigs_)[i]);
      }
      for (std::size_t i = 0; i < n / 2; ++i) {
        index.erase(1000 + round * n + i);
      }
    }
  });

  // Writer B: batch ingests under a disjoint id range (ids >= 100000).
  std::thread batch_writer([&] {
    std::vector<BatchImage> items;
    for (std::size_t i = 0; i < 12; ++i) {
      items.push_back(BatchImage{0, &dataset_->photos[i].image});
    }
    for (std::size_t round = 0; round < 6; ++round) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        items[i].id = 100000 + round * items.size() + i;
      }
      const auto results = index.insert_batch(items, &pool);
      if (results.size() != items.size()) ++violations;
    }
  });

  // Readers: single queries, batch queries, and size() probes.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::size_t qi = static_cast<std::size_t>(r);
      std::vector<const img::Image*> batch{&dataset_->photos[0].image,
                                           &dataset_->photos[1].image};
      while (!stop) {
        const QueryResult res = index.query_signature((*sigs_)[qi % n], 5);
        for (const auto& hit : res.hits) {
          if (hit.score < 0.0 || hit.score > 1.0) ++violations;
        }
        if (qi % 7 == 0) {
          const auto results = index.query_batch(batch, 3, &pool);
          if (results.size() != batch.size()) ++violations;
        }
        if (qi % 11 == 0) (void)index.size();
        ++qi;
        // Brief off-lock pause so readers never starve the writers of the
        // exclusive lock (shared_mutex makes no fairness promise, and the
        // TSan job magnifies reader critical sections ~10x).
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  item_writer.join();
  batch_writer.join();
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  // Writer A leaves n/2 ids per round; writer B lands 6 batches of 12.
  EXPECT_EQ(index.size(), 8 * (n - n / 2) + 6 * 12);
  // Ids the writers left in place are still retrievable.
  for (std::size_t i = n / 2; i < n; ++i) {
    const QueryResult res = index.query_signature((*sigs_)[i], 1);
    ASSERT_FALSE(res.hits.empty());
    EXPECT_DOUBLE_EQ(res.hits.front().score, 1.0);
  }
  // The shared registry counted every acknowledged mutation.
  const util::MetricsSnapshot snap = index.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("index.inserts"), 8 * n + 6 * 12);
  EXPECT_EQ(snap.counters.at("index.erases"), 8 * (n / 2));
  EXPECT_GE(snap.counters.at("index.reader_locks"), 1u);
}

// Re-inserting the same ids from many threads must never duplicate
// membership or leak stale signatures (exercises the erase-then-insert
// re-insert path under contention).
TEST_F(StressTest, ConcurrentReinsertsConverge) {
  FastIndex index(small_config(), *pca_);
  const std::size_t n = 8;
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t round = 0; round < 25; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
          // Every thread keeps re-inserting the SAME id set, rotating which
          // signature each id maps to.
          index.insert_signature(i, (*sigs_)[(i + round + t) % sigs_->size()]);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(index.size(), n);
  // An id legitimately belongs to one group per aggregator table, but must
  // never appear twice within the same group (the duplicate-membership
  // re-insert bug).
  for (std::size_t g = 0; g < index.group_count(); ++g) {
    const auto members = index.group_members(g);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t appearances = static_cast<std::size_t>(
          std::count(members.begin(), members.end(), i));
      EXPECT_LE(appearances, 1u) << "id " << i << " in group " << g;
    }
  }
}

// ShardedFastIndex writers are not internally synchronized, so ingest runs
// in single-writer phases; between them, many threads issue scatter-gather
// queries concurrently (the shared native pool takes submissions from all
// of them at once).
TEST_F(StressTest, ShardedConcurrentQueriesBetweenBatchPhases) {
  ShardedFastIndex index(small_config(), *pca_, 4, 2);
  const std::size_t n = sigs_->size();

  for (std::size_t round = 0; round < 3; ++round) {
    // Single-writer ingest phase.
    std::vector<BatchImage> items;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(BatchImage{round * n + i, &dataset_->photos[i].image});
    }
    const auto results = index.insert_batch(items);
    ASSERT_EQ(results.size(), items.size());

    // Concurrent read phase: every thread fires scatter-gather queries.
    std::atomic<std::size_t> violations{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&, r] {
        for (std::size_t q = 0; q < 20; ++q) {
          const std::size_t qi = (static_cast<std::size_t>(r) + q) % n;
          const QueryResult res = index.query_signature((*sigs_)[qi], 3);
          if (res.hits.empty()) ++violations;
          for (const auto& hit : res.hits) {
            if (hit.score < 0.0 || hit.score > 1.0) ++violations;
            if (hit.id % n >= n) ++violations;
          }
        }
      });
    }
    for (auto& t : readers) t.join();
    EXPECT_EQ(violations.load(), 0u) << "round " << round;
    EXPECT_EQ(index.size(), (round + 1) * n);
  }

  const util::MetricsSnapshot snap = index.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("sharded.queries"), 3u * 4u * 20u);
  EXPECT_EQ(snap.counters.at("sharded.inserts"), 3u * n);
  // Every query scattered to all four shards; every ingested item cost one
  // routing message to its owner shard.
  EXPECT_EQ(snap.counters.at("sharded.scatter_msgs"),
            snap.counters.at("sharded.queries") * index.shard_count() + 3u * n);
}

}  // namespace
}  // namespace fast::core
