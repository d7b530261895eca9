// Concurrency tests: queries racing inserts/erases on one FastIndex (whose
// single-writer lock is the Backend contract's synchronization) must never
// crash, lose acknowledged inserts, or return ids that were never inserted.
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "core/query_engine.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {
namespace {

class ConcurrentTest : public ::testing::Test {
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
  static workload::Dataset* dataset_;
  static vision::PcaModel* pca_;
};

workload::Dataset* ConcurrentTest::dataset_ = nullptr;
vision::PcaModel* ConcurrentTest::pca_ = nullptr;

// The engine facade over a make_backend() index answers exactly like the
// index called directly.
TEST_F(ConcurrentTest, SerialSemanticsMatchFastIndex) {
  QueryEngine concurrent(make_backend(small_config(), *pca_), 1);
  FastIndex plain(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 16; ++i) {
    sigs.push_back(plain.summarize(dataset_->photos[i].image));
    concurrent.insert_signature(i, sigs.back());
    plain.insert_signature(i, sigs.back());
  }
  EXPECT_EQ(concurrent.size(), plain.size());
  for (std::size_t i = 0; i < 16; ++i) {
    const QueryResult a = concurrent.query_signature(sigs[i], 3);
    const QueryResult b = plain.query_signature(sigs[i], 3);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id);
    }
  }
}

TEST_F(ConcurrentTest, QueriesRaceInsertsWithoutLosses) {
  FastIndex index(small_config(), *pca_);
  // Precompute signatures so worker threads exercise the locked paths hard.
  std::vector<hash::SparseSignature> sigs;
  FastIndex helper(small_config(), *pca_);
  for (const auto& photo : dataset_->photos) {
    sigs.push_back(helper.summarize(photo.image));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad_hits{0};
  const std::size_t n = sigs.size();

  std::thread writer([&] {
    for (std::size_t round = 0; round < 20; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        index.insert_signature(round * n + i, sigs[i]);
      }
      // Erase half of this round's ids again.
      for (std::size_t i = 0; i < n / 2; ++i) {
        index.erase(round * n + i);
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::size_t qi = static_cast<std::size_t>(r);
      while (!stop) {
        const QueryResult res = index.query_signature(sigs[qi % n], 5);
        for (const auto& hit : res.hits) {
          // Any returned id must be one the writer could have inserted.
          if (hit.id % n >= n) ++bad_hits;
          if (hit.score < 0.0 || hit.score > 1.0) ++bad_hits;
        }
        ++qi;
        // Spend a moment off the lock: two readers re-acquiring back to
        // back can starve the writer of the exclusive lock indefinitely
        // under TSan's slowdown (shared_mutex makes no fairness promise).
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_hits.load(), 0u);

  // Every id the writer left in place is still retrievable.
  for (std::size_t i = n / 2; i < n; ++i) {
    const QueryResult res = index.query_signature(sigs[i], 1);
    ASSERT_FALSE(res.hits.empty());
    EXPECT_DOUBLE_EQ(res.hits.front().score, 1.0);
  }
}

TEST_F(ConcurrentTest, ParallelInsertersAllLand) {
  FastIndex index(small_config(), *pca_);
  FastIndex helper(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (const auto& photo : dataset_->photos) {
    sigs.push_back(helper.summarize(photo.image));
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        index.insert_signature(t * 1000 + i, sigs[i]);
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(index.size(), kThreads * sigs.size());
}

void expect_same_work(const InsertResult& a, const InsertResult& b,
                      std::size_t i) {
  EXPECT_EQ(a.ok, b.ok) << i;
  EXPECT_EQ(a.rehashes, b.rehashes) << i;
  EXPECT_EQ(a.slot_reads, b.slot_reads) << i;
  EXPECT_EQ(a.store_writes, b.store_writes) << i;
}

void expect_same_work(const QueryResult& a, const QueryResult& b,
                      std::size_t i) {
  EXPECT_EQ(a.candidates, b.candidates) << i;
  EXPECT_EQ(a.bucket_probes, b.bucket_probes) << i;
  EXPECT_EQ(a.table_slot_reads, b.table_slot_reads) << i;
}

// A frontend that summarizes outside its lock and places the signature
// itself must report exactly the work of the image insert, so both are
// priced alike (core::sim_cost adds the FE + Bloom-hash front end to
// either); the batch and query paths likewise.
TEST_F(ConcurrentTest, InsertCostMatchesPlainIndex) {
  FastIndex split(small_config(), *pca_);
  FastIndex plain(small_config(), *pca_);
  for (std::size_t i = 0; i < 8; ++i) {
    const hash::SparseSignature sig = split.summarize(dataset_->photos[i].image);
    const InsertResult a = split.insert_signature(i, sig);
    const InsertResult b = plain.insert(i, dataset_->photos[i].image);
    expect_same_work(a, b, i);
    EXPECT_GT(a.slot_reads, 0u) << i;
  }
}

TEST_F(ConcurrentTest, InsertBatchCostMatchesPlainIndex) {
  util::ThreadPool pool(2);
  FastIndex concurrent(small_config(), *pca_);
  FastIndex plain(small_config(), *pca_);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 10; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  const auto batch = concurrent.insert_batch(items, &pool);
  ASSERT_EQ(batch.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const InsertResult b = plain.insert(items[i].id, *items[i].image);
    expect_same_work(batch[i], b, i);
  }
}

TEST_F(ConcurrentTest, QueryCostMatchesPlainIndex) {
  FastIndex index(small_config(), *pca_);
  for (std::size_t i = 0; i < 8; ++i) {
    index.insert(i, dataset_->photos[i].image);
  }
  for (std::size_t i = 0; i < 8; ++i) {
    const QueryResult a = index.query_signature(
        index.summarize(dataset_->photos[i].image), 3);
    const QueryResult b = index.query(dataset_->photos[i].image, 3);
    expect_same_work(a, b, i);
  }
}

TEST_F(ConcurrentTest, InsertBatchTakesWriterLockOncePerBatch) {
  util::ThreadPool pool(2);
  FastIndex index(small_config(), *pca_);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 16; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  const std::size_t locks_before = index.writer_lock_count();
  const auto results = index.insert_batch(items, &pool);
  EXPECT_EQ(index.writer_lock_count(), locks_before + 1);
  ASSERT_EQ(results.size(), items.size());
  EXPECT_EQ(index.size(), items.size());

  // The per-image path pays one writer-lock round-trip per insert.
  const std::size_t locks_mid = index.writer_lock_count();
  for (std::size_t i = 16; i < 20; ++i) {
    index.insert(i, dataset_->photos[i].image);
  }
  EXPECT_EQ(index.writer_lock_count(), locks_mid + 4);
}

// erase_batch is the write-side twin of insert_batch: one writer-lock
// acquisition for the whole batch, and the same net effect as a loop of
// single erases.
TEST_F(ConcurrentTest, EraseBatchTakesWriterLockOncePerBatch) {
  util::ThreadPool pool(2);
  FastIndex batched(small_config(), *pca_);
  FastIndex looped(small_config(), *pca_);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 16; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  batched.insert_batch(items, &pool);
  looped.insert_batch(items, &pool);

  std::vector<std::uint64_t> victims = {0, 2, 4, 6, 99, 4};
  const std::size_t locks_before = batched.writer_lock_count();
  const std::size_t erased = batched.erase_batch(victims);
  EXPECT_EQ(batched.writer_lock_count(), locks_before + 1);
  // 99 was never inserted and 4 repeats: four distinct ids went away.
  EXPECT_EQ(erased, 4u);

  // The looped path pays one lock per call but lands on the same state.
  const std::size_t looped_before = looped.writer_lock_count();
  std::size_t looped_erased = 0;
  for (const std::uint64_t id : victims) {
    if (looped.erase(id)) ++looped_erased;
  }
  EXPECT_EQ(looped.writer_lock_count(), looped_before + victims.size());
  EXPECT_EQ(erased, looped_erased);
  EXPECT_EQ(batched.size(), looped.size());

  // The batch path exported its size to the index's registry.
  const auto snapshot = batched.metrics().snapshot();
  const auto it = snapshot.histograms.find("index.erase_batch_size");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_EQ(it->second.count, 1u);
}

TEST_F(ConcurrentTest, BatchMatchesPerImagePath) {
  util::ThreadPool pool(2);
  FastIndex batched(small_config(), *pca_);
  FastIndex sequential(small_config(), *pca_);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 12; ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  batched.insert_batch(items, &pool);
  for (const auto& item : items) sequential.insert(item.id, *item.image);
  EXPECT_EQ(batched.size(), sequential.size());

  std::vector<const img::Image*> queries;
  for (std::size_t i = 0; i < 6; ++i) {
    queries.push_back(&dataset_->photos[i].image);
  }
  const auto batch_results = batched.query_batch(queries, 3, &pool);
  ASSERT_EQ(batch_results.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult single = sequential.query(*queries[i], 3);
    ASSERT_EQ(batch_results[i].hits.size(), single.hits.size());
    for (std::size_t h = 0; h < single.hits.size(); ++h) {
      EXPECT_EQ(batch_results[i].hits[h].id, single.hits[h].id);
      EXPECT_DOUBLE_EQ(batch_results[i].hits[h].score, single.hits[h].score);
    }
  }
}

TEST_F(ConcurrentTest, QueriesRaceBatchInsertsWithoutLosses) {
  util::ThreadPool pool(2);
  FastIndex index(small_config(), *pca_);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < dataset_->photos.size(); ++i) {
    items.push_back(BatchImage{i, &dataset_->photos[i].image});
  }
  FastIndex helper(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (const auto& photo : dataset_->photos) {
    sigs.push_back(helper.summarize(photo.image));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad_hits{0};
  std::thread writer([&] {
    for (std::size_t round = 0; round < 4; ++round) {
      std::vector<BatchImage> batch = items;
      for (auto& item : batch) item.id += round * 1000;
      index.insert_batch(batch, &pool);
    }
    stop = true;
  });
  std::thread reader([&] {
    std::size_t qi = 0;
    while (!stop) {
      const QueryResult res = index.query_signature(sigs[qi % sigs.size()], 5);
      for (const auto& hit : res.hits) {
        if (hit.score < 0.0 || hit.score > 1.0) ++bad_hits;
      }
      ++qi;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(bad_hits.load(), 0u);
  EXPECT_EQ(index.size(), 4 * items.size());
}

}  // namespace
}  // namespace fast::core
