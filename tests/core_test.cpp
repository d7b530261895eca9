#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/query_engine.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "workload/query_gen.hpp"

namespace fast::core {
namespace {

class FastIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new workload::Dataset(test::small_dataset(40));
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

workload::Dataset* FastIndexTest::dataset_ = nullptr;
vision::PcaModel* FastIndexTest::pca_ = nullptr;

TEST_F(FastIndexTest, SummarizeIsDeterministic) {
  FastIndex index(small_config(), *pca_);
  const auto s1 = index.summarize(dataset_->photos[0].image);
  const auto s2 = index.summarize(dataset_->photos[0].image);
  EXPECT_EQ(s1.set_bits(), s2.set_bits());
  EXPECT_GT(s1.popcount(), 0u);
}

TEST_F(FastIndexTest, DistinctImagesDistinctSignatures) {
  FastIndex index(small_config(), *pca_);
  const auto s1 = index.summarize(dataset_->photos[0].image);
  const auto s2 = index.summarize(dataset_->photos[1].image);
  EXPECT_LT(hash::SparseSignature::jaccard(s1, s2), 0.999);
}

TEST_F(FastIndexTest, InsertThenSignatureRetrievable) {
  FastIndex index(small_config(), *pca_);
  const auto sig = index.summarize(dataset_->photos[3].image);
  const InsertResult r = index.insert_signature(3, sig);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(index.size(), 1u);
  ASSERT_TRUE(index.signature_of(3).has_value());
  EXPECT_EQ(index.signature_of(3)->set_bits(), sig.set_bits());
  EXPECT_FALSE(index.signature_of(99).has_value());
}

TEST_F(FastIndexTest, InsertedImageIsItsOwnTopHit) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 20; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
  }
  for (std::size_t i = 0; i < 20; ++i) index.insert_signature(i, sigs[i]);
  for (std::size_t i = 0; i < 20; ++i) {
    const QueryResult r = index.query_signature(sigs[i], 1);
    ASSERT_FALSE(r.hits.empty()) << "image " << i;
    // A perfect-score tie between identical signatures is legal; the top
    // hit must then carry a signature identical to the query's.
    EXPECT_DOUBLE_EQ(r.hits.front().score, 1.0);
    const auto top_sig = index.signature_of(r.hits.front().id);
    ASSERT_TRUE(top_sig.has_value());
    EXPECT_EQ(top_sig->set_bits(), sigs[i].set_bits());
  }
}

TEST_F(FastIndexTest, QueryCostsAccounted) {
  FastIndex index(small_config(), *pca_);
  const auto sig = index.summarize(dataset_->photos[0].image);
  index.insert_signature(0, sig);
  const QueryResult r = index.query_signature(sig, 3);
  EXPECT_GT(r.bucket_probes, 0u);
  EXPECT_GT(r.cost.elapsed_s(), 0.0);
  EXPECT_FALSE(r.parallel_tasks.empty());
}

TEST_F(FastIndexTest, FullImageQueryChargesFeatureExtraction) {
  FastIndex index(small_config(), *pca_);
  index.insert(0, dataset_->photos[0].image);
  const QueryResult r = index.query(dataset_->photos[0].image, 1);
  EXPECT_GE(r.cost.elapsed_s(), index.config().feature_extract_s);
  ASSERT_FALSE(r.hits.empty());
  EXPECT_EQ(r.hits.front().id, 0u);
}

TEST_F(FastIndexTest, NearDuplicateRetrieved) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < dataset_->photos.size(); ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
  }
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    index.insert_signature(i, sigs[i]);
  }
  const auto queries = workload::make_dup_queries(*dataset_, 8);
  std::size_t found = 0;
  for (const auto& q : queries) {
    const QueryResult r = index.query(q.image, 5);
    for (const auto& h : r.hits) {
      if (h.id == q.source) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(found, 6u);  // >= 75% of sources in top-5
}

TEST_F(FastIndexTest, CandidateNarrowing) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < dataset_->photos.size(); ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  const auto queries = workload::make_dup_queries(*dataset_, 8);
  double mean_candidates = 0;
  for (const auto& q : queries) {
    mean_candidates +=
        static_cast<double>(index.query(q.image, 5).candidates);
  }
  mean_candidates /= 8;
  // The whole point of SA + CHS: the candidate set is a fraction of the
  // corpus, not the corpus.
  EXPECT_LT(mean_candidates, 0.8 * static_cast<double>(index.size()));
}

TEST_F(FastIndexTest, GroupsAggregateAcrossTables) {
  FastIndex index(small_config(), *pca_);
  const auto sig = index.summarize(dataset_->photos[0].image);
  index.insert_signature(0, sig);
  // One group per table for the first insert.
  EXPECT_EQ(index.group_count(), index.config().minhash.bands);
}

TEST_F(FastIndexTest, CuckooGrowthKeepsAllKeys) {
  FastConfig cfg = small_config();
  cfg.cuckoo.capacity = 16;  // forces several growth cycles
  FastIndex index(cfg, *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 30; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  for (std::size_t i = 0; i < 30; ++i) {
    const QueryResult r = index.query_signature(sigs[i], 1);
    ASSERT_FALSE(r.hits.empty());
    EXPECT_DOUBLE_EQ(r.hits.front().score, 1.0);
    const auto top_sig = index.signature_of(r.hits.front().id);
    ASSERT_TRUE(top_sig.has_value());
    EXPECT_EQ(top_sig->set_bits(), sigs[i].set_bits());
  }
}

TEST_F(FastIndexTest, PStableBackendAlsoRetrieves) {
  FastConfig cfg = small_config();
  cfg.sa_backend = FastConfig::SaBackend::kPStable;
  cfg.calibrate_target = 0.25;
  FastIndex index(cfg, *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 25; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
  }
  const auto queries = workload::make_dup_queries(*dataset_, 6, 0xca1);
  std::vector<hash::SparseSignature> qsigs;
  for (const auto& q : queries) qsigs.push_back(index.summarize(q.image));
  index.calibrate_scale(qsigs, sigs);
  EXPECT_NE(index.config().lsh_input_scale, 1.0);
  for (std::size_t i = 0; i < 25; ++i) index.insert_signature(i, sigs[i]);
  // Exact re-query must hit: identical vectors collide in every table.
  const QueryResult r = index.query_signature(sigs[7], 1);
  ASSERT_FALSE(r.hits.empty());
  EXPECT_DOUBLE_EQ(r.hits.front().score, 1.0);
  const auto top_sig = index.signature_of(r.hits.front().id);
  ASSERT_TRUE(top_sig.has_value());
  EXPECT_EQ(top_sig->set_bits(), sigs[7].set_bits());
}

TEST_F(FastIndexTest, CalibrateScaleParallelMatchesSequential) {
  // The pooled O(queries * corpus) NN sweep must land on the exact same
  // input scale as the sequential path.
  FastConfig cfg = small_config();
  cfg.sa_backend = FastConfig::SaBackend::kPStable;
  FastIndex seq(cfg, *pca_);
  FastIndex par(cfg, *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 25; ++i) {
    sigs.push_back(seq.summarize(dataset_->photos[i].image));
  }
  const auto queries = workload::make_dup_queries(*dataset_, 6, 0xca1);
  std::vector<hash::SparseSignature> qsigs;
  for (const auto& q : queries) qsigs.push_back(seq.summarize(q.image));
  seq.calibrate_scale(qsigs, sigs);
  util::ThreadPool pool(4);
  par.calibrate_scale(qsigs, sigs, &pool);
  EXPECT_NE(seq.config().lsh_input_scale, 1.0);
  EXPECT_DOUBLE_EQ(par.config().lsh_input_scale,
                   seq.config().lsh_input_scale);
}

TEST_F(FastIndexTest, SaKeysWallHistogramTracksRealKernelTime) {
  // sa.keys_wall_s measures the native sparse-kernel latency — one sample
  // per key derivation (insert, query, erase) — while sa.insert_hash_ops
  // keeps charging the paper's dense flop model to the simulated platform.
  FastIndex index(small_config(), *pca_);
  const auto sig_a = index.summarize(dataset_->photos[0].image);
  const auto sig_b = index.summarize(dataset_->photos[1].image);
  index.insert_signature(0, sig_a);
  index.insert_signature(1, sig_b);
  index.query_signature(sig_a, 1);
  index.erase(1);
  const util::MetricsSnapshot snap = index.metrics().snapshot();
  EXPECT_EQ(snap.histograms.at("sa.keys_wall_s").count, 4u);
  EXPECT_GE(snap.histograms.at("sa.keys_wall_s").sum, 0.0);
  EXPECT_GT(snap.counters.at("sa.insert_hash_ops"), 0u);
}

TEST_F(FastIndexTest, IndexBytesGrowWithCorpus) {
  FastIndex index(small_config(), *pca_);
  const std::size_t empty_bytes = index.index_bytes();
  for (std::size_t i = 0; i < 10; ++i) {
    index.insert_signature(i, index.summarize(dataset_->photos[i].image));
  }
  EXPECT_GT(index.index_bytes(), empty_bytes);
}

TEST_F(FastIndexTest, SignatureStorageIsCompact) {
  FastIndex index(small_config(), *pca_);
  const auto sig = index.summarize(dataset_->photos[0].image);
  // The sparse signature must be a small fraction of the dense bit-vector,
  // and orders of magnitude below raw feature storage (~65 KB for SIFT).
  EXPECT_LT(sig.storage_bytes(), index.config().bloom_bits / 8 * 4);
  EXPECT_LT(sig.storage_bytes(), 16 * 1024u);
}

TEST_F(FastIndexTest, EmptyImageYieldsEmptySignatureAndNoCrash) {
  FastIndex index(small_config(), *pca_);
  img::Image flat(64, 64, 0.5f);
  const auto sig = index.summarize(flat);
  EXPECT_EQ(sig.popcount(), 0u);
  index.insert_signature(77, sig);
  const QueryResult r = index.query_signature(sig, 3);
  // The empty signature matches itself deterministically.
  ASSERT_FALSE(r.hits.empty());
  EXPECT_EQ(r.hits.front().id, 77u);
}

// ---------- erase ----------

TEST_F(FastIndexTest, EraseRemovesFromQueryResults) {
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
  for (const auto& hit : r.hits) EXPECT_NE(hit.id, 5u);
  // Unknown ids (and double-erase) are rejected.
  EXPECT_FALSE(index.erase(5));
  EXPECT_FALSE(index.erase(999));
}

TEST_F(FastIndexTest, EraseThenReinsertSameIdRoundtrips) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 10; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  ASSERT_TRUE(index.erase(4));
  index.insert_signature(4, sigs[4]);
  EXPECT_EQ(index.size(), 10u);
  const QueryResult r = index.query_signature(sigs[4], 1);
  ASSERT_FALSE(r.hits.empty());
  EXPECT_DOUBLE_EQ(r.hits.front().score, 1.0);
  const auto top_sig = index.signature_of(r.hits.front().id);
  ASSERT_TRUE(top_sig.has_value());
  EXPECT_EQ(top_sig->set_bits(), sigs[4].set_bits());
}

// Regression: re-inserting a live id used to append it to its groups'
// membership lists again (duplicate candidates) while keeping the stale
// signature. Re-insert is erase-then-insert: the id appears at most once
// per group and queries rank against the fresh signature.
TEST_F(FastIndexTest, ReinsertWithoutEraseReplacesSignature) {
  FastIndex index(small_config(), *pca_);
  const auto old_sig = index.summarize(dataset_->photos[0].image);
  const auto new_sig = index.summarize(dataset_->photos[1].image);
  index.insert_signature(7, old_sig);
  index.insert_signature(7, new_sig);  // no erase in between

  EXPECT_EQ(index.size(), 1u);
  const auto stored = index.signature_of(7);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->set_bits(), new_sig.set_bits());

  // Queries score against the fresh signature: its own query is an exact
  // match, the stale signature's no longer is.
  const QueryResult fresh = index.query_signature(new_sig, 1);
  ASSERT_FALSE(fresh.hits.empty());
  EXPECT_EQ(fresh.hits.front().id, 7u);
  EXPECT_DOUBLE_EQ(fresh.hits.front().score, 1.0);
  const QueryResult stale = index.query_signature(old_sig, 1);
  if (!stale.hits.empty()) {
    EXPECT_LT(stale.hits.front().score, 1.0);
  }
}

TEST_F(FastIndexTest, ReinsertDoesNotDuplicateGroupMembership) {
  FastIndex index(small_config(), *pca_);
  const auto sig = index.summarize(dataset_->photos[2].image);
  index.insert_signature(3, sig);
  index.insert_signature(3, sig);
  index.insert_signature(3, sig);

  EXPECT_EQ(index.size(), 1u);
  for (std::size_t g = 0; g < index.group_count(); ++g) {
    std::size_t appearances = 0;
    for (std::uint64_t member : index.group_members(g)) {
      if (member == 3) ++appearances;
    }
    EXPECT_LE(appearances, 1u) << "group " << g;
  }
  // The id must still be retrievable and erasable exactly once.
  const QueryResult r = index.query_signature(sig, 1);
  ASSERT_FALSE(r.hits.empty());
  EXPECT_EQ(r.hits.front().id, 3u);
  EXPECT_TRUE(index.erase(3));
  EXPECT_FALSE(index.erase(3));
  EXPECT_EQ(index.size(), 0u);
}

TEST_F(FastIndexTest, SaveLoadAfterErasePreservesStateAndAnswers) {
  // Snapshot a durable index after erases, then load it back through
  // recovery: erased ids stay gone and every answer is unchanged.
  DurabilityOptions opts;
  opts.dir = ::testing::TempDir() + "fast_index_erase_roundtrip_" +
             std::to_string(::getpid());
  std::filesystem::remove_all(opts.dir);
  auto opened = FastIndex::open_or_recover(small_config(), *pca_, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  FastIndex index = std::move(opened).value();
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 12; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  ASSERT_TRUE(index.erase(2));
  ASSERT_TRUE(index.erase(7));
  ASSERT_TRUE(index.save_snapshot().ok());

  RecoveryStats stats;
  auto reopened =
      FastIndex::open_or_recover(small_config(), *pca_, opts, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
  const FastIndex& loaded = reopened.value();
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_FALSE(loaded.signature_of(2).has_value());
  EXPECT_FALSE(loaded.signature_of(7).has_value());
  for (std::size_t i = 0; i < 12; ++i) {
    const QueryResult before = index.query_signature(sigs[i], 3);
    const QueryResult after = loaded.query_signature(sigs[i], 3);
    ASSERT_EQ(before.hits.size(), after.hits.size()) << "query " << i;
    for (std::size_t h = 0; h < before.hits.size(); ++h) {
      EXPECT_EQ(before.hits[h].id, after.hits[h].id);
      EXPECT_DOUBLE_EQ(before.hits[h].score, after.hits[h].score);
    }
  }
  std::filesystem::remove_all(opts.dir);
}

// ---------- QueryEngine ----------

TEST_F(FastIndexTest, BatchReportShapes) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 15; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  QueryEngine engine(index, 2);
  BatchOptions opts;
  opts.top_k = 3;
  const BatchReport report = engine.run_batch(sigs, opts);
  ASSERT_EQ(report.results.size(), sigs.size());
  EXPECT_GT(report.sim_mean_latency_s, 0.0);
  EXPECT_GE(report.sim_makespan_s, report.sim_mean_latency_s * 0.99);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    ASSERT_FALSE(report.results[i].hits.empty());
    EXPECT_DOUBLE_EQ(report.results[i].hits.front().score, 1.0);
  }
}

TEST_F(FastIndexTest, FewSlotsQueueLatency) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 10; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  QueryEngine engine(index, 2);
  BatchOptions one_slot;
  one_slot.sim_slots = 1;
  BatchOptions many_slots;
  many_slots.sim_slots = 64;
  const double queued = engine.run_batch(sigs, one_slot).sim_mean_latency_s;
  const double parallel =
      engine.run_batch(sigs, many_slots).sim_mean_latency_s;
  EXPECT_GT(queued, parallel);
}

TEST_F(FastIndexTest, MulticoreLatencyDecreasesWithCores) {
  FastIndex index(small_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (std::size_t i = 0; i < 20; ++i) {
    sigs.push_back(index.summarize(dataset_->photos[i].image));
    index.insert_signature(i, sigs.back());
  }
  const QueryResult r = index.query(dataset_->photos[0].image, 5);
  double prev = QueryEngine::simulated_query_latency(r, 1);
  for (std::size_t cores : {2, 4, 8, 16, 32}) {
    const double lat = QueryEngine::simulated_query_latency(r, cores);
    EXPECT_LE(lat, prev + 1e-12) << cores << " cores";
    prev = lat;
  }
  // Near-linear at small core counts: 4 cores at least 2.5x faster than 1.
  EXPECT_GT(QueryEngine::simulated_query_latency(r, 1) /
                QueryEngine::simulated_query_latency(r, 4),
            2.5);
}

}  // namespace
}  // namespace fast::core
