// Cross-module integration tests: the full FE -> SM -> SA -> CHS pipeline
// with a real (trained) PCA eigenspace, baselines running on the same data,
// and the missing-child use case end to end.
#include <gtest/gtest.h>

#include "baseline/pca_sift_baseline.hpp"
#include "baseline/rnpe.hpp"
#include "baseline/sift_baseline.hpp"
#include "core/fast_index.hpp"
#include "core/query_engine.hpp"
#include "core/sim_cost.hpp"
#include "test_helpers.hpp"
#include "vision/pca_sift.hpp"
#include "workload/query_gen.hpp"

namespace fast {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::DatasetSpec spec = workload::DatasetSpec::wuhan(60);
    spec.image_size = 96;
    spec.child_presence_prob = 0.15;
    dataset_ = new workload::Dataset(workload::SceneGenerator(spec).generate());
    // Real (trained) eigenspace — the expensive, shared fixture.
    std::vector<img::Image> sample;
    for (std::size_t i = 0; i < 12; ++i) {
      sample.push_back(dataset_->photos[i].image);
    }
    vision::PcaSiftConfig pcfg;
    pcfg.patch_size = 13;  // smaller eigenproblem for test speed
    pca_ = new vision::PcaModel(vision::train_pca_sift(sample, pcfg, 600));
    pca_cfg_ = new vision::PcaSiftConfig(pcfg);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete pca_;
    delete pca_cfg_;
    dataset_ = nullptr;
    pca_ = nullptr;
    pca_cfg_ = nullptr;
  }

  static core::FastConfig fast_config() {
    core::FastConfig cfg;
    cfg.pca_sift = *pca_cfg_;
    cfg.cuckoo.capacity = 512;
    return cfg;
  }

  static workload::Dataset* dataset_;
  static vision::PcaModel* pca_;
  static vision::PcaSiftConfig* pca_cfg_;
};

workload::Dataset* IntegrationTest::dataset_ = nullptr;
vision::PcaModel* IntegrationTest::pca_ = nullptr;
vision::PcaSiftConfig* IntegrationTest::pca_cfg_ = nullptr;

TEST_F(IntegrationTest, TrainedPcaProducesExpectedDims) {
  EXPECT_EQ(pca_->output_dim(), 36u);
  EXPECT_EQ(pca_->input_dim(), 2u * 13 * 13);
}

TEST_F(IntegrationTest, FullPipelineNearDupRetrieval) {
  core::FastIndex index(fast_config(), *pca_);
  for (const auto& photo : dataset_->photos) {
    const auto r = index.insert(photo.id, photo.image);
    EXPECT_TRUE(r.ok);
  }
  EXPECT_EQ(index.size(), dataset_->photos.size());

  const auto queries = workload::make_dup_queries(*dataset_, 10);
  std::size_t found = 0;
  double candidate_fraction = 0;
  for (const auto& q : queries) {
    const core::QueryResult r = index.query(q.image, 5);
    candidate_fraction += static_cast<double>(r.candidates) /
                          static_cast<double>(index.size());
    for (const auto& h : r.hits) {
      if (h.id == q.source) {
        ++found;
        break;
      }
    }
  }
  EXPECT_GE(found, 8u);  // >= 80% of sources in top-5
  EXPECT_LT(candidate_fraction / 10, 0.85);
}

TEST_F(IntegrationTest, FastAccuracyWithinTolerancesOfSift) {
  // Table III shape: SIFT (exact) is the reference; FAST loses only a
  // little accuracy. Accuracy = fraction of queries whose top hit is the
  // query's source photo.
  baseline::SiftBaselineConfig scfg;
  scfg.max_keypoints = 64;
  baseline::SiftBaseline sift(scfg, sim::CostModel{});
  core::FastIndex index(fast_config(), *pca_);
  for (const auto& photo : dataset_->photos) {
    sift.insert(photo.id, photo.image);
    index.insert(photo.id, photo.image);
  }
  const auto queries = workload::make_dup_queries(*dataset_, 10, 0x77);
  std::size_t sift_correct = 0, fast_correct = 0;
  for (const auto& q : queries) {
    const auto sift_out = sift.query(q.image, 3);
    for (const auto& h : sift_out.hits) {
      if (h.id == q.source) {
        ++sift_correct;
        break;
      }
    }
    const auto fast_out = index.query(q.image, 3);
    for (const auto& h : fast_out.hits) {
      if (h.id == q.source) {
        ++fast_correct;
        break;
      }
    }
  }
  EXPECT_GE(sift_correct, 6u);
  // FAST within 2 queries of SIFT on this sample (Table III's "acceptably
  // small loss of accuracy").
  EXPECT_GE(fast_correct + 2, sift_correct);
}

TEST_F(IntegrationTest, LatencyOrderingMatchesPaper) {
  // Fig. 4 shape: simulated per-query cost FAST << RNPE << PCA-SIFT < SIFT.
  baseline::SiftBaselineConfig scfg;
  scfg.max_keypoints = 48;
  scfg.cache_pages = 8;
  baseline::SiftBaseline sift(scfg, sim::CostModel{});
  baseline::PcaSiftBaselineConfig pcfg;
  pcfg.max_keypoints = 48;
  pcfg.cache_pages = 8;
  pcfg.pca_sift = *pca_cfg_;
  baseline::PcaSiftBaseline pca_sift(pcfg, sim::CostModel{}, *pca_);
  baseline::RnpeConfig rcfg;
  baseline::Rnpe rnpe(rcfg, sim::CostModel{});
  core::FastIndex index(fast_config(), *pca_);

  for (const auto& photo : dataset_->photos) {
    sift.insert(photo.id, photo.image);
    pca_sift.insert(photo.id, photo.image);
    rnpe.insert(photo.id, photo.geo_x, photo.geo_y, photo.landmark,
                photo.view);
    index.insert(photo.id, photo.image);
  }

  const auto& probe = dataset_->photos[5];
  const double sift_s = sift.query(probe.image, 5).cost.elapsed_s();
  const double pca_s = pca_sift.query(probe.image, 5).cost.elapsed_s();
  const double rnpe_s =
      rnpe.query(probe.geo_x, probe.geo_y, probe.landmark, probe.view, 5)
          .cost.elapsed_s();
  const hash::SparseSignature probe_sig = index.summarize(probe.image);
  const double fast_s =
      core::sim_cost::query(index, probe_sig,
                            index.query_signature(probe_sig, 5),
                            /*from_image=*/true)
          .clock.elapsed_s();

  EXPECT_LT(fast_s, rnpe_s);
  EXPECT_LT(rnpe_s, pca_s);
  EXPECT_LE(pca_s, sift_s);
}

TEST_F(IntegrationTest, SpaceOrderingMatchesPaper) {
  // Table IV shape: SIFT > PCA-SIFT > RNPE > FAST.
  baseline::SiftBaselineConfig scfg;
  scfg.max_keypoints = 64;
  baseline::SiftBaseline sift(scfg, sim::CostModel{});
  baseline::PcaSiftBaselineConfig pcfg;
  pcfg.max_keypoints = 64;
  pcfg.pca_sift = *pca_cfg_;
  baseline::PcaSiftBaseline pca_sift(pcfg, sim::CostModel{}, *pca_);
  baseline::RnpeConfig rcfg;
  baseline::Rnpe rnpe(rcfg, sim::CostModel{});
  core::FastIndex index(fast_config(), *pca_);

  for (const auto& photo : dataset_->photos) {
    sift.insert(photo.id, photo.image);
    pca_sift.insert(photo.id, photo.image);
    rnpe.insert(photo.id, photo.geo_x, photo.geo_y, photo.landmark,
                photo.view);
    index.insert(photo.id, photo.image);
  }
  EXPECT_GT(sift.index_bytes(), pca_sift.index_bytes());
  EXPECT_GT(pca_sift.index_bytes(), rnpe.index_bytes());
  EXPECT_GT(rnpe.index_bytes(), index.index_bytes());
}

TEST_F(IntegrationTest, MissingChildFoundViaPortrait) {
  core::FastIndex index(fast_config(), *pca_);
  for (const auto& photo : dataset_->photos) {
    index.insert(photo.id, photo.image);
  }
  const workload::QuerySet qs = workload::make_child_queries(*dataset_, 3);
  ASSERT_FALSE(qs.relevant.empty());
  // At least one portrait query surfaces at least one child-containing
  // photo among its top-10 results.
  std::size_t hits = 0;
  for (const auto& portrait : qs.portraits) {
    const core::QueryResult r = index.query(portrait, 10);
    for (const auto& h : r.hits) {
      for (std::uint64_t rel : qs.relevant) {
        if (h.id == rel) {
          ++hits;
          break;
        }
      }
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST_F(IntegrationTest, InsertLatencyFlatVersusBaselineGrowth) {
  // Fig. 5 shape: FAST's per-insert cost stays flat while SIFT's grows
  // with corpus size (its ingest compares against everything stored).
  baseline::SiftBaselineConfig scfg;
  scfg.max_keypoints = 32;
  scfg.cache_pages = 8;
  // Isolate the corpus-dependent ingest-comparison growth from the fixed
  // per-record SQL index-maintenance constant.
  scfg.index_update_pages = 0;
  baseline::SiftBaseline sift(scfg, sim::CostModel{});
  core::FastIndex index(fast_config(), *pca_);

  double sift_first = 0, sift_last = 0, fast_first = 0, fast_last = 0;
  const std::size_t n = dataset_->photos.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& photo = dataset_->photos[i];
    const double s = sift.insert(photo.id, photo.image).cost.elapsed_s();
    const hash::SparseSignature sig = index.summarize(photo.image);
    const double f =
        core::sim_cost::insert(index, sig,
                               index.insert_signature(photo.id, sig),
                               /*from_image=*/true)
            .elapsed_s();
    if (i < 5) {
      sift_first += s;
      fast_first += f;
    }
    if (i >= n - 5) {
      sift_last += s;
      fast_last += f;
    }
  }
  EXPECT_GT(sift_last, sift_first * 1.5);   // grows
  EXPECT_LT(fast_last, fast_first * 1.5);   // flat
}

TEST_F(IntegrationTest, ParallelBatchMatchesSerialResults) {
  core::FastIndex index(fast_config(), *pca_);
  std::vector<hash::SparseSignature> sigs;
  for (const auto& photo : dataset_->photos) {
    sigs.push_back(index.summarize(photo.image));
    index.insert_signature(photo.id, sigs.back());
  }
  core::QueryEngine engine(index, 4);
  const core::BatchReport report = engine.run_batch(sigs, 3);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    const core::QueryResult serial = index.query_signature(sigs[i], 3);
    ASSERT_EQ(report.results[i].hits.size(), serial.hits.size());
    for (std::size_t h = 0; h < serial.hits.size(); ++h) {
      EXPECT_EQ(report.results[i].hits[h].id, serial.hits[h].id);
    }
  }
}

}  // namespace
}  // namespace fast
