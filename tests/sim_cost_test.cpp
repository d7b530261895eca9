// Pins the simulated prices the paper-figure benches read off a fixed small
// flat index: image- and signature-query prices, the Fig. 7 makespans, the
// SimClock event counters, a 4-shard scatter-gather query and the insert
// prices. The expected values were captured while the backends still priced
// their own calls, before core::sim_cost existed, and they never change: a
// pricing refactor must reproduce them. Query prices are bit-exact (hex
// floats); insert elapsed times may differ in the last bits, because the
// placement's slot reads can be summed before or after they are
// multiplied, so they are compared to 1e-12 relative.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/sharded_index.hpp"
#include "core/sim_cost.hpp"
#include "sim/cluster_model.hpp"
#include "test_helpers.hpp"

namespace fast::core {
namespace {

/// One price's time and event counters.
struct Price {
  double elapsed_s;
  std::size_t hash_ops;
  std::size_t flops;
  std::size_t ram_accesses;
};

Price price_of(const sim::SimClock& clock) {
  return Price{clock.elapsed_s(), clock.hash_ops(), clock.flops(),
               clock.ram_accesses()};
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void expect_exact(const Price& got, const Price& want, const char* what) {
  EXPECT_EQ(got.elapsed_s, want.elapsed_s)
      << what << ": elapsed " << hex(got.elapsed_s);
  EXPECT_EQ(got.hash_ops, want.hash_ops) << what;
  EXPECT_EQ(got.flops, want.flops) << what;
  EXPECT_EQ(got.ram_accesses, want.ram_accesses) << what;
}

void expect_close(const Price& got, const Price& want, const char* what) {
  EXPECT_NEAR(got.elapsed_s, want.elapsed_s, 1e-12 * want.elapsed_s)
      << what << ": elapsed " << hex(got.elapsed_s);
  EXPECT_EQ(got.hash_ops, want.hash_ops) << what;
  EXPECT_EQ(got.flops, want.flops) << what;
  EXPECT_EQ(got.ram_accesses, want.ram_accesses) << what;
}

class SimCostPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new workload::Dataset(test::small_dataset(24));
    pca_ = new vision::PcaModel(test::fake_pca());
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete pca_;
    dataset_ = nullptr;
    pca_ = nullptr;
  }

  static FastConfig config(FastConfig::SaBackend sa) {
    FastConfig cfg;
    cfg.sa_backend = sa;
    return cfg;
  }

  /// Photos 0..15 as signatures into `index`, in id order.
  static void fill(FastIndex& index) {
    for (std::uint64_t id = 0; id < 16; ++id) {
      index.insert_signature(id,
                             index.summarize(dataset_->photos[id].image));
    }
  }

  static workload::Dataset* dataset_;
  static vision::PcaModel* pca_;
};

workload::Dataset* SimCostPinTest::dataset_ = nullptr;
vision::PcaModel* SimCostPinTest::pca_ = nullptr;

TEST_F(SimCostPinTest, QueryPricesAndMakespans) {
  FastIndex index(config(FastConfig::SaBackend::kMinHash), *pca_);
  fill(index);
  // Photo 2 is indexed; photos 17 and 20 are not.
  const std::size_t photos[] = {2, 17, 20};
  const Price want_image[] = {{0x1.4a4ef270393cep-5, 1024, 0, 388},
                              {0x1.4b0224fbeb7bfp-5, 1024, 0, 390},
                              {0x1.4a6aea261b6a1p-5, 1024, 0, 386}};
  const Price want_signature[] = {{0x1.10024e0568ecbp-12, 0, 0, 388},
                                  {0x1.699b93de887b1p-12, 0, 0, 390},
                                  {0x1.1dfe28f67f899p-12, 0, 0, 386}};
  // Fig. 7 makespans of the image query at 1, 4 and 32 cores.
  const double want_makespan[][3] = {
      {0x1.49ce1916ec18fp-5, 0x1.49ce1916ec197p-7, 0x1.4a8251a0d3ecfp-10},
      {0x1.4a814ba29e58fp-5, 0x1.4a81b70268c39p-7, 0x1.4b70b0860907dp-10},
      {0x1.49ea10ccce47fp-5, 0x1.49ea7c2c98b1fp-7, 0x1.4aa82b130f629p-10}};
  for (std::size_t i = 0; i < 3; ++i) {
    const hash::SparseSignature sig =
        index.summarize(dataset_->photos[photos[i]].image);
    const QueryResult r = index.query_signature(sig, 5);
    const sim_cost::QueryPrice by_image =
        sim_cost::query(index, sig, r, /*from_image=*/true);
    expect_exact(price_of(by_image.clock), want_image[i], "image query");
    expect_exact(price_of(sim_cost::query(index, sig, r, false).clock),
                 want_signature[i], "signature query");
    const std::size_t cores[] = {1, 4, 32};
    for (std::size_t c = 0; c < 3; ++c) {
      const double makespan =
          sim::ClusterModel::makespan(by_image.tasks, cores[c]);
      EXPECT_EQ(makespan, want_makespan[i][c])
          << "photo " << photos[i] << " at " << cores[c] << " cores: "
          << hex(makespan);
    }
  }
}

TEST_F(SimCostPinTest, PStableSignatureQueryPrice) {
  FastIndex index(config(FastConfig::SaBackend::kPStable), *pca_);
  fill(index);
  const hash::SparseSignature sig =
      index.summarize(dataset_->photos[17].image);
  const QueryResult r = index.query_signature(sig, 5);
  expect_exact(price_of(sim_cost::query(index, sig, r, false).clock),
               Price{0x1.4b79d0fc5c5c6p-10, 0, 0, 1176},
               "p-stable signature query");
}

TEST_F(SimCostPinTest, ShardedSignatureQueryPrice) {
  ShardedFastIndex index(config(FastConfig::SaBackend::kMinHash), *pca_, 4,
                         1);
  for (std::uint64_t id = 0; id < 16; ++id) {
    index.insert_signature(
        id, index.shard(0).summarize(dataset_->photos[id].image));
  }
  const std::size_t photos[] = {2, 17, 20};
  const double want[] = {0x1.5c039492a73f8p-11, 0x1.88c2cb85e9a86p-11,
                         0x1.631c59fdcd4aap-11};
  for (std::size_t i = 0; i < 3; ++i) {
    const ShardedQueryResult r = index.query_signature(
        index.shard(0).summarize(dataset_->photos[photos[i]].image), 5);
    EXPECT_EQ(r.cost.elapsed_s(), want[i])
        << "photo " << photos[i] << ": " << hex(r.cost.elapsed_s());
  }
}

TEST_F(SimCostPinTest, InsertPrices) {
  for (const auto sa :
       {FastConfig::SaBackend::kMinHash, FastConfig::SaBackend::kPStable}) {
    const bool minhash = sa == FastConfig::SaBackend::kMinHash;
    SCOPED_TRACE(minhash ? "minhash" : "p-stable");
    FastIndex index(config(sa), *pca_);
    const auto insert = [&](std::uint64_t id, std::size_t photo) {
      const hash::SparseSignature sig =
          index.summarize(dataset_->photos[photo].image);
      return std::pair(sig, index.insert_signature(id, sig));
    };
    // The first insert, from an image, into the empty index.
    const auto [sig0, placed0] = insert(0, 0);
    const sim::SimClock first = sim_cost::insert(index, sig0, placed0, true);
    std::vector<sim::SimClock> rest;
    for (std::uint64_t id = 1; id < 16; ++id) {
      const auto [sig, placed] = insert(id, id);
      rest.push_back(sim_cost::insert(index, sig, placed, false));
    }
    // A replacing insert: id 3 takes photo 20's signature.
    const auto [sig3, placed3] = insert(3, 20);
    const sim::SimClock replace = sim_cost::insert(index, sig3, placed3, false);
    sim::SimClock total;
    for (const sim::SimClock& clock : rest) total.merge(clock);
    const Price want_first =
        minhash ? Price{0x1.4aeb581f9e227p-5, 86752, 0, 768}
                : Price{0x1.51ab994b6b0d7p-5, 1024, 1146880, 112};
    const Price want_fifth =
        minhash ? Price{0x1.d894a387fc5ccp-12, 124896, 0, 760}
                : Price{0x1.2f956ee7944e7p-10, 0, 1146880, 112};
    const Price want_replace =
        minhash ? Price{0x1.4388263ae368bp-12, 78048, 0, 744}
                : Price{0x1.2f956ee7944e7p-10, 0, 1146880, 112};
    const Price want_total =
        minhash ? Price{0x1.63f2902243f0ap-8, 1430976, 0, 11384}
                : Price{0x1.1c9c17f91b098p-6, 0, 17203200, 1680};
    expect_close(price_of(first), want_first, "first image insert");
    expect_close(price_of(rest[4]), want_fifth, "insert of id 5");
    expect_close(price_of(replace), want_replace, "replacing insert");
    expect_close(price_of(total), want_total, "ids 1..15");
  }
}

}  // namespace
}  // namespace fast::core
