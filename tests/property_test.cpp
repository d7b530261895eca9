// Parameterized property sweeps across the hashing and storage invariants
// (TEST_P): these complement the per-module unit tests with broader
// configuration coverage.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "hash/cuckoo_table.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/minhash.hpp"
#include "hash/pstable_lsh.hpp"
#include "hash/sparse_signature.hpp"
#include "mobile/chunker.hpp"
#include "sim/cluster_model.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fast {
namespace {

// ---------- p-stable LSH: locality across (dim, omega) ----------

struct LshParams {
  std::size_t dim;
  double omega;
};

class LshLocalityTest : public ::testing::TestWithParam<LshParams> {};

TEST_P(LshLocalityTest, NearPairsCollideMoreThanFarPairs) {
  const auto [dim, omega] = GetParam();
  hash::LshConfig cfg;
  cfg.dim = dim;
  cfg.omega = omega;
  cfg.tables = 1;
  cfg.hashes_per_table = 200;
  hash::PStableLsh lsh(cfg);
  util::Rng rng(dim * 31 + static_cast<std::uint64_t>(omega * 100));

  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  auto offset_by = [&](double dist) {
    std::vector<float> dir(dim);
    double norm = 0;
    for (auto& x : dir) {
      x = static_cast<float>(rng.gaussian());
      norm += x * x;
    }
    norm = std::sqrt(norm);
    std::vector<float> w = v;
    for (std::size_t i = 0; i < dim; ++i) {
      w[i] += static_cast<float>(dir[i] / norm * dist);
    }
    return w;
  };
  auto collisions = [&](const std::vector<float>& w) {
    std::size_t c = 0;
    for (std::size_t j = 0; j < cfg.hashes_per_table; ++j) {
      c += lsh.hash_one(0, j, v) == lsh.hash_one(0, j, w);
    }
    return c;
  };
  const std::size_t near = collisions(offset_by(omega * 0.2));
  const std::size_t far = collisions(offset_by(omega * 3.0));
  EXPECT_GT(near, far);
  EXPECT_GT(near, cfg.hashes_per_table / 2);  // near pairs mostly collide
}

INSTANTIATE_TEST_SUITE_P(Sweep, LshLocalityTest,
                         ::testing::Values(LshParams{8, 0.5},
                                           LshParams{8, 2.0},
                                           LshParams{64, 0.85},
                                           LshParams{256, 0.85},
                                           LshParams{256, 4.0}));

// ---------- MinHash: banding collision tracks Jaccard across configs ----

struct BandParams {
  std::size_t bands;
  std::size_t band_size;
};

class MinHashBandTest : public ::testing::TestWithParam<BandParams> {};

TEST_P(MinHashBandTest, HigherJaccardNeverCollidesLess) {
  const auto [bands, band_size] = GetParam();
  hash::MinHasher mh(hash::MinHashConfig{bands, band_size, 0x88});
  auto make_pair = [&](double share, std::uint64_t salt) {
    std::vector<std::uint32_t> a, b;
    const std::uint32_t n = 400;
    const auto shared = static_cast<std::uint32_t>(share * n);
    for (std::uint32_t i = 0; i < shared; ++i) {
      a.push_back(i);
      b.push_back(i);
    }
    for (std::uint32_t i = shared; i < n; ++i) {
      a.push_back(100000 + i + static_cast<std::uint32_t>(salt) * 7919);
      b.push_back(200000 + i + static_cast<std::uint32_t>(salt) * 104729);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return std::pair(hash::SparseSignature(a, 1 << 20),
                     hash::SparseSignature(b, 1 << 20));
  };
  auto shared_bands = [&](double share) {
    std::size_t total = 0;
    for (std::uint64_t salt = 0; salt < 8; ++salt) {
      const auto [sa, sb] = make_pair(share, salt);
      const auto ma = mh.minhashes(sa), mb = mh.minhashes(sb);
      for (std::size_t band = 0; band < bands; ++band) {
        total += mh.band_key(band, ma) == mh.band_key(band, mb);
      }
    }
    return total;
  };
  EXPECT_GE(shared_bands(0.9), shared_bands(0.5));
  EXPECT_GE(shared_bands(0.5), shared_bands(0.1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinHashBandTest,
                         ::testing::Values(BandParams{16, 1},
                                           BandParams{32, 2},
                                           BandParams{48, 2},
                                           BandParams{48, 3},
                                           BandParams{96, 4}));

// ---------- Cuckoo tables: lookup-after-insert across load/window ------

struct CuckooParams {
  std::size_t capacity;
  std::size_t window;
  double load;
};

class FlatCuckooLoadTest : public ::testing::TestWithParam<CuckooParams> {};

TEST_P(FlatCuckooLoadTest, EverySuccessfulInsertRemainsFindable) {
  const auto [capacity, window, load] = GetParam();
  hash::FlatCuckooConfig cfg;
  cfg.capacity = capacity;
  cfg.window = window;
  cfg.seed = capacity ^ window;
  hash::FlatCuckooTable table(cfg);
  const auto items =
      static_cast<std::size_t>(load * static_cast<double>(capacity));
  std::vector<std::uint64_t> stored;
  for (std::uint64_t i = 0; i < items; ++i) {
    const std::uint64_t key = hash::mix64(i ^ cfg.seed);
    if (table.insert(key, i)) stored.push_back(key);
  }
  EXPECT_EQ(table.size(), stored.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    ASSERT_TRUE(table.contains(stored[i])) << "key index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlatCuckooLoadTest,
    ::testing::Values(CuckooParams{256, 1, 0.45},
                      CuckooParams{256, 2, 0.70},
                      CuckooParams{1024, 4, 0.90},
                      CuckooParams{4096, 4, 0.93},
                      CuckooParams{4096, 8, 0.97},
                      CuckooParams{16384, 4, 0.90}));

// ---------- Sparse signatures: encode/decode across densities ----------

class SignatureCodecTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SignatureCodecTest, EncodeDecodeRoundTrip) {
  const std::size_t popcount = GetParam();
  util::Rng rng(popcount + 1);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < popcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(200));
    bits.push_back(cur);
  }
  const hash::SparseSignature sig(bits, cur + 1);
  const auto encoded = sig.encode();
  EXPECT_EQ(encoded.size(), sig.storage_bytes());
  const hash::SparseSignature back = hash::SparseSignature::decode(encoded);
  EXPECT_EQ(back.set_bits(), sig.set_bits());
  EXPECT_EQ(back.bit_count(), sig.bit_count());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SignatureCodecTest,
                         ::testing::Values(0, 1, 7, 64, 500, 3000));

// ---------- Chunker: coverage invariant across configurations ----------

struct ChunkParams {
  std::size_t min_chunk;
  std::size_t avg_chunk;
  std::size_t max_chunk;
};

class ChunkerSweepTest : public ::testing::TestWithParam<ChunkParams> {};

TEST_P(ChunkerSweepTest, ChunksPartitionInput) {
  const auto [min_c, avg_c, max_c] = GetParam();
  mobile::ChunkerConfig cfg;
  cfg.min_chunk = min_c;
  cfg.avg_chunk = avg_c;
  cfg.max_chunk = max_c;
  mobile::Chunker chunker(cfg);
  const auto data = mobile::synth_file_bytes(min_c * 31, 300000);
  const auto chunks = chunker.chunk(data);
  std::size_t offset = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.offset, offset);
    EXPECT_LE(c.length, max_c);
    offset += c.length;
  }
  EXPECT_EQ(offset, data.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkerSweepTest,
                         ::testing::Values(ChunkParams{256, 1024, 8192},
                                           ChunkParams{2048, 8192, 65536},
                                           ChunkParams{4096, 16384, 32768},
                                           ChunkParams{1024, 4096, 4096}));

// ---------- Durable index: snapshot/recover round-trip property --------
//
// For any mutation history (random inserts and erases) and either CHS
// backend, snapshot + recover must reproduce the index BIT-EXACTLY: the
// same signatures, the same correlation groups, and identical ranked
// results for arbitrary queries.

struct RecoveryRoundTripParams {
  std::uint64_t seed;
  core::FastConfig::ChsBackend backend;
};

class RecoveryRoundTripTest
    : public ::testing::TestWithParam<RecoveryRoundTripParams> {};

hash::SparseSignature random_signature(util::Rng& rng,
                                       std::size_t bloom_bits) {
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  const std::size_t popcount = 48 + rng.uniform_u64(96);
  for (std::size_t i = 0; i < popcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(
                   rng.uniform_u64(bloom_bits / (popcount + 1)));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(bits, bloom_bits);
}

TEST_P(RecoveryRoundTripTest, SnapshotRecoverIsBitExact) {
  const auto [seed, backend] = GetParam();
  core::FastConfig cfg;
  cfg.cuckoo.capacity = 256;
  cfg.chs_backend = backend;
  const vision::PcaModel pca = test::fake_pca();

  const std::string dir = ::testing::TempDir() + "fast_property_rt_" +
                          std::to_string(seed) + "_" +
                          std::to_string(static_cast<int>(backend));
  std::filesystem::remove_all(dir);

  core::DurabilityOptions opts;
  opts.dir = dir;
  auto opened = core::FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  core::FastIndex live = std::move(opened).value();

  // Random mutation history: mostly inserts, with erases (and occasional
  // re-inserts of erased ids) mixed in. A mid-history snapshot exercises
  // the snapshot-plus-tail recovery path.
  util::Rng rng(seed);
  std::vector<std::uint64_t> present;
  const std::size_t mutations = 60;
  for (std::size_t i = 0; i < mutations; ++i) {
    if (!present.empty() && rng.uniform_u64(100) < 25) {
      const std::size_t victim = rng.uniform_u64(present.size());
      ASSERT_TRUE(live.erase(present[victim]));
      present.erase(present.begin() +
                    static_cast<std::ptrdiff_t>(victim));
    } else {
      const std::uint64_t id = rng.uniform_u64(80);
      if (live.signature_of(id).has_value()) {
        ASSERT_TRUE(live.erase(id));
        present.erase(std::find(present.begin(), present.end(), id));
      }
      live.insert_signature(id, random_signature(rng, cfg.bloom_bits));
      present.push_back(id);
    }
    if (i == mutations / 2) {
      ASSERT_TRUE(live.save_snapshot().ok());
    }
  }

  core::RecoveryStats stats;
  auto recovered = core::FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(recovered.value().last_seq(), live.last_seq());

  ASSERT_EQ(recovered.value().size(), live.size());
  ASSERT_EQ(recovered.value().group_count(), live.group_count());
  for (std::uint64_t id = 0; id < 80; ++id) {
    const auto a = live.signature_of(id);
    const auto b = recovered.value().signature_of(id);
    ASSERT_EQ(a.has_value(), b.has_value()) << "id " << id;
    if (a.has_value()) {
      EXPECT_EQ(a->set_bits(), b->set_bits()) << "id " << id;
    }
  }
  for (std::size_t g = 0; g < live.group_count(); ++g) {
    const auto ga = live.group_members(g);
    const auto gb = recovered.value().group_members(g);
    ASSERT_EQ(ga.size(), gb.size()) << "group " << g;
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i], gb[i]) << "group " << g << " member " << i;
    }
  }
  for (std::uint64_t q = 0; q < 8; ++q) {
    const auto sig = random_signature(rng, cfg.bloom_bits);
    const core::QueryResult ra = live.query_signature(sig, 10);
    const core::QueryResult rb = recovered.value().query_signature(sig, 10);
    ASSERT_EQ(ra.hits.size(), rb.hits.size()) << "query " << q;
    for (std::size_t i = 0; i < ra.hits.size(); ++i) {
      EXPECT_EQ(ra.hits[i].id, rb.hits[i].id) << "query " << q;
      EXPECT_EQ(ra.hits[i].score, rb.hits[i].score) << "query " << q;
    }
    EXPECT_EQ(ra.candidates, rb.candidates) << "query " << q;
    EXPECT_EQ(ra.bucket_probes, rb.bucket_probes) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecoveryRoundTripTest,
    ::testing::Values(
        RecoveryRoundTripParams{1, core::FastConfig::ChsBackend::kFlatCuckoo},
        RecoveryRoundTripParams{2, core::FastConfig::ChsBackend::kFlatCuckoo},
        RecoveryRoundTripParams{3, core::FastConfig::ChsBackend::kFlatCuckoo},
        RecoveryRoundTripParams{4, core::FastConfig::ChsBackend::kChained},
        RecoveryRoundTripParams{5, core::FastConfig::ChsBackend::kChained},
        RecoveryRoundTripParams{6, core::FastConfig::ChsBackend::kChained},
        RecoveryRoundTripParams{
            7, core::FastConfig::ChsBackend::kCompactFlatCuckoo},
        RecoveryRoundTripParams{
            8, core::FastConfig::ChsBackend::kCompactFlatCuckoo},
        RecoveryRoundTripParams{
            9, core::FastConfig::ChsBackend::kCompactFlatCuckoo}));

// ---------- Cluster model: LPT bound property --------------------------

class MakespanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MakespanTest, WithinLptBoundOfLowerBound) {
  const std::size_t slots = GetParam();
  util::Rng rng(slots);
  std::vector<double> tasks(slots * 7);
  double total = 0, longest = 0;
  for (double& t : tasks) {
    t = rng.uniform(0.1, 10.0);
    total += t;
    longest = std::max(longest, t);
  }
  const double mk = sim::ClusterModel::makespan(tasks, slots);
  const double lower = std::max(total / static_cast<double>(slots), longest);
  EXPECT_GE(mk, lower - 1e-9);
  EXPECT_LE(mk, lower * 4.0 / 3.0 + 1e-9);  // LPT guarantee
}

INSTANTIATE_TEST_SUITE_P(Sweep, MakespanTest,
                         ::testing::Values(1, 2, 4, 8, 32, 256));

}  // namespace
}  // namespace fast
