#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/index_layer.hpp"
#include "core/pipeline/factory.hpp"
#include "core/tiered_index.hpp"
#include "hash/aggregators.hpp"
#include "hash/bitmap_arena.hpp"
#include "hash/bloom_filter.hpp"
#include "hash/compact_flat_cuckoo_table.hpp"
#include "hash/counting_bloom.hpp"
#include "hash/cuckoo_table.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/group_stores.hpp"
#include "hash/hashes.hpp"
#include "hash/lsh_table_chained.hpp"
#include "hash/minhash.hpp"
#include "hash/multi_probe.hpp"
#include "hash/pstable_lsh.hpp"
#include "hash/signature_slab.hpp"
#include "hash/sparse_signature.hpp"
#include "test_helpers.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"

namespace fast::hash {
namespace {

// ---------- hash primitives ----------

TEST(Hashes, Murmur3Deterministic) {
  const Hash128 a = murmur3_128("hello world");
  const Hash128 b = murmur3_128("hello world");
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
}

TEST(Hashes, Murmur3SeedChangesOutput) {
  const Hash128 a = murmur3_128("hello", 1);
  const Hash128 b = murmur3_128("hello", 2);
  EXPECT_NE(a.lo, b.lo);
}

TEST(Hashes, Murmur3SensitiveToEveryByte) {
  std::string s(40, 'a');
  const Hash128 base = murmur3_128(s);
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::string mutated = s;
    mutated[i] = 'b';
    EXPECT_NE(murmur3_128(mutated).lo, base.lo) << "byte " << i;
  }
}

TEST(Hashes, Murmur3HandlesAllTailLengths) {
  // Exercise every switch-case tail (0..15 bytes beyond block boundary).
  std::set<std::uint64_t> seen;
  for (std::size_t len = 0; len <= 32; ++len) {
    std::string s(len, 'x');
    seen.insert(murmur3_128(s).lo);
  }
  EXPECT_EQ(seen.size(), 33u);  // all distinct
}

TEST(Hashes, Fnv1aKnownValue) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(fnv1a_64("", 0), 0xcbf29ce484222325ULL);
}

TEST(Hashes, Mix64Bijective) {
  // Distinct inputs -> distinct outputs across a decent sample.
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);
}

TEST(Hashes, DerivedHashLinear) {
  const Hash128 h{10, 3};
  EXPECT_EQ(derived_hash(h, 0), 10u);
  EXPECT_EQ(derived_hash(h, 4), 22u);
}

// ---------- BloomFilter ----------

TEST(Bloom, NoFalseNegatives) {
  BloomFilter bf(1024, 4);
  for (std::uint64_t i = 0; i < 50; ++i) bf.insert_u64(i);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(bf.maybe_contains_u64(i));
  }
}

TEST(Bloom, AbsentMostlyRejected) {
  BloomFilter bf(4096, 8);
  for (std::uint64_t i = 0; i < 100; ++i) bf.insert_u64(i);
  int fp = 0;
  for (std::uint64_t i = 1000; i < 2000; ++i) {
    if (bf.maybe_contains_u64(i)) ++fp;
  }
  EXPECT_LT(fp, 20);
}

TEST(Bloom, EmptyRejectsEverything) {
  BloomFilter bf(256, 4);
  EXPECT_FALSE(bf.maybe_contains_u64(1));
  EXPECT_EQ(bf.set_bit_count(), 0u);
}

TEST(Bloom, SetBitsBounded) {
  BloomFilter bf(1024, 4);
  bf.insert_u64(42);
  EXPECT_LE(bf.set_bit_count(), 4u);
  EXPECT_GE(bf.set_bit_count(), 1u);
}

TEST(Bloom, MergeIsUnion) {
  BloomFilter a(512, 4), b(512, 4);
  a.insert_u64(1);
  b.insert_u64(2);
  a.merge(b);
  EXPECT_TRUE(a.maybe_contains_u64(1));
  EXPECT_TRUE(a.maybe_contains_u64(2));
}

TEST(Bloom, ClearResets) {
  BloomFilter bf(512, 4);
  bf.insert_u64(7);
  bf.clear();
  EXPECT_FALSE(bf.maybe_contains_u64(7));
  EXPECT_EQ(bf.inserted_count(), 0u);
}

TEST(Bloom, SimilarSetsShareBits) {
  // Two filters over sets sharing 80% of elements have small Hamming
  // distance relative to disjoint sets — the property SM relies on.
  BloomFilter a(4096, 8), b(4096, 8), c(4096, 8);
  for (std::uint64_t i = 0; i < 100; ++i) a.insert_u64(i);
  for (std::uint64_t i = 20; i < 120; ++i) b.insert_u64(i);      // 80% shared
  for (std::uint64_t i = 1000; i < 1100; ++i) c.insert_u64(i);   // disjoint
  EXPECT_LT(BloomFilter::hamming(a, b), BloomFilter::hamming(a, c));
}

TEST(Bloom, FloatVectorMatchesBits) {
  BloomFilter bf(256, 2);
  bf.insert_u64(5);
  const auto v = bf.to_float_vector();
  ASSERT_EQ(v.size(), 256u);
  std::size_t ones = 0;
  for (float x : v) {
    EXPECT_TRUE(x == 0.0f || x == 1.0f);
    ones += x == 1.0f;
  }
  EXPECT_EQ(ones, bf.set_bit_count());
}

// Property sweep: the empirical false-positive rate tracks the analytic
// (1 - e^{-kn/m})^k model across configurations.
struct BloomParams {
  std::size_t bits;
  std::size_t k;
  std::size_t n;
};

class BloomFprTest : public ::testing::TestWithParam<BloomParams> {};

TEST_P(BloomFprTest, EmpiricalFprMatchesTheory) {
  const auto [bits, k, n] = GetParam();
  BloomFilter bf(bits, k);
  for (std::uint64_t i = 0; i < n; ++i) bf.insert_u64(i);
  std::size_t fp = 0;
  constexpr std::size_t kProbes = 20000;
  for (std::uint64_t i = 0; i < kProbes; ++i) {
    if (bf.maybe_contains_u64(1000000 + i)) ++fp;
  }
  const double empirical = static_cast<double>(fp) / kProbes;
  const double theory = bf.false_positive_rate();
  EXPECT_NEAR(empirical, theory, std::max(0.02, theory * 0.5));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BloomFprTest,
    ::testing::Values(BloomParams{1024, 4, 50}, BloomParams{1024, 4, 200},
                      BloomParams{4096, 8, 200}, BloomParams{4096, 2, 400},
                      BloomParams{16384, 8, 1000},
                      BloomParams{512, 6, 100}));

// ---------- CountingBloomFilter ----------

TEST(CountingBloom, InsertThenRemove) {
  CountingBloomFilter cbf(2048, 4);
  cbf.insert_u64(9);
  EXPECT_TRUE(cbf.maybe_contains_u64(9));
  cbf.remove_u64(9);
  EXPECT_FALSE(cbf.maybe_contains_u64(9));
}

TEST(CountingBloom, RemoveKeepsOtherKeys) {
  CountingBloomFilter cbf(4096, 4);
  for (std::uint64_t i = 0; i < 50; ++i) cbf.insert_u64(i);
  cbf.remove_u64(25);
  for (std::uint64_t i = 0; i < 50; ++i) {
    if (i == 25) continue;
    EXPECT_TRUE(cbf.maybe_contains_u64(i)) << i;
  }
}

TEST(CountingBloom, DuplicateInsertNeedsTwoRemoves) {
  CountingBloomFilter cbf(2048, 4);
  cbf.insert_u64(3);
  cbf.insert_u64(3);
  cbf.remove_u64(3);
  EXPECT_TRUE(cbf.maybe_contains_u64(3));
  cbf.remove_u64(3);
  EXPECT_FALSE(cbf.maybe_contains_u64(3));
}

TEST(CountingBloom, SaturationDetected) {
  CountingBloomFilter cbf(64, 2);
  for (std::uint64_t i = 0; i < 600; ++i) cbf.insert_u64(i);
  EXPECT_GT(cbf.saturation_count(), 0u);
}

// ---------- SparseSignature ----------

TEST(SparseSignature, ExtractsSetBits) {
  BloomFilter bf(256, 3);
  bf.insert_u64(17);
  const SparseSignature sig(bf);
  EXPECT_EQ(sig.popcount(), bf.set_bit_count());
  EXPECT_EQ(sig.bit_count(), 256u);
  const auto v = sig.to_float_vector();
  EXPECT_EQ(v, bf.to_float_vector());
}

TEST(SparseSignature, HammingMatchesDense) {
  util::Rng rng(1);
  BloomFilter a(1024, 4), b(1024, 4);
  for (int i = 0; i < 60; ++i) a.insert_u64(rng.next_u64());
  for (int i = 0; i < 60; ++i) b.insert_u64(rng.next_u64());
  const SparseSignature sa(a), sb(b);
  EXPECT_EQ(SparseSignature::hamming(sa, sb), BloomFilter::hamming(a, b));
}

TEST(SparseSignature, JaccardBounds) {
  BloomFilter a(512, 4), b(512, 4);
  a.insert_u64(1);
  b.insert_u64(1);
  const SparseSignature sa(a), sb(b);
  EXPECT_DOUBLE_EQ(SparseSignature::jaccard(sa, sa), 1.0);
  EXPECT_DOUBLE_EQ(SparseSignature::jaccard(sa, sb), 1.0);  // same bits
}

TEST(SparseSignature, JaccardDisjointIsZero) {
  const SparseSignature a({1, 2, 3}, 64);
  const SparseSignature b({10, 20}, 64);
  EXPECT_EQ(SparseSignature::jaccard(a, b), 0.0);
  EXPECT_EQ(SparseSignature::overlap(a, b), 0u);
  EXPECT_EQ(SparseSignature::hamming(a, b), 5u);
}

TEST(SparseSignature, EmptyPairJaccardIsOne) {
  const SparseSignature a({}, 64), b({}, 64);
  EXPECT_EQ(SparseSignature::jaccard(a, b), 1.0);
}

TEST(SparseSignature, StorageBytesTracksPopcount) {
  const SparseSignature small({1}, 1024);
  const SparseSignature big({1, 2, 3, 4, 5, 6, 7, 8}, 1024);
  EXPECT_LT(small.storage_bytes(), big.storage_bytes());
}

// ---------- p-stable LSH ----------

TEST(PStableLsh, DeterministicKeys) {
  LshConfig cfg;
  cfg.dim = 16;
  PStableLsh lsh(cfg);
  std::vector<float> v(16, 0.5f);
  EXPECT_EQ(lsh.all_keys(v), lsh.all_keys(v));
}

TEST(PStableLsh, IdenticalVectorsAlwaysCollide) {
  LshConfig cfg;
  cfg.dim = 8;
  PStableLsh lsh(cfg);
  std::vector<float> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> w = v;
  for (std::size_t t = 0; t < cfg.tables; ++t) {
    EXPECT_EQ(lsh.bucket_coords(t, v), lsh.bucket_coords(t, w));
  }
}

TEST(PStableLsh, CollisionProbabilityDecreasesWithDistance) {
  // Analytic p(c) is monotonically decreasing in c.
  double prev = PStableLsh::collision_probability(0.0, 1.0);
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (double c : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    const double p = PStableLsh::collision_probability(c, 1.0);
    EXPECT_LT(p, prev);
    EXPECT_GE(p, 0.0);
    prev = p;
  }
}

TEST(PStableLsh, EmpiricalCollisionMatchesTheory) {
  LshConfig cfg;
  cfg.dim = 32;
  cfg.tables = 1;
  cfg.hashes_per_table = 400;  // 400 independent elementary hashes
  cfg.omega = 1.0;
  PStableLsh lsh(cfg);
  util::Rng rng(5);
  std::vector<float> v(32);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  for (double dist : {0.25, 0.5, 1.0}) {
    // w = v + offset of norm `dist` along a random direction.
    std::vector<float> dir(32);
    for (auto& x : dir) x = static_cast<float>(rng.gaussian());
    double n = 0;
    for (float x : dir) n += x * x;
    n = std::sqrt(n);
    std::vector<float> w = v;
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] += static_cast<float>(dir[i] / n * dist);
    }
    std::size_t collisions = 0;
    for (std::size_t j = 0; j < cfg.hashes_per_table; ++j) {
      if (lsh.hash_one(0, j, v) == lsh.hash_one(0, j, w)) ++collisions;
    }
    const double empirical =
        static_cast<double>(collisions) / cfg.hashes_per_table;
    const double theory = PStableLsh::collision_probability(dist, cfg.omega);
    EXPECT_NEAR(empirical, theory, 0.08) << "dist " << dist;
  }
}

TEST(PStableLsh, BucketKeySaltsByTable) {
  LshConfig cfg;
  cfg.dim = 4;
  PStableLsh lsh(cfg);
  const BucketCoords coords{1, 2, 3};
  EXPECT_NE(lsh.bucket_key(0, coords), lsh.bucket_key(1, coords));
}

// ---------- sparse-gather projection parity ----------

std::vector<std::uint32_t> random_sorted_bits(std::size_t dim, std::size_t nnz,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::set<std::uint32_t> bits;
  while (bits.size() < nnz) {
    bits.insert(static_cast<std::uint32_t>(rng.uniform_u64(dim)));
  }
  return {bits.begin(), bits.end()};
}

// The sparse kernel must reproduce the dense projection bit for bit:
// identical coordinates and identical bucket keys, across dims, seeds,
// scales, and sparsity levels from empty through dense-ish (half the bits).
TEST(PStableLshSparse, BitExactParityWithDensePath) {
  SparseProjectionScratch scratch;
  for (const std::size_t dim : {std::size_t{256}, std::size_t{4096},
                                std::size_t{16384}}) {
    for (const std::uint64_t seed : {std::uint64_t{0x15b},
                                     std::uint64_t{7}}) {
      LshConfig cfg;
      cfg.dim = dim;
      cfg.seed = seed;
      const PStableLsh lsh(cfg);
      const std::size_t m = cfg.hashes_per_table;
      for (const std::size_t nnz :
           {std::size_t{0}, std::size_t{1}, std::size_t{64}, dim / 2}) {
        for (const float scale : {1.0f, 0.0371f}) {
          const auto bits = random_sorted_bits(dim, nnz, seed ^ nnz);
          // Dense reference input, exactly as the pre-sparse aggregator
          // built it: densify to {0,1} floats, then scale.
          std::vector<float> dense(dim, 0.0f);
          for (const std::uint32_t b : bits) dense[b] = 1.0f;
          for (float& x : dense) x *= scale;

          const std::span<const std::int32_t> coords =
              lsh.bucket_coords_sparse(bits, scale, scratch);
          ASSERT_EQ(coords.size(), cfg.tables * m);
          const std::span<const std::uint64_t> keys =
              lsh.all_keys_sparse(bits, scale, scratch);
          const std::vector<std::uint64_t> dense_keys = lsh.all_keys(dense);
          for (std::size_t t = 0; t < cfg.tables; ++t) {
            const BucketCoords expected = lsh.bucket_coords(t, dense);
            for (std::size_t j = 0; j < m; ++j) {
              ASSERT_EQ(coords[t * m + j], expected[j])
                  << "dim " << dim << " seed " << seed << " nnz " << nnz
                  << " scale " << scale << " table " << t << " hash " << j;
            }
            ASSERT_EQ(lsh.bucket_key(t, coords.subspan(t * m, m)),
                      lsh.bucket_key(t, expected));
            ASSERT_EQ(keys[t], dense_keys[t]);
          }
        }
      }
    }
  }
}

TEST(PStableLshSparse, EmptySignatureUsesOffsetsOnly) {
  LshConfig cfg;
  cfg.dim = 256;
  const PStableLsh lsh(cfg);
  SparseProjectionScratch scratch;
  const std::vector<float> zeros(cfg.dim, 0.0f);
  const std::span<const std::uint64_t> keys =
      lsh.all_keys_sparse({}, 1.0f, scratch);
  const std::vector<std::uint64_t> dense_keys = lsh.all_keys(zeros);
  ASSERT_EQ(keys.size(), dense_keys.size());
  for (std::size_t t = 0; t < dense_keys.size(); ++t) {
    EXPECT_EQ(keys[t], dense_keys[t]);
  }
}

// Adapter-level parity: PStableAggregator::keys (home + multi-probe keys)
// must equal a dense reference computed the way the pre-sparse adapter did
// (densify, scale as float, project per table).
TEST(PStableAggregator, KeysAndProbesMatchDenseReference) {
  LshConfig cfg;
  cfg.dim = 4096;
  const double input_scale = 0.42;
  const int probe_depth = 1;
  const PStableAggregator agg(cfg, probe_depth, input_scale);
  const PStableLsh ref(cfg);
  for (const std::size_t nnz : {std::size_t{0}, std::size_t{307}}) {
    const SparseSignature sig(random_sorted_bits(cfg.dim, nnz, 0x99 + nnz),
                              static_cast<std::uint32_t>(cfg.dim));
    std::vector<std::vector<std::uint64_t>> probes;
    const std::vector<std::uint64_t> keys = agg.keys(sig, &probes);

    std::vector<float> dense = sig.to_float_vector();
    for (float& x : dense) x *= static_cast<float>(input_scale);
    ASSERT_EQ(keys.size(), cfg.tables);
    ASSERT_EQ(probes.size(), cfg.tables);
    for (std::size_t t = 0; t < cfg.tables; ++t) {
      const BucketCoords home = ref.bucket_coords(t, dense);
      EXPECT_EQ(keys[t], ref.bucket_key(t, home));
      const auto seq = probe_sequence(home, probe_depth);
      ASSERT_EQ(probes[t].size(), seq.size());
      for (std::size_t p = 0; p < seq.size(); ++p) {
        EXPECT_EQ(probes[t][p], ref.bucket_key(t, seq[p]));
      }
    }
  }
}

TEST(PStableLshSparse, ScratchReuseAcrossConfigsIsSafe) {
  // One thread-local scratch serves aggregators of different geometry; a
  // call must fully re-initialize whatever a previous config left behind.
  SparseProjectionScratch scratch;
  LshConfig big;
  big.dim = 4096;
  const PStableLsh big_lsh(big);
  const auto big_bits = random_sorted_bits(big.dim, 128, 3);
  (void)big_lsh.all_keys_sparse(big_bits, 1.0f, scratch);

  LshConfig small;
  small.dim = 256;
  small.tables = 3;
  small.hashes_per_table = 4;
  const PStableLsh small_lsh(small);
  const auto small_bits = random_sorted_bits(small.dim, 32, 4);
  std::vector<float> dense(small.dim, 0.0f);
  for (const std::uint32_t b : small_bits) dense[b] = 1.0f;
  const std::span<const std::uint64_t> keys =
      small_lsh.all_keys_sparse(small_bits, 1.0f, scratch);
  const std::vector<std::uint64_t> dense_keys = small_lsh.all_keys(dense);
  ASSERT_EQ(keys.size(), dense_keys.size());
  for (std::size_t t = 0; t < dense_keys.size(); ++t) {
    EXPECT_EQ(keys[t], dense_keys[t]);
  }
}

// ---------- multi-probe ----------

TEST(MultiProbe, Depth0IsEmpty) {
  EXPECT_TRUE(probe_sequence({1, 2, 3}, 0).empty());
  EXPECT_EQ(probe_count(3, 0), 0u);
}

TEST(MultiProbe, Depth1EnumeratesSingleSteps) {
  const auto probes = probe_sequence({5, 5}, 1);
  EXPECT_EQ(probes.size(), probe_count(2, 1));
  EXPECT_EQ(probes.size(), 4u);
  std::set<BucketCoords> expected{{4, 5}, {6, 5}, {5, 4}, {5, 6}};
  for (const auto& p : probes) {
    EXPECT_TRUE(expected.count(p)) << "unexpected probe";
  }
}

TEST(MultiProbe, Depth2AddsPairPerturbations) {
  const auto probes = probe_sequence({0, 0, 0}, 2);
  EXPECT_EQ(probes.size(), probe_count(3, 2));
  EXPECT_EQ(probes.size(), 2u * 3 + 2u * 3 * 2);
  // All probes distinct.
  std::set<BucketCoords> unique(probes.begin(), probes.end());
  EXPECT_EQ(unique.size(), probes.size());
}

// ---------- chained LSH table ----------

TEST(ChainedTable, InsertAndFindAll) {
  LshTableChained table(16);
  table.insert(7, 100);
  table.insert(7, 101);
  table.insert(8, 200);
  const auto vals = table.find(7);
  EXPECT_EQ(vals.size(), 2u);
  EXPECT_TRUE((vals[0] == 100 && vals[1] == 101) ||
              (vals[0] == 101 && vals[1] == 100));
}

TEST(ChainedTable, ProbeCountGrowsWithChain) {
  LshTableChained table(1);  // everything in one bucket
  for (std::uint64_t i = 0; i < 20; ++i) table.insert(i, i);
  std::size_t probes = 0;
  table.find(0, &probes);
  EXPECT_EQ(probes, 20u);  // walks the whole chain: vertical addressing
  EXPECT_EQ(table.max_chain_length(), 20u);
}

TEST(ChainedTable, MissingKeyEmpty) {
  LshTableChained table(8);
  table.insert(1, 1);
  EXPECT_TRUE(table.find(99).empty());
}

// ---------- standard cuckoo ----------

TEST(Cuckoo, InsertFindErase) {
  CuckooTable t(64);
  EXPECT_TRUE(t.insert(1, 10));
  EXPECT_TRUE(t.insert(2, 20));
  EXPECT_EQ(t.find(1).value(), 10u);
  EXPECT_EQ(t.find(2).value(), 20u);
  EXPECT_FALSE(t.find(3).has_value());
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.find(1).has_value());
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.size(), 1u);
}

TEST(Cuckoo, OverwriteExistingKey) {
  CuckooTable t(64);
  EXPECT_TRUE(t.insert(5, 1));
  EXPECT_TRUE(t.insert(5, 2));
  EXPECT_EQ(t.find(5).value(), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Cuckoo, AllInsertedKeysFindableAtModerateLoad) {
  CuckooTable t(1024);
  // 40% load: standard 2-choice cuckoo handles this comfortably.
  for (std::uint64_t i = 0; i < 409; ++i) {
    ASSERT_TRUE(t.insert(i, i * 2)) << "key " << i;
  }
  for (std::uint64_t i = 0; i < 409; ++i) {
    ASSERT_EQ(t.find(i).value(), i * 2);
  }
}

TEST(Cuckoo, FailureRollsBackExactly) {
  // Fill a tiny table to force an insertion failure, then verify every
  // previously inserted key is still present with its value.
  CuckooTable t(16, 0x5eed1, 32);
  std::vector<std::uint64_t> inserted;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (t.insert(i, i + 1000)) {
      inserted.push_back(i);
    } else {
      break;
    }
  }
  EXPECT_GT(t.stats().failures + (64 - inserted.size()), 0u);
  for (std::uint64_t k : inserted) {
    ASSERT_EQ(t.find(k).value(), k + 1000) << "lost key after failure";
  }
}

TEST(Cuckoo, HighLoadEventuallyFails) {
  CuckooTable t(128, 7, 100);
  std::size_t ok = 0;
  for (std::uint64_t i = 0; i < 128; ++i) ok += t.insert(i, i);
  EXPECT_LT(ok, 128u);  // 100% load is beyond 2-choice cuckoo
  EXPECT_GT(t.stats().failures, 0u);
}

// ---------- flat cuckoo ----------

TEST(FlatCuckoo, InsertFindErase) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  FlatCuckooTable t(cfg);
  EXPECT_TRUE(t.insert(1, 10));
  EXPECT_EQ(t.find(1).value(), 10u);
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.contains(1));
}

TEST(FlatCuckoo, OverwriteInPlace) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  FlatCuckooTable t(cfg);
  t.insert(9, 1);
  t.insert(9, 2);
  EXPECT_EQ(t.find(9).value(), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlatCuckoo, SustainsHighLoad) {
  FlatCuckooConfig cfg;
  cfg.capacity = 1024;
  cfg.window = 4;
  FlatCuckooTable t(cfg);
  // 90% load: far beyond standard cuckoo, fine with W=4 neighborhoods.
  std::size_t ok = 0;
  for (std::uint64_t i = 0; i < 921; ++i) ok += t.insert(i, i);
  EXPECT_EQ(ok, 921u);
  for (std::uint64_t i = 0; i < 921; ++i) {
    ASSERT_TRUE(t.contains(i));
  }
}

TEST(FlatCuckoo, ProbesPerLookupIsTwoW) {
  FlatCuckooConfig cfg;
  cfg.window = 4;
  FlatCuckooTable t(cfg);
  EXPECT_EQ(t.probes_per_lookup(), 8u);
}

TEST(FlatCuckoo, FarFewerFailuresThanStandardAtEqualLoad) {
  // The Fig. 6 property, at test scale: load both tables to 85% and
  // compare failure counts.
  constexpr std::size_t kCap = 2048;
  constexpr std::size_t kItems = 1741;  // 85%
  std::size_t std_failures = 0, flat_failures = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    CuckooTable std_table(kCap, seed, 200);
    FlatCuckooConfig cfg;
    cfg.capacity = kCap;
    cfg.seed = seed;
    cfg.max_kicks = 200;
    FlatCuckooTable flat_table(cfg);
    for (std::uint64_t i = 0; i < kItems; ++i) {
      std_failures += !std_table.insert(i, i);
      flat_failures += !flat_table.insert(i, i);
    }
  }
  EXPECT_EQ(flat_failures, 0u);
  EXPECT_GT(std_failures, 0u);
}

TEST(FlatCuckoo, FailureRollsBackExactly) {
  FlatCuckooConfig cfg;
  cfg.capacity = 32;
  cfg.window = 2;
  cfg.max_kicks = 16;
  FlatCuckooTable t(cfg);
  std::vector<std::uint64_t> inserted;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (t.insert(i, i * 3)) inserted.push_back(i);
  }
  for (std::uint64_t k : inserted) {
    ASSERT_EQ(t.find(k).value(), k * 3);
  }
}

// A failed insert must be a perfect no-op: same size, the failed key
// absent, every resident key still mapped to its exact value and still
// erasable, and the failure visible in stats(). Checked at the moment of
// the first failure, not just at the end.
TEST(FlatCuckoo, FailedInsertIsANoOp) {
  FlatCuckooConfig cfg;
  cfg.capacity = 16;
  cfg.window = 1;  // minimal associativity so failures arrive quickly
  cfg.max_kicks = 4;
  FlatCuckooTable t(cfg);

  std::map<std::uint64_t, std::uint64_t> resident;
  std::uint64_t failed_key = 0;
  bool failed = false;
  for (std::uint64_t i = 0; i < 64 && !failed; ++i) {
    const std::uint64_t key = 0x9e3779b9ULL * (i + 1);
    if (t.insert(key, i)) {
      resident[key] = i;
    } else {
      failed = true;
      failed_key = key;
    }
  }
  ASSERT_TRUE(failed) << "table absorbed 64 keys into 16 slots";

  EXPECT_EQ(t.size(), resident.size());
  EXPECT_FALSE(t.contains(failed_key));
  EXPECT_GE(t.stats().failures, 1u);
  for (const auto& [key, value] : resident) {
    const auto found = t.find(key);
    ASSERT_TRUE(found.has_value()) << key;
    EXPECT_EQ(*found, value) << key;
  }
  // The rolled-back table is fully functional: every key erases cleanly.
  for (const auto& [key, value] : resident) {
    EXPECT_TRUE(t.erase(key)) << key;
  }
  EXPECT_EQ(t.size(), 0u);
}

// ---------- fingerprint-compressed flat cuckoo ----------

TEST(CompactFlatCuckoo, InsertFindErase) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  CompactFlatCuckooTable t(cfg);
  EXPECT_TRUE(t.insert(1, 10));
  EXPECT_EQ(t.find(1).value(), 10u);
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.contains(1));
  EXPECT_EQ(t.size(), 0u);
}

TEST(CompactFlatCuckoo, OverwriteInPlace) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  CompactFlatCuckooTable t(cfg);
  t.insert(9, 1);
  t.insert(9, 2);
  EXPECT_EQ(t.find(9).value(), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(CompactFlatCuckoo, SustainsHighLoad) {
  FlatCuckooConfig cfg;
  cfg.capacity = 1024;
  cfg.window = 4;
  CompactFlatCuckooTable t(cfg);
  std::size_t ok = 0;
  for (std::uint64_t i = 0; i < 921; ++i) ok += t.insert(i, i);
  EXPECT_EQ(ok, 921u);
  for (std::uint64_t i = 0; i < 921; ++i) {
    ASSERT_TRUE(t.contains(i));
    ASSERT_EQ(t.find(i).value(), i);
  }
}

TEST(CompactFlatCuckoo, ProbesPerLookupIsTwoW) {
  FlatCuckooConfig cfg;
  cfg.window = 4;
  CompactFlatCuckooTable t(cfg);
  EXPECT_EQ(t.probes_per_lookup(), 8u);
}

TEST(CompactFlatCuckoo, FailedInsertIsANoOp) {
  FlatCuckooConfig cfg;
  cfg.capacity = 16;
  cfg.window = 1;
  cfg.max_kicks = 4;
  CompactFlatCuckooTable t(cfg);

  std::map<std::uint64_t, std::uint64_t> resident;
  std::uint64_t failed_key = 0;
  bool failed = false;
  for (std::uint64_t i = 0; i < 64 && !failed; ++i) {
    const std::uint64_t key = 0x9e3779b9ULL * (i + 1);
    if (t.insert(key, i)) {
      resident[key] = i;
    } else {
      failed = true;
      failed_key = key;
    }
  }
  ASSERT_TRUE(failed) << "table absorbed 64 keys into 16 slots";

  // Rollback must also return the failed key's side-array entry to the free
  // list: size, residents, and erasability all intact.
  EXPECT_EQ(t.size(), resident.size());
  EXPECT_FALSE(t.contains(failed_key));
  EXPECT_GE(t.stats().failures, 1u);
  for (const auto& [key, value] : resident) {
    const auto found = t.find(key);
    ASSERT_TRUE(found.has_value()) << key;
    EXPECT_EQ(*found, value) << key;
  }
  for (const auto& [key, value] : resident) {
    EXPECT_TRUE(t.erase(key)) << key;
  }
  EXPECT_EQ(t.size(), 0u);
  // The freed side entries are reusable: the table refills to the same
  // occupancy it reached before.
  for (const auto& [key, value] : resident) {
    EXPECT_TRUE(t.insert(key, value)) << key;
  }
  EXPECT_EQ(t.size(), resident.size());
}

// A key whose 16-bit fingerprint collides with a resident key's must fall
// back to full-key verification: the lookup reports a fingerprint false
// hit but returns not-found, and an erase of the colliding key must not
// evict the resident one.
TEST(CompactFlatCuckoo, FingerprintCollisionFallsBackToFullKey) {
  FlatCuckooConfig cfg;
  cfg.capacity = 4;  // tiny table: candidate windows overlap heavily
  cfg.window = 2;
  CompactFlatCuckooTable t(cfg);
  const std::uint64_t resident = 0xfeedULL;
  ASSERT_TRUE(t.insert(resident, 7));

  // Brute-force a distinct key with the same 16-bit fingerprint that also
  // scans the resident key's slot.
  bool collided = false;
  for (std::uint64_t k = 1; k < 4'000'000 && !collided; ++k) {
    if (k == resident || t.fingerprint(k) != t.fingerprint(resident)) {
      continue;
    }
    ProbeProfile profile;
    const auto found = t.find(k, &profile);
    if (profile.fingerprint_false_hits == 0) continue;  // windows disjoint
    collided = true;
    EXPECT_FALSE(found.has_value());
    EXPECT_FALSE(t.erase(k));
    EXPECT_EQ(t.find(resident).value(), 7u);
    EXPECT_EQ(t.size(), 1u);
  }
  EXPECT_TRUE(collided) << "no fingerprint-colliding probe key found";
}

TEST(CompactFlatCuckoo, SerializeRoundTrip) {
  FlatCuckooConfig cfg;
  cfg.capacity = 256;
  cfg.window = 4;
  cfg.seed = 0x5eed;
  CompactFlatCuckooTable t(cfg);
  for (std::uint64_t i = 0; i < 180; ++i) {
    ASSERT_TRUE(t.insert(mix64(i), i));
  }
  ASSERT_TRUE(t.erase(mix64(3)));

  util::ByteWriter out;
  t.serialize(out);
  util::ByteReader in(out.data());
  auto back = CompactFlatCuckooTable::deserialize(in);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), t.size());
  for (std::uint64_t i = 0; i < 180; ++i) {
    EXPECT_EQ(back->find(mix64(i)), t.find(mix64(i))) << i;
  }
  // The deserialized table keeps working (kick RNG reseeded): inserts and
  // erases behave identically to the original from here on.
  for (std::uint64_t i = 200; i < 230; ++i) {
    EXPECT_EQ(back->insert(mix64(i), i), t.insert(mix64(i), i)) << i;
  }
  EXPECT_EQ(back->size(), t.size());
}

TEST(CompactFlatCuckoo, DeserializeRejectsCorruptBytes) {
  FlatCuckooConfig cfg;
  cfg.capacity = 64;
  CompactFlatCuckooTable t(cfg);
  for (std::uint64_t i = 0; i < 40; ++i) ASSERT_TRUE(t.insert(mix64(i), i));
  util::ByteWriter out;
  t.serialize(out);

  {  // truncated
    const auto& bytes = out.data();
    util::ByteReader in(std::span(bytes.data(), bytes.size() / 2));
    EXPECT_FALSE(CompactFlatCuckooTable::deserialize(in).has_value());
  }
  {  // bad magic
    std::vector<std::uint8_t> bytes = out.data();
    bytes[0] ^= 0xff;
    util::ByteReader in(bytes);
    EXPECT_FALSE(CompactFlatCuckooTable::deserialize(in).has_value());
  }
}

// Lockstep property test: the compact table is parity-by-construction with
// the flat table — same salts, same candidate geometry, same kick RNG
// stream — so a random history of inserts, overwrites, erases and
// re-inserts (driven well past the load where inserts start failing) must
// produce identical outcomes on both, op by op, including the rollback
// path of failed inserts.
TEST(CompactFlatCuckoo, LockstepParityWithFlatUnderRandomHistory) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    FlatCuckooConfig cfg;
    cfg.capacity = 128;
    cfg.window = 2;
    cfg.max_kicks = 32;
    cfg.seed = 0xbead + seed;
    FlatCuckooTable flat(cfg);
    CompactFlatCuckooTable compact(cfg);

    util::Rng rng(0x1057 + seed);
    std::size_t failures = 0;
    for (std::size_t op = 0; op < 4000; ++op) {
      // Key universe ~2x capacity keeps the table saturated so the kick
      // and rollback paths run constantly.
      const std::uint64_t key = mix64(rng.uniform_u64(256));
      switch (rng.uniform_u64(4)) {
        case 0:
        case 1: {  // insert / overwrite / re-insert
          const bool f = flat.insert(key, op);
          const bool c = compact.insert(key, op);
          ASSERT_EQ(f, c) << "insert diverged at op " << op;
          failures += !f;
          break;
        }
        case 2: {  // erase
          ASSERT_EQ(flat.erase(key), compact.erase(key)) << "op " << op;
          break;
        }
        default: {  // find
          ASSERT_EQ(flat.find(key), compact.find(key)) << "op " << op;
          break;
        }
      }
      ASSERT_EQ(flat.size(), compact.size()) << "op " << op;
    }
    EXPECT_GT(failures, 0u) << "history never exercised the rollback path";
    // Full-universe sweep at the end: every key agrees.
    for (std::uint64_t u = 0; u < 256; ++u) {
      ASSERT_EQ(flat.find(mix64(u)), compact.find(mix64(u))) << u;
    }
  }
}

// ---------- Windowed-cuckoo group store history ----------

using Placement = std::pair<std::uint64_t, std::uint64_t>;  // key, group

/// One table's section of a WindowedCuckooGroupStore snapshot: the history
/// it lists and the table it restores.
template <typename TableT>
struct StoreSection {
  std::vector<Placement> history;
  TableT table;
};

template <typename TableT>
std::vector<StoreSection<TableT>> read_store_sections(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  std::vector<StoreSection<TableT>> sections;
  const std::uint32_t tables = in.u32();
  for (std::uint32_t t = 0; t < tables; ++t) {
    in.u64();  // seed
    std::vector<Placement> history(in.u64());
    for (Placement& p : history) {
      p.first = in.u64();
      p.second = in.u64();
    }
    auto table = TableT::deserialize(in);
    EXPECT_TRUE(table.has_value()) << "table " << t;
    if (!table.has_value()) return {};
    sections.push_back({std::move(history), std::move(*table)});
  }
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
  return sections;
}

template <typename TableT>
std::vector<Placement> live_pairs(const TableT& table) {
  std::vector<Placement> out;
  table.for_each([&](std::uint64_t key, std::uint64_t group) {
    out.emplace_back(key, group);
  });
  return out;
}

// Both windowed-cuckoo flavors through a random insert / overwrite /
// erase / re-insert history that grows each table several times over and,
// at W = 1 with a short kick budget, fails inserts often enough to force
// same-size rebuilds. A rebuild re-inserts only the live slots, so every
// find must match a plain map, and the snapshot's history section must
// still list every place() call in group order.
TEST(GroupStoreHistory, ParityWithModelAcrossRebuilds) {
  FlatCuckooConfig cfg;
  cfg.capacity = 16;
  cfg.window = 1;
  cfg.max_kicks = 8;
  cfg.seed = 0x4157;
  constexpr std::size_t kTables = 3;
  constexpr std::uint64_t kUniverse = 1500;
  // Through the interface, where find()'s optional arguments live.
  FlatCuckooGroupStore flat_store(cfg, kTables);
  CompactFlatCuckooGroupStore compact_store(cfg, kTables);
  core::pipeline::GroupStore& flat = flat_store;
  core::pipeline::GroupStore& compact = compact_store;

  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> model(
      kTables);
  std::vector<std::vector<Placement>> placed(kTables);
  std::uint64_t next_group = 0;
  std::size_t rehashes = 0;
  std::size_t erases = 0;
  std::size_t overwrites = 0;
  util::Rng rng(0x4157);
  for (std::size_t op = 0; op < 12000; ++op) {
    const std::size_t t = rng.uniform_u64(kTables);
    const std::uint64_t key = mix64(rng.uniform_u64(kUniverse));
    const bool live = model[t].contains(key);
    const std::uint64_t draw = rng.uniform_u64(20);
    if (draw < 11 && (!live || draw == 0)) {  // insert, re-insert, overwrite
      const std::uint64_t group = next_group++;
      const std::size_t f = flat.place(t, key, group);
      ASSERT_EQ(f, compact.place(t, key, group)) << "op " << op;
      rehashes += f;
      overwrites += live ? 1 : 0;
      model[t][key] = group;
      placed[t].emplace_back(key, group);
    } else if (draw < 17) {
      flat.erase_key(t, key);
      compact.erase_key(t, key);
      erases += model[t].erase(key);
    }
    const auto it = model[t].find(key);
    const auto expect = it == model[t].end()
                            ? std::nullopt
                            : std::optional<std::uint64_t>(it->second);
    ASSERT_EQ(flat.find(t, key), expect) << "op " << op;
    ASSERT_EQ(compact.find(t, key), expect) << "op " << op;
  }
  EXPECT_GT(rehashes, 0u) << "no failed insert forced a rebuild";
  EXPECT_GT(erases, 100u);
  EXPECT_GT(overwrites, 0u);
  // Every table grew from 16 slots past several doublings.
  EXPECT_GE(flat.stats().capacity_slots, kTables * 16 * 16);
  EXPECT_EQ(flat.stats().occupied_slots, compact.stats().occupied_slots);

  for (std::size_t t = 0; t < kTables; ++t) {
    for (std::uint64_t u = 0; u < kUniverse; ++u) {
      const std::uint64_t key = mix64(u);
      const auto it = model[t].find(key);
      const auto expect = it == model[t].end()
                              ? std::nullopt
                              : std::optional<std::uint64_t>(it->second);
      ASSERT_EQ(flat.find(t, key), expect) << "table " << t << " key " << u;
      ASSERT_EQ(compact.find(t, key), expect) << "table " << t << " key " << u;
    }
  }

  util::ByteWriter flat_bytes;
  flat.serialize(flat_bytes);
  util::ByteWriter compact_bytes;
  compact.serialize(compact_bytes);
  const auto flat_sections =
      read_store_sections<FlatCuckooTable>(flat_bytes.data());
  const auto compact_sections =
      read_store_sections<CompactFlatCuckooTable>(compact_bytes.data());
  ASSERT_EQ(flat_sections.size(), kTables);
  ASSERT_EQ(compact_sections.size(), kTables);
  for (std::size_t t = 0; t < kTables; ++t) {
    // Group ids were handed out in increasing order, so the place() log
    // is already in group order.
    ASSERT_TRUE(std::is_sorted(
        placed[t].begin(), placed[t].end(),
        [](const Placement& a, const Placement& b) {
          return a.second < b.second;
        }));
    EXPECT_EQ(flat_sections[t].history, placed[t]) << "table " << t;
    EXPECT_EQ(compact_sections[t].history, placed[t]) << "table " << t;
    const std::vector<Placement> flat_live =
        live_pairs(flat_sections[t].table);
    EXPECT_EQ(flat_live.size(), model[t].size());
    EXPECT_EQ(flat_live, live_pairs(compact_sections[t].table))
        << "table " << t;
  }

  // serialize -> deserialize -> serialize reproduces the bytes, the
  // erased placements included.
  FlatCuckooGroupStore flat_back(cfg, kTables);
  util::ByteReader flat_in(flat_bytes.data());
  ASSERT_TRUE(flat_back.deserialize(flat_in));
  util::ByteWriter flat_again;
  flat_back.serialize(flat_again);
  EXPECT_EQ(flat_again.data(), flat_bytes.data());
  CompactFlatCuckooGroupStore compact_back(cfg, kTables);
  util::ByteReader compact_in(compact_bytes.data());
  ASSERT_TRUE(compact_back.deserialize(compact_in));
  util::ByteWriter compact_again;
  compact_back.serialize(compact_again);
  EXPECT_EQ(compact_again.data(), compact_bytes.data());
}

// ---------- MinHash ----------

TEST(MinHash, DeterministicBands) {
  MinHasher mh(MinHashConfig{});
  const SparseSignature sig({1, 5, 9, 100}, 4096);
  const auto m1 = mh.minhashes(sig);
  const auto m2 = mh.minhashes(sig);
  for (std::size_t b = 0; b < mh.config().bands; ++b) {
    EXPECT_EQ(mh.band_key(b, m1), mh.band_key(b, m2));
  }
}

TEST(MinHash, IdenticalSignaturesShareAllBands) {
  MinHasher mh(MinHashConfig{});
  const SparseSignature a({2, 4, 8, 16, 32}, 1024);
  const SparseSignature b({2, 4, 8, 16, 32}, 1024);
  const auto ma = mh.minhashes(a), mb = mh.minhashes(b);
  for (std::size_t band = 0; band < mh.config().bands; ++band) {
    EXPECT_EQ(mh.band_key(band, ma), mh.band_key(band, mb));
  }
}

TEST(MinHash, CollisionRateTracksJaccard) {
  // Build sets with known Jaccard and verify per-hash minhash agreement.
  MinHashConfig cfg;
  cfg.bands = 256;
  cfg.band_size = 1;  // 256 independent minhashes
  MinHasher mh(cfg);
  util::Rng rng(3);
  for (double target_j : {0.2, 0.5, 0.8}) {
    // |A| = |B| = 300 with shared fraction s: J = s / (2 - s).
    const double s = 2 * target_j / (1 + target_j);
    const auto shared = static_cast<std::uint32_t>(300 * s);
    std::vector<std::uint32_t> a, b;
    for (std::uint32_t i = 0; i < shared; ++i) {
      a.push_back(i);
      b.push_back(i);
    }
    for (std::uint32_t i = shared; i < 300; ++i) {
      a.push_back(10000 + i);
      b.push_back(20000 + i);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const SparseSignature sa(a, 1 << 16), sb(b, 1 << 16);
    const double j = SparseSignature::jaccard(sa, sb);
    const auto ma = mh.minhashes(sa), mb = mh.minhashes(sb);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < cfg.bands; ++i) {
      agree += ma[i].min == mb[i].min;
    }
    EXPECT_NEAR(static_cast<double>(agree) / cfg.bands, j, 0.09)
        << "target J " << target_j;
  }
}

TEST(MinHash, ProbeKeysDifferFromHomeKey) {
  MinHasher mh(MinHashConfig{.bands = 4, .band_size = 3, .seed = 1});
  const SparseSignature sig({1, 2, 3, 4, 5, 6, 7, 8}, 4096);
  const auto m = mh.minhashes(sig);
  for (std::size_t band = 0; band < 4; ++band) {
    const auto probes = mh.probe_keys(band, m);
    EXPECT_EQ(probes.size(), 3u);
    for (std::uint64_t p : probes) {
      EXPECT_NE(p, mh.band_key(band, m));
    }
  }
}

TEST(MinHash, CollisionProbabilityFormula) {
  EXPECT_NEAR(MinHasher::collision_probability(1.0, 10, 2), 1.0, 1e-12);
  EXPECT_NEAR(MinHasher::collision_probability(0.0, 10, 2), 0.0, 1e-12);
  const double p1 = MinHasher::collision_probability(0.5, 10, 2);
  const double p2 = MinHasher::collision_probability(0.3, 10, 2);
  EXPECT_GT(p1, p2);
}

// The pre-vectorization minhash loop, kept verbatim as the reference the
// dispatched kernel must reproduce bit for bit.
std::vector<MinHasher::MinPair> branchy_minhashes(
    const std::vector<std::uint64_t>& salts,
    const std::vector<std::uint32_t>& bits) {
  std::vector<MinHasher::MinPair> out(salts.size());
  for (std::uint32_t bit : bits) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::uint64_t h =
          mix64(salts[i] ^ (static_cast<std::uint64_t>(bit) + 1));
      MinHasher::MinPair& p = out[i];
      if (h < p.min) {
        p.second = p.min;
        p.min = h;
      } else if (h < p.second) {
        p.second = h;
      }
    }
  }
  return out;
}

void expect_same_pairs(const std::vector<MinHasher::MinPair>& got,
                       const std::vector<MinHasher::MinPair>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].min, want[i].min) << what << " lane " << i;
    ASSERT_EQ(got[i].second, want[i].second) << what << " lane " << i;
  }
}

// Salt counts cover one lane, partial blocks and several full blocks, so
// the zero-padded tail block is exercised as well as the engine's 96
// (FastConfig::minhash, 48 x 2) and MinHashConfig{}'s 144 (48 x 3).
TEST(MinHash, FoldMatchesBranchyReference) {
  util::Rng rng(0x51f7);
  for (const std::size_t salt_count :
       {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{96}, std::size_t{100}, std::size_t{144},
        std::size_t{145}}) {
    for (const std::size_t nnz : {std::size_t{0}, std::size_t{1},
                                  std::size_t{64}, std::size_t{2048}}) {
      std::vector<std::uint64_t> salts(salt_count);
      for (auto& salt : salts) salt = rng.next_u64();
      const auto bits =
          random_sorted_bits(16384, nnz, rng.next_u64() ^ salt_count);
      std::vector<MinHasher::MinPair> got(salt_count);
      MinHasher::fold(salts, bits, got);
      expect_same_pairs(got, branchy_minhashes(salts, bits),
                        "salts " + std::to_string(salt_count) + " nnz " +
                            std::to_string(nnz));
    }
  }
}

// minhashes() is the fold over the hasher's own salts, which the
// constructor draws from util::Rng(seed) in order.
TEST(MinHash, MinhashesMatchBranchyReference) {
  for (const MinHashConfig cfg :
       {MinHashConfig{}, MinHashConfig{.bands = 7, .band_size = 3, .seed = 9},
        MinHashConfig{.bands = 20, .band_size = 5, .seed = 0xabc}}) {
    const MinHasher mh(cfg);
    util::Rng salt_rng(cfg.seed);
    std::vector<std::uint64_t> salts(mh.hash_count());
    for (auto& salt : salts) salt = salt_rng.next_u64();
    for (const std::size_t nnz : {std::size_t{0}, std::size_t{3},
                                  std::size_t{512}, std::size_t{1920}}) {
      const auto bits = random_sorted_bits(16384, nnz, 0x77 + nnz);
      expect_same_pairs(mh.minhashes(SparseSignature(bits, 16384)),
                        branchy_minhashes(salts, bits),
                        "bands " + std::to_string(cfg.bands) + " nnz " +
                            std::to_string(nnz));
    }
  }
  // The empty signature keeps the all-ones sentinel in every lane.
  for (const auto& p : MinHasher(MinHashConfig{}).minhashes(
           SparseSignature({}, 16384))) {
    EXPECT_EQ(p.min, ~0ULL);
    EXPECT_EQ(p.second, ~0ULL);
  }
}

// Ties: duplicate salts make lanes compute identical hashes, and a repeated
// bit makes h equal the current min (and, repeated again, the runner-up) —
// the cases where the branch-free min/max form must agree with the
// strict-< branches of the reference.
TEST(MinHash, FoldMatchesBranchyReferenceOnTies) {
  util::Rng rng(0x7135);
  std::vector<std::uint64_t> salts(40);
  for (std::size_t i = 0; i < salts.size(); i += 2) {
    salts[i] = rng.next_u64();
    salts[i + 1] = salts[i];
  }
  for (const std::vector<std::uint32_t>& bits :
       {std::vector<std::uint32_t>{5, 5}, std::vector<std::uint32_t>{9, 5, 5},
        std::vector<std::uint32_t>{5, 9, 9, 5, 5, 9},
        std::vector<std::uint32_t>{0, 0, 0}}) {
    std::vector<MinHasher::MinPair> got(salts.size());
    MinHasher::fold(salts, bits, got);
    const auto want = branchy_minhashes(salts, bits);
    expect_same_pairs(got, want, "bits " + std::to_string(bits.size()));
    for (std::size_t i = 0; i + 1 < got.size(); i += 2) {
      EXPECT_EQ(got[i].min, got[i + 1].min);
      EXPECT_EQ(got[i].second, got[i + 1].second);
    }
  }
  // {5, 5}: the repeat ties with the min and becomes the runner-up.
  std::vector<MinHasher::MinPair> twice(salts.size());
  MinHasher::fold(salts, std::vector<std::uint32_t>{5, 5}, twice);
  for (const auto& p : twice) EXPECT_EQ(p.min, p.second);
}

// ---------- MinHash rank prefix ----------

// The engine's SA geometry: FastConfig::minhash over 16,384-bit summaries.
constexpr MinHashConfig kEngineMinHash{.bands = 48, .band_size = 2,
                                       .seed = 0x31a};
constexpr std::uint32_t kEngineBits = 16384;

std::vector<std::uint64_t> salts_of(const MinHashConfig& cfg) {
  util::Rng rng(cfg.seed);
  std::vector<std::uint64_t> salts(cfg.bands * cfg.band_size);
  for (auto& salt : salts) salt = rng.next_u64();
  return salts;
}

// The table itself: each salt's prefix holds min(256, W) distinct
// positions in ascending hash order, and no position left out hashes
// below its last entry.
TEST(MinHash, RankPrefixHoldsEachSaltsSmallestHashes) {
  for (const std::uint32_t width : {64u, 100u, 255u, 256u, 1000u, 16384u}) {
    const MinHasher mh(kEngineMinHash, width);
    ASSERT_EQ(mh.prefix_width(), width);
    const auto salts = salts_of(kEngineMinHash);
    const std::size_t length =
        std::min<std::size_t>(MinHasher::kPrefixLength, width);
    for (std::size_t i = 0; i < salts.size(); ++i) {
      const auto h = [&](std::uint32_t b) {
        return mix64(salts[i] ^ (static_cast<std::uint64_t>(b) + 1));
      };
      const auto prefix = mh.rank_prefix(i);
      ASSERT_EQ(prefix.size(), length);
      std::vector<bool> in_prefix(width, false);
      for (std::size_t j = 0; j < prefix.size(); ++j) {
        ASSERT_LT(prefix[j], width);
        ASSERT_FALSE(in_prefix[prefix[j]]) << "salt " << i;
        in_prefix[prefix[j]] = true;
        if (j > 0) {
          ASSERT_LE(h(prefix[j - 1]), h(prefix[j]));
        }
      }
      for (std::uint32_t b = 0; b < width; ++b) {
        if (!in_prefix[b]) {
          ASSERT_GE(h(b), h(prefix.back())) << "salt " << i;
        }
      }
    }
  }
  // No width, or one past u16 positions: no table, fold only.
  EXPECT_EQ(MinHasher(kEngineMinHash).prefix_width(), 0u);
  EXPECT_EQ(MinHasher(kEngineMinHash, 0).prefix_width(), 0u);
  EXPECT_EQ(MinHasher(kEngineMinHash, 65537).prefix_width(), 0u);
  EXPECT_EQ(MinHasher(kEngineMinHash, 65536).prefix_width(), 65536u);
}

// Popcounts straddle the density rule (512 set bits at 16,384: 8 expected
// prefix hits) up to the full signature; pairs must equal the reference
// loop whichever path runs.
TEST(MinHash, RankPrefixMatchesBranchyReferenceAtEngineWidth) {
  const MinHasher mh(kEngineMinHash, kEngineBits);
  const auto salts = salts_of(kEngineMinHash);
  for (const std::size_t nnz :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{511},
        std::size_t{512}, std::size_t{513}, std::size_t{1000},
        std::size_t{1973}, std::size_t{4000}, std::size_t{kEngineBits}}) {
    const auto bits = random_sorted_bits(kEngineBits, nnz, 0x3a1 + nnz);
    const SparseSignature sig(bits, kEngineBits);
    EXPECT_EQ(mh.scans_rank_prefix(sig), nnz >= 512) << "nnz " << nnz;
    expect_same_pairs(mh.minhashes(sig), branchy_minhashes(salts, bits),
                      "nnz " + std::to_string(nnz));
  }
}

// Widths below the prefix length (the prefix is every position), one that
// is not a multiple of 64, and a hash count that is not a multiple of the
// 16-salt fold block.
TEST(MinHash, RankPrefixMatchesBranchyReferenceAtOddWidths) {
  for (const MinHashConfig cfg :
       {kEngineMinHash, MinHashConfig{.bands = 7, .band_size = 3, .seed = 9}}) {
    const auto salts = salts_of(cfg);
    for (const std::uint32_t width : {64u, 100u, 255u, 1000u}) {
      const MinHasher mh(cfg, width);
      std::size_t scanned = 0;
      for (const std::size_t nnz :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
            std::size_t{8}, std::size_t{9}, std::size_t{width / 8},
            std::size_t{width / 2}, std::size_t{width - 1},
            std::size_t{width}}) {
        const auto bits = random_sorted_bits(width, nnz, width * 31 + nnz);
        const SparseSignature sig(bits, width);
        scanned += mh.scans_rank_prefix(sig) ? 1 : 0;
        expect_same_pairs(mh.minhashes(sig), branchy_minhashes(salts, bits),
                          "width " + std::to_string(width) + " nnz " +
                              std::to_string(nnz));
      }
      EXPECT_GT(scanned, 0u) << "width " << width;
    }
  }
}

// A dense signature whose set bits avoid salt 0's prefix entirely (no
// hit), or meet it exactly once, scans every other salt and folds salt 0
// over the whole signature; the pairs still equal the reference.
TEST(MinHash, RankPrefixFallsBackToFoldOnMissedSalts) {
  const MinHasher mh(kEngineMinHash, kEngineBits);
  const auto salts = salts_of(kEngineMinHash);
  std::set<std::uint32_t> avoid;
  for (const std::size_t salt : {std::size_t{0}, std::size_t{17},
                                 std::size_t{95}}) {
    for (const std::uint16_t b : mh.rank_prefix(salt)) avoid.insert(b);
  }
  const auto pick = [&](std::size_t hits) {
    // Every eighth position outside the avoided prefixes (about 1,950
    // bits), plus salt 0's prefix entries 100, 101, ... as `hits`.
    std::set<std::uint32_t> bits;
    for (std::uint32_t b = 0; b < kEngineBits; b += 8) {
      if (avoid.count(b) == 0) bits.insert(b);
    }
    for (std::size_t h = 0; h < hits; ++h) {
      bits.insert(mh.rank_prefix(0)[100 + h]);
    }
    return std::vector<std::uint32_t>(bits.begin(), bits.end());
  };
  for (const std::size_t hits : {std::size_t{0}, std::size_t{1},
                                 std::size_t{2}}) {
    const auto bits = pick(hits);
    const SparseSignature sig(bits, kEngineBits);
    ASSERT_TRUE(mh.scans_rank_prefix(sig));
    std::size_t salt0_hits = 0;
    for (const std::uint16_t b : mh.rank_prefix(0)) {
      salt0_hits += std::binary_search(bits.begin(), bits.end(), b) ? 1 : 0;
    }
    ASSERT_EQ(salt0_hits, hits);
    expect_same_pairs(mh.minhashes(sig), branchy_minhashes(salts, bits),
                      "salt-0 hits " + std::to_string(hits));
  }
}

// What SA hands the group store: band keys and multi-probe keys from a
// table-built hasher equal those of a fold-only one, on real-density and
// sparse signatures.
TEST(MinHash, AggregatorKeysMatchFoldDerivedKeys) {
  const MinHashAggregator scanned(kEngineMinHash, true, kEngineBits);
  const MinHashAggregator folded(kEngineMinHash, true, 0);
  const MinHasher reference(kEngineMinHash);
  for (const std::size_t nnz : {std::size_t{64}, std::size_t{600},
                                std::size_t{1973}, std::size_t{4000}}) {
    const auto bits = random_sorted_bits(kEngineBits, nnz, 0x5a + nnz);
    const SparseSignature sig(bits, kEngineBits);
    std::vector<std::vector<std::uint64_t>> scanned_probes, folded_probes;
    const auto keys = scanned.keys(sig, &scanned_probes);
    EXPECT_EQ(keys, folded.keys(sig, &folded_probes)) << "nnz " << nnz;
    EXPECT_EQ(scanned_probes, folded_probes) << "nnz " << nnz;
    const auto mh = reference.minhashes(sig);
    for (std::size_t band = 0; band < kEngineMinHash.bands; ++band) {
      ASSERT_EQ(keys[band], reference.band_key(band, mh));
      ASSERT_EQ(scanned_probes[band], reference.probe_keys(band, mh));
    }
  }
}

// The table is immutable once built and the scan's bitmap is on the
// caller's stack, so concurrent callers share one hasher, and hashers of
// one geometry built on several threads share one cached table (the TSan
// job runs this).
TEST(MinHash, ConcurrentCallersShareOneTable) {
  const MinHasher mh(kEngineMinHash, kEngineBits);
  const auto salts = salts_of(kEngineMinHash);
  std::vector<SparseSignature> sigs;
  std::vector<std::vector<MinHasher::MinPair>> want;
  for (std::size_t s = 0; s < 8; ++s) {
    const auto bits = random_sorted_bits(kEngineBits, 600 + 300 * s, s);
    sigs.emplace_back(bits, kEngineBits);
    want.push_back(branchy_minhashes(salts, bits));
  }
  std::vector<std::size_t> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      const MinHasher own(kEngineMinHash, kEngineBits);
      if (own.rank_prefix(0).data() != mh.rank_prefix(0).data()) {
        ++mismatches[t];
      }
      for (std::size_t round = 0; round < 20; ++round) {
        const std::size_t s = (t + round) % sigs.size();
        const auto got = (round % 2 == 0 ? mh : own).minhashes(sigs[s]);
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i].min != want[s][i].min ||
              got[i].second != want[s][i].second) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

// ---------- JaccardScorer ----------

// The scorer is the ranking kernel; SparseSignature::jaccard is the
// reference merge. Scores must be identical doubles, not merely close, so
// top-k order and tie-breaks cannot move.
TEST(JaccardScorer, MatchesPairwiseJaccardOnRandomPairs) {
  constexpr std::uint32_t kBits = 16384;
  const std::size_t popcounts[] = {0, 1, 64, 2048};
  std::size_t pairs = 0;
  for (const std::size_t na : popcounts) {
    for (const std::size_t nb : popcounts) {
      for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const auto a_bits = random_sorted_bits(kBits, na, seed * 131 + na);
        // Seed half of b from a so overlaps span the whole range rather
        // than clustering at the random expectation.
        std::set<std::uint32_t> b_set;
        for (std::size_t i = 0; i < a_bits.size() && b_set.size() < nb / 2;
             i += 2) {
          b_set.insert(a_bits[i]);
        }
        util::Rng rng(seed * 7919 + nb);
        while (b_set.size() < nb) {
          b_set.insert(static_cast<std::uint32_t>(rng.uniform_u64(kBits)));
        }
        const SparseSignature a(a_bits, kBits);
        const SparseSignature b({b_set.begin(), b_set.end()}, kBits);
        const JaccardScorer scorer(a);
        ASSERT_EQ(scorer.overlap(b), SparseSignature::overlap(a, b));
        ASSERT_EQ(scorer.score(b), SparseSignature::jaccard(a, b))
            << "na " << na << " nb " << nb << " seed " << seed;
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 1000u);
}

TEST(JaccardScorer, EdgeCases) {
  // Both empty: 1.0, as in the pairwise reference.
  const SparseSignature empty({}, 16384);
  EXPECT_EQ(JaccardScorer(empty).score(empty), 1.0);
  EXPECT_EQ(JaccardScorer(empty).score(SparseSignature({7}, 16384)), 0.0);

  // The first and last bit positions.
  const SparseSignature ends({0, 16383}, 16384);
  const SparseSignature last({16383}, 16384);
  EXPECT_EQ(JaccardScorer(ends).overlap(last), 1u);
  EXPECT_EQ(JaccardScorer(ends).score(last),
            SparseSignature::jaccard(ends, last));
  EXPECT_EQ(JaccardScorer(last).score(ends), 0.5);

  // A bit_count that is not a multiple of 64: the bitmap's last word is
  // partial.
  const SparseSignature odd_a({0, 63, 64, 98, 99}, 100);
  const SparseSignature odd_b({1, 63, 99}, 100);
  EXPECT_EQ(JaccardScorer(odd_a).overlap(odd_b), 2u);
  EXPECT_EQ(JaccardScorer(odd_a).score(odd_b),
            SparseSignature::jaccard(odd_a, odd_b));
  EXPECT_EQ(JaccardScorer(odd_b).score(odd_a),
            SparseSignature::jaccard(odd_b, odd_a));

  // Identical and disjoint pairs.
  const SparseSignature many(random_sorted_bits(16384, 2048, 0x1d), 16384);
  EXPECT_EQ(JaccardScorer(many).score(many), 1.0);
  const SparseSignature lo({1, 2, 3}, 64), hi({10, 20}, 64);
  EXPECT_EQ(JaccardScorer(lo).score(hi), 0.0);
  EXPECT_EQ(JaccardScorer(lo).overlap(hi), 0u);
}

// ---------- PackedSignature ----------

// Random signature with exactly `popcount` set bits, or every bit when
// popcount == bit_count.
SparseSignature random_signature(std::uint32_t bit_count, std::size_t popcount,
                                 std::uint64_t seed) {
  return SparseSignature(random_sorted_bits(bit_count, popcount, seed),
                         bit_count);
}

void expect_packs_losslessly(const SparseSignature& sig) {
  const PackedSignature packed(sig);
  EXPECT_EQ(packed.bit_count(), sig.bit_count());
  EXPECT_EQ(packed.popcount(), sig.popcount());
  EXPECT_EQ(packed.dense(),
            !PackedSignature::stays_sparse(sig.popcount(), sig.bit_count()));
  EXPECT_EQ(packed.unpack().set_bits(), sig.set_bits());
  EXPECT_EQ(packed.unpack().bit_count(), sig.bit_count());
  EXPECT_EQ(packed.encode(), sig.encode());
  EXPECT_EQ(packed.storage_bytes(), sig.storage_bytes());
  if (packed.dense()) {
    EXPECT_TRUE(packed.set_bits().empty());
    EXPECT_EQ(packed.words().size(), (sig.bit_count() + 63) / 64);
  } else {
    EXPECT_TRUE(packed.words().empty());
    EXPECT_TRUE(std::equal(packed.set_bits().begin(), packed.set_bits().end(),
                           sig.set_bits().begin(), sig.set_bits().end()));
  }
}

TEST(PackedSignature, ContainerRuleSwitchesAtOneBitInThirtyTwo) {
  constexpr std::uint32_t kBits = 16384;
  constexpr std::size_t kLimit = kBits / 32;
  EXPECT_FALSE(PackedSignature(random_signature(kBits, kLimit - 1, 1)).dense());
  EXPECT_FALSE(PackedSignature(random_signature(kBits, kLimit, 2)).dense());
  EXPECT_TRUE(PackedSignature(random_signature(kBits, kLimit + 1, 3)).dense());
  // The list form is never larger than the bitmap it replaces.
  EXPECT_LE(kLimit * sizeof(std::uint32_t), kBits / 8);
}

TEST(PackedSignature, RoundTripsAroundTheThresholdAndAtTheEdges) {
  for (const std::uint32_t bits : {16384u, 4096u, 100u, 1000u, 64u, 65u}) {
    const std::size_t limit = bits / 32;
    for (const std::size_t popcount :
         {std::size_t{0}, limit == 0 ? 0 : limit - 1, limit, limit + 1,
          std::size_t{bits / 2}, std::size_t{bits}}) {
      SCOPED_TRACE("bit_count " + std::to_string(bits) + " popcount " +
                   std::to_string(popcount));
      expect_packs_losslessly(
          random_signature(bits, popcount, bits + popcount));
    }
  }
  // Both ends of the range, in both forms.
  expect_packs_losslessly(SparseSignature({0, 16383}, 16384));
  expect_packs_losslessly(SparseSignature({0, 99}, 100));
  expect_packs_losslessly(random_signature(100, 100, 5));  // all set, dense
  expect_packs_losslessly(SparseSignature({}, 0));
  const PackedSignature empty{};
  EXPECT_EQ(empty.encode(), SparseSignature().encode());
  EXPECT_EQ(empty.storage_bytes(), SparseSignature().storage_bytes());
}

TEST(PackedSignature, RealSummaryBitmapIsSmallerThanItsList) {
  const SparseSignature sig = random_signature(16384, 1900, 0x5e);
  const PackedSignature packed(sig);
  ASSERT_TRUE(packed.dense());
  EXPECT_EQ(packed.words().size_bytes(), 2048u);
  EXPECT_LT(packed.words().size_bytes(),
            sig.set_bits().size() * sizeof(std::uint32_t));
}

TEST(PackedSignature, DispatchedKernelIsSupported) {
  EXPECT_TRUE(popcount_kernel_supported(PopcountKernel::kPortable));
  EXPECT_TRUE(popcount_kernel_supported(best_popcount_kernel()));
}

// ---------- SignatureSlab ----------

// A slot must hold exactly what a PackedSignature of the same summary
// holds: the same form, bits, codec bytes and storage size.
void expect_slot_matches_packed(const SignatureSlab& slab, std::uint32_t slot,
                                const SparseSignature& sig) {
  const PackedSignature packed(sig);
  const PackedView view = slab.view(slot);
  EXPECT_EQ(view.dense(), packed.dense());
  EXPECT_EQ(slab.popcount(slot), sig.popcount());
  EXPECT_EQ(view.bit_count(), sig.bit_count());
  EXPECT_TRUE(std::equal(view.words().begin(), view.words().end(),
                         packed.words().begin(), packed.words().end()));
  EXPECT_TRUE(std::equal(view.set_bits().begin(), view.set_bits().end(),
                         packed.set_bits().begin(), packed.set_bits().end()));
  EXPECT_EQ(slab.unpack(slot).set_bits(), sig.set_bits());
  EXPECT_EQ(slab.unpack(slot).bit_count(), sig.bit_count());
  EXPECT_EQ(slab.encode(slot), packed.encode());
  EXPECT_EQ(slab.storage_bytes(slot), packed.storage_bytes());
}

TEST(SignatureSlab, FollowsThePackedDensityRule) {
  constexpr std::uint32_t kBits = 16384;
  SignatureSlab slab(kBits);
  const std::size_t popcounts[] = {0,           1,    kBits / 32,
                                   kBits / 32 + 1, 1973, kBits};
  const bool dense[] = {false, false, false, true, true, true};
  for (std::size_t i = 0; i < std::size(popcounts); ++i) {
    SCOPED_TRACE("popcount " + std::to_string(popcounts[i]));
    const SparseSignature sig = random_signature(kBits, popcounts[i], i + 1);
    const std::uint32_t slot = slab.add(100 + i, sig);
    EXPECT_EQ(slot, i);
    EXPECT_EQ(slab.id(slot), 100 + i);
    EXPECT_EQ(slab.view(slot).dense(), dense[i]);
    expect_slot_matches_packed(slab, slot, sig);
  }
  EXPECT_EQ(slab.size(), std::size(popcounts));
}

TEST(SignatureSlab, CodecMatchesPackedSignatureAtOddWidths) {
  for (const std::uint32_t bits : {16384u, 1100u, 100u, 65u, 64u, 1u}) {
    SignatureSlab slab(bits);
    const std::size_t limit = bits / 32;
    for (const std::size_t popcount :
         {std::size_t{0}, limit, limit + 1, std::size_t{bits / 2},
          std::size_t{bits}}) {
      SCOPED_TRACE("bit_count " + std::to_string(bits) + " popcount " +
                   std::to_string(popcount));
      const SparseSignature sig =
          random_signature(bits, popcount, bits * 7 + popcount);
      expect_slot_matches_packed(slab, slab.add(popcount, sig), sig);
    }
  }
  // Both ends of the range.
  SignatureSlab slab(16384);
  const SparseSignature ends({0, 16383}, 16384);
  expect_slot_matches_packed(slab, slab.add(1, ends), ends);
}

TEST(SignatureSlab, RecyclesSlotsAndBitmapBlocks) {
  constexpr std::uint32_t kBits = 16384;
  SignatureSlab slab(kBits);
  const SparseSignature dense_a = random_signature(kBits, 1973, 1);
  const SparseSignature dense_b = random_signature(kBits, 1973, 2);
  const SparseSignature list = random_signature(kBits, 64, 3);
  const std::uint32_t a = slab.add(10, dense_a);
  const std::uint32_t b = slab.add(11, dense_b);
  const std::uint64_t* a_words = slab.view(a).words().data();

  // The freed slot and its block come back first, holding the new summary.
  slab.remove(a);
  EXPECT_FALSE(slab.live(a));
  EXPECT_EQ(slab.size(), 1u);
  const std::uint32_t c = slab.add(12, dense_b);
  EXPECT_EQ(c, a);
  EXPECT_EQ(slab.id(c), 12u);
  EXPECT_EQ(slab.view(c).words().data(), a_words);
  expect_slot_matches_packed(slab, c, dense_b);

  // A dense slot reused as a list leaves its block for the next bitmap.
  slab.remove(c);
  const std::uint32_t d = slab.add(13, list);
  EXPECT_EQ(d, a);
  EXPECT_FALSE(slab.view(d).dense());
  expect_slot_matches_packed(slab, d, list);
  const std::uint32_t e = slab.add(14, dense_a);
  EXPECT_EQ(e, 2u);  // a new slot ...
  EXPECT_EQ(slab.view(e).words().data(), a_words);  // ... on the freed block
  expect_slot_matches_packed(slab, e, dense_a);
  expect_slot_matches_packed(slab, b, dense_b);
  EXPECT_EQ(slab.slot_limit(), 3u);

  // Churn in place allocates nothing new.
  const std::size_t chunks = slab.chunk_count();
  for (std::size_t round = 0; round < 3 * slab.bitmaps_per_chunk();
       ++round) {
    slab.remove(e);
    EXPECT_EQ(slab.add(15 + round, round % 2 == 0 ? dense_b : dense_a), e);
  }
  EXPECT_EQ(slab.chunk_count(), chunks);
  EXPECT_EQ(slab.slot_limit(), 3u);
  EXPECT_EQ(slab.size(), 3u);
}

TEST(SignatureSlab, ChunkPointersStableAcrossGrowth) {
  constexpr std::uint32_t kBits = 16384;
  SignatureSlab slab(kBits);
  std::vector<SparseSignature> sigs;
  std::vector<const std::uint64_t*> words;
  for (std::size_t i = 0; i < 1000; ++i) {
    // Mostly bitmaps, with a list every seventh slot.
    sigs.push_back(random_signature(kBits, i % 7 == 0 ? 64 : 1973, i + 1));
    const std::uint32_t slot = slab.add(i, sigs.back());
    ASSERT_EQ(slot, i);
    words.push_back(slab.view(slot).words().data());
    if (slab.view(slot).dense()) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.back()) % 64, 0u);
    }
  }
  EXPECT_EQ(slab.bitmaps_per_chunk(), 64u);
  EXPECT_GE(slab.chunk_count(), 1000 * 6 / 7 / slab.bitmaps_per_chunk());
  for (std::uint32_t slot = 0; slot < 1000; ++slot) {
    EXPECT_EQ(slab.view(slot).words().data(), words[slot]) << "slot " << slot;
    EXPECT_EQ(slab.unpack(slot).set_bits(), sigs[slot].set_bits())
        << "slot " << slot;
  }
}

// ---------- BitmapArena ----------

TEST(BitmapArena, RegionsAreHugePageAligned) {
  BitmapArena arena;
  std::vector<void*> chunks;
  for (std::size_t i = 0; i < BitmapArena::kChunksPerRegion + 1; ++i) {
    chunks.push_back(arena.allocate());
  }
  EXPECT_EQ(arena.regions(), 2u);
  EXPECT_EQ(arena.chunks_in_use(), chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    // Chunks fill a region from its 2 MiB-aligned base up.
    const auto addr = reinterpret_cast<std::uintptr_t>(chunks[i]);
    const std::uintptr_t base = addr & ~(BitmapArena::kRegionBytes - 1);
    EXPECT_EQ(addr - base,
              (i % BitmapArena::kChunksPerRegion) * BitmapArena::kChunkBytes)
        << "chunk " << i;
    if (i % BitmapArena::kChunksPerRegion != 0) {
      EXPECT_EQ(base, reinterpret_cast<std::uintptr_t>(chunks[i - 1]) &
                          ~(BitmapArena::kRegionBytes - 1));
    }
    std::memset(chunks[i], 0xa5, BitmapArena::kChunkBytes);
  }
  // The second region goes when its only chunk does; the first stays
  // while any of its chunks is in use.
  arena.release(chunks.back());
  EXPECT_EQ(arena.regions(), 1u);
  for (std::size_t i = 0; i + 2 < chunks.size(); ++i) arena.release(chunks[i]);
  EXPECT_EQ(arena.regions(), 1u);
  EXPECT_EQ(arena.chunks_in_use(), 1u);
  arena.release(chunks[chunks.size() - 2]);
  EXPECT_EQ(arena.regions(), 0u);
  EXPECT_EQ(arena.chunks_in_use(), 0u);
}

TEST(BitmapArena, SlabsShareChunksAndReturnThem) {
  constexpr std::uint32_t kBits = 16384;
  BitmapArena arena;
  const SparseSignature dense = random_signature(kBits, 1973, 1);
  const SparseSignature list = random_signature(kBits, 64, 2);
  {
    // Lists take no chunk.
    SignatureSlab slab(kBits, arena);
    slab.add(1, list);
    EXPECT_EQ(arena.regions(), 0u);
  }
  {
    // Two small slabs take one chunk each of one region.
    SignatureSlab a(kBits, arena);
    SignatureSlab b(kBits, arena);
    const auto* a_words = a.view(a.add(1, dense)).words().data();
    const auto* b_words = b.view(b.add(2, dense)).words().data();
    EXPECT_EQ(arena.regions(), 1u);
    EXPECT_EQ(arena.chunks_in_use(), 2u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b_words) -
                  reinterpret_cast<std::uintptr_t>(a_words),
              BitmapArena::kChunkBytes);
  }
  EXPECT_EQ(arena.regions(), 0u);  // the last chunk took the region along

  SignatureSlab keep(kBits, arena);  // holds the region open
  keep.add(0, dense);
  const std::uint64_t* freed = nullptr;
  {
    SignatureSlab gone(kBits, arena);
    freed = gone.view(gone.add(1, dense)).words().data();
  }
  EXPECT_EQ(arena.chunks_in_use(), 1u);
  // A chunk a dead slab gave back is the next slab's first.
  SignatureSlab next(kBits, arena);
  const std::uint32_t slot = next.add(2, list);
  EXPECT_EQ(next.view(next.add(3, dense)).words().data(), freed);
  expect_slot_matches_packed(next, slot, list);
  expect_slot_matches_packed(next, slot + 1, dense);
  expect_slot_matches_packed(keep, 0, dense);
  EXPECT_EQ(arena.regions(), 1u);
}

// Every width keeps a power-of-two count of bitmaps per slab chunk, so
// block lookup is a shift and a mask. Bitmaps up to 1,048,576 bits share
// arena chunks; wider ones (fast_server's --bloom-bits allows up to 2^24)
// take regions of their own, as many bitmaps as fit one region, at least one.
TEST(BitmapArena, WideBitmapsTakeRegionsOfTheirOwn) {
  struct Case {
    std::uint32_t bits;
    std::size_t per_chunk;
    std::size_t regions;  // for two slab chunks
  };
  for (const Case& tc : {Case{10'000, 64, 1}, Case{1u << 20, 1, 1},
                         Case{2'000'000, 8, 2}, Case{1u << 24, 1, 2},
                         Case{20'000'000, 1, 2}}) {
    SCOPED_TRACE(tc.bits);
    BitmapArena arena;
    std::vector<std::uint32_t> every_7th;
    for (std::uint32_t b = 3; b < tc.bits; b += 7) every_7th.push_back(b);
    const SparseSignature dense(every_7th, tc.bits);
    const SparseSignature list = random_signature(tc.bits, 64, tc.bits);
    {
      SignatureSlab slab(tc.bits, arena);
      EXPECT_EQ(slab.bitmaps_per_chunk(), tc.per_chunk);
      const std::uint32_t l = slab.add(0, list);
      EXPECT_EQ(arena.regions(), 0u);
      for (std::size_t i = 0; i <= tc.per_chunk; ++i) slab.add(i + 1, dense);
      EXPECT_EQ(slab.chunk_count(), 2u);
      EXPECT_EQ(arena.chunks_in_use(), 2u);
      EXPECT_EQ(arena.regions(), tc.regions);
      const auto first = reinterpret_cast<std::uintptr_t>(
          slab.view(l + 1).words().data());
      const auto last = reinterpret_cast<std::uintptr_t>(
          slab.view(l + 1 + static_cast<std::uint32_t>(tc.per_chunk))
              .words()
              .data());
      const std::uintptr_t align = tc.regions == 2 ? BitmapArena::kRegionBytes
                                                   : BitmapArena::kChunkBytes;
      EXPECT_EQ(first % align, 0u);
      EXPECT_EQ(last % align, 0u);
      expect_slot_matches_packed(slab, l, list);
      expect_slot_matches_packed(slab, l + 1, dense);
      expect_slot_matches_packed(
          slab, l + 1 + static_cast<std::uint32_t>(tc.per_chunk), dense);
    }
    EXPECT_EQ(arena.regions(), 0u);
    EXPECT_EQ(arena.chunks_in_use(), 0u);
  }
}

// Slabs on several threads grow past a region's worth of chunks and die at
// once, all on the process-wide arena, as tiered lanes and segments do.
TEST(BitmapArena, ConcurrentSlabsGrowAndDrop) {
  constexpr std::uint32_t kBits = 16384;
  constexpr std::size_t kThreads = 4;
  const std::size_t in_use = BitmapArena::global().chunks_in_use();
  std::vector<SparseSignature> sigs;
  for (std::size_t i = 0; i < 8; ++i) {
    sigs.push_back(random_signature(kBits, 600 + i, i + 1));
  }
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 3; ++round) {
        SignatureSlab slab(kBits);
        const std::size_t n = (BitmapArena::kChunksPerRegion / 2 + t + round) *
                              slab.bitmaps_per_chunk();
        for (std::size_t i = 0; i < n; ++i) slab.add(i, sigs[(i + t) % 8]);
        for (std::uint32_t slot = 0; slot < n; ++slot) {
          if (slab.unpack(slot).set_bits() != sigs[(slot + t) % 8].set_bits()) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(BitmapArena::global().chunks_in_use(), in_use);
}

// score(Packed) must equal the pairwise reference bit for bit on every word
// kernel, over dense x dense, dense x sparse and sparse x sparse pairs.
class PackedScorerTest : public ::testing::TestWithParam<PopcountKernel> {};

TEST_P(PackedScorerTest, MatchesPairwiseJaccardOnRandomPairs) {
  const PopcountKernel kernel = GetParam();
  if (!popcount_kernel_supported(kernel)) {
    GTEST_SKIP() << popcount_kernel_name(kernel) << " not supported here";
  }
  // 16,384 bits as in the real summaries, plus a width whose last word is
  // partial and whose word count is not a multiple of the AVX-512 stride.
  for (const std::uint32_t bits : {16384u, 1100u}) {
    const std::size_t limit = bits / 32;
    const std::size_t popcounts[] = {0,         1,         limit,
                                     limit + 1, bits / 9, bits / 2, bits};
    std::size_t dense_pairs = 0;
    for (const std::size_t na : popcounts) {
      for (const std::size_t nb : popcounts) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
          const auto a_bits = random_sorted_bits(bits, na, seed * 131 + na);
          // Seed half of b from a so overlaps span the whole range.
          std::set<std::uint32_t> b_set;
          for (std::size_t i = 0; i < a_bits.size() && b_set.size() < nb / 2;
               i += 2) {
            b_set.insert(a_bits[i]);
          }
          util::Rng rng(seed * 7919 + nb);
          while (b_set.size() < nb) {
            b_set.insert(static_cast<std::uint32_t>(rng.uniform_u64(bits)));
          }
          const SparseSignature a(a_bits, bits);
          const SparseSignature b({b_set.begin(), b_set.end()}, bits);
          const PackedSignature packed(b);
          const JaccardScorer scorer(a, kernel);
          ASSERT_EQ(scorer.overlap(packed), SparseSignature::overlap(a, b));
          ASSERT_EQ(scorer.score(packed), SparseSignature::jaccard(a, b))
              << "bits " << bits << " na " << na << " nb " << nb << " seed "
              << seed;
          ASSERT_EQ(scorer.score(packed), scorer.score(b));
          dense_pairs += packed.dense() ? 1 : 0;
        }
      }
    }
    EXPECT_GT(dense_pairs, 0u);
  }
}

// score_slots() over a slab mixing bitmaps, lists and an empty summary,
// in scrambled order with repeats: every score equals the pairwise Jaccard.
TEST_P(PackedScorerTest, ScoreSlotsMatchesPairwiseJaccard) {
  const PopcountKernel kernel = GetParam();
  if (!popcount_kernel_supported(kernel)) {
    GTEST_SKIP() << popcount_kernel_name(kernel) << " not supported here";
  }
  for (const std::uint32_t bits : {16384u, 1100u}) {
    SignatureSlab slab(bits);
    std::vector<SparseSignature> stored;
    const std::size_t popcounts[] = {0, 1, bits / 32, bits / 32 + 1, bits / 9,
                                     bits / 2, bits};
    for (std::size_t i = 0; i < 40; ++i) {
      stored.push_back(random_signature(
          bits, popcounts[i % std::size(popcounts)], bits + i));
      ASSERT_EQ(slab.add(i, stored.back()), i);
    }
    util::Rng rng(bits);
    std::vector<std::uint32_t> slots;
    for (std::size_t i = 0; i < 100; ++i) {
      slots.push_back(static_cast<std::uint32_t>(rng.uniform_u64(40)));
    }
    for (const std::size_t query_popcount : {std::size_t{0}, std::size_t{bits / 9}}) {
      const SparseSignature query =
          random_signature(bits, query_popcount, query_popcount + 5);
      const JaccardScorer scorer(query, kernel);
      std::vector<double> scores(slots.size());
      scorer.score_slots(slab, slots, scores);
      for (std::size_t c = 0; c < slots.size(); ++c) {
        ASSERT_EQ(scores[c],
                  SparseSignature::jaccard(query, stored[slots[c]]))
            << "bits " << bits << " candidate " << c;
      }
    }
    // Every count around the prefetch distance D (none, fewer than D, fewer
    // than 2D, more), over shuffled orders.
    const JaccardScorer scorer(stored[5], kernel);
    constexpr std::size_t kD = JaccardScorer::kPrefetchDistance;
    std::vector<std::uint32_t> order(stored.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t n = 0; n <= 2 * kD + 2; ++n) {
      for (std::uint64_t shuffle = 0; shuffle < 4; ++shuffle) {
        std::shuffle(order.begin(), order.end(),
                     std::mt19937_64(bits * 31 + n * 7 + shuffle));
        const std::span<const std::uint32_t> some(order.data(), n);
        std::vector<double> scores(n);
        scorer.score_slots(slab, some, scores);
        for (std::size_t c = 0; c < n; ++c) {
          ASSERT_EQ(scores[c], scorer.score(slab.view(some[c])))
              << "bits " << bits << " n " << n << " candidate " << c;
          ASSERT_EQ(scores[c],
                    SparseSignature::jaccard(stored[5], stored[some[c]]));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, PackedScorerTest,
    ::testing::Values(PopcountKernel::kPortable, PopcountKernel::kPopcnt,
                      PopcountKernel::kAvx512),
    [](const ::testing::TestParamInfo<PopcountKernel>& info) {
      switch (info.param) {
        case PopcountKernel::kPortable:
          return std::string("Portable");
        case PopcountKernel::kPopcnt:
          return std::string("Popcnt");
        case PopcountKernel::kAvx512:
          return std::string("Avx512");
      }
      return std::string("Unknown");
    });

// ---------- Packed ranking through the indexes ----------

// FastIndex and TieredIndex store PackedSignature and rank with
// JaccardScorer. With k covering every candidate, each hit must carry the
// pairwise-reference score and the hits must be in reference order (score
// descending, id ascending), so every top-k prefix is the reference top-k.
class PackedRankingTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kThinnedBase = 1000;

  static void SetUpTestSuite() {
    const workload::Dataset dataset = test::small_dataset(40);
    core::FastIndex helper(flat_config(), test::fake_pca());
    corpus_ = new std::map<std::uint64_t, SparseSignature>();
    queries_ = new std::vector<SparseSignature>();
    for (std::size_t i = 0; i < dataset.photos.size(); ++i) {
      const SparseSignature sig = helper.summarize(dataset.photos[i].image);
      corpus_->emplace(i, sig);
      // Every eighth bit of the same summary: a real signature thinned
      // below the list threshold, so both stored forms meet in one
      // candidate set.
      std::vector<std::uint32_t> thinned;
      for (std::size_t b = 0; b < sig.set_bits().size(); b += 8) {
        thinned.push_back(sig.set_bits()[b]);
      }
      corpus_->emplace(kThinnedBase + i,
                       SparseSignature(std::move(thinned), sig.bit_count()));
      queries_->push_back(sig);
    }
    for (const auto& q : workload::make_dup_queries(dataset, 10, 0x9a)) {
      queries_->push_back(helper.summarize(q.image));
    }
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete queries_;
    corpus_ = nullptr;
    queries_ = nullptr;
  }

  static core::FastConfig flat_config() {
    core::FastConfig cfg;
    cfg.cuckoo.capacity = 256;
    return cfg;
  }
  static core::FastConfig tiered_config() {
    core::FastConfig cfg = flat_config();
    cfg.tier.enabled = true;
    cfg.tier.seal_threshold = 8;
    cfg.tier.lanes = 2;
    cfg.tier.compact_fanin = 2;
    cfg.tier.compact_trigger = 2;
    cfg.tier.background = false;
    return cfg;
  }

  static void expect_reference_ranking(const core::QueryResult& result,
                                       const SparseSignature& query) {
    ASSERT_EQ(result.hits.size(), result.candidates);
    std::vector<core::ScoredId> reference;
    for (const auto& hit : result.hits) {
      reference.push_back(core::ScoredId{
          hit.id, SparseSignature::jaccard(query, corpus_->at(hit.id))});
    }
    std::sort(reference.begin(), reference.end(),
              [](const core::ScoredId& a, const core::ScoredId& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
    for (std::size_t h = 0; h < reference.size(); ++h) {
      ASSERT_EQ(result.hits[h].id, reference[h].id) << "hit " << h;
      ASSERT_EQ(result.hits[h].score, reference[h].score) << "hit " << h;
    }
  }

  /// Ranks every query through `index` and checks it; returns how many
  /// dense and sparse stored signatures the hits covered.
  template <typename Index>
  static std::pair<std::size_t, std::size_t> check_all_queries(
      const Index& index) {
    std::set<std::uint64_t> dense, sparse;
    for (const SparseSignature& query : *queries_) {
      const core::QueryResult result =
          index.query_signature(query, corpus_->size());
      expect_reference_ranking(result, query);
      for (const auto& hit : result.hits) {
        const SparseSignature& stored = corpus_->at(hit.id);
        (PackedSignature(stored).dense() ? dense : sparse).insert(hit.id);
      }
    }
    return {dense.size(), sparse.size()};
  }

  static std::map<std::uint64_t, SparseSignature>* corpus_;
  static std::vector<SparseSignature>* queries_;
};

std::map<std::uint64_t, SparseSignature>* PackedRankingTest::corpus_ = nullptr;
std::vector<SparseSignature>* PackedRankingTest::queries_ = nullptr;

TEST_F(PackedRankingTest, FastIndexMatchesPairwiseReference) {
  core::FastIndex index(flat_config(), test::fake_pca());
  for (const auto& [id, sig] : *corpus_) index.insert_signature(id, sig);
  const auto [dense, sparse] = check_all_queries(index);
  EXPECT_GT(dense, 0u);
  EXPECT_GT(sparse, 0u);
}

// The same real-density corpus through a FastIndex whose SA derives keys
// from the rank prefix and one whose SA folds every set bit: the indexes
// must answer every query identically.
TEST_F(PackedRankingTest, RankPrefixIndexMatchesFoldOnlyIndex) {
  const core::FastConfig cfg = flat_config();
  core::FastIndex scanned(cfg, test::fake_pca());
  core::FastIndex folded(
      cfg, core::pipeline::make_summarizer(cfg, test::fake_pca()),
      std::make_unique<MinHashAggregator>(cfg.minhash, cfg.minhash_multiprobe,
                                          0),
      core::pipeline::make_group_store(cfg, cfg.minhash.bands));
  for (const auto& [id, sig] : *corpus_) {
    scanned.insert_signature(id, sig);
    folded.insert_signature(id, sig);
  }
  const MinHasher table(cfg.minhash,
                        static_cast<std::uint32_t>(cfg.bloom_bits));
  std::size_t scanned_queries = 0;
  for (const SparseSignature& query : *queries_) {
    scanned_queries += table.scans_rank_prefix(query) ? 1 : 0;
    const core::QueryResult a = scanned.query_signature(query, 10);
    const core::QueryResult b = folded.query_signature(query, 10);
    ASSERT_EQ(a.candidates, b.candidates);
    ASSERT_EQ(a.bucket_probes, b.bucket_probes);
    ASSERT_EQ(a.table_slot_reads, b.table_slot_reads);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      ASSERT_EQ(a.hits[h].id, b.hits[h].id) << "hit " << h;
      ASSERT_EQ(a.hits[h].score, b.hits[h].score) << "hit " << h;
    }
  }
  EXPECT_GT(scanned_queries, 0u);
}

TEST_F(PackedRankingTest, TieredIndexMatchesPairwiseReference) {
  core::TieredIndex index(tiered_config(), test::fake_pca());
  for (const auto& [id, sig] : *corpus_) index.insert_signature(id, sig);
  ASSERT_GT(index.segment_count(), 0u);
  const auto [dense, sparse] = check_all_queries(index);
  EXPECT_GT(dense, 0u);
  EXPECT_GT(sparse, 0u);
}

// ---------- Both layouts over the signature slab ----------

// Every index layer keeps its summaries in a SignatureSlab and its groups
// hold slots: the flat index is one layer, the tiered index a memtable
// layer per lane plus frozen segment layers. These run the real-summary
// corpus through histories that free and reuse slots of both forms, on
// both layouts, and check every answer against references that know
// nothing of slots. The tiered layout seals every few mentions and
// compacts inline, so its histories cross seals and compactions.
class SlabIndexTest : public PackedRankingTest {
 protected:
  static constexpr std::uint64_t kFreshBase = 5000;

  static std::vector<core::FastConfig> layouts(const core::FastConfig& flat) {
    core::FastConfig tiered = tiered_config();
    tiered.minhash_multiprobe = flat.minhash_multiprobe;
    // A lane keeps two segments between merges, so at query time a newer
    // segment's mention shadows an older one's.
    tiered.tier.compact_trigger = 3;
    return {flat, tiered};
  }
  static std::string layout_name(const core::FastConfig& cfg) {
    return cfg.tier.enabled ? "tiered" : "flat";
  }

  /// Inserts the corpus, then erases, replaces and re-inserts so that
  /// freed bitmap and list slots are reused, often by the other form.
  /// Returns the live id -> signature map.
  static std::map<std::uint64_t, SparseSignature> churn(
      core::Backend& index) {
    std::map<std::uint64_t, SparseSignature> live(*corpus_);
    for (const auto& [id, sig] : live) index.insert_signature(id, sig);
    std::vector<std::uint64_t> ids;
    for (const auto& entry : live) ids.push_back(entry.first);
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      EXPECT_TRUE(index.erase(ids[i]));
      live.erase(ids[i]);
    }
    // Re-insert under another summary: the id leaves its groups and slot
    // and comes back in a recycled one.
    for (std::size_t i = 1; i < ids.size(); i += 5) {
      const SparseSignature& other = corpus_->at(ids[(i * 7 + 3) % ids.size()]);
      index.insert_signature(ids[i], other);
      live.insert_or_assign(ids[i], other);
    }
    // New ids in freed slots, then some erased ids back under their own
    // summaries.
    for (std::size_t i = 0; i < ids.size(); i += 6) {
      const SparseSignature& sig = corpus_->at(ids[(i + 1) % ids.size()]);
      index.insert_signature(kFreshBase + i, sig);
      live.insert_or_assign(kFreshBase + i, sig);
    }
    for (std::size_t i = 3; i < ids.size(); i += 6) {
      index.insert_signature(ids[i], corpus_->at(ids[i]));
      live.insert_or_assign(ids[i], corpus_->at(ids[i]));
    }
    EXPECT_EQ(index.size(), live.size());
    return live;
  }

  /// The candidates a query must gather, by brute force: every live id
  /// whose bucket key in some table is the query's home or probe key
  /// there. Also returns the number of buckets the query probes.
  static std::set<std::uint64_t> reference_candidates(
      const core::pipeline::SemanticAggregator& aggregator,
      const std::map<std::uint64_t, SparseSignature>& live,
      const SparseSignature& query, std::size_t* bucket_probes) {
    std::vector<std::vector<std::uint64_t>> probes;
    const std::vector<std::uint64_t> keys = aggregator.keys(query, &probes);
    std::vector<std::set<std::uint64_t>> reached(keys.size());
    *bucket_probes = 0;
    for (std::size_t t = 0; t < keys.size(); ++t) {
      reached[t].insert(keys[t]);
      reached[t].insert(probes[t].begin(), probes[t].end());
      *bucket_probes += 1 + probes[t].size();
    }
    std::set<std::uint64_t> candidates;
    for (const auto& [id, sig] : live) {
      const std::vector<std::uint64_t> own = aggregator.keys(sig, nullptr);
      for (std::size_t t = 0; t < own.size(); ++t) {
        if (reached[t].contains(own[t])) {
          candidates.insert(id);
          break;
        }
      }
    }
    return candidates;
  }

  /// Same hits and candidates; with `same_work`, also the same probe work
  /// (and so the same simulated price).
  static void expect_same_answer(const core::QueryResult& a,
                                 const core::QueryResult& b,
                                 bool same_work = true) {
    ASSERT_EQ(a.candidates, b.candidates);
    if (same_work) {
      ASSERT_EQ(a.bucket_probes, b.bucket_probes);
      ASSERT_EQ(a.table_slot_reads, b.table_slot_reads);
    }
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      ASSERT_EQ(a.hits[h].id, b.hits[h].id) << "hit " << h;
      ASSERT_EQ(a.hits[h].score, b.hits[h].score) << "hit " << h;
    }
  }
};

// After churn, every query gathers exactly the brute-force candidates and
// ranks them exactly as the pairwise merge does. A fresh index built from
// the surviving summaries answers identically. On the flat layout that
// includes the per-table slot reads (flat addressing reads a fixed number
// of slots per lookup, so the probe work does not depend on the churned
// table layout); a tiered index probes once per layer, so its probe work
// follows its seal history and only hits and candidates must match.
TEST_F(SlabIndexTest, ChurnedIndexMatchesPairwiseReference) {
  for (const bool multiprobe : {false, true}) {
    core::FastConfig flat = flat_config();
    flat.minhash_multiprobe = multiprobe;
    for (const core::FastConfig& cfg : layouts(flat)) {
      SCOPED_TRACE(layout_name(cfg) +
                   (multiprobe ? ", multiprobe" : ", home buckets only"));
      const auto index = core::make_backend(cfg, test::fake_pca());
      const auto live = churn(*index);
      const auto fresh = core::make_backend(cfg, test::fake_pca());
      for (const auto& [id, sig] : live) fresh->insert_signature(id, sig);
      const auto aggregator = core::pipeline::make_aggregator(cfg);
      const bool flat_layout = !cfg.tier.enabled;

      std::size_t gathered = 0;
      for (const SparseSignature& query : *queries_) {
        std::size_t bucket_probes = 0;
        const std::set<std::uint64_t> candidates =
            reference_candidates(*aggregator, live, query, &bucket_probes);
        const core::QueryResult result =
            index->query_signature(query, live.size());
        ASSERT_EQ(result.candidates, candidates.size());
        if (flat_layout) {
          ASSERT_EQ(result.bucket_probes, bucket_probes);
        }
        std::vector<core::ScoredId> want;
        for (const std::uint64_t id : candidates) {
          want.push_back({id, SparseSignature::jaccard(query, live.at(id))});
        }
        std::sort(want.begin(), want.end(),
                  [](const core::ScoredId& a, const core::ScoredId& b) {
                    if (a.score != b.score) return a.score > b.score;
                    return a.id < b.id;
                  });
        ASSERT_EQ(result.hits.size(), want.size());
        for (std::size_t h = 0; h < want.size(); ++h) {
          ASSERT_EQ(result.hits[h].id, want[h].id) << "hit " << h;
          ASSERT_EQ(result.hits[h].score, want[h].score) << "hit " << h;
        }
        expect_same_answer(result, fresh->query_signature(query, live.size()),
                           flat_layout);
        expect_same_answer(index->query_signature(query, 10),
                           fresh->query_signature(query, 10), flat_layout);
        gathered += result.candidates;
      }
      EXPECT_GT(gathered, queries_->size());
      if (!flat_layout) {
        const auto snap = index->metrics().snapshot();
        EXPECT_GT(snap.counters.at("tier.seals"), 0u);
        EXPECT_GT(snap.counters.at("compaction.runs"), 0u);
      }
    }
  }
}

// An erased id's slot is handed to the next insert. The newcomer must join
// only its own groups: none of the erased id's groups may list it, and no
// query through the erased id's buckets may reach it. The group lists are
// the flat layout's; on the tiered layout the victim is re-inserted first,
// so it lives in a memtable whose slot the erase frees.
TEST_F(SlabIndexTest, ReusedSlotNeverJoinsTheErasedIdsGroups) {
  for (const core::FastConfig& cfg : layouts(flat_config())) {
    SCOPED_TRACE(layout_name(cfg));
    const auto backend = core::make_backend(cfg, test::fake_pca());
    for (const auto& [id, sig] : *corpus_) backend->insert_signature(id, sig);
    const auto* flat = dynamic_cast<const core::FastIndex*>(backend.get());
    const auto aggregator = core::pipeline::make_aggregator(cfg);
    const std::size_t tables = aggregator->table_count();

    // A bitmap victim replaced by a list newcomer, then the reverse.
    for (const std::uint64_t victim : {std::uint64_t{3}, kThinnedBase + 4}) {
      SCOPED_TRACE("victim " + std::to_string(victim));
      const std::vector<std::uint64_t> victim_keys =
          aggregator->keys(corpus_->at(victim), nullptr);
      // The newcomer's summary is of the other form and shares no bucket
      // key with the victim's in any table.
      const SparseSignature* newcomer_sig = nullptr;
      for (const auto& [id, sig] : *corpus_) {
        if ((id >= kThinnedBase) == (victim >= kThinnedBase)) continue;
        const std::vector<std::uint64_t> keys = aggregator->keys(sig, nullptr);
        bool disjoint = true;
        for (std::size_t t = 0; t < tables; ++t) {
          disjoint = disjoint && keys[t] != victim_keys[t];
        }
        if (disjoint) {
          newcomer_sig = &sig;
          break;
        }
      }
      ASSERT_NE(newcomer_sig, nullptr);

      std::vector<std::size_t> victim_groups;
      if (flat != nullptr) {
        for (std::size_t g = 0; g < flat->group_count(); ++g) {
          const auto members = flat->group_members(g);
          if (std::find(members.begin(), members.end(), victim) !=
              members.end()) {
            victim_groups.push_back(g);
          }
        }
        ASSERT_EQ(victim_groups.size(), tables);
      } else {
        backend->insert_signature(victim, corpus_->at(victim));
      }

      ASSERT_TRUE(backend->erase(victim));
      const std::uint64_t newcomer = kFreshBase + victim;
      backend->insert_signature(newcomer, *newcomer_sig);

      if (flat != nullptr) {
        for (const std::size_t g : victim_groups) {
          const auto members = flat->group_members(g);
          EXPECT_EQ(std::count(members.begin(), members.end(), newcomer), 0)
              << "group " << g;
          EXPECT_EQ(std::count(members.begin(), members.end(), victim), 0)
              << "group " << g;
        }
        std::size_t appearances = 0;
        for (std::size_t g = 0; g < flat->group_count(); ++g) {
          const auto members = flat->group_members(g);
          appearances += static_cast<std::size_t>(
              std::count(members.begin(), members.end(), newcomer));
        }
        EXPECT_EQ(appearances, tables);
      }
      // Through the victim's old buckets, no query reaches the newcomer.
      const core::QueryResult result = backend->query_signature(
          corpus_->at(victim), corpus_->size() + 2);
      for (const auto& hit : result.hits) {
        EXPECT_NE(hit.id, newcomer);
        EXPECT_NE(hit.id, victim);
      }
      // Through its own, every query does.
      const core::QueryResult own =
          backend->query_signature(*newcomer_sig, corpus_->size() + 2);
      EXPECT_EQ(std::count_if(own.hits.begin(), own.hits.end(),
                              [&](const core::ScoredId& hit) {
                                return hit.id == newcomer;
                              }),
                1);
    }
  }
}

// A snapshot numbers slots afresh (in id order) and the WAL tail replays
// onto them; the recovered index must answer exactly like the live one
// whose slots were numbered by its churn history.
TEST_F(SlabIndexTest, SnapshotRecoveryAnswersLikeLive) {
  for (const core::FastConfig& cfg : layouts(flat_config())) {
    SCOPED_TRACE(layout_name(cfg));
    const std::string dir =
        ::testing::TempDir() + "fast_slab_snapshot_" + layout_name(cfg);
    std::filesystem::remove_all(dir);
    core::DurabilityOptions opts;
    opts.dir = dir;
    auto opened = core::open_backend(cfg, test::fake_pca(), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    const std::unique_ptr<core::Backend> live = std::move(opened).value();
    churn(*live);
    ASSERT_TRUE(live->save_snapshot().ok());
    // A WAL tail past the snapshot: an erase, a replacement, a new id.
    ASSERT_TRUE(live->erase(1));
    live->insert_signature(2, corpus_->at(kThinnedBase + 9));
    live->insert_signature(kFreshBase + 999, corpus_->at(7));

    core::RecoveryStats stats;
    auto recovered = core::open_backend(cfg, test::fake_pca(), opts, &stats);
    ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
    EXPECT_TRUE(stats.loaded_snapshot);
    const core::Backend& back = *recovered.value();
    ASSERT_EQ(back.size(), live->size());
    EXPECT_EQ(back.index_bytes(), live->index_bytes());
    const auto* flat_back = dynamic_cast<const core::FastIndex*>(&back);
    const auto* flat_live = dynamic_cast<const core::FastIndex*>(live.get());
    if (flat_back != nullptr) {
      ASSERT_EQ(flat_back->group_count(), flat_live->group_count());
      for (std::size_t g = 0; g < flat_live->group_count(); ++g) {
        ASSERT_EQ(flat_back->group_members(g), flat_live->group_members(g))
            << "group " << g;
      }
    }
    for (const SparseSignature& query : *queries_) {
      expect_same_answer(back.query_signature(query, 10),
                         live->query_signature(query, 10));
      expect_same_answer(back.query_signature(query, corpus_->size()),
                         live->query_signature(query, corpus_->size()));
    }
    std::filesystem::remove_all(dir);
  }
}

// Concurrent readers each dedupe through their own thread's scratch, and
// one thread's scratch serves layers of different sizes in turn: four
// threads alternating between the churned and a small index must answer
// every query as a lone caller does. On the tiered layout each query walks
// several memtable and segment layers, the segments' slabs shared by every
// reader.
TEST_F(SlabIndexTest, ConcurrentQueriesMatchSequentialAnswers) {
  for (const core::FastConfig& cfg : layouts(flat_config())) {
    SCOPED_TRACE(layout_name(cfg));
    const auto index = core::make_backend(cfg, test::fake_pca());
    churn(*index);
    const auto small = core::make_backend(cfg, test::fake_pca());
    for (std::uint64_t id = 0; id < 6; ++id) {
      small->insert_signature(id, corpus_->at(id));
    }
    std::vector<core::QueryResult> want_index, want_small;
    for (const SparseSignature& query : *queries_) {
      want_index.push_back(index->query_signature(query, 10));
      want_small.push_back(small->query_signature(query, 10));
    }
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < 4; ++t) {
      readers.emplace_back([&, t] {
        for (std::size_t round = 0; round < 3; ++round) {
          for (std::size_t i = 0; i < queries_->size(); ++i) {
            const std::size_t q = (i + t * 7) % queries_->size();
            expect_same_answer(index->query_signature((*queries_)[q], 10),
                               want_index[q]);
            expect_same_answer(small->query_signature((*queries_)[q], 10),
                               want_small[q]);
          }
        }
      });
    }
    for (auto& r : readers) r.join();
  }
}

// ---------- Compact correlation groups ----------

// An IndexLayer keeps a one-member group inline in its head and spills a
// larger one to a reused list (DESIGN.md §3q). These drive one layer
// through scripted histories and hold it to a model that keeps every group
// as a plain member list: same groups, same members in membership order,
// same bucket keys, same snapshot bytes.
class GroupTableTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kTables = 3;

  /// Groups as plain id lists plus each table's key -> group map.
  struct Model {
    std::vector<std::vector<std::uint64_t>> groups;
    std::vector<std::map<std::uint64_t, std::size_t>> key_group =
        std::vector<std::map<std::uint64_t, std::size_t>>(kTables);

    void place(std::uint64_t id, std::span<const std::uint64_t> keys) {
      for (std::size_t t = 0; t < keys.size(); ++t) {
        const auto [it, created] = key_group[t].emplace(keys[t], groups.size());
        if (created) {
          groups.push_back({id});
        } else {
          groups[it->second].push_back(id);
        }
      }
    }
    void remove(std::uint64_t id, std::span<const std::uint64_t> keys) {
      for (std::size_t t = 0; t < keys.size(); ++t) {
        const auto it = key_group[t].find(keys[t]);
        if (it == key_group[t].end()) continue;
        auto& members = groups[it->second];
        members.erase(std::remove(members.begin(), members.end(), id),
                      members.end());
        if (members.empty()) key_group[t].erase(it);
      }
    }
    std::vector<std::uint8_t> encode_groups() const {
      util::ByteWriter out;
      out.u64(groups.size());
      for (const auto& members : groups) {
        out.u64(members.size());
        for (const std::uint64_t id : members) out.u64(id);
      }
      return out.take();
    }
  };

  static core::FastConfig config() {
    core::FastConfig cfg;
    cfg.cuckoo.capacity = 256;
    return cfg;
  }
  /// A small distinct summary per id (its content does not matter here:
  /// the keys are chosen by the test).
  static SparseSignature signature(std::uint64_t id) {
    const auto bits = static_cast<std::uint32_t>(config().bloom_bits);
    return SparseSignature(
        {static_cast<std::uint32_t>(id % bits),
         static_cast<std::uint32_t>((id * 7919 + 17) % bits) | 1u << 13},
        bits);
  }
  static std::vector<std::uint64_t> member_ids(const core::IndexLayer& layer,
                                               std::size_t g) {
    std::vector<std::uint64_t> ids;
    for (const std::uint32_t slot : layer.group(g)) {
      ids.push_back(layer.slab().id(slot));
    }
    return ids;
  }
  static void expect_matches(const core::IndexLayer& layer, const Model& model,
                             std::uint64_t key_limit) {
    ASSERT_EQ(layer.group_count(), model.groups.size());
    for (std::size_t g = 0; g < model.groups.size(); ++g) {
      ASSERT_EQ(member_ids(layer, g), model.groups[g]) << "group " << g;
    }
    for (std::size_t t = 0; t < kTables; ++t) {
      for (std::uint64_t key = 0; key < key_limit; ++key) {
        const auto it = model.key_group[t].find(key);
        const std::optional<std::uint64_t> want =
            it == model.key_group[t].end()
                ? std::nullopt
                : std::optional<std::uint64_t>(it->second);
        ASSERT_EQ(layer.store().find(t, key), want)
            << "table " << t << " key " << key;
      }
    }
    util::ByteWriter out;
    layer.write_groups(out);
    ASSERT_EQ(out.data(), model.encode_groups());
  }
  static core::IndexLayer restore(const core::IndexLayer& layer) {
    util::ByteWriter out;
    layer.serialize(out);
    core::IndexLayer back(config(), kTables);
    util::ByteReader in(out.data());
    EXPECT_TRUE(back.deserialize(in));
    return back;
  }
};

// Seeded inserts, erases and re-inserts over a small key space, so groups
// grow past one member, shrink back to one, empty out (releasing their
// keys) and come back under fresh group ids; the layer matches the model
// after every step, and a snapshot of the final state restores to it.
TEST_F(GroupTableTest, ScriptedChurnMatchesPlainGroupLists) {
  constexpr std::uint64_t kIds = 40;
  constexpr std::uint64_t kKeys = 6;
  core::IndexLayer layer(config(), kTables);
  Model model;
  std::mt19937_64 rng(0x6a0c);
  std::map<std::uint64_t, std::vector<std::uint64_t>> live;  // id -> keys
  std::size_t spilled = 0, demoted = 0, emptied = 0;
  for (std::size_t step = 0; step < 600; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t id = rng() % kIds;
    if (const auto it = live.find(id); it != live.end()) {
      const std::vector<std::uint64_t> keys = it->second;
      std::vector<std::size_t> sizes;
      for (std::size_t t = 0; t < kTables; ++t) {
        sizes.push_back(model.groups[model.key_group[t].at(keys[t])].size());
      }
      layer.remove(id, keys);
      model.remove(id, keys);
      live.erase(it);
      for (const std::size_t size : sizes) {
        demoted += size == 2 ? 1 : 0;
        emptied += size == 1 ? 1 : 0;
      }
    } else {
      std::vector<std::uint64_t> keys;
      for (std::size_t t = 0; t < kTables; ++t) keys.push_back(rng() % kKeys);
      for (std::size_t t = 0; t < kTables; ++t) {
        const auto g = model.key_group[t].find(keys[t]);
        spilled += g != model.key_group[t].end() &&
                           model.groups[g->second].size() == 1
                       ? 1
                       : 0;
      }
      layer.place(id, signature(id), keys, nullptr);
      model.place(id, keys);
      live.emplace(id, keys);
    }
    expect_matches(layer, model, kKeys);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(spilled, 20u);
  EXPECT_GT(demoted, 20u);
  EXPECT_GT(emptied, 20u);
  EXPECT_EQ(layer.entries(), live.size());

  const core::IndexLayer back = restore(layer);
  expect_matches(back, model, kKeys);
}

// A snapshot holding a zero-member group (its key released) and a group
// demoted from two members to one restores to the same groups, and the
// restored layer keeps growing and shrinking them like the live one.
TEST_F(GroupTableTest, RestoresEmptiedAndDemotedGroups) {
  core::IndexLayer layer(config(), kTables);
  Model model;
  const std::vector<std::uint64_t> shared = {1, 1, 1};
  const std::vector<std::uint64_t> alone = {2, 2, 2};
  for (const auto& [id, keys] :
       std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>>{
           {10, shared}, {11, shared}, {12, alone}}) {
    layer.place(id, signature(id), keys, nullptr);
    model.place(id, keys);
  }
  layer.remove(12, alone);  // three emptied groups
  model.remove(12, alone);
  layer.remove(10, shared);  // three groups demoted to {11}
  model.remove(10, shared);
  ASSERT_NO_FATAL_FAILURE(expect_matches(layer, model, 4));
  ASSERT_EQ(model.groups.size(), 6u);
  EXPECT_TRUE(model.groups[3].empty());
  EXPECT_EQ(model.groups[0], std::vector<std::uint64_t>{11});

  core::IndexLayer back = restore(layer);
  ASSERT_NO_FATAL_FAILURE(expect_matches(back, model, 4));
  for (core::IndexLayer* l : {&layer, &back}) {
    l->place(13, signature(13), shared, nullptr);
    l->place(14, signature(14), alone, nullptr);
    l->remove(11, shared);
  }
  model.place(13, shared);
  model.place(14, alone);
  model.remove(11, shared);
  EXPECT_EQ(model.groups[0], std::vector<std::uint64_t>{13});
  ASSERT_NO_FATAL_FAILURE(expect_matches(layer, model, 4));
  ASSERT_NO_FATAL_FAILURE(expect_matches(back, model, 4));
  EXPECT_DEATH(layer.group(layer.group_count()), "g < heads_.size");
}

// FastIndex::group_members lists members in the order they joined, not in
// id order, through spills, demotions and re-joins.
TEST_F(GroupTableTest, FastIndexListsMembersInMembershipOrder) {
  core::FastIndex index(config(), test::fake_pca());
  const SparseSignature sig = signature(3);
  const auto members = [&] {
    std::set<std::vector<std::uint64_t>> distinct;
    for (std::size_t g = 0; g < index.group_count(); ++g) {
      if (auto ids = index.group_members(g); !ids.empty()) {
        distinct.insert(std::move(ids));
      }
    }
    return distinct;
  };
  using Lists = std::set<std::vector<std::uint64_t>>;
  // One summary under every id: all of them share each table's group.
  for (const std::uint64_t id : {30, 10, 20}) index.insert_signature(id, sig);
  EXPECT_EQ(members(), (Lists{{30, 10, 20}}));
  ASSERT_TRUE(index.erase(10));
  EXPECT_EQ(members(), (Lists{{30, 20}}));
  index.insert_signature(10, sig);
  EXPECT_EQ(members(), (Lists{{30, 20, 10}}));
  ASSERT_TRUE(index.erase(30));
  ASSERT_TRUE(index.erase(20));
  EXPECT_EQ(members(), (Lists{{10}}));
  index.insert_signature(5, sig);
  EXPECT_EQ(members(), (Lists{{10, 5}}));
}

}  // namespace
}  // namespace fast::hash
