// Google-benchmark micro suite for the hashing substrate: raw hash
// functions, Bloom operations, sparse-signature algebra (pairwise Jaccard,
// the per-query bitmap scorer over list and packed candidates), LSH
// backends (MinHash also at the engine geometry, fold next to the
// rank-prefix scan) and the cuckoo tables (standard vs flat vs
// fingerprint-compressed). The find
// benches publish roofline counters — bytes_per_lookup and
// slots_per_lookup from the ProbeProfile instrumentation — so the probe
// working-set gap between backends is visible next to the timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "hash/bloom_filter.hpp"
#include "hash/compact_flat_cuckoo_table.hpp"
#include "hash/cuckoo_table.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/group_stores.hpp"
#include "hash/hashes.hpp"
#include "hash/lsh_table_chained.hpp"
#include "hash/minhash.hpp"
#include "hash/pstable_lsh.hpp"
#include "hash/signature_slab.hpp"
#include "hash/sparse_signature.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fast;

std::vector<std::uint8_t> make_key(std::size_t len) {
  util::Rng rng(len);
  std::vector<std::uint8_t> key(len);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
  return key;
}

void BM_Murmur3(benchmark::State& state) {
  const auto key = make_key(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::murmur3_128(key.data(), key.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Murmur3)->Arg(16)->Arg(144)->Arg(4096);

void BM_Fnv1a(benchmark::State& state) {
  const auto key = make_key(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::fnv1a_64(key.data(), key.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a)->Arg(16)->Arg(144);

void BM_BloomInsert(benchmark::State& state) {
  hash::BloomFilter bf(16384, 8);
  std::uint64_t i = 0;
  for (auto _ : state) {
    bf.insert_u64(i++);
  }
}
BENCHMARK(BM_BloomInsert);

void BM_BloomQuery(benchmark::State& state) {
  hash::BloomFilter bf(16384, 8);
  for (std::uint64_t i = 0; i < 500; ++i) bf.insert_u64(i);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.maybe_contains_u64(i++ % 1000));
  }
}
BENCHMARK(BM_BloomQuery);

hash::SparseSignature make_signature(std::size_t popcount,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < popcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(16));
    bits.push_back(cur);
  }
  return hash::SparseSignature(std::move(bits), cur + 1);
}

void BM_SparseJaccard(benchmark::State& state) {
  const auto a = make_signature(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = make_signature(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::SparseSignature::jaccard(a, b));
  }
}
BENCHMARK(BM_SparseJaccard)->Arg(256)->Arg(2048);

// The ranking kernel on the same pairs: the query bitmap is built once,
// outside the timing loop, as FastIndex/TieredIndex build it once per query.
void BM_JaccardScorer(benchmark::State& state) {
  const auto a = make_signature(static_cast<std::size_t>(state.range(0)), 1);
  const auto b = make_signature(static_cast<std::size_t>(state.range(0)), 2);
  const std::uint32_t bit_count = std::max(a.bit_count(), b.bit_count());
  const hash::SparseSignature query(a.set_bits(), bit_count);
  const hash::SparseSignature candidate(b.set_bits(), bit_count);
  const hash::JaccardScorer scorer(query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.score(candidate));
  }
}
BENCHMARK(BM_JaccardScorer)->Arg(256)->Arg(2048);

// Ranking on the servebench shape: 16,384-bit summaries with about 1,900
// bits set (dense, stored as a bitmap) and 64-bit-popcount client
// signatures (stored as a list). Arg 0 is the popcount; Arg 1 picks the
// candidate form: 0 scores the SparseSignature list with today's bit test,
// 1 + k the PackedSignature through PopcountKernel k. The label names the
// kernel and marks the one JaccardScorer dispatches to on this host. Any
// score that differs from SparseSignature::jaccard aborts the run.
void BM_JaccardScorerPacked(benchmark::State& state) {
  constexpr std::uint32_t kBits = 16384;
  const auto popcount = static_cast<std::size_t>(state.range(0));
  util::Rng rng(popcount);
  std::vector<std::uint32_t> a_bits, b_bits;
  while (a_bits.size() < popcount || b_bits.size() < popcount) {
    const auto bit = static_cast<std::uint32_t>(rng.uniform_u64(kBits));
    // About half of b's bits are shared with a, as for near duplicates.
    const bool shared = rng.uniform_u64(2) == 0;
    if (a_bits.size() < popcount) a_bits.push_back(bit);
    if (b_bits.size() < popcount && (shared || a_bits.size() == popcount)) {
      b_bits.push_back(shared ? bit : bit ^ 1);
    }
  }
  for (auto* bits : {&a_bits, &b_bits}) {
    std::sort(bits->begin(), bits->end());
    bits->erase(std::unique(bits->begin(), bits->end()), bits->end());
  }
  const hash::SparseSignature query(std::move(a_bits), kBits);
  const hash::SparseSignature candidate(std::move(b_bits), kBits);
  const hash::PackedSignature packed(candidate);
  const double want = hash::SparseSignature::jaccard(query, candidate);
  const auto expect_reference = [&](double got, const std::string& form) {
    if (got == want) return;
    std::fprintf(stderr, "%s score differs from jaccard\n", form.c_str());
    std::abort();
  };

  if (state.range(1) == 0) {
    const hash::JaccardScorer scorer(query);
    expect_reference(scorer.score(candidate), "list");
    state.SetLabel("list");
    for (auto _ : state) {
      benchmark::DoNotOptimize(scorer.score(candidate));
    }
    return;
  }
  const auto kernel = static_cast<hash::PopcountKernel>(state.range(1) - 1);
  const std::string name = hash::popcount_kernel_name(kernel);
  if (!hash::popcount_kernel_supported(kernel)) {
    state.SkipWithError((name + " not supported on this CPU").c_str());
    return;
  }
  const hash::JaccardScorer scorer(query, kernel);
  expect_reference(scorer.score(packed), "packed " + name);
  state.SetLabel(std::string(packed.dense() ? "bitmap " : "list ") + name +
                 (kernel == hash::best_popcount_kernel() ? " (dispatched)"
                                                         : ""));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.score(packed));
  }
}
BENCHMARK(BM_JaccardScorerPacked)
    ->ArgsProduct({{64, 1900}, {0, 1, 2, 3}});

// Ranking one real query's candidates as the flat index stores them: 395
// of 1,000 random 16,384-bit summaries with 1,973 bits set (the traced
// search_real p50), scored against a query of the same shape. Arg 0 picks
// the store: 0 ranks slots of a hash::SignatureSlab with score_slots (and
// its prefetch), 1 looks each id up in an id-keyed unordered_map of
// PackedSignature and scores it, the store the slab replaced. Arg 1 = 1
// runs cold: a 64 MB pass evicts the caches before each iteration, untimed,
// as for a lone query at search_real's 50 QPS; 0 runs warm. Aborts if the
// two stores score differently.
void BM_RankCandidates(benchmark::State& state) {
  constexpr std::uint32_t kBits = 16384;
  constexpr std::size_t kStored = 1000, kCandidates = 395, kPopcount = 1973;
  const auto summary = [](std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<bool> set(kBits, false);
    std::vector<std::uint32_t> bits;
    while (bits.size() < kPopcount) {
      const auto bit = static_cast<std::uint32_t>(rng.uniform_u64(kBits));
      if (!set[bit]) bits.push_back(bit);
      set[bit] = true;
    }
    std::sort(bits.begin(), bits.end());
    return hash::SparseSignature(std::move(bits), kBits);
  };
  const bool slab_store = state.range(0) == 0;
  const bool cold = state.range(1) == 1;
  hash::SignatureSlab slab(kBits);
  std::unordered_map<std::uint64_t, hash::PackedSignature> by_id;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kStored; ++i) {
    const std::uint64_t id = 0x9e3779b97f4a7c15ULL * (i + 1);
    const hash::SparseSignature sig = summary(i + 1);
    // Both stores are filled, one entry each in turn, so neither gets a
    // contiguous heap the other lacks.
    slab.add(id, sig);
    by_id.emplace(id, hash::PackedSignature(sig));
    ids.push_back(id);
  }
  // A random candidate subset in random order, as gathered from groups.
  util::Rng rng(0xc0ffee);
  std::vector<std::uint32_t> slots(kStored);
  for (std::uint32_t s = 0; s < kStored; ++s) slots[s] = s;
  for (std::size_t i = kStored - 1; i > 0; --i) {
    std::swap(slots[i], slots[rng.uniform_u64(i + 1)]);
  }
  slots.resize(kCandidates);
  std::vector<std::uint64_t> candidate_ids;
  for (const std::uint32_t s : slots) candidate_ids.push_back(ids[s]);

  const hash::JaccardScorer scorer(summary(0));
  std::vector<double> scores(kCandidates), want(kCandidates);
  scorer.score_slots(slab, slots, scores);
  for (std::size_t c = 0; c < kCandidates; ++c) {
    want[c] = scorer.score(by_id.at(candidate_ids[c]));
  }
  if (scores != want) {
    std::fprintf(stderr, "slab and map rankings differ\n");
    std::abort();
  }

  std::vector<std::uint64_t> evict(std::size_t{64} << 20 >> 3, 1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (cold) {
      state.PauseTiming();
      for (std::size_t i = 0; i < evict.size(); i += 8) sink += evict[i]++;
      state.ResumeTiming();
    }
    if (slab_store) {
      scorer.score_slots(slab, slots, scores);
    } else {
      for (std::size_t c = 0; c < kCandidates; ++c) {
        scores[c] = scorer.score(by_id.find(candidate_ids[c])->second);
      }
    }
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(sink);
  state.SetLabel(std::string(slab_store ? "slab" : "map") +
                 (cold ? " cold" : " warm"));
  state.counters["ns_per_candidate"] = benchmark::Counter(
      static_cast<double>(kCandidates),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_RankCandidates)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(400);

void BM_SparseEncode(benchmark::State& state) {
  const auto sig = make_signature(2048, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.encode());
  }
}
BENCHMARK(BM_SparseEncode);

void BM_PStableAllKeys(benchmark::State& state) {
  hash::LshConfig cfg;
  cfg.dim = static_cast<std::size_t>(state.range(0));
  hash::PStableLsh lsh(cfg);
  util::Rng rng(5);
  std::vector<float> v(cfg.dim);
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh.all_keys(v));
  }
}
BENCHMARK(BM_PStableAllKeys)->Arg(256)->Arg(4096)->Arg(16384);

// Sparse-gather counterpart: BM_PStableAllKeysSparse/<dim>/<nnz> derives
// all L tables' keys for a 0/1 signature with nnz set bits. The
// speedup_vs_dense counter divides a dense all_keys reference timing
// (measured once at setup) by this benchmark's per-iteration time; expect
// roughly dim/nnz.
void BM_PStableAllKeysSparse(benchmark::State& state) {
  hash::LshConfig cfg;
  cfg.dim = static_cast<std::size_t>(state.range(0));
  const auto nnz = static_cast<std::size_t>(state.range(1));
  hash::PStableLsh lsh(cfg);
  util::Rng rng(5);
  std::vector<std::uint32_t> bits;
  const std::size_t stride = cfg.dim / (nnz + 1);
  std::uint32_t cur = 0;
  for (std::size_t i = 0; i < nnz; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(
                   stride > 1 ? stride - 1 : 1));
    bits.push_back(std::min(cur, static_cast<std::uint32_t>(cfg.dim - 1)));
  }
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());

  // Dense reference: the same signature through the pre-sparse path.
  std::vector<float> dense(cfg.dim, 0.0f);
  for (const std::uint32_t b : bits) dense[b] = 1.0f;
  double dense_s = 0.0;
  {
    constexpr int kReps = 16;
    util::WallTimer timer;
    for (int r = 0; r < kReps; ++r) {
      benchmark::DoNotOptimize(lsh.all_keys(dense));
    }
    dense_s = timer.elapsed_seconds() / kReps;
  }

  hash::SparseProjectionScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lsh.all_keys_sparse(bits, 1.0f, scratch).data());
  }
  state.counters["nnz"] = static_cast<double>(bits.size());
  // dense_s * iterations / elapsed == dense_s / sparse_s.
  state.counters["speedup_vs_dense"] = benchmark::Counter(
      dense_s * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PStableAllKeysSparse)
    ->Args({256, 64})
    ->Args({4096, 256})
    ->Args({16384, 512})
    ->Args({16384, 1024});

void BM_MinHashAll(benchmark::State& state) {
  hash::MinHasher mh(hash::MinHashConfig{});
  const auto sig = make_signature(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mh.minhashes(sig));
  }
}
BENCHMARK(BM_MinHashAll)->Arg(256)->Arg(2048);

// The engine's SA geometry: FastConfig::minhash (48 bands x 2) over
// 16,384-bit summaries. Arg is the popcount: 64 as for a wire_small client
// key, 512 at the rank-prefix density rule, 1,973 as for a real photo.
constexpr hash::MinHashConfig kEngineMinHash{.bands = 48, .band_size = 2,
                                             .seed = 0x31a};
constexpr std::uint32_t kEngineBits = 16384;

hash::SparseSignature engine_signature(std::size_t popcount) {
  util::Rng rng(popcount);
  std::vector<bool> set(kEngineBits, false);
  std::vector<std::uint32_t> bits;
  while (bits.size() < popcount) {
    const auto bit = static_cast<std::uint32_t>(rng.uniform_u64(kEngineBits));
    if (!set[bit]) bits.push_back(bit);
    set[bit] = true;
  }
  std::sort(bits.begin(), bits.end());
  return hash::SparseSignature(std::move(bits), kEngineBits);
}

// minhashes() as the engine runs it: a hasher built for the index width,
// which scans the rank prefix at or above the density rule (the label says
// which path ran). Aborts if any pair differs from the fold-only hasher.
void BM_MinHashEngine(benchmark::State& state) {
  const hash::MinHasher mh(kEngineMinHash, kEngineBits);
  const auto sig = engine_signature(static_cast<std::size_t>(state.range(0)));
  const auto want = hash::MinHasher(kEngineMinHash).minhashes(sig);
  const auto got = mh.minhashes(sig);
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i].min != want[i].min || got[i].second != want[i].second) {
      std::fprintf(stderr, "rank-prefix minhash %zu differs from fold\n", i);
      std::abort();
    }
  }
  state.SetLabel(mh.scans_rank_prefix(sig) ? "rank prefix" : "fold");
  for (auto _ : state) {
    benchmark::DoNotOptimize(mh.minhashes(sig));
  }
}
BENCHMARK(BM_MinHashEngine)->Arg(64)->Arg(512)->Arg(1973);

// The same signatures through a fold-only hasher: every set bit is hashed
// under every salt.
void BM_MinHashEngineFold(benchmark::State& state) {
  const hash::MinHasher mh(kEngineMinHash);
  const auto sig = engine_signature(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mh.minhashes(sig));
  }
}
BENCHMARK(BM_MinHashEngineFold)->Arg(64)->Arg(512)->Arg(1973);

// Building the rank-prefix table for the engine's 96 salts, paid once per
// process and geometry (hashers of one geometry share the table).
void BM_MinHasherBuild(benchmark::State& state) {
  const auto width = static_cast<std::uint32_t>(state.range(0));
  util::Rng rng(kEngineMinHash.seed);
  std::vector<std::uint64_t> salts(kEngineMinHash.bands *
                                   kEngineMinHash.band_size);
  for (auto& salt : salts) salt = rng.next_u64();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash::MinHasher::build_rank_prefix(salts, width).data());
  }
  state.SetLabel("48x2 salts");
}
BENCHMARK(BM_MinHasherBuild)
    ->Arg(1000)
    ->Arg(kEngineBits)
    ->Unit(benchmark::kMicrosecond);

void BM_CuckooInsert_Standard(benchmark::State& state) {
  const std::size_t cap = 1 << 16;
  hash::CuckooTable table(cap);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (table.size() > cap / 2) {
      state.PauseTiming();
      table = hash::CuckooTable(cap);
      state.ResumeTiming();
    }
    const std::uint64_t key = hash::mix64(i);
    ++i;
    benchmark::DoNotOptimize(table.insert(key, i));
  }
}
BENCHMARK(BM_CuckooInsert_Standard);

void BM_CuckooInsert_Flat(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 16;
  hash::FlatCuckooTable table(cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (table.size() > cfg.capacity * 9 / 10) {
      state.PauseTiming();
      table = hash::FlatCuckooTable(cfg);
      state.ResumeTiming();
    }
    const std::uint64_t key = hash::mix64(i);
    ++i;
    benchmark::DoNotOptimize(table.insert(key, i));
  }
}
BENCHMARK(BM_CuckooInsert_Flat);

void BM_CuckooInsert_Compact(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 16;
  hash::CompactFlatCuckooTable table(cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (table.size() > cfg.capacity * 9 / 10) {
      state.PauseTiming();
      table = hash::CompactFlatCuckooTable(cfg);
      state.ResumeTiming();
    }
    const std::uint64_t key = hash::mix64(i);
    ++i;
    benchmark::DoNotOptimize(table.insert(key, i));
  }
}
BENCHMARK(BM_CuckooInsert_Compact);

void BM_CuckooFind_Standard(benchmark::State& state) {
  hash::CuckooTable table(1 << 16);
  for (std::uint64_t i = 0; i < (1 << 15); ++i) {
    table.insert(hash::mix64(i), i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(hash::mix64(i++ % (1 << 15))));
  }
}
BENCHMARK(BM_CuckooFind_Standard);

/// Attaches the roofline counters derived from an accumulated ProbeProfile:
/// per-lookup bytes touched and slots scanned, plus the fingerprint
/// false-hit rate (nonzero only for the compact backend).
void set_roofline_counters(benchmark::State& state,
                           const hash::ProbeProfile& profile) {
  const auto n = static_cast<double>(state.iterations());
  if (n == 0) return;
  state.counters["bytes_per_lookup"] =
      static_cast<double>(profile.bytes_touched) / n;
  state.counters["slots_per_lookup"] =
      static_cast<double>(profile.slots_scanned) / n;
  state.counters["fp_false_hit_rate"] =
      static_cast<double>(profile.fingerprint_false_hits) / n;
}

void BM_CuckooFind_Flat(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 16;
  hash::FlatCuckooTable table(cfg);
  for (std::uint64_t i = 0; i < (1 << 15); ++i) {
    table.insert(hash::mix64(i), i);
  }
  std::uint64_t i = 0;
  hash::ProbeProfile profile;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(hash::mix64(i++ % (1 << 15)),
                                        &profile));
  }
  set_roofline_counters(state, profile);
}
BENCHMARK(BM_CuckooFind_Flat);

void BM_CuckooFind_Compact(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 16;
  hash::CompactFlatCuckooTable table(cfg);
  for (std::uint64_t i = 0; i < (1 << 15); ++i) {
    table.insert(hash::mix64(i), i);
  }
  std::uint64_t i = 0;
  hash::ProbeProfile profile;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(hash::mix64(i++ % (1 << 15)),
                                        &profile));
  }
  set_roofline_counters(state, profile);
}
BENCHMARK(BM_CuckooFind_Compact);

void BM_ChainedFind(benchmark::State& state) {
  hash::LshTableChained table(1 << 12);  // heavy chains: vertical addressing
  for (std::uint64_t i = 0; i < (1 << 15); ++i) {
    table.insert(hash::mix64(i % 2048), i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(hash::mix64(i++ % 2048)));
  }
}
BENCHMARK(BM_ChainedFind);

// GroupStore-level roofline: the same mixed hit/miss lookup stream through
// each CHS backend's full find path, with bytes/slots per lookup from the
// uniform ProbeProfile plumbing. This is the apples-to-apples probe
// working-set comparison the flat_compact backend exists for.
void group_store_find(benchmark::State& state,
                      core::pipeline::GroupStore& store) {
  constexpr std::uint64_t kResident = 1 << 14;
  for (std::uint64_t i = 0; i < kResident; ++i) {
    store.place(0, hash::mix64(i), i);
  }
  std::uint64_t i = 0;
  hash::ProbeProfile profile;
  for (auto _ : state) {
    // Even iterations hit, odd iterations miss.
    const std::uint64_t draw = i++;
    const std::uint64_t key = (draw & 1) ? hash::mix64(kResident + draw)
                                         : hash::mix64(draw % kResident);
    std::size_t probes = 0;
    benchmark::DoNotOptimize(store.find(0, key, &probes, &profile));
  }
  set_roofline_counters(state, profile);
}

void BM_GroupStoreFind_Flat(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 15;
  hash::FlatCuckooGroupStore store(cfg, 1);
  group_store_find(state, store);
}
BENCHMARK(BM_GroupStoreFind_Flat);

void BM_GroupStoreFind_Compact(benchmark::State& state) {
  hash::FlatCuckooConfig cfg;
  cfg.capacity = 1 << 15;
  hash::CompactFlatCuckooGroupStore store(cfg, 1);
  group_store_find(state, store);
}
BENCHMARK(BM_GroupStoreFind_Compact);

void BM_GroupStoreFind_Chained(benchmark::State& state) {
  hash::ChainedGroupStore store(1 << 13, 0x5eed, 1);
  group_store_find(state, store);
}
BENCHMARK(BM_GroupStoreFind_Chained);

}  // namespace

BENCHMARK_MAIN();
