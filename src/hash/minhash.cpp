#include "hash/minhash.hpp"

#include <algorithm>
#include <cmath>

#include "hash/hashes.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fast::hash {

MinHasher::MinHasher(const MinHashConfig& config) : config_(config) {
  FAST_CHECK(config.bands > 0 && config.band_size > 0);
  util::Rng rng(config.seed);
  salts_.resize(hash_count());
  for (auto& s : salts_) s = rng.next_u64();
}

namespace {

// Salts folded per kernel call. A fixed lane count lets the compiler keep
// the whole block's state in vector registers with no remainder loop;
// the default 48 x 3 hashes are exactly nine blocks.
constexpr std::size_t kLanes = 16;

// Runtime ISA dispatch for the one kernel that dominates SA key derivation.
// GCC emits an AVX-512 (x86-64-v4), an AVX2 and a baseline clone and picks
// one at load time; other compilers and targets build the plain loop, which
// computes the same values. TSan builds also take the plain loop: the clone
// resolver runs before the TSan runtime is initialized and crashes.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define FAST_MINHASH_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define FAST_MINHASH_CLONES
#endif

/// Folds every bit into the (min, second) pairs of kLanes salts and
/// writes the first n pairs to `out`. Salt-inner over structure-of-arrays
/// state so the loop vectorizes. The update is the branch-free form of
///   if (h < min) { second = min; min = h; } else if (h < second) second = h;
/// and equals it for every h, ties included: min <= second always holds,
/// so hi = max(h, min) is the old min when h < min and h otherwise.
FAST_MINHASH_CLONES
void fold_block(const std::uint64_t* salts, std::span<const std::uint32_t> bits,
                MinHasher::MinPair* out, std::size_t n) {
  std::uint64_t mins[kLanes];
  std::uint64_t seconds[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) {
    mins[i] = ~0ULL;
    seconds[i] = ~0ULL;
  }
  for (const std::uint32_t bit : bits) {
    const std::uint64_t x = static_cast<std::uint64_t>(bit) + 1;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::uint64_t h = mix64(salts[i] ^ x);
      const std::uint64_t hi = std::max(h, mins[i]);
      mins[i] = std::min(h, mins[i]);
      seconds[i] = std::min(seconds[i], hi);
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = {mins[i], seconds[i]};
}

}  // namespace

void MinHasher::fold(std::span<const std::uint64_t> salts,
                     std::span<const std::uint32_t> bits,
                     std::span<MinPair> out) {
  FAST_CHECK(out.size() == salts.size());
  for (std::size_t base = 0; base < out.size(); base += kLanes) {
    const std::size_t n = std::min(kLanes, out.size() - base);
    // A short last block runs on zero-padded salts; its extra lanes are
    // computed and dropped.
    std::uint64_t block_salts[kLanes] = {};
    std::copy_n(salts.data() + base, n, block_salts);
    fold_block(block_salts, bits, out.data() + base, n);
  }
}

std::vector<MinHasher::MinPair> MinHasher::minhashes(
    const SparseSignature& signature) const {
  std::vector<MinPair> out(hash_count());
  fold(salts_, signature.set_bits(), out);
  return out;
}

std::uint64_t MinHasher::band_key(std::size_t band,
                                  const std::vector<MinPair>& mh) const {
  FAST_CHECK(band < config_.bands);
  std::uint64_t key = mix64(0xbadd0000ULL + band);
  for (std::size_t j = 0; j < config_.band_size; ++j) {
    key = mix64(key ^ mh[band * config_.band_size + j].min);
  }
  return key;
}

std::vector<std::uint64_t> MinHasher::probe_keys(
    std::size_t band, const std::vector<MinPair>& mh) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(config_.band_size);
  for (std::size_t sub = 0; sub < config_.band_size; ++sub) {
    std::uint64_t key = mix64(0xbadd0000ULL + band);
    for (std::size_t j = 0; j < config_.band_size; ++j) {
      const MinPair& p = mh[band * config_.band_size + j];
      key = mix64(key ^ (j == sub ? p.second : p.min));
    }
    keys.push_back(key);
  }
  return keys;
}

double MinHasher::collision_probability(double j, std::size_t bands,
                                        std::size_t band_size) {
  const double per_band = std::pow(j, static_cast<double>(band_size));
  return 1.0 - std::pow(1.0 - per_band, static_cast<double>(bands));
}

}  // namespace fast::hash
