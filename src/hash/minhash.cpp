#include "hash/minhash.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>
#include <utility>

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
// the engine's 48 x 2 hashes (FastConfig::minhash) are exactly six blocks.
constexpr std::size_t kLanes = 16;

// Widest signature a rank-prefix table serves: positions are u16.
constexpr std::uint32_t kMaxPrefixWidth = 65536;

// Positions hashed per call while a table is built: kBuildRows rows of
// kBuildColumns consecutive positions.
constexpr std::uint32_t kBuildColumns = 128;
constexpr std::uint32_t kBuildRows = 8;
constexpr std::uint32_t kBuildChunk = kBuildColumns * kBuildRows;

// Runtime ISA dispatch for the two kernels that hash every (position,
// salt) pair: fold_block on the query path and hash_positions at table
// build. GCC emits an AVX-512 (x86-64-v4), an AVX2 and a baseline clone
// and picks one at load time; other compilers and targets build the plain
// loop, which computes the same values. TSan builds also take the plain
// loop: the clone resolver runs before the TSan runtime is initialized
// and crashes.
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

/// Hashes the kBuildChunk positions from `first` under `salt`:
/// out[r * kBuildColumns + c] = mix64(salt ^ (first + r * kBuildColumns +
/// c + 1)), and column_min[c] is the smallest hash in column c. Column-
/// inner, so the loop vectorizes; the minima let the caller skip, with one
/// test, a column whose eight hashes all lie above its cut.
FAST_MINHASH_CLONES
void hash_positions(std::uint64_t salt, std::uint32_t first,
                    std::uint64_t* out, std::uint64_t* column_min) {
  for (std::uint32_t c = 0; c < kBuildColumns; ++c) {
    std::uint64_t m = ~0ULL;
    for (std::uint32_t r = 0; r < kBuildRows; ++r) {
      const std::uint64_t h = mix64(
          salt ^ (static_cast<std::uint64_t>(first) + r * kBuildColumns + c +
                  1));
      out[r * kBuildColumns + c] = h;
      m = std::min(m, h);
    }
    column_min[c] = m;
  }
}

// Rank-prefix tables by (seed, hash count, width). A table depends only on
// the salts, which the seed and the hash count fix, and on the width, so
// every index, shard and router of one geometry shares one table, and a
// process that reopens an index many times builds it once. Entries live as
// long as the process: one per geometry in use, 48 KB at the default.
std::shared_ptr<const std::vector<std::uint16_t>> cached_rank_prefix(
    const MinHashConfig& config, std::span<const std::uint64_t> salts,
    std::uint32_t bit_count) {
  using Key = std::tuple<std::uint64_t, std::size_t, std::uint32_t>;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const std::vector<std::uint16_t>>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& table = tables[Key{config.seed, salts.size(), bit_count}];
  if (table == nullptr) {
    table = std::make_shared<const std::vector<std::uint16_t>>(
        MinHasher::build_rank_prefix(salts, bit_count));
  }
  return table;
}

}  // namespace

MinHasher::MinHasher(const MinHashConfig& config, std::uint32_t bit_count)
    : MinHasher(config) {
  if (bit_count == 0 || bit_count > kMaxPrefixWidth) return;
  prefix_width_ = bit_count;
  prefix_length_ = std::min<std::size_t>(kPrefixLength, bit_count);
  prefix_ = cached_rank_prefix(config_, salts_, bit_count);
}

std::vector<std::uint16_t> MinHasher::build_rank_prefix(
    std::span<const std::uint64_t> salts, std::uint32_t bit_count) {
  FAST_CHECK(bit_count > 0 && bit_count <= kMaxPrefixWidth);
  const std::size_t length = std::min<std::size_t>(kPrefixLength, bit_count);
  std::vector<std::uint16_t> table(salts.size() * length);
  // Prefilter: the length-th smallest of bit_count uniform 64-bit hashes
  // lies near length / bit_count of the range, so a cut 1.25 times above
  // that keeps about 1.25 * length candidates (length + 4 standard
  // deviations at the default). When too few pass, the cut doubles and
  // the salt is hashed again.
  const std::size_t expected = length + length / 4;
  const std::uint64_t first_cut =
      expected >= bit_count ? ~0ULL : (~0ULL / bit_count) * expected;
  std::uint64_t hashes[kBuildChunk];
  std::uint64_t column_min[kBuildColumns];
  std::vector<std::pair<std::uint64_t, std::uint32_t>> picked, sorted;
  std::vector<std::uint32_t> bucket_start;
  for (std::size_t i = 0; i < salts.size(); ++i) {
    std::uint64_t cut = first_cut;
    for (;; cut = cut > ~0ULL / 2 ? ~0ULL : 2 * cut) {
      picked.clear();
      for (std::uint32_t first = 0; first < bit_count; first += kBuildChunk) {
        hash_positions(salts[i], first, hashes, column_min);
        for (std::uint32_t c = 0; c < kBuildColumns; ++c) {
          if (column_min[c] > cut) continue;
          for (std::uint32_t j = c; j < kBuildChunk; j += kBuildColumns) {
            // Positions past bit_count in the last chunk are hashed too and
            // dropped here.
            if (hashes[j] <= cut && first + j < bit_count) {
              picked.emplace_back(hashes[j], first + j);
            }
          }
        }
      }
      if (picked.size() >= length) break;
    }
    // Sorted by (hash, position), so ties resolve the same way on every
    // build. Candidates are uniform below the cut: a bucket pass on the
    // top bits leaves about one per bucket, and the insertion pass after
    // it only reorders within buckets.
    const int shift = std::max(
        0, static_cast<int>(std::bit_width(cut)) -
               static_cast<int>(std::bit_width(picked.size())));
    bucket_start.assign((cut >> shift) + 2, 0);
    for (const auto& p : picked) ++bucket_start[(p.first >> shift) + 1];
    std::partial_sum(bucket_start.begin(), bucket_start.end(),
                     bucket_start.begin());
    sorted.resize(picked.size());
    for (const auto& p : picked) sorted[bucket_start[p.first >> shift]++] = p;
    for (std::size_t j = 1; j < sorted.size(); ++j) {
      const auto p = sorted[j];
      std::size_t k = j;
      for (; k > 0 && p < sorted[k - 1]; --k) sorted[k] = sorted[k - 1];
      sorted[k] = p;
    }
    for (std::size_t j = 0; j < length; ++j) {
      table[i * length + j] = static_cast<std::uint16_t>(sorted[j].second);
    }
  }
  return table;
}

// Why the scan equals fold: set bits are unique, so fold's (min, second)
// are the two smallest hashes over the set bits, a tie giving equal
// values. The prefix lists positions in ascending hash order, and every
// position outside it hashes at least as high as its last entry, so the
// first two set positions met in the prefix carry those two smallest
// hashes. A salt whose prefix holds fewer than two set bits has no such
// bound and folds over the whole signature instead.
void MinHasher::scan_rank_prefix(const SparseSignature& signature,
                                 std::span<MinPair> out) const {
  // Each salt's walk starts at the head of its prefix, 512 bytes from the
  // next salt's, and almost always ends within its first two cache lines
  // (about 17 entries at a real summary's density). Ask for those lines
  // before building the bitmap so cold misses overlap that work.
  for (std::size_t i = 0; i < salts_.size(); ++i) {
    const auto* head = reinterpret_cast<const char*>(rank_prefix(i).data());
    __builtin_prefetch(head);
    __builtin_prefetch(head + 64);
  }
  std::uint64_t bitmap[kMaxPrefixWidth / 64];
  std::fill_n(bitmap, (prefix_width_ + 63) / 64, 0);
  for (const std::uint32_t bit : signature.set_bits()) {
    bitmap[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  const auto is_set = [&bitmap](std::uint16_t b) {
    return ((bitmap[b >> 6] >> (b & 63)) & 1) != 0;
  };
  std::vector<std::uint64_t> missed_salts;
  std::vector<std::size_t> missed;
  for (std::size_t i = 0; i < salts_.size(); ++i) {
    const std::span<const std::uint16_t> prefix = rank_prefix(i);
    std::size_t j = 0;
    while (j < prefix.size() && !is_set(prefix[j])) ++j;
    std::size_t k = j + 1;
    while (k < prefix.size() && !is_set(prefix[k])) ++k;
    if (k >= prefix.size()) {
      missed_salts.push_back(salts_[i]);
      missed.push_back(i);
      continue;
    }
    const std::uint64_t salt = salts_[i];
    out[i] = {mix64(salt ^ (static_cast<std::uint64_t>(prefix[j]) + 1)),
              mix64(salt ^ (static_cast<std::uint64_t>(prefix[k]) + 1))};
  }
  if (missed.empty()) return;
  std::vector<MinPair> folded(missed.size());
  fold(missed_salts, signature.set_bits(), folded);
  for (std::size_t m = 0; m < missed.size(); ++m) out[missed[m]] = folded[m];
}

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
  if (scans_rank_prefix(signature)) {
    scan_rank_prefix(signature, out);
  } else {
    fold(salts_, signature.set_bits(), out);
  }
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
