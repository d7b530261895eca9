// MinHash banding over sparse Bloom signatures — the second SA backend.
//
// The paper's SA module hashes Bloom bit-vectors with p-stable (L2) LSH.
// On this repository's synthetic feature pipeline, near-duplicate images
// share ~40% of their set bits (the paper's real-image features share
// more), which compresses the L2 contrast between near and far pairs and
// blunts p-stable narrowing. MinHash is the LSH family whose collision
// probability is exactly the Jaccard similarity of the signatures' set-bit
// sets, so it separates at precisely the resolution the summaries provide.
// Both backends feed the same cuckoo-hashing flat-structured storage; see
// DESIGN.md for the substitution note.
//
// A hasher built for a signature width also keeps each salt's rank prefix:
// the positions with the smallest hashes, in hash order. For a dense
// signature the two smallest hashes over its set bits are those of the
// first two set positions in the prefix, found with a few bit tests
// instead of one mix per set bit; the pairs are bit-identical to the fold
// (DESIGN.md §3n).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hash/sparse_signature.hpp"

namespace fast::hash {

struct MinHashConfig {
  std::size_t bands = 48;      ///< number of band keys (tables)
  std::size_t band_size = 3;   ///< minhashes concatenated per band
  std::uint64_t seed = 0x31a;
};

class MinHasher {
 public:
  /// Positions kept per salt in the rank-prefix table: the L positions of
  /// [0, W) with the smallest hash under that salt, in hash order.
  static constexpr std::size_t kPrefixLength = 256;
  /// minhashes() scans the rank prefix only when a signature is expected
  /// to set at least this many of each salt's prefix positions.
  static constexpr std::size_t kMinExpectedHits = 8;

  /// A hasher that computes every minhash with fold().
  explicit MinHasher(const MinHashConfig& config);

  /// Also holds the rank-prefix table for signatures of `bit_count` bits,
  /// built once per process and geometry (none when bit_count is 0 or
  /// above 65,536, the reach of a u16 position). minhashes() returns the
  /// same pairs either way.
  MinHasher(const MinHashConfig& config, std::uint32_t bit_count);

  const MinHashConfig& config() const noexcept { return config_; }
  std::size_t hash_count() const noexcept {
    return config_.bands * config_.band_size;
  }

  /// The i-th minwise hash value of the signature's set-bit set, together
  /// with the runner-up (used for multi-probe banding).
  struct MinPair {
    std::uint64_t min = ~0ULL;
    std::uint64_t second = ~0ULL;
  };

  /// Computes all minwise hashes of a signature. Empty signatures yield
  /// sentinel (all-ones) values, which still band deterministically.
  /// Dense signatures of the table's width scan the rank prefix; all
  /// others, and salts whose prefix holds fewer than two set bits, fold.
  std::vector<MinPair> minhashes(const SparseSignature& signature) const;

  /// The width the rank-prefix table was built for (0: no table).
  std::uint32_t prefix_width() const noexcept { return prefix_width_; }

  /// Salt i's rank prefix: min(kPrefixLength, prefix_width()) positions
  /// in ascending order of mix64(salt_i ^ (position + 1)). Every position
  /// left out hashes at least as high as the last one kept. Requires a
  /// table (prefix_width() != 0).
  std::span<const std::uint16_t> rank_prefix(std::size_t i) const noexcept {
    return {prefix_->data() + i * prefix_length_, prefix_length_};
  }

  /// Builds a rank-prefix table: the rank prefixes of `salts` over
  /// `bit_count` positions (1 to 65,536), salt-major. The constructor gets
  /// its table through a process-wide cache of these, keyed by (seed,
  /// hash count, width), so hashers of one geometry share one table.
  static std::vector<std::uint16_t> build_rank_prefix(
      std::span<const std::uint64_t> salts, std::uint32_t bit_count);

  /// Whether minhashes(signature) scans the rank prefix: the table was
  /// built for the signature's width and popcount * prefix length >=
  /// kMinExpectedHits * width, i.e. at least kMinExpectedHits expected
  /// set bits in each salt's prefix.
  bool scans_rank_prefix(const SparseSignature& signature) const noexcept {
    return prefix_width_ != 0 && signature.bit_count() == prefix_width_ &&
           signature.popcount() * prefix_length_ >=
               kMinExpectedHits * prefix_width_;
  }

  /// The kernel behind minhashes(): out[i] becomes the (min, second) of
  /// mix64(salts[i] ^ (bit + 1)) over `bits`, starting from the all-ones
  /// sentinel. `bits` need not be sorted or unique: a repeated bit is a
  /// tie (h == min or h == second), folded exactly as the two-branch
  /// update folds it. Vectorized with runtime ISA dispatch; out.size()
  /// must equal salts.size().
  static void fold(std::span<const std::uint64_t> salts,
                   std::span<const std::uint32_t> bits,
                   std::span<MinPair> out);

  /// Band key `band` from precomputed minhashes (uses the .min values).
  std::uint64_t band_key(std::size_t band,
                         const std::vector<MinPair>& mh) const;

  /// Probe keys for a band with one position substituted by its runner-up
  /// minhash (multi-probe banding: recovers bands that miss by one).
  std::vector<std::uint64_t> probe_keys(std::size_t band,
                                        const std::vector<MinPair>& mh) const;

  /// Theoretical probability that two signatures with Jaccard similarity j
  /// share at least one of `bands` band keys (no multi-probe).
  static double collision_probability(double j, std::size_t bands,
                                      std::size_t band_size);

 private:
  void scan_rank_prefix(const SparseSignature& signature,
                        std::span<MinPair> out) const;

  MinHashConfig config_;
  std::vector<std::uint64_t> salts_;
  // Rank-prefix table, salt-major: prefix_length_ positions per salt.
  // Immutable once built, so concurrent minhashes() calls and hashers of
  // the same geometry share it.
  std::uint32_t prefix_width_ = 0;
  std::size_t prefix_length_ = 0;
  std::shared_ptr<const std::vector<std::uint16_t>> prefix_;
};

}  // namespace fast::hash
