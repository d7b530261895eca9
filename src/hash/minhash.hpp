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
#pragma once

#include <cstdint>
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
  explicit MinHasher(const MinHashConfig& config);

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
  std::vector<MinPair> minhashes(const SparseSignature& signature) const;

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
  MinHashConfig config_;
  std::vector<std::uint64_t> salts_;
};

}  // namespace fast::hash
