// Sparse encoding of a Bloom bit-vector: only the indices of set bits.
//
// This is the paper's headline space saving — "the space required by its
// features can be reduced from the original 200KB to 40B" — achieved by
// keeping just the non-zero bit positions of the per-image summary. The
// signature supports Hamming/overlap computations directly in the sparse
// domain, so dense vectors never need materializing on the query path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/bloom_filter.hpp"

namespace fast::hash {

class SparseSignature {
 public:
  SparseSignature() = default;

  /// Extracts the sorted set-bit positions of `filter`.
  explicit SparseSignature(const BloomFilter& filter);

  /// Builds directly from sorted, unique bit positions.
  SparseSignature(std::vector<std::uint32_t> set_bits, std::uint32_t bit_count);

  std::uint32_t bit_count() const noexcept { return bit_count_; }
  const std::vector<std::uint32_t>& set_bits() const noexcept { return bits_; }
  std::size_t popcount() const noexcept { return bits_.size(); }

  /// Serializes as [bit_count varint][entry count varint][delta varints].
  /// Set-bit positions are sorted, so consecutive deltas are small and
  /// typically fit one byte — this is what makes per-image summaries a few
  /// hundred bytes instead of kilobytes (the paper's headline space cut).
  std::vector<std::uint8_t> encode() const;

  /// Inverse of encode(). Throws std::runtime_error on malformed input.
  static SparseSignature decode(std::span<const std::uint8_t> bytes);

  /// Serialized size in bytes (what the index actually stores per image).
  std::size_t storage_bytes() const noexcept;

  /// |A ∩ B|: number of bit positions set in both signatures.
  static std::size_t overlap(const SparseSignature& a,
                             const SparseSignature& b) noexcept;

  /// Hamming distance = |A| + |B| - 2 |A ∩ B|.
  static std::size_t hamming(const SparseSignature& a,
                             const SparseSignature& b) noexcept;

  /// Jaccard similarity |A ∩ B| / |A ∪ B| (1.0 for two empty signatures).
  static double jaccard(const SparseSignature& a,
                        const SparseSignature& b) noexcept;

  /// Reconstructs the dense {0,1} float vector. The p-stable SA path no
  /// longer needs this (PStableLsh::bucket_coords_sparse projects straight
  /// off set_bits()); kept for baselines, tests, and non-0/1 dense inputs.
  std::vector<float> to_float_vector() const;

 private:
  std::uint32_t bit_count_ = 0;
  std::vector<std::uint32_t> bits_;  // sorted ascending, unique
};

/// Query-side Jaccard scorer for ranking many candidates against one query
/// (the bitmap-slicing idea: materialize the query once as a dense bitmap,
/// then test each candidate's set bits against it). Built once per query;
/// score() is bit-identical to SparseSignature::jaccard — same integer
/// overlap, same double division — so rankings and tie-breaks match the
/// pairwise merge exactly. Candidates must have the query's bit_count().
class JaccardScorer {
 public:
  explicit JaccardScorer(const SparseSignature& query);

  std::uint32_t bit_count() const noexcept { return bit_count_; }

  /// |Q ∩ C|: one branch-free bit test per set bit of the candidate.
  std::size_t overlap(const SparseSignature& candidate) const noexcept;

  /// |Q ∩ C| / |Q ∪ C| (1.0 when both are empty).
  double score(const SparseSignature& candidate) const noexcept;

 private:
  std::uint32_t bit_count_ = 0;
  std::size_t popcount_ = 0;
  std::vector<std::uint64_t> words_;  // the query as a dense bitmap
};

}  // namespace fast::hash
