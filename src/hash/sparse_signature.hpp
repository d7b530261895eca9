// Sparse encoding of a Bloom bit-vector: only the indices of set bits.
//
// This is the paper's headline space saving — "the space required by its
// features can be reduced from the original 200KB to 40B" — achieved by
// keeping just the non-zero bit positions of the per-image summary. The
// signature supports Hamming/overlap computations directly in the sparse
// domain, so dense vectors never need materializing on the query path.
// That encoding is the persisted form; in memory the indexes hold each
// summary as a PackedSignature, a list or a bitmap by density, which
// JaccardScorer ranks against a per-query bitmap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/bloom_filter.hpp"

namespace fast::hash {

class SignatureSlab;

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

/// A borrowed at-rest summary: the sorted set-bit list or the bitmap of a
/// PackedSignature or of a SignatureSlab slot. A dense view has a
/// non-empty bitmap (bits past bit_count() clear) and no list; a list view
/// has no bitmap. Codec and unpacking live here, so every stored form
/// encodes through one walk.
class PackedView {
 public:
  PackedView() = default;
  PackedView(std::uint32_t bit_count, std::uint32_t popcount,
             std::span<const std::uint32_t> set_bits,
             std::span<const std::uint64_t> words) noexcept
      : bit_count_(bit_count), popcount_(popcount), bits_(set_bits),
        words_(words) {}

  std::uint32_t bit_count() const noexcept { return bit_count_; }
  std::size_t popcount() const noexcept { return popcount_; }
  bool dense() const noexcept { return !words_.empty(); }
  std::span<const std::uint32_t> set_bits() const noexcept { return bits_; }
  std::span<const std::uint64_t> words() const noexcept { return words_; }

  SparseSignature unpack() const;
  /// Byte-identical to unpack().encode().
  std::vector<std::uint8_t> encode() const;
  /// Equal to unpack().storage_bytes().
  std::size_t storage_bytes() const noexcept;

 private:
  /// Calls fn(bit) for every set bit in ascending order.
  template <typename Fn>
  void for_each_set_bit(Fn&& fn) const;

  std::uint32_t bit_count_ = 0;
  std::uint32_t popcount_ = 0;
  std::span<const std::uint32_t> bits_;
  std::span<const std::uint64_t> words_;
};

/// At-rest form of a summary: what the indexes store per image. It keeps
/// the sorted set-bit list when popcount() <= bit_count() / 32 and a
/// ceil(bit_count() / 64)-word bitmap otherwise, i.e. whichever of the two
/// is smaller, decided by the signature's own density (Roaring's per-
/// container rule). A real-photo summary (~1,900 of 16,384 bits set) is a
/// 2 KB bitmap instead of a 7.5 KB list; a 64-bit client signature stays a
/// list. encode() and storage_bytes() are those of the unpacked signature,
/// so persisted bytes and the paper's space accounting do not depend on
/// the in-memory form.
class PackedSignature {
 public:
  PackedSignature() = default;
  explicit PackedSignature(const SparseSignature& signature);

  /// The container rule: a signature with `popcount` of `bit_count` bits
  /// set keeps the list form.
  static bool stays_sparse(std::size_t popcount,
                           std::uint32_t bit_count) noexcept {
    return popcount <= bit_count / 32;
  }

  std::uint32_t bit_count() const noexcept { return bit_count_; }
  std::size_t popcount() const noexcept { return popcount_; }
  bool dense() const noexcept { return !words_.empty(); }

  /// The sorted set bits; empty when dense().
  std::span<const std::uint32_t> set_bits() const noexcept { return bits_; }
  /// The bitmap, bits past bit_count() clear; empty unless dense().
  std::span<const std::uint64_t> words() const noexcept { return words_; }

  PackedView view() const noexcept {
    return PackedView(bit_count_, popcount_, bits_, words_);
  }
  SparseSignature unpack() const { return view().unpack(); }
  /// Byte-identical to unpack().encode().
  std::vector<std::uint8_t> encode() const { return view().encode(); }
  /// Equal to unpack().storage_bytes().
  std::size_t storage_bytes() const noexcept {
    return view().storage_bytes();
  }

 private:
  std::uint32_t bit_count_ = 0;
  std::uint32_t popcount_ = 0;
  std::vector<std::uint32_t> bits_;   // list form: sorted ascending, unique
  // Bitmap form. Never empty when in use: a dense signature has at least
  // one set bit, so bit_count >= 1.
  std::vector<std::uint64_t> words_;
};

/// Word kernels for popcount(Q & C) over two bitmaps, the dense half of
/// JaccardScorer. All of them return the same count; they differ only in
/// the instructions they may use.
enum class PopcountKernel {
  kPortable,  ///< std::popcount at the build's baseline ISA
  kPopcnt,    ///< scalar POPCNT
  kAvx512,    ///< AVX-512 VPOPCNTDQ, eight words per instruction
};

/// The fastest kernel this CPU supports, detected once on first use.
PopcountKernel best_popcount_kernel() noexcept;
bool popcount_kernel_supported(PopcountKernel kernel) noexcept;
const char* popcount_kernel_name(PopcountKernel kernel) noexcept;

/// Query-side Jaccard scorer for ranking many candidates against one query
/// (the bitmap-slicing idea: materialize the query once as a dense bitmap,
/// then intersect each candidate with it). Built once per query. A list
/// candidate costs one branch-free bit test per set bit; a bitmap candidate
/// costs popcount(Q & C) over the words. score() is bit-identical to
/// SparseSignature::jaccard either way — same integer overlap, same double
/// division — so rankings and tie-breaks match the pairwise merge exactly.
/// Candidates must have the query's bit_count().
class JaccardScorer {
 public:
  /// score_slots() prefetches the candidate this many places ahead of the
  /// one it scores, so a cold bitmap's first lines are already on their
  /// way when its pass starts. A fixed property of the loop, not a
  /// setting (DESIGN.md §3o and §3s have what it measured).
  static constexpr std::size_t kPrefetchDistance = 2;

  /// `kernel` must be supported by this CPU; tests and benches pass each
  /// one explicitly, everything else takes the default.
  explicit JaccardScorer(const SparseSignature& query,
                         PopcountKernel kernel = best_popcount_kernel());

  std::uint32_t bit_count() const noexcept { return bit_count_; }

  /// |Q ∩ C|.
  std::size_t overlap(const SparseSignature& candidate) const noexcept;
  std::size_t overlap(PackedView candidate) const noexcept;
  std::size_t overlap(const PackedSignature& candidate) const noexcept {
    return overlap(candidate.view());
  }

  /// |Q ∩ C| / |Q ∪ C| (1.0 when both are empty).
  double score(const SparseSignature& candidate) const noexcept;
  double score(PackedView candidate) const noexcept;
  double score(const PackedSignature& candidate) const noexcept {
    return score(candidate.view());
  }

  /// Scores the live slots `slots` of `slab` into `scores`, in order, each
  /// equal to score(slab.view(slot)). While it scores one candidate it
  /// prefetches the one kPrefetchDistance places ahead.
  void score_slots(const SignatureSlab& slab,
                   std::span<const std::uint32_t> slots,
                   std::span<double> scores) const noexcept;

 private:
  std::size_t overlap_bits(
      std::span<const std::uint32_t> bits) const noexcept;
  double score_overlap(std::size_t common,
                       std::size_t candidate_popcount) const noexcept;

  using AndPopcountFn = std::size_t (*)(const std::uint64_t*,
                                        const std::uint64_t*, std::size_t);

  std::uint32_t bit_count_ = 0;
  std::size_t popcount_ = 0;
  AndPopcountFn and_popcount_ = nullptr;
  std::vector<std::uint64_t> words_;  // the query as a dense bitmap
};

}  // namespace fast::hash
