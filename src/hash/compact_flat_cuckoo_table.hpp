// Fingerprint-compressed variant of the flat windowed cuckoo table
// (DESIGN.md §3h). Same candidate geometry as FlatCuckooTable — two salted
// bases, W adjacent slots each — but the slot array is struct-of-arrays:
//
//   fps_  : dense 16-bit fingerprint lane (0 = empty sentinel)
//   refs_ : 32-bit index lane into the out-of-line side arrays
//   side_keys_/side_values_ : full 64-bit key/value pairs, one per entry
//
// A probe scans the 2*W candidate fingerprints first — 2 bytes per slot, so
// a whole window fits one cache line — and touches the side array only on a
// fingerprint match. Collisions (≈2^-16 per compared slot) fall back to
// full-key verification, so find/insert/erase stay exact: observable results
// are bit-identical to FlatCuckooTable built with the same config, because
// the salts, candidate sets, and kick RNG stream are mirrored exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hash/flat_cuckoo_table.hpp"  // FlatCuckooConfig, CandidateSet
#include "hash/hashes.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace fast::hash {

class CompactFlatCuckooTable {
 public:
  explicit CompactFlatCuckooTable(const FlatCuckooConfig& config);

  std::size_t capacity() const noexcept { return fps_.size(); }
  std::size_t size() const noexcept { return size_; }
  double load_factor() const noexcept {
    return static_cast<double>(size_) / static_cast<double>(fps_.size());
  }
  std::size_t window() const noexcept { return window_; }
  const CuckooStats& stats() const noexcept { return stats_; }

  /// Inserts key -> value (overwrites if present, handing the old value to
  /// *replaced when given). Returns false when the displacement budget is
  /// exhausted; the table (including the side array) is rolled back exactly
  /// and the key is not stored. Success/failure is identical to
  /// FlatCuckooTable under the same operation history.
  bool insert(std::uint64_t key, std::uint64_t value,
              std::optional<std::uint64_t>* replaced = nullptr);

  /// Probes the key's 2*W candidate fingerprints; side-array entries are
  /// read only on fingerprint match. `profile` (optional) accumulates slots
  /// scanned, bytes touched, and fingerprint false hits.
  std::optional<std::uint64_t> find(
      std::uint64_t key, ProbeProfile* profile = nullptr) const noexcept;

  bool contains(std::uint64_t key) const noexcept {
    return find(key).has_value();
  }

  bool erase(std::uint64_t key) noexcept;

  /// Calls fn(key, value) for every stored pair, in slot order: the same
  /// sequence FlatCuckooTable::for_each gives under the same history.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t p = 0; p < fps_.size(); ++p) {
      if (fps_[p] != 0) fn(side_keys_[refs_[p]], side_values_[refs_[p]]);
    }
  }

  /// Fixed probe count per lookup: 2 * W independent fingerprint reads.
  std::size_t probes_per_lookup() const noexcept { return 2 * window_; }

  /// Modeled table bytes: 6 B/slot of lanes plus 16 B per resident entry
  /// out-of-line (free-list slack counted — it is allocated memory).
  std::size_t memory_bytes() const noexcept {
    return fps_.size() * (sizeof(std::uint16_t) + sizeof(std::uint32_t)) +
           side_keys_.size() * 2 * sizeof(std::uint64_t);
  }

  /// The 16-bit fingerprint of `key` (exposed so tests can craft forced
  /// collisions). Never 0 — 0 is the empty-slot sentinel.
  std::uint16_t fingerprint(std::uint64_t key) const noexcept {
    const auto fp = static_cast<std::uint16_t>(mix64(key ^ salt_fp_));
    return fp == 0 ? std::uint16_t{1} : fp;
  }

  /// Verbatim dump — magic tag, salts, stats, both lanes, side arrays and
  /// free list — so a deserialized table answers every find()
  /// bit-identically. The kick RNG position is not persisted (same argument
  /// as FlatCuckooTable::serialize).
  void serialize(util::ByteWriter& out) const;

  /// Inverse of serialize(). Returns nullopt on a bad magic tag, truncation,
  /// or internal inconsistency (occupancy/side-array/free-list mismatch).
  static std::optional<CompactFlatCuckooTable> deserialize(
      util::ByteReader& in);

 private:
  /// Uninitialized shell for deserialize() to fill.
  CompactFlatCuckooTable()
      : window_(1), max_kicks_(0), salt1_(0), salt2_(0), salt_fp_(0),
        rng_(0) {}

  std::size_t base1(std::uint64_t key) const noexcept {
    return mix64(key ^ salt1_) % fps_.size();
  }
  std::size_t base2(std::uint64_t key) const noexcept {
    return mix64(key ^ salt2_) % fps_.size();
  }
  std::size_t wrap(std::size_t base, std::size_t offset) const noexcept {
    const std::size_t p = base + offset;
    return p < fps_.size() ? p : p - fps_.size();
  }
  CandidateSet candidates(std::uint64_t key) const noexcept;

  /// Allocates a side-array entry (reusing the free list) and returns its
  /// index; the inverse returns an entry to the free list.
  std::uint32_t alloc_entry(std::uint64_t key, std::uint64_t value);
  void free_entry(std::uint32_t ref) noexcept;

  std::vector<std::uint16_t> fps_;   ///< fingerprint lane, 0 = empty
  std::vector<std::uint32_t> refs_;  ///< side-array index lane
  std::vector<std::uint64_t> side_keys_;
  std::vector<std::uint64_t> side_values_;
  std::vector<std::uint32_t> free_;  ///< recycled side-array indices
  std::size_t window_;
  std::size_t max_kicks_;
  std::uint64_t salt1_;
  std::uint64_t salt2_;
  std::uint64_t salt_fp_;
  std::size_t size_ = 0;
  CuckooStats stats_;
  util::Rng rng_;
};

}  // namespace fast::hash
