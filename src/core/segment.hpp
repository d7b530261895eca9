// Immutable sealed segment of the tiered index (DESIGN.md §3f).
//
// A segment is a frozen core::IndexLayer — the same class as a lane's
// memtable and as the flat index: its LSH tables, slot-holding correlation
// groups, signature slab and tombstones exactly as they stood at seal
// time — held behind shared_ptr<const> so queries and compaction can read
// it with no lock at all. Sealing is O(1) on the writer path (move the
// memtable, no bloom yet); a background pass then re-derives every stored
// summary's bucket keys from its slab slot and builds a per-segment bloom
// summary over (table, key) fingerprints, publishing an upgraded segment
// object that SHARES the same frozen state. Queries skip a segment
// entirely when none of their probe keys can be contained (in the spirit
// of Bloom-filter-guided distributed image retrieval), which keeps probe
// fan-out flat as segments accumulate.
//
// On disk a segment is one CRC-framed snapshot section (kSectionTierSegment):
// segment id, bloom geometry + words, then the frozen layer's own codec.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/index_layer.hpp"
#include "hash/bloom_filter.hpp"

namespace fast::core {

class ImmutableSegment {
 public:
  /// Seals `state` as segment `id` with no bloom summary yet (every probe
  /// must check it until finalized).
  ImmutableSegment(std::uint64_t id,
                   std::shared_ptr<const IndexLayer> state)
      : id_(id), state_(std::move(state)) {}

  /// Finalized segment: same frozen state, plus the probe-skipping bloom.
  ImmutableSegment(std::uint64_t id,
                   std::shared_ptr<const IndexLayer> state,
                   hash::BloomFilter bloom)
      : id_(id), state_(std::move(state)), bloom_(std::move(bloom)) {}

  std::uint64_t id() const noexcept { return id_; }
  const IndexLayer& state() const noexcept { return *state_; }
  std::shared_ptr<const IndexLayer> shared_state() const noexcept {
    return state_;
  }
  bool finalized() const noexcept { return bloom_.has_value(); }
  const std::optional<hash::BloomFilter>& bloom() const noexcept {
    return bloom_;
  }

  /// Mixes (table, bucket key) into the single u64 domain the bloom filter
  /// indexes; distinct tables with equal keys must not collide.
  static std::uint64_t key_fingerprint(std::size_t t,
                                       std::uint64_t key) noexcept {
    return key ^ (static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ULL);
  }

  /// False only when the bloom PROVES no entry was placed under (t, key);
  /// a segment without a finalized bloom can never be skipped.
  bool may_contain(std::size_t t, std::uint64_t key) const {
    return !bloom_.has_value() ||
           bloom_->maybe_contains_u64(key_fingerprint(t, key));
  }

  /// Builds the probe-skipping bloom over every entry's per-table home
  /// keys, as re-derived from the entries' slab slots (the layer caches no
  /// keys). Sized to bits_per_key bits per (table, key) pair, floor 64.
  static hash::BloomFilter build_bloom(
      std::span<const std::vector<std::uint64_t>> home_keys,
      double bits_per_key);

  /// Snapshot-section codec (payload of one kSectionTierSegment).
  void serialize(util::ByteWriter& out) const;
  /// Rebuilds a segment from serialize() bytes; nullptr on malformed input.
  static std::shared_ptr<const ImmutableSegment> deserialize(
      util::ByteReader& in, const FastConfig& config, std::size_t tables);

 private:
  std::uint64_t id_;
  std::shared_ptr<const IndexLayer> state_;
  std::optional<hash::BloomFilter> bloom_;
};

}  // namespace fast::core
