// The mutable layer of the tiered index (DESIGN.md §3f): the current
// FastIndex core — group store, membership lists, signature map — plus a
// tombstone set, with key derivation hoisted OUT. The owning TieredIndex
// computes per-table bucket keys before taking the lane lock, so the
// memtable's critical section is pure placement: bounded slot reads and a
// few hash-map updates. A sealed memtable becomes the payload of an
// ImmutableSegment verbatim (move, no rebuild), which is what makes
// sealing O(1) on the writer path.
//
// Shadowing contract: within one lane, the newest layer mentioning an id
// owns it. `contains` (a live signature) and `tombstoned` (an erase marker)
// are the two kinds of mention; `shadows` is their union. The memtable
// never holds both for one id — place() clears the tombstone, and
// add_tombstone is only called for ids not present locally.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline/group_store.hpp"
#include "hash/sparse_signature.hpp"
#include "util/codec.hpp"

namespace fast::core {

class MemtableIndex {
 public:
  /// Builds an empty memtable with its own group store (config.chs_backend)
  /// over `tables` tables.
  MemtableIndex(const FastConfig& config, std::size_t tables);

  MemtableIndex(MemtableIndex&&) = default;
  MemtableIndex& operator=(MemtableIndex&&) = default;

  std::size_t table_count() const noexcept { return store_->table_count(); }
  /// Live signatures stored here.
  std::size_t entries() const noexcept { return signatures_.size(); }
  std::size_t tombstone_count() const noexcept { return tombstones_.size(); }
  /// Seal pressure: every id this layer says something about.
  std::size_t mention_count() const noexcept {
    return signatures_.size() + tombstones_.size();
  }
  bool empty() const noexcept { return mention_count() == 0; }

  bool contains(std::uint64_t id) const {
    return signatures_.find(id) != signatures_.end();
  }
  bool tombstoned(std::uint64_t id) const {
    return tombstones_.find(id) != tombstones_.end();
  }
  /// True when this layer decides `id`'s fate (older layers are shadowed).
  bool shadows(std::uint64_t id) const {
    return contains(id) || tombstoned(id);
  }

  const hash::PackedSignature* signature_of(std::uint64_t id) const {
    const auto it = signatures_.find(id);
    return it == signatures_.end() ? nullptr : &it->second;
  }

  /// The per-table home keys `id` was placed under. Keys are derived once
  /// on the insert path and cached here so removal, sealing (bloom build)
  /// and compaction never re-run the aggregator's hashing.
  const std::vector<std::uint64_t>* keys_of(std::uint64_t id) const {
    const auto it = keys_.find(id);
    return it == keys_.end() ? nullptr : &it->second;
  }

  /// Places `id` under precomputed per-table home keys (keys.size() ==
  /// table_count()) and drops any tombstone for it. The id must not already
  /// be present — the caller erases the old version first (re-insert).
  /// Returns rehash events; adds modeled slot reads to *slot_reads and the
  /// lookups' probe work to *profile when non-null.
  std::size_t place(std::uint64_t id, hash::PackedSignature signature,
                    std::span<const std::uint64_t> keys,
                    std::size_t* slot_reads = nullptr,
                    hash::ProbeProfile* profile = nullptr);

  /// Removes a locally stored id under its cached keys (emptied groups
  /// release their bucket key). The id must be present.
  void remove(std::uint64_t id);

  /// Marks an id that lives in an OLDER layer as erased.
  void add_tombstone(std::uint64_t id) { tombstones_.insert(id); }

  /// Probes one (table, key) bucket and unions the group's members into
  /// `out`. Adds the modeled slot reads of the lookup to *slot_reads and
  /// its probe work to *profile when non-null.
  void collect(std::size_t t, std::uint64_t key,
               std::unordered_set<std::uint64_t>& out, std::size_t* slot_reads,
               hash::ProbeProfile* profile = nullptr) const;

  const std::unordered_map<std::uint64_t, hash::PackedSignature>& signatures()
      const noexcept {
    return signatures_;
  }
  const std::unordered_set<std::uint64_t>& tombstones() const noexcept {
    return tombstones_;
  }

  /// Ids with live signatures, sorted ascending — the deterministic
  /// iteration order for sealing, compaction and snapshots.
  std::vector<std::uint64_t> sorted_ids() const;

  /// In-memory bytes (signatures + store slots + membership lists).
  std::size_t bytes() const;
  hash::CuckooStats stats() const { return store_->stats(); }

  /// Snapshot-section codec. serialize() is a pure function of content
  /// (id-sorted), never of hash-map iteration order; deserialize() returns
  /// false on malformed bytes, leaving the memtable unusable (discard it).
  void serialize(util::ByteWriter& out) const;
  bool deserialize(util::ByteReader& in, std::size_t bloom_bits);

 private:
  std::unique_ptr<pipeline::GroupStore> store_;
  std::vector<std::vector<std::uint64_t>> groups_;  // group id -> member ids
  std::unordered_map<std::uint64_t, hash::PackedSignature> signatures_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> keys_;
  std::unordered_set<std::uint64_t> tombstones_;
};

}  // namespace fast::core
