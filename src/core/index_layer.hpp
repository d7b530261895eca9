// core::IndexLayer — the in-memory index both layouts are made of
// (DESIGN.md §3o, §3f): one CHS group store, correlation groups that hold
// u32 slots of a SignatureSlab, the id -> slot map, and a tombstone set.
// The flat FastIndex is one layer under one lock; every tiered lane
// memtable is one, and a sealed segment freezes one as is.
//
// A layer stores each summary once, in the slab, and caches no bucket
// keys: a caller that removes an entry, or builds a segment bloom over it,
// re-derives the entry's keys from its slab slot. A query gathers slots,
// each once, through CandidateSlots and scores them straight off the slab
// with JaccardScorer::score_slots. Not synchronized: the owner's lock (or
// a segment's immutability) keeps readers apart from writers.
//
// Tombstones are the tiered layout's erase markers for ids that live in an
// older layer; a flat layer never holds one. Within one layer an id is
// either live or tombstoned, never both: place() clears the tombstone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline/group_store.hpp"
#include "core/result.hpp"
#include "hash/signature_slab.hpp"
#include "hash/sparse_signature.hpp"
#include "util/check.hpp"
#include "util/codec.hpp"

namespace fast::core {

/// One query's candidate slots in one layer, gathered from its probed
/// groups with each slot kept once, plus room for their scores. The storage
/// is per thread and reused: `seen` has one bit per slot and is all clear
/// between uses, because a use clears exactly the words its own slots set.
/// So the dedupe costs a bit test per gathered member, with no sort and no
/// per-query work proportional to the layer size. Concurrent queries each
/// use their own thread's scratch; one thread's uses must not overlap.
class CandidateSlots {
 public:
  explicit CandidateSlots(std::size_t slot_limit) : s_(scratch()) {
    FAST_CHECK_MSG(!s_.in_use, "nested query on one thread");
    s_.in_use = true;
    const std::size_t words = (slot_limit + 63) / 64;
    if (s_.seen.size() < words) s_.seen.resize(words, 0);
    s_.slots.clear();
  }
  ~CandidateSlots() {
    for (const std::uint32_t slot : s_.slots) s_.seen[slot >> 6] = 0;
    s_.in_use = false;
  }
  CandidateSlots(const CandidateSlots&) = delete;
  CandidateSlots& operator=(const CandidateSlots&) = delete;

  /// Appends the members not gathered yet, in order.
  void add(std::span<const std::uint32_t> members) {
    std::size_t n = s_.slots.size();
    s_.slots.resize(n + members.size());
    std::uint32_t* out = s_.slots.data();
    std::uint64_t* seen = s_.seen.data();
    for (const std::uint32_t slot : members) {
      std::uint64_t& word = seen[slot >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
      out[n] = slot;
      n += (word & bit) == 0 ? 1 : 0;
      word |= bit;
    }
    s_.slots.resize(n);
  }

  std::span<const std::uint32_t> slots() const noexcept { return s_.slots; }
  /// One score per gathered slot.
  std::span<double> scores() {
    s_.scores.resize(s_.slots.size());
    return s_.scores;
  }

 private:
  struct Scratch {
    std::vector<std::uint64_t> seen;
    std::vector<std::uint32_t> slots;
    std::vector<double> scores;
    bool in_use = false;
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  Scratch& s_;
};

class IndexLayer {
 public:
  /// What one place() did to the group store.
  struct Placed {
    std::size_t slot_reads = 0;  ///< modeled slot reads of the lookups
    /// Modeled slot accesses of the store writes: one lookup's worth
    /// (GroupStore::lookup_cost_probes) per group created.
    std::size_t store_writes = 0;
    std::size_t group_hits = 0;
    std::size_t group_creates = 0;
    std::size_t rehashes = 0;
  };

  /// An empty layer with its own group store (config.chs_backend) over
  /// `tables` tables.
  IndexLayer(const FastConfig& config, std::size_t tables);
  /// An empty layer over an injected (empty) store.
  IndexLayer(const FastConfig& config,
             std::unique_ptr<pipeline::GroupStore> store);

  IndexLayer(IndexLayer&&) = default;
  IndexLayer& operator=(IndexLayer&&) = default;

  std::size_t table_count() const noexcept { return store_->table_count(); }
  const pipeline::GroupStore& store() const noexcept { return *store_; }
  const hash::SignatureSlab& slab() const noexcept { return slab_; }

  /// Live entries stored here.
  std::size_t entries() const noexcept { return slot_of_.size(); }
  std::size_t tombstone_count() const noexcept { return tombstones_.size(); }
  /// Seal pressure: every id this layer says something about.
  std::size_t mention_count() const noexcept {
    return slot_of_.size() + tombstones_.size();
  }
  bool empty() const noexcept { return mention_count() == 0; }
  std::size_t group_count() const noexcept { return heads_.size(); }
  /// Member slots of group `g`, in membership order: a one-member group's
  /// slot is read from its head, with no spill chase. Valid until the next
  /// write to this layer.
  std::span<const std::uint32_t> group(std::size_t g) const {
    FAST_CHECK(g < heads_.size());
    const GroupHead& head = heads_[g];
    if (head.count <= 1) return {&head.value, head.count};
    return spills_[head.value];
  }

  bool contains(std::uint64_t id) const { return slot_of_.contains(id); }
  bool tombstoned(std::uint64_t id) const { return tombstones_.contains(id); }
  /// True when this layer decides `id`'s fate (older layers are shadowed).
  bool shadows(std::uint64_t id) const {
    return contains(id) || tombstoned(id);
  }
  std::optional<hash::SparseSignature> signature_of(std::uint64_t id) const {
    const auto it = slot_of_.find(id);
    if (it == slot_of_.end()) return std::nullopt;
    return slab_.unpack(it->second);
  }
  /// Live id -> slot, in unspecified order.
  const std::unordered_map<std::uint64_t, std::uint32_t>& slots() const {
    return slot_of_;
  }
  const std::unordered_set<std::uint64_t>& tombstones() const noexcept {
    return tombstones_;
  }
  /// Live ids, ascending: the deterministic order for merges and images.
  std::vector<std::uint64_t> sorted_ids() const;

  /// Stores `id` (absent here) under its per-table home keys and drops any
  /// tombstone for it. The lookups' probe work goes to *profile.
  Placed place(std::uint64_t id, const hash::SparseSignature& signature,
               std::span<const std::uint64_t> keys,
               hash::ProbeProfile* profile);
  /// Removes a live id whose home keys are `keys` (re-derived by the
  /// caller from its stored summary). An emptied group releases its bucket
  /// key so queries stop probing it.
  void remove(std::uint64_t id, std::span<const std::uint64_t> keys);
  /// Marks an id that lives in an older layer as erased.
  void add_tombstone(std::uint64_t id) { tombstones_.insert(id); }
  /// Rebuilds the store at its smallest fitting size, no smaller than
  /// `min_capacity` slots a table (GroupStore::shrink_to_fit).
  void shrink_store(std::size_t min_capacity) {
    store_->shrink_to_fit(min_capacity);
  }

  /// Probes every table's home key and probe keys and adds the reached
  /// slots to `out`. Counts each bucket probed in *bucket_probes and each
  /// table's modeled slot reads in table_slot_reads[t].
  void collect(std::span<const std::uint64_t> keys,
               std::span<const std::vector<std::uint64_t>> probes,
               CandidateSlots& out, std::span<std::size_t> table_slot_reads,
               std::size_t* bucket_probes, hash::ProbeProfile* profile) const;
  /// Scores `slots` against the query into `scores` and appends one
  /// ScoredId per slot to `out`.
  void score(const hash::JaccardScorer& scorer,
             std::span<const std::uint32_t> slots, std::span<double> scores,
             std::vector<ScoredId>& out) const;

  /// In-memory bytes: each entry as its id plus stored summary, the store,
  /// group members as the 8-byte ids they stand for, and tombstones.
  std::size_t bytes() const;

  // --- Snapshot codec pieces ---
  // A write is a pure function of content (ids ascending, slots numbered
  // afresh on read). A read decodes into an EMPTY layer, signatures before
  // groups, and returns false on malformed bytes; the layer is then
  // unusable (discard it).

  void write_signatures(util::ByteWriter& out) const;
  void write_groups(util::ByteWriter& out) const;
  void write_tombstones(util::ByteWriter& out) const;
  bool read_signatures(util::ByteReader& in);
  bool read_groups(util::ByteReader& in);
  bool read_tombstones(util::ByteReader& in);
  void write_store(util::ByteWriter& out) const { store_->serialize(out); }
  bool read_store(util::ByteReader& in) { return store_->deserialize(in); }

  /// The whole layer in one payload: signatures, tombstones, groups, store.
  void serialize(util::ByteWriter& out) const;
  bool deserialize(util::ByteReader& in);

 private:
  // One correlation group: `count` member slots of slab_. A one-member
  // group keeps its slot in `value`; a group of two or more keeps its
  // members in spills_[value]. An emptied group keeps a zero-count head:
  // group ids are never reused, because the store's snapshot history names
  // every group ever placed (DESIGN.md §3q, §3t).
  struct GroupHead {
    std::uint32_t count = 0;
    std::uint32_t value = 0;
  };

  /// Appends `slot` to group `g`, spilling a one-member group.
  void add_member(std::size_t g, std::uint32_t slot);
  /// Drops every occurrence of `slot` from group `g`, folding a group left
  /// with one member back into its head. Returns the members left.
  std::uint32_t remove_member(std::size_t g, std::uint32_t slot);

  std::unique_ptr<pipeline::GroupStore> store_;
  // Group id -> head (DESIGN.md §3q). Queries rank straight off the member
  // slots; slot_of_ maps ids to slots for the write, lookup and snapshot
  // paths, never for a query.
  std::vector<GroupHead> heads_;
  std::vector<std::vector<std::uint32_t>> spills_;
  std::vector<std::uint32_t> free_spills_;  ///< empty spills_ to reuse
  hash::SignatureSlab slab_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;
  std::unordered_set<std::uint64_t> tombstones_;
};

}  // namespace fast::core
