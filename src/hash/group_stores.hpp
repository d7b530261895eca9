// GroupStore adapters: the CHS backends of the pipeline.
//
//  - FlatCuckooGroupStore: the paper's flat-structured addressing — L
//    windowed cuckoo tables with proactive doubling at 80% load and
//    full-table rehash on placement failure (§III-C3, Fig. 6). Lookups are
//    a fixed 2W independent slot reads.
//  - CompactFlatCuckooGroupStore: the same addressing over the
//    fingerprint-compressed struct-of-arrays table (DESIGN.md §3h) — 2-byte
//    fingerprint lane scanned first, full keys out-of-line — shrinking the
//    probe working set ~4x while staying bit-identical to flat.
//  - ChainedGroupStore: conventional vertical addressing (bucket chains of
//    unbounded length), the baseline the paper argues against. Kept as a
//    runtime-selectable backend so ablations measure the probe-cost gap
//    without bench-only forks of the pipeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/pipeline/group_store.hpp"
#include "hash/compact_flat_cuckoo_table.hpp"
#include "hash/flat_cuckoo_table.hpp"
#include "hash/lsh_table_chained.hpp"

namespace fast::hash {

/// Shared windowed-cuckoo GroupStore machinery: per-table salted seeds,
/// proactive growth, and the rehash loop are identical across the full-key
/// and fingerprint-compressed tables; only the slot layout (TableT)
/// differs. A rebuild re-inserts the table's live pairs in slot order, so
/// an erased key stays gone (DESIGN.md §3t).
///
/// A table's snapshot section lists every placement ever made, live or
/// not, in group order (golden_v1 pins that format). Group ids only
/// increase within a table, so that list is the live pairs plus the erased
/// ones sorted by group, and only the erased ones are kept aside.
template <typename TableT>
class WindowedCuckooGroupStore : public core::pipeline::GroupStore {
 public:
  /// `tables` cuckoo tables derived from `base` with per-table salted seeds.
  WindowedCuckooGroupStore(const FlatCuckooConfig& base, std::size_t tables);

  std::size_t table_count() const noexcept override {
    return tables_.size();
  }
  std::optional<std::uint64_t> find(
      std::size_t t, std::uint64_t key, std::size_t* probes,
      ProbeProfile* profile) const override;
  std::size_t place(std::size_t t, std::uint64_t key,
                    std::uint64_t group) override;
  void erase_key(std::size_t t, std::uint64_t key) override;
  void shrink_to_fit(std::size_t min_capacity) override;
  std::size_t lookup_cost_probes(std::size_t t) const noexcept override;
  std::size_t store_bytes() const noexcept override;
  CuckooStats stats() const noexcept override;
  void serialize(util::ByteWriter& out) const override;
  bool deserialize(util::ByteReader& in) override;

 private:
  using Placement = std::pair<std::uint64_t, std::uint64_t>;  // key, group

  struct Table {
    TableT cuckoo;
    /// Placements no longer live (erased or overwritten), in the order
    /// they left; only the snapshot's history section reads them.
    std::vector<Placement> erased;
    std::uint64_t seed;
  };

  /// Doubles a table's capacity when its load factor crosses the growth
  /// threshold (amortized O(1) insert despite fixed-size tables).
  void maybe_grow(Table& table);

  /// Replaces `table.cuckoo` with one under a fresh seed holding its live
  /// pairs, then `extra` when given. Starts at `capacity` slots and doubles
  /// after each failed attempt; returns the attempts made.
  std::size_t rebuild(Table& table, std::size_t capacity,
                      const Placement* extra);

  FlatCuckooConfig base_;
  std::vector<Table> tables_;
  /// Find-path fingerprint false hits. find() is const and runs under
  /// shared locks, so the tally lives here as a relaxed atomic instead of
  /// in the (unsynchronized) per-table stats.
  mutable std::atomic<std::uint64_t> find_false_hits_{0};
};

extern template class WindowedCuckooGroupStore<FlatCuckooTable>;
extern template class WindowedCuckooGroupStore<CompactFlatCuckooTable>;

class FlatCuckooGroupStore final
    : public WindowedCuckooGroupStore<FlatCuckooTable> {
 public:
  using WindowedCuckooGroupStore::WindowedCuckooGroupStore;
};

class CompactFlatCuckooGroupStore final
    : public WindowedCuckooGroupStore<CompactFlatCuckooTable> {
 public:
  using WindowedCuckooGroupStore::WindowedCuckooGroupStore;
};

class ChainedGroupStore final : public core::pipeline::GroupStore {
 public:
  /// `tables` chained tables of `buckets` chain heads each.
  ChainedGroupStore(std::size_t buckets, std::uint64_t seed,
                    std::size_t tables);

  std::size_t table_count() const noexcept override {
    return tables_.size();
  }
  std::optional<std::uint64_t> find(
      std::size_t t, std::uint64_t key, std::size_t* probes,
      ProbeProfile* profile) const override;
  std::size_t place(std::size_t t, std::uint64_t key,
                    std::uint64_t group) override;
  void erase_key(std::size_t t, std::uint64_t key) override;
  void shrink_to_fit(std::size_t /*min_capacity*/) override {}
  std::size_t lookup_cost_probes(std::size_t t) const noexcept override;
  std::size_t store_bytes() const noexcept override;
  CuckooStats stats() const noexcept override;
  void serialize(util::ByteWriter& out) const override;
  bool deserialize(util::ByteReader& in) override;

 private:
  std::vector<LshTableChained> tables_;
};

}  // namespace fast::hash
