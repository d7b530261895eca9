// Stage 4 of the FAST pipeline (CHS): bucket key -> correlation-group
// placement and lookup, one logical table per aggregator table. The paper's
// contribution here is *flat* addressing — a key resolves in a fixed number
// of independent slot reads — implemented by the windowed cuckoo adapter;
// the chained adapter is the conventional vertical-addressing baseline the
// paper argues against (§III-C3), kept runtime-selectable so ablations can
// swap it in without touching the pipeline.
#pragma once

#include <cstdint>
#include <optional>

#include "hash/cuckoo_table.hpp"  // CuckooStats, ProbeProfile
#include "util/codec.hpp"

namespace fast::core::pipeline {

class GroupStore {
 public:
  virtual ~GroupStore() = default;

  /// Number of tables this store maintains (fixed at construction to the
  /// aggregator's table_count()).
  virtual std::size_t table_count() const noexcept = 0;

  /// Looks `key` up in table `t`. When `probes` is non-null it receives the
  /// modeled slot reads the lookup performed (fixed 2W for flat addressing,
  /// chain-walk length for the chained baseline). When `profile` is
  /// non-null it accumulates roofline accounting for the probe (slots
  /// scanned, bytes touched, fingerprint false hits).
  virtual std::optional<std::uint64_t> find(
      std::size_t t, std::uint64_t key, std::size_t* probes = nullptr,
      hash::ProbeProfile* profile = nullptr) const = 0;

  /// Places key -> group into table `t`, growing/rehashing as the backend
  /// requires until the placement succeeds. Returns the number of rehash
  /// events the placement triggered (0 for a clean insert).
  virtual std::size_t place(std::size_t t, std::uint64_t key,
                            std::uint64_t group) = 0;

  /// Drops `key` from table `t` (group expired). No-op when absent.
  virtual void erase_key(std::size_t t, std::uint64_t key) = 0;

  /// Rebuilds each table at the smallest power of two >= `min_capacity`
  /// slots whose load stays under the growth line, where that is smaller
  /// than the table is now (a store sized for more entries than it kept).
  /// Answers do not change. A no-op for backends of fixed size.
  virtual void shrink_to_fit(std::size_t min_capacity) = 0;

  /// Modeled slot reads charged per lookup in table `t` (the quantity flat
  /// addressing bounds to 2W and chaining cannot bound).
  virtual std::size_t lookup_cost_probes(std::size_t t) const noexcept = 0;

  /// In-memory bytes of all tables (Table IV accounting).
  virtual std::size_t store_bytes() const noexcept = 0;

  /// Aggregate insertion/displacement statistics across tables.
  virtual hash::CuckooStats stats() const noexcept = 0;

  /// Verbatim dump of every table into `out` (snapshot section payload).
  /// A store restored from these bytes answers every find() bit-identically
  /// and charges the same probe costs.
  virtual void serialize(util::ByteWriter& out) const = 0;

  /// Restores state serialized by a store of the same backend and table
  /// count into this instance. Returns false (leaving this store in an
  /// unspecified state the caller must discard) on malformed bytes or a
  /// table-count mismatch.
  virtual bool deserialize(util::ByteReader& in) = 0;
};

}  // namespace fast::core::pipeline
