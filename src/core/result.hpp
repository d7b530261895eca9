// Result records returned by the FAST index operations: the answers plus
// the work the operation did. Work is counted, never priced; core::sim_cost
// turns it into the simulated platform's time for the paper's figures.
#pragma once

#include <cstdint>
#include <vector>

namespace fast::core {

struct ScoredId {
  std::uint64_t id = 0;
  double score = 0;  ///< similarity in [0, 1] (Bloom-signature Jaccard)
};

struct QueryResult {
  std::vector<ScoredId> hits;      ///< ranked, best first
  std::size_t candidates = 0;      ///< ids inspected before ranking
  std::size_t bucket_probes = 0;   ///< cuckoo probes across tables
  /// Modeled slot reads of each SA table's lookups (home + probe keys).
  std::vector<std::size_t> table_slot_reads;
};

struct InsertResult {
  bool ok = true;              ///< false if cuckoo placement failed (rehash)
  std::size_t rehashes = 0;    ///< rehash events triggered by this insert
  std::size_t slot_reads = 0;  ///< modeled slot reads of the placement lookups
  /// Modeled slot accesses of the group-store writes (one lookup's worth
  /// per correlation group the insert created).
  std::size_t store_writes = 0;
};

}  // namespace fast::core
