// core::sim_cost — the one place that prices work on the simulated
// evaluation platform (DESIGN.md §2). Backends only report the work a call
// did (QueryResult, InsertResult); the figure benches and ShardedFastIndex
// price it here after the call returns. A price is a pure function of the
// backend's config, the aggregator's modeled op count for the signature
// and the reported work. `from_image` adds the front end an image pays:
// feature extraction plus k Bloom hash ops per descriptor group.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/backend.hpp"
#include "sim/sim_clock.hpp"

namespace fast::core::sim_cost {

/// A query's simulated time and event counts, and its independent work
/// units in seconds, which the multicore model schedules (Fig. 7).
struct QueryPrice {
  sim::SimClock clock;
  std::vector<double> tasks;
};

/// Per table, the SA hashing and the bounded slot reads (one task each);
/// per candidate, one sparse-overlap merge (one task each); for an image,
/// the front end, its extraction split into max_keypoints tasks.
QueryPrice query(const Backend& backend,
                 const hash::SparseSignature& signature,
                 const QueryResult& result, bool from_image);

/// The SA hashing in the aggregator's cost domain plus one RAM access per
/// placement slot read and store write (plus the front end for an image).
sim::SimClock insert(const Backend& backend,
                     const hash::SparseSignature& signature,
                     const InsertResult& result, bool from_image);

/// A scatter-gather query whose probed shards returned `per_shard`: the
/// front end for an image, then the signature scatter, the slowest shard
/// (shards probe in parallel) and the top-`k` gather; no hop when no shard
/// was probed. `shard` is any shard: they differ only in storage seeds.
sim::SimClock sharded_query(const Backend& shard,
                            const hash::SparseSignature& signature,
                            std::span<const QueryResult> per_shard,
                            std::size_t k, bool from_image);

}  // namespace fast::core::sim_cost
