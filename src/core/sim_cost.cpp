#include "core/sim_cost.hpp"

#include <algorithm>

namespace fast::core::sim_cost {

namespace {

/// Bytes of one scatter message: the query signature sent to a shard.
constexpr std::size_t kScatterBytes = 512;

sim::SimClock front_end(const FastConfig& config) {
  sim::SimClock clock;
  clock.charge(config.feature_extract_s);
  clock.charge_hash(config.cost.hash_op_s,
                    config.max_keypoints * config.bloom_hashes);
  return clock;
}

bool in_flops(const pipeline::SemanticAggregator& aggregator) {
  return aggregator.cost_domain() ==
         pipeline::SemanticAggregator::CostDomain::kFlops;
}

}  // namespace

QueryPrice query(const Backend& backend,
                 const hash::SparseSignature& signature,
                 const QueryResult& result, bool from_image) {
  const FastConfig& config = backend.config();
  const pipeline::SemanticAggregator& aggregator = backend.aggregator();
  const double ram_s = config.cost.ram_access_s;
  // SA hashing is per table, independent of how the layout probes.
  const double hash_s =
      (in_flops(aggregator) ? config.cost.flop_s : config.cost.mix_op_s) *
      static_cast<double>(aggregator.query_hash_ops_per_table(signature));
  QueryPrice price;
  for (const std::size_t reads : result.table_slot_reads) {
    price.clock.charge(hash_s);
    price.clock.charge_ram(ram_s, reads);
    price.tasks.push_back(hash_s + ram_s * static_cast<double>(reads));
  }
  price.clock.charge_ram(ram_s, result.candidates);
  price.tasks.insert(price.tasks.end(), result.candidates, ram_s);
  if (from_image) {
    price.clock.merge(front_end(config));
    price.tasks.insert(price.tasks.end(), config.max_keypoints,
                       config.feature_extract_s /
                           static_cast<double>(config.max_keypoints));
  }
  return price;
}

sim::SimClock insert(const Backend& backend,
                     const hash::SparseSignature& signature,
                     const InsertResult& result, bool from_image) {
  const FastConfig& config = backend.config();
  const pipeline::SemanticAggregator& aggregator = backend.aggregator();
  sim::SimClock clock;
  const std::size_t sa_ops = aggregator.insert_hash_ops(signature);
  if (in_flops(aggregator)) {
    clock.charge_flops(config.cost.flop_s, sa_ops);
  } else {
    clock.charge_hash(config.cost.mix_op_s, sa_ops);
  }
  clock.charge_ram(config.cost.ram_access_s,
                   result.slot_reads + result.store_writes);
  if (from_image) clock.merge(front_end(config));
  return clock;
}

sim::SimClock sharded_query(const Backend& shard,
                            const hash::SparseSignature& signature,
                            std::span<const QueryResult> per_shard,
                            std::size_t k, bool from_image) {
  const FastConfig& config = shard.config();
  sim::SimClock clock = from_image ? front_end(config) : sim::SimClock{};
  if (per_shard.empty()) return clock;
  double slowest_s = 0;
  for (const QueryResult& r : per_shard) {
    const QueryPrice local = query(shard, signature, r, /*from_image=*/false);
    slowest_s = std::max(slowest_s, local.clock.elapsed_s());
  }
  const std::size_t gather_bytes =
      k * (sizeof(std::uint64_t) + sizeof(float));
  clock.charge(config.cost.net_transfer_s(kScatterBytes));
  clock.charge(slowest_s);
  clock.charge(config.cost.net_transfer_s(gather_bytes));
  return clock;
}

}  // namespace fast::core::sim_cost
