#include "core/index_layer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pipeline/factory.hpp"
#include "util/trace.hpp"

namespace fast::core {

IndexLayer::IndexLayer(const FastConfig& config, std::size_t tables)
    : IndexLayer(config, pipeline::make_group_store(config, tables)) {}

IndexLayer::IndexLayer(const FastConfig& config,
                       std::unique_ptr<pipeline::GroupStore> store)
    : store_(std::move(store)),
      slab_(static_cast<std::uint32_t>(config.bloom_bits)) {}

std::vector<std::uint64_t> IndexLayer::sorted_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(slot_of_.size());
  for (const auto& entry : slot_of_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- Group table ------------------------------------------------------------

void IndexLayer::add_member(std::size_t g, std::uint32_t slot) {
  GroupHead& head = heads_[g];
  if (head.count == 1) {
    std::uint32_t spill;
    if (free_spills_.empty()) {
      FAST_CHECK(spills_.size() < UINT32_MAX);
      spill = static_cast<std::uint32_t>(spills_.size());
      spills_.emplace_back();
    } else {
      spill = free_spills_.back();
      free_spills_.pop_back();
    }
    spills_[spill].assign({head.value, slot});
    head.value = spill;
  } else if (head.count > 1) {
    spills_[head.value].push_back(slot);
  } else {
    head.value = slot;
  }
  ++head.count;
}

std::uint32_t IndexLayer::remove_member(std::size_t g, std::uint32_t slot) {
  GroupHead& head = heads_[g];
  if (head.count <= 1) {
    if (head.count == 1 && head.value == slot) head = GroupHead{};
    return head.count;
  }
  std::vector<std::uint32_t>& members = spills_[head.value];
  members.erase(std::remove(members.begin(), members.end(), slot),
                members.end());
  head.count = static_cast<std::uint32_t>(members.size());
  if (head.count <= 1) {
    free_spills_.push_back(head.value);
    head.value = members.empty() ? 0 : members.front();
    members.clear();
  }
  return head.count;
}

// --- Writes -----------------------------------------------------------------

IndexLayer::Placed IndexLayer::place(std::uint64_t id,
                                     const hash::SparseSignature& signature,
                                     std::span<const std::uint64_t> keys,
                                     hash::ProbeProfile* profile) {
  FAST_CHECK(keys.size() == store_->table_count());
  FAST_CHECK_MSG(!contains(id), "place() on a live id; remove() it first");
  Placed placed;
  const std::uint32_t slot = slab_.add(id, signature);
  slot_of_.emplace(id, slot);
  tombstones_.erase(id);
  for (std::size_t t = 0; t < keys.size(); ++t) {
    std::size_t lookup_probes = 0;
    const auto group = store_->find(t, keys[t], &lookup_probes, profile);
    placed.slot_reads += lookup_probes;
    if (group) {
      add_member(*group, slot);
      ++placed.group_hits;
    } else {
      const std::uint64_t group_id = heads_.size();
      heads_.push_back(GroupHead{1, slot});
      placed.rehashes += store_->place(t, keys[t], group_id);
      ++placed.group_creates;
      placed.store_writes += store_->lookup_cost_probes(t);
    }
  }
  return placed;
}

void IndexLayer::remove(std::uint64_t id, std::span<const std::uint64_t> keys) {
  const auto it = slot_of_.find(id);
  FAST_CHECK_MSG(it != slot_of_.end(), "remove() on an absent id");
  const std::uint32_t slot = it->second;
  for (std::size_t t = 0; t < keys.size(); ++t) {
    // An emptied group gives its key up for good: a rebuilt cuckoo table
    // re-inserts only the keys still live.
    const auto group = store_->find(t, keys[t]);
    if (group && remove_member(*group, slot) == 0) {
      store_->erase_key(t, keys[t]);
    }
  }
  slab_.remove(slot);
  slot_of_.erase(it);
}

// --- Queries ----------------------------------------------------------------

void IndexLayer::collect(std::span<const std::uint64_t> keys,
                         std::span<const std::vector<std::uint64_t>> probes,
                         CandidateSlots& out,
                         std::span<std::size_t> table_slot_reads,
                         std::size_t* bucket_probes,
                         hash::ProbeProfile* profile) const {
  // Each flat-addressed lookup is a fixed bounded slot read; the per-table
  // work items are independent (Fig. 7 parallelism). A slot reached
  // through several buckets is gathered once.
  std::size_t probed = 0;
  for (std::size_t t = 0; t < keys.size(); ++t) {
    auto probe_bucket = [&](std::uint64_t key) {
      ++probed;
      std::size_t lookup_probes = 0;
      if (const auto g = store_->find(t, key, &lookup_probes, profile)) {
        out.add(group(*g));
      }
      table_slot_reads[t] += lookup_probes;
    };
    probe_bucket(keys[t]);
    for (const std::uint64_t pk : probes[t]) probe_bucket(pk);
  }
  *bucket_probes += probed;
}

void IndexLayer::score(const hash::JaccardScorer& scorer,
                       std::span<const std::uint32_t> slots,
                       std::span<double> scores,
                       std::vector<ScoredId>& out) const {
  util::TraceSpan span("rank.score");
  span.attr("candidates", static_cast<double>(slots.size()));
  scorer.score_slots(slab_, slots, scores);
  out.reserve(out.size() + slots.size());
  for (std::size_t c = 0; c < slots.size(); ++c) {
    out.push_back(ScoredId{slab_.id(slots[c]), scores[c]});
  }
}

std::size_t IndexLayer::bytes() const {
  std::size_t bytes = 0;
  for (const auto& [id, slot] : slot_of_) {
    bytes += sizeof(id) + slab_.storage_bytes(slot);
  }
  bytes += store_->store_bytes();
  for (const GroupHead& head : heads_) {
    bytes += sizeof(std::uint64_t) * head.count + sizeof(std::uint64_t);
  }
  bytes += sizeof(std::uint64_t) * tombstones_.size();
  return bytes;
}

// --- Snapshot codec ---------------------------------------------------------

void IndexLayer::write_signatures(util::ByteWriter& out) const {
  // Id order: the image is a pure function of content, never of
  // unordered_map iteration order or of slot numbering.
  const std::vector<std::uint64_t> ids = sorted_ids();
  out.u64(ids.size());
  for (const std::uint64_t id : ids) {
    out.u64(id);
    out.blob(slab_.encode(slot_of_.at(id)));
  }
}

void IndexLayer::write_groups(util::ByteWriter& out) const {
  out.u64(heads_.size());
  for (std::size_t g = 0; g < heads_.size(); ++g) {
    const std::span<const std::uint32_t> members = group(g);
    out.u64(members.size());
    for (const std::uint32_t slot : members) out.u64(slab_.id(slot));
  }
}

void IndexLayer::write_tombstones(util::ByteWriter& out) const {
  std::vector<std::uint64_t> dead(tombstones_.begin(), tombstones_.end());
  std::sort(dead.begin(), dead.end());
  out.u64(dead.size());
  for (const std::uint64_t id : dead) out.u64(id);
}

bool IndexLayer::read_signatures(util::ByteReader& in) {
  const std::uint64_t count = in.u64();
  // Each entry spends at least 8 (id) + 4 (blob length prefix) bytes, so
  // bound the reserve against the bytes actually left instead of trusting
  // a CRC-valid-but-bogus count.
  if (!in.ok() || count > in.remaining() / (8 + 4)) return false;
  slot_of_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = in.u64();
    const auto encoded = in.blob();
    if (!in.ok()) return false;
    try {
      const hash::SparseSignature sig = hash::SparseSignature::decode(encoded);
      if (sig.bit_count() != slab_.bit_count()) return false;
      // A repeated id keeps its first signature.
      if (!slot_of_.contains(id)) slot_of_.emplace(id, slab_.add(id, sig));
    } catch (const std::runtime_error&) {
      return false;
    }
  }
  return true;
}

bool IndexLayer::read_groups(util::ByteReader& in) {
  const std::uint64_t group_count = in.u64();
  if (!in.ok() || group_count > in.remaining() / 8) return false;
  heads_.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    const std::uint64_t members = in.u64();
    if (!in.ok() || members > in.remaining() / 8) return false;
    heads_.emplace_back();
    for (std::uint64_t i = 0; i < members; ++i) {
      // Every member must have a stored signature to be ranked against.
      const auto slot = slot_of_.find(in.u64());
      if (slot == slot_of_.end()) return false;
      add_member(g, slot->second);
    }
  }
  return in.ok();
}

bool IndexLayer::read_tombstones(util::ByteReader& in) {
  const std::uint64_t count = in.u64();
  if (!in.ok() || count > in.remaining() / 8) return false;
  tombstones_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) tombstones_.insert(in.u64());
  return in.ok();
}

void IndexLayer::serialize(util::ByteWriter& out) const {
  write_signatures(out);
  write_tombstones(out);
  write_groups(out);
  write_store(out);
}

bool IndexLayer::deserialize(util::ByteReader& in) {
  return read_signatures(in) && read_tombstones(in) && read_groups(in) &&
         read_store(in);
}

}  // namespace fast::core
