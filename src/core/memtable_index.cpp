#include "core/memtable_index.hpp"

#include <algorithm>

#include "core/pipeline/factory.hpp"
#include "util/check.hpp"

namespace fast::core {

MemtableIndex::MemtableIndex(const FastConfig& config, std::size_t tables)
    : store_(pipeline::make_group_store(config, tables)) {}

std::size_t MemtableIndex::place(std::uint64_t id,
                                 hash::PackedSignature signature,
                                 std::span<const std::uint64_t> keys,
                                 std::size_t* slot_reads) {
  FAST_CHECK(keys.size() == store_->table_count());
  FAST_CHECK_MSG(!contains(id), "place() on a present id; remove() it first");
  std::size_t rehashes = 0;
  for (std::size_t t = 0; t < keys.size(); ++t) {
    std::size_t lookup_probes = 0;
    const auto group = store_->find(t, keys[t], &lookup_probes);
    if (slot_reads != nullptr) *slot_reads += lookup_probes;
    if (group) {
      groups_[*group].push_back(id);
    } else {
      const std::uint64_t group_id = groups_.size();
      groups_.emplace_back(std::vector<std::uint64_t>{id});
      rehashes += store_->place(t, keys[t], group_id);
    }
  }
  signatures_.emplace(id, std::move(signature));
  keys_.emplace(id, std::vector<std::uint64_t>(keys.begin(), keys.end()));
  tombstones_.erase(id);
  return rehashes;
}

void MemtableIndex::remove(std::uint64_t id) {
  const auto it = signatures_.find(id);
  FAST_CHECK_MSG(it != signatures_.end(), "remove() on an absent id");
  const std::vector<std::uint64_t>& keys = keys_.at(id);
  for (std::size_t t = 0; t < keys.size(); ++t) {
    if (const auto group = store_->find(t, keys[t])) {
      auto& members = groups_[*group];
      members.erase(std::remove(members.begin(), members.end(), id),
                    members.end());
      // An emptied group's bucket key is dropped so queries stop probing it.
      if (members.empty()) store_->erase_key(t, keys[t]);
    }
  }
  signatures_.erase(it);
  keys_.erase(id);
}

void MemtableIndex::collect(std::size_t t, std::uint64_t key,
                            std::unordered_set<std::uint64_t>& out,
                            std::size_t* slot_reads) const {
  std::size_t lookup_probes = 0;
  if (const auto group = store_->find(t, key, &lookup_probes)) {
    for (const std::uint64_t id : groups_[*group]) out.insert(id);
  }
  if (slot_reads != nullptr) *slot_reads += lookup_probes;
}

std::vector<std::uint64_t> MemtableIndex::sorted_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(signatures_.size());
  for (const auto& entry : signatures_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t MemtableIndex::bytes() const {
  std::size_t bytes = 0;
  for (const auto& [id, sig] : signatures_) {
    bytes += sizeof(id) + sig.storage_bytes() +
             sizeof(std::uint64_t) * store_->table_count();
  }
  bytes += store_->store_bytes();
  for (const auto& group : groups_) {
    bytes += sizeof(std::uint64_t) * group.size() + sizeof(std::uint64_t);
  }
  bytes += sizeof(std::uint64_t) * tombstones_.size();
  return bytes;
}

void MemtableIndex::serialize(util::ByteWriter& out) const {
  const std::vector<std::uint64_t> ids = sorted_ids();
  out.u64(ids.size());
  for (const std::uint64_t id : ids) {
    out.u64(id);
    out.blob(signatures_.at(id).encode());
    // Cached home keys, one per table (count implied by the store).
    for (const std::uint64_t key : keys_.at(id)) out.u64(key);
  }

  std::vector<std::uint64_t> dead(tombstones_.begin(), tombstones_.end());
  std::sort(dead.begin(), dead.end());
  out.u64(dead.size());
  for (const std::uint64_t id : dead) out.u64(id);

  out.u64(groups_.size());
  for (const auto& members : groups_) {
    out.u64(members.size());
    for (const std::uint64_t id : members) out.u64(id);
  }
  store_->serialize(out);
}

bool MemtableIndex::deserialize(util::ByteReader& in, std::size_t bloom_bits) {
  const std::uint64_t count = in.u64();
  // Each entry spends at least 8 (id) + 4 (blob length prefix) +
  // table_count*8 (home keys) bytes, so bound the reserve against the
  // bytes actually left instead of trusting a CRC-valid-but-bogus count.
  const std::size_t min_entry_bytes = 8 + 4 + store_->table_count() * 8;
  if (!in.ok() || count > in.remaining() / min_entry_bytes) return false;
  std::unordered_map<std::uint64_t, hash::PackedSignature> sigs;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> keys;
  sigs.reserve(count);
  keys.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = in.u64();
    const auto encoded = in.blob();
    if (!in.ok()) return false;
    try {
      const hash::SparseSignature sig = hash::SparseSignature::decode(encoded);
      if (sig.bit_count() != bloom_bits) return false;
      sigs.emplace(id, hash::PackedSignature(sig));
    } catch (const std::runtime_error&) {
      return false;
    }
    std::vector<std::uint64_t> home(store_->table_count());
    for (auto& key : home) key = in.u64();
    if (!in.ok()) return false;
    keys.emplace(id, std::move(home));
  }

  const std::uint64_t dead_count = in.u64();
  if (!in.ok() || dead_count > in.remaining() / 8) return false;
  std::unordered_set<std::uint64_t> dead;
  dead.reserve(dead_count);
  for (std::uint64_t i = 0; i < dead_count; ++i) dead.insert(in.u64());

  const std::uint64_t group_count = in.u64();
  if (!in.ok() || group_count > in.remaining() / 8) return false;
  std::vector<std::vector<std::uint64_t>> groups;
  groups.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    const std::uint64_t members = in.u64();
    if (!in.ok() || members > in.remaining() / 8) return false;
    std::vector<std::uint64_t> list;
    list.reserve(members);
    for (std::uint64_t i = 0; i < members; ++i) list.push_back(in.u64());
    groups.push_back(std::move(list));
  }
  if (!in.ok()) return false;
  if (!store_->deserialize(in)) return false;

  signatures_ = std::move(sigs);
  keys_ = std::move(keys);
  tombstones_ = std::move(dead);
  groups_ = std::move(groups);
  return true;
}

}  // namespace fast::core
