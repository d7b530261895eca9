#include "hash/group_stores.hpp"

#include <algorithm>
#include <bit>

namespace fast::hash {

namespace {
/// Proactive growth threshold for the per-table cuckoo load factor.
constexpr double kGrowAt = 0.80;
}  // namespace

template <typename TableT>
WindowedCuckooGroupStore<TableT>::WindowedCuckooGroupStore(
    const FlatCuckooConfig& base, std::size_t tables)
    : base_(base) {
  tables_.reserve(tables);
  for (std::size_t t = 0; t < tables; ++t) {
    FlatCuckooConfig cc = base_;
    cc.seed = base_.seed + t * 0x9e37ULL;
    tables_.push_back(Table{TableT(cc), {}, cc.seed});
  }
}

template <typename TableT>
std::optional<std::uint64_t> WindowedCuckooGroupStore<TableT>::find(
    std::size_t t, std::uint64_t key, std::size_t* probes,
    ProbeProfile* profile) const {
  // Flat addressing: every lookup is the same fixed 2W slot reads.
  if (probes != nullptr) *probes = tables_[t].cuckoo.probes_per_lookup();
  ProbeProfile local;
  const auto hit = tables_[t].cuckoo.find(key, &local);
  if (local.fingerprint_false_hits != 0) {
    find_false_hits_.fetch_add(local.fingerprint_false_hits,
                               std::memory_order_relaxed);
  }
  if (profile != nullptr) profile->merge(local);
  return hit;
}

template <typename TableT>
std::size_t WindowedCuckooGroupStore<TableT>::rebuild(Table& table,
                                                      std::size_t capacity,
                                                      const Placement* extra) {
  for (std::size_t attempts = 1;; ++attempts, capacity *= 2) {
    table.seed = mix64(table.seed + 1);
    FlatCuckooConfig cc = base_;
    cc.capacity = capacity;
    cc.seed = table.seed;
    TableT rebuilt(cc);
    bool ok = true;
    table.cuckoo.for_each([&](std::uint64_t key, std::uint64_t group) {
      ok = ok && rebuilt.insert(key, group);
    });
    if (ok && extra != nullptr) {
      ok = rebuilt.insert(extra->first, extra->second);
    }
    if (ok) {
      table.cuckoo = std::move(rebuilt);
      return attempts;
    }
  }
}

template <typename TableT>
void WindowedCuckooGroupStore<TableT>::maybe_grow(Table& table) {
  if (table.cuckoo.load_factor() < kGrowAt) return;
  rebuild(table, table.cuckoo.capacity() * 2, nullptr);
}

template <typename TableT>
std::size_t WindowedCuckooGroupStore<TableT>::place(std::size_t t,
                                                    std::uint64_t key,
                                                    std::uint64_t group) {
  Table& table = tables_[t];
  maybe_grow(table);
  std::optional<std::uint64_t> replaced;
  if (table.cuckoo.insert(key, group, &replaced)) {
    if (replaced.has_value()) table.erased.emplace_back(key, *replaced);
    return 0;
  }
  // Rehash loop: a failed insert leaves the table as it was (so the key
  // was absent); rebuild it with a fresh seed at the same capacity first,
  // doubling only if even a fresh seed cannot place everything, which
  // happens near 100% load.
  const Placement placement{key, group};
  return rebuild(table, table.cuckoo.capacity(), &placement);
}

template <typename TableT>
void WindowedCuckooGroupStore<TableT>::erase_key(std::size_t t,
                                                 std::uint64_t key) {
  Table& table = tables_[t];
  const auto group = table.cuckoo.find(key);
  if (!group.has_value()) return;
  table.cuckoo.erase(key);
  table.erased.emplace_back(key, *group);
}

template <typename TableT>
void WindowedCuckooGroupStore<TableT>::shrink_to_fit(
    std::size_t min_capacity) {
  for (Table& table : tables_) {
    std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(min_capacity, 1));
    while (static_cast<double>(table.cuckoo.size()) >=
           kGrowAt * static_cast<double>(capacity)) {
      capacity *= 2;
    }
    if (capacity < table.cuckoo.capacity()) rebuild(table, capacity, nullptr);
  }
}

template <typename TableT>
std::size_t WindowedCuckooGroupStore<TableT>::lookup_cost_probes(
    std::size_t t) const noexcept {
  return tables_[t].cuckoo.probes_per_lookup();
}

template <typename TableT>
std::size_t WindowedCuckooGroupStore<TableT>::store_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const Table& t : tables_) bytes += t.cuckoo.memory_bytes();
  return bytes;
}

template <typename TableT>
CuckooStats WindowedCuckooGroupStore<TableT>::stats() const noexcept {
  CuckooStats total;
  for (const Table& t : tables_) {
    const CuckooStats& s = t.cuckoo.stats();
    total.inserts += s.inserts;
    total.failures += s.failures;
    total.total_kicks += s.total_kicks;
    total.max_kick_chain = std::max(total.max_kick_chain, s.max_kick_chain);
    total.occupied_slots += t.cuckoo.size();
    total.capacity_slots += t.cuckoo.capacity();
    total.fingerprint_false_hits += s.fingerprint_false_hits;
  }
  total.fingerprint_false_hits +=
      find_false_hits_.load(std::memory_order_relaxed);
  return total;
}

template <typename TableT>
void WindowedCuckooGroupStore<TableT>::serialize(util::ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(tables_.size()));
  for (const Table& table : tables_) {
    out.u64(table.seed);
    // History section: every placement made, live or erased, in group
    // order.
    std::vector<Placement> history(table.erased);
    history.reserve(table.erased.size() + table.cuckoo.size());
    table.cuckoo.for_each([&](std::uint64_t key, std::uint64_t group) {
      history.emplace_back(key, group);
    });
    std::sort(history.begin(), history.end(),
              [](const Placement& a, const Placement& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
    out.u64(history.size());
    for (const auto& [key, group] : history) {
      out.u64(key);
      out.u64(group);
    }
    table.cuckoo.serialize(out);
  }
}

template <typename TableT>
bool WindowedCuckooGroupStore<TableT>::deserialize(util::ByteReader& in) {
  const std::uint32_t tables = in.u32();
  if (!in.ok() || tables != tables_.size()) return false;
  std::vector<Placement> history;
  for (Table& table : tables_) {
    table.seed = in.u64();
    const std::uint64_t entries = in.u64();
    if (!in.ok() || entries > in.remaining() / 16) return false;
    history.clear();
    history.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
      const std::uint64_t key = in.u64();
      const std::uint64_t group = in.u64();
      history.emplace_back(key, group);
    }
    auto cuckoo = TableT::deserialize(in);
    if (!cuckoo.has_value()) return false;
    table.cuckoo = std::move(*cuckoo);
    // Every live pair came from its own history entry, so a history as
    // long as the table holds no erased placement.
    table.erased.clear();
    if (history.size() == table.cuckoo.size()) continue;
    for (const Placement& p : history) {
      if (table.cuckoo.find(p.first) != p.second) table.erased.push_back(p);
    }
  }
  return in.ok();
}

template class WindowedCuckooGroupStore<FlatCuckooTable>;
template class WindowedCuckooGroupStore<CompactFlatCuckooTable>;

ChainedGroupStore::ChainedGroupStore(std::size_t buckets, std::uint64_t seed,
                                     std::size_t tables) {
  tables_.reserve(tables);
  for (std::size_t t = 0; t < tables; ++t) {
    tables_.emplace_back(buckets, seed + t * 0x9e37ULL);
  }
}

std::optional<std::uint64_t> ChainedGroupStore::find(
    std::size_t t, std::uint64_t key, std::size_t* probes,
    ProbeProfile* profile) const {
  // Vertical addressing: the probe cost is the chain walk, data-dependent.
  std::size_t walked = 0;
  const std::vector<std::uint64_t> values = tables_[t].find(key, &walked);
  if (probes != nullptr) *probes = walked;
  if (profile != nullptr) {
    // Head-pointer read plus one (key, value, next) node per walked probe.
    profile->slots_scanned += walked;
    profile->bytes_touched +=
        sizeof(std::int64_t) +
        walked * (2 * sizeof(std::uint64_t) + sizeof(std::int64_t));
  }
  if (values.empty()) return std::nullopt;
  return values.front();
}

std::size_t ChainedGroupStore::place(std::size_t t, std::uint64_t key,
                                     std::uint64_t group) {
  tables_[t].insert(key, group);
  return 0;  // chains grow unboundedly; placement never rehashes
}

void ChainedGroupStore::erase_key(std::size_t t, std::uint64_t key) {
  tables_[t].erase(key);
}

std::size_t ChainedGroupStore::lookup_cost_probes(
    std::size_t t) const noexcept {
  // Modeled expected chain walk: mean bucket occupancy plus the head read.
  const LshTableChained& table = tables_[t];
  return 1 + table.size() / table.bucket_count();
}

std::size_t ChainedGroupStore::store_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const LshTableChained& t : tables_) {
    bytes += t.bucket_count() * sizeof(std::int64_t) +
             t.size() * (2 * sizeof(std::uint64_t) + sizeof(std::int64_t));
  }
  return bytes;
}

void ChainedGroupStore::serialize(util::ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(tables_.size()));
  for (const LshTableChained& table : tables_) table.serialize(out);
}

bool ChainedGroupStore::deserialize(util::ByteReader& in) {
  const std::uint32_t tables = in.u32();
  if (!in.ok() || tables != tables_.size()) return false;
  for (LshTableChained& table : tables_) {
    auto restored = LshTableChained::deserialize(in);
    if (!restored.has_value()) return false;
    table = std::move(*restored);
  }
  return in.ok();
}

CuckooStats ChainedGroupStore::stats() const noexcept {
  CuckooStats total;
  for (const LshTableChained& t : tables_) {
    total.inserts += t.size();
    total.occupied_slots += t.size();
    total.capacity_slots += t.bucket_count();
  }
  return total;
}

}  // namespace fast::hash
