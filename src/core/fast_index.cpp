#include "core/fast_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pipeline/factory.hpp"
#include "util/check.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

namespace {

// One query's candidate slots, gathered from its probed groups with each
// slot kept once, plus room for their scores. The storage is per thread
// and reused: `seen` has one bit per slot and is all clear between
// queries, because a query clears exactly the words its own slots set. So
// the dedupe costs a bit test per gathered member, with no sort and no
// per-query work proportional to the index size. Concurrent queries (under
// the shared lock) each use their own thread's scratch.
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

}  // namespace

FastIndex::FastIndex(FastConfig config, vision::PcaModel pca)
    : FastIndex(config, pipeline::make_summarizer(config, std::move(pca)),
                pipeline::make_aggregator(config), nullptr) {}

FastIndex::FastIndex(FastConfig config,
                     std::unique_ptr<pipeline::Summarizer> summarizer,
                     std::unique_ptr<pipeline::SemanticAggregator> aggregator,
                     std::unique_ptr<pipeline::GroupStore> store)
    : Backend(std::move(config), std::move(summarizer), std::move(aggregator)),
      store_(std::move(store)),
      slab_(static_cast<std::uint32_t>(config_.bloom_bits)) {
  if (store_ == nullptr) {
    store_ = pipeline::make_group_store(config_, aggregator_->table_count());
  }
  FAST_CHECK_MSG(store_->table_count() == aggregator_->table_count(),
                 "SA and CHS stages must agree on the table count");
  util::MetricsRegistry& r = metrics();
  lm_.writer_locks = &r.counter("index.writer_locks");
  lm_.reader_locks = &r.counter("index.reader_locks");
  lm_.chs_group_hits = &r.counter("chs.group_hits");
  lm_.chs_group_creates = &r.counter("chs.group_creates");
  lm_.chs_rehash_events = &r.counter("chs.rehash_events");
  lm_.chs_load_factor = &r.gauge("chs.load_factor");
  lm_.chs_occupied_slots = &r.gauge("chs.occupied_slots");
  lm_.chs_capacity_slots = &r.gauge("chs.capacity_slots");
  lm_.chs_insert_failures = &r.gauge("chs.insert_failures");
  lm_.chs_total_kicks = &r.gauge("chs.total_kicks");
  lm_.chs_max_kick_chain = &r.gauge("chs.max_kick_chain");
  lm_.chs_store_bytes = &r.gauge("chs.store_bytes");
  lm_.index_groups = &r.gauge("index.groups");
}

std::unique_lock<std::shared_mutex> FastIndex::writer_lock() const {
  std::unique_lock lock(mutex_.mutex, std::defer_lock);
  {
    util::TraceSpan wait("lock.writer_wait");
    lock.lock();
  }
  lm_.writer_locks->add();
  return lock;
}

std::shared_lock<std::shared_mutex> FastIndex::reader_lock() const {
  std::shared_lock lock(mutex_.mutex, std::defer_lock);
  {
    util::TraceSpan wait("lock.reader_wait");
    lock.lock();
  }
  lm_.reader_locks->add();
  return lock;
}

std::size_t FastIndex::writer_lock_count() const noexcept {
  return lm_.writer_locks->value();
}

void FastIndex::publish_storage_gauges() {
  const hash::CuckooStats s = store_->stats();
  lm_.chs_occupied_slots->set(static_cast<double>(s.occupied_slots));
  lm_.chs_capacity_slots->set(static_cast<double>(s.capacity_slots));
  lm_.chs_load_factor->set(s.capacity_slots == 0
                               ? 0.0
                               : static_cast<double>(s.occupied_slots) /
                                     static_cast<double>(s.capacity_slots));
  lm_.chs_insert_failures->set(static_cast<double>(s.failures));
  lm_.chs_total_kicks->set(static_cast<double>(s.total_kicks));
  lm_.chs_max_kick_chain->set(static_cast<double>(s.max_kick_chain));
  lm_.chs_store_bytes->set(static_cast<double>(store_->store_bytes()));
  m_.index_size->set(static_cast<double>(slab_.size()));
  lm_.index_groups->set(static_cast<double>(groups_.size()));
}

// --- Writes -----------------------------------------------------------------

void FastIndex::place(std::span<Placement> batch) {
  std::unique_lock lock = writer_lock();
  util::TraceSpan span("chs.place");
  span.attr("items", static_cast<double>(batch.size()));
  for (Placement& p : batch) {
    // Log before apply: if the record cannot be made durable (IoError), the
    // in-memory state is untouched and recovery sees a consistent prefix of
    // acknowledged mutations.
    if (durable()) {
      storage::throw_if_error(log_->append(storage::kWalRecordInsert, p.id,
                                           p.signature->encode()));
    }
    apply_insert(p);
  }
}

void FastIndex::apply_insert(Placement& p) {
  // Re-insert replaces (erase-then-insert): the stale signature leaves the
  // index and the id exits its old groups first, so it never appears twice
  // in a membership list and queries rank against the fresh signature.
  // (apply_erase, not a logged erase: replay of this insert record redoes
  // the eviction.)
  if (slot_of_.contains(p.id)) apply_erase(p.id);

  InsertResult& result = p.result;
  const std::uint32_t slot = slab_.add(p.id, *p.signature);
  slot_of_.emplace(p.id, slot);
  hash::ProbeProfile probe_profile;
  for (std::size_t t = 0; t < p.keys.size(); ++t) {
    std::size_t lookup_probes = 0;
    const auto group =
        store_->find(t, p.keys[t], &lookup_probes, &probe_profile);
    result.cost.charge_ram(config_.cost.ram_access_s, lookup_probes);
    m_.chs_slot_reads->add(lookup_probes);
    if (group) {
      groups_[*group].push_back(slot);
      lm_.chs_group_hits->add();
    } else {
      const std::uint64_t group_id = groups_.size();
      groups_.emplace_back(std::vector<std::uint32_t>{slot});
      const std::size_t events = store_->place(t, p.keys[t], group_id);
      result.rehashes += events;
      rehashes_ += events;
      if (events > 0) result.ok = false;
      result.cost.charge_ram(config_.cost.ram_access_s,
                             store_->lookup_cost_probes(t));
      lm_.chs_group_creates->add();
      lm_.chs_rehash_events->add(events);
    }
  }
  if (probe_profile.fingerprint_false_hits != 0) {
    m_.chs_fingerprint_false_hits->add(probe_profile.fingerprint_false_hits);
  }
  publish_storage_gauges();
}

std::size_t FastIndex::remove(std::span<const std::uint64_t> ids) {
  std::unique_lock lock = writer_lock();
  std::size_t erased = 0;
  for (const std::uint64_t id : ids) {
    // An unknown id is a no-op; logging it would bloat the WAL for nothing.
    if (!slot_of_.contains(id)) continue;
    if (durable()) {
      storage::throw_if_error(log_->append(storage::kWalRecordErase, id, {}));
    }
    erased += apply_erase(id) ? 1 : 0;
  }
  return erased;
}

bool FastIndex::apply_erase(std::uint64_t id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  const std::uint32_t slot = it->second;
  const std::vector<std::uint64_t> keys =
      derive_keys(slab_.unpack(slot), nullptr);
  for (std::size_t t = 0; t < keys.size(); ++t) {
    if (const auto group = store_->find(t, keys[t])) {
      auto& members = groups_[*group];
      members.erase(std::remove(members.begin(), members.end(), slot),
                    members.end());
      // An emptied group's bucket key is dropped so queries stop probing
      // it. (Flat-cuckoo rebuild logs keep the mapping; a rebuilt table
      // would resurrect the key pointing at an empty group — harmless.)
      if (members.empty()) store_->erase_key(t, keys[t]);
    }
  }
  slab_.remove(slot);
  slot_of_.erase(it);
  publish_storage_gauges();
  return true;
}

// --- Durability: snapshot + WAL ------------------------------------------

storage::SnapshotFile FastIndex::build_snapshot() const {
  storage::SnapshotFile snapshot;
  snapshot.config_fingerprint = config_fingerprint(config_);
  snapshot.last_seq = last_seq();

  util::ByteWriter params;
  params.f64(config_.lsh_input_scale);
  params.u64(rehashes_);
  snapshot.sections.push_back({storage::kSectionParams, params.take()});

  // Signatures in id order: the image is a pure function of index content,
  // never of unordered_map iteration order or of slot numbering.
  std::vector<std::uint64_t> ids;
  ids.reserve(slot_of_.size());
  for (const auto& entry : slot_of_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  util::ByteWriter sigs;
  sigs.u64(ids.size());
  for (const std::uint64_t id : ids) {
    sigs.u64(id);
    sigs.blob(slab_.encode(slot_of_.at(id)));
  }
  snapshot.sections.push_back({storage::kSectionSignatures, sigs.take()});

  util::ByteWriter groups;
  groups.u64(groups_.size());
  for (const auto& members : groups_) {
    groups.u64(members.size());
    for (const std::uint32_t slot : members) groups.u64(slab_.id(slot));
  }
  snapshot.sections.push_back({storage::kSectionGroups, groups.take()});

  util::ByteWriter store;
  store_->serialize(store);
  // The compact backend publishes its store under a distinct section id so
  // readers built before it existed fail the section lookup outright (on
  // top of the chs_backend term in the config fingerprint).
  const std::uint32_t store_section =
      config_.chs_backend == FastConfig::ChsBackend::kCompactFlatCuckoo
          ? storage::kSectionStoreCompact
          : storage::kSectionStore;
  snapshot.sections.push_back({store_section, store.take()});
  return snapshot;
}

bool FastIndex::restore_snapshot(const storage::SnapshotFile& snapshot) {
  const auto* params = snapshot.find(storage::kSectionParams);
  const auto* sigs = snapshot.find(storage::kSectionSignatures);
  const auto* groups = snapshot.find(storage::kSectionGroups);
  const auto* store = snapshot.find(
      config_.chs_backend == FastConfig::ChsBackend::kCompactFlatCuckoo
          ? storage::kSectionStoreCompact
          : storage::kSectionStore);
  if (params == nullptr || sigs == nullptr || groups == nullptr ||
      store == nullptr) {
    return false;
  }

  util::ByteReader pr{std::span(params->payload)};
  const double input_scale = pr.f64();
  const std::uint64_t rehashes = pr.u64();
  if (!pr.ok()) return false;

  util::ByteReader sr{std::span(sigs->payload)};
  const std::uint64_t count = sr.u64();
  // Each entry spends at least 8 (id) + 4 (blob length prefix) bytes, so
  // bound the reserve against the bytes actually left instead of trusting
  // a CRC-valid-but-bogus count.
  if (!sr.ok() || count > sr.remaining() / (8 + 4)) return false;
  hash::SignatureSlab restored_slab(slab_.bit_count());
  std::unordered_map<std::uint64_t, std::uint32_t> restored_slots;
  restored_slots.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = sr.u64();
    const auto encoded = sr.blob();
    if (!sr.ok()) return false;
    try {
      const hash::SparseSignature sig = hash::SparseSignature::decode(encoded);
      if (sig.bit_count() != config_.bloom_bits) return false;
      // A repeated id keeps its first signature.
      if (!restored_slots.contains(id)) {
        restored_slots.emplace(id, restored_slab.add(id, sig));
      }
    } catch (const std::runtime_error&) {
      return false;
    }
  }

  util::ByteReader gr{std::span(groups->payload)};
  const std::uint64_t group_count = gr.u64();
  if (!gr.ok() || group_count > gr.remaining() / 8) return false;
  std::vector<std::vector<std::uint32_t>> restored_groups;
  restored_groups.reserve(group_count);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    const std::uint64_t members = gr.u64();
    if (!gr.ok() || members > gr.remaining() / 8) return false;
    std::vector<std::uint32_t> list;
    list.reserve(members);
    for (std::uint64_t i = 0; i < members; ++i) {
      // Every member must have a stored signature to be ranked against.
      const auto slot = restored_slots.find(gr.u64());
      if (slot == restored_slots.end()) return false;
      list.push_back(slot->second);
    }
    restored_groups.push_back(std::move(list));
  }
  if (!gr.ok()) return false;

  // A failed deserialize leaves a store unusable, so restore into a fresh
  // one and keep the current store until everything has decoded.
  auto restored_store =
      pipeline::make_group_store(config_, aggregator_->table_count());
  util::ByteReader str{std::span(store->payload)};
  if (!restored_store->deserialize(str)) return false;

  store_ = std::move(restored_store);
  slab_ = std::move(restored_slab);
  slot_of_ = std::move(restored_slots);
  groups_ = std::move(restored_groups);
  rehashes_ = rehashes;
  config_.lsh_input_scale = input_scale;
  aggregator_->set_input_scale(input_scale);
  publish_storage_gauges();
  return true;
}

storage::Status FastIndex::save_snapshot() {
  if (!durable()) {
    return storage::Status::error(storage::StatusCode::kIoError,
                                  "save_snapshot on a non-durable index");
  }
  std::unique_lock lock = writer_lock();
  return log_->checkpoint(build_snapshot());
}

storage::StatusOr<FastIndex> FastIndex::open_or_recover(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats) {
  FastIndex index(std::move(config), std::move(pca));
  storage::Status opened = index.open_log(opts, stats);
  if (!opened.ok()) return opened;
  return index;
}

// --- Queries ----------------------------------------------------------------

void FastIndex::gather(std::span<const std::uint64_t> keys,
                       std::span<const std::vector<std::uint64_t>> probes,
                       const hash::JaccardScorer& scorer, Gathered& out,
                       util::TraceSpan& /*probe_span*/) const {
  std::shared_lock lock = reader_lock();
  // Collect candidates from the home bucket plus the probe buckets of
  // every table. Each flat-addressed lookup is a fixed bounded slot read;
  // the per-table work items are independent (Fig. 7 parallelism). A slot
  // reached through several buckets is gathered once.
  CandidateSlots candidates(slab_.slot_limit());
  hash::ProbeProfile probe_profile;
  for (std::size_t t = 0; t < keys.size(); ++t) {
    auto probe_bucket = [&](std::uint64_t key) {
      ++out.bucket_probes;
      std::size_t lookup_probes = 0;
      if (const auto group =
              store_->find(t, key, &lookup_probes, &probe_profile)) {
        candidates.add(groups_[*group]);
      }
      out.table_slot_reads[t] += lookup_probes;
    };
    probe_bucket(keys[t]);
    for (const std::uint64_t pk : probes[t]) probe_bucket(pk);
  }
  out.fingerprint_false_hits = probe_profile.fingerprint_false_hits;

  // Score candidates by Jaccard similarity against the query's bitmap,
  // straight off their slots. The top-k sorts by a total order, so
  // gathering order is free.
  util::WallTimer score_timer;
  const std::span<const std::uint32_t> slots = candidates.slots();
  const std::span<double> scores = candidates.scores();
  scorer.score_slots(slab_, slots, scores);
  out.scored.reserve(slots.size());
  for (std::size_t c = 0; c < slots.size(); ++c) {
    out.scored.push_back(ScoredId{slab_.id(slots[c]), scores[c]});
  }
  out.score_s = score_timer.elapsed_seconds();
}

// --- State ------------------------------------------------------------------

std::size_t FastIndex::size() const {
  std::shared_lock lock = reader_lock();
  return slab_.size();
}

std::optional<hash::SparseSignature> FastIndex::signature_of(
    std::uint64_t id) const {
  std::shared_lock lock = reader_lock();
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return std::nullopt;
  return slab_.unpack(it->second);
}

void FastIndex::for_each_live(
    const std::function<void(std::uint64_t, const hash::SparseSignature&)>& fn)
    const {
  std::shared_lock lock = reader_lock();
  for (const auto& [id, slot] : slot_of_) fn(id, slab_.unpack(slot));
}

std::size_t FastIndex::group_count() const {
  std::shared_lock lock = reader_lock();
  return groups_.size();
}

std::size_t FastIndex::rehash_count() const {
  std::shared_lock lock = reader_lock();
  return rehashes_;
}

std::vector<std::uint64_t> FastIndex::group_members(std::size_t g) const {
  std::shared_lock lock = reader_lock();
  std::vector<std::uint64_t> ids;
  for (const std::uint32_t slot : groups_.at(g)) ids.push_back(slab_.id(slot));
  return ids;
}

std::size_t FastIndex::index_bytes() const {
  std::shared_lock lock = reader_lock();
  std::size_t bytes = 0;
  for (const auto& [id, slot] : slot_of_) {
    bytes += sizeof(id) + slab_.storage_bytes(slot);
  }
  bytes += store_->store_bytes();
  // Members are counted as the 8-byte ids they stand for, as persisted.
  for (const auto& group : groups_) {
    bytes += sizeof(std::uint64_t) * group.size() + sizeof(std::uint64_t);
  }
  bytes += aggregator_->param_bytes();
  return bytes;
}

}  // namespace fast::core
