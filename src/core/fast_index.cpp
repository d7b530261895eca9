#include "core/fast_index.hpp"

#include "core/pipeline/factory.hpp"
#include "util/check.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

FastIndex::FastIndex(FastConfig config, vision::PcaModel pca)
    : FastIndex(config, pipeline::make_summarizer(config, std::move(pca)),
                pipeline::make_aggregator(config), nullptr) {}

FastIndex::FastIndex(FastConfig config,
                     std::unique_ptr<pipeline::Summarizer> summarizer,
                     std::unique_ptr<pipeline::SemanticAggregator> aggregator,
                     std::unique_ptr<pipeline::GroupStore> store)
    : Backend(std::move(config), std::move(summarizer), std::move(aggregator)),
      layer_(config_, store != nullptr ? std::move(store)
                                       : pipeline::make_group_store(
                                             config_,
                                             aggregator_->table_count())) {
  FAST_CHECK_MSG(layer_.table_count() == aggregator_->table_count(),
                 "SA and CHS stages must agree on the table count");
  util::MetricsRegistry& r = metrics();
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

std::size_t FastIndex::writer_lock_count() const noexcept {
  return m_.writer_locks->value();
}

void FastIndex::publish_storage_gauges() {
  const hash::CuckooStats s = layer_.store().stats();
  lm_.chs_occupied_slots->set(static_cast<double>(s.occupied_slots));
  lm_.chs_capacity_slots->set(static_cast<double>(s.capacity_slots));
  lm_.chs_load_factor->set(s.capacity_slots == 0
                               ? 0.0
                               : static_cast<double>(s.occupied_slots) /
                                     static_cast<double>(s.capacity_slots));
  lm_.chs_insert_failures->set(static_cast<double>(s.failures));
  lm_.chs_total_kicks->set(static_cast<double>(s.total_kicks));
  lm_.chs_max_kick_chain->set(static_cast<double>(s.max_kick_chain));
  lm_.chs_store_bytes->set(static_cast<double>(layer_.store().store_bytes()));
  m_.index_size->set(static_cast<double>(layer_.entries()));
  lm_.index_groups->set(static_cast<double>(layer_.group_count()));
}

// --- Writes -----------------------------------------------------------------

void FastIndex::place(std::span<Placement> batch) {
  std::unique_lock lock = writer_lock(mutex_);
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
  if (layer_.contains(p.id)) apply_erase(p.id);

  InsertResult& result = p.result;
  hash::ProbeProfile probe_profile;
  const IndexLayer::Placed placed =
      layer_.place(p.id, *p.signature, p.keys, &probe_profile);
  result.slot_reads += placed.slot_reads;
  result.store_writes += placed.store_writes;
  m_.chs_slot_reads->add(placed.slot_reads);
  result.rehashes += placed.rehashes;
  rehashes_ += placed.rehashes;
  if (placed.rehashes > 0) result.ok = false;
  lm_.chs_group_hits->add(placed.group_hits);
  lm_.chs_group_creates->add(placed.group_creates);
  lm_.chs_rehash_events->add(placed.rehashes);
  if (probe_profile.fingerprint_false_hits != 0) {
    m_.chs_fingerprint_false_hits->add(probe_profile.fingerprint_false_hits);
  }
  publish_storage_gauges();
}

std::size_t FastIndex::remove(std::span<const std::uint64_t> ids) {
  std::unique_lock lock = writer_lock(mutex_);
  std::size_t erased = 0;
  for (const std::uint64_t id : ids) {
    // An unknown id is a no-op; logging it would bloat the WAL for nothing.
    if (!layer_.contains(id)) continue;
    if (durable()) {
      storage::throw_if_error(log_->append(storage::kWalRecordErase, id, {}));
    }
    erased += apply_erase(id) ? 1 : 0;
  }
  return erased;
}

bool FastIndex::apply_erase(std::uint64_t id) {
  const auto signature = layer_.signature_of(id);
  if (!signature.has_value()) return false;
  layer_.remove(id, derive_keys(*signature, nullptr));
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

  util::ByteWriter sigs;
  layer_.write_signatures(sigs);
  snapshot.sections.push_back({storage::kSectionSignatures, sigs.take()});

  util::ByteWriter groups;
  layer_.write_groups(groups);
  snapshot.sections.push_back({storage::kSectionGroups, groups.take()});

  util::ByteWriter store;
  layer_.write_store(store);
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

  // A failed decode leaves a layer unusable, so restore into a fresh one
  // and keep the current layer until everything has decoded.
  IndexLayer restored(config_, aggregator_->table_count());
  util::ByteReader sr{std::span(sigs->payload)};
  util::ByteReader gr{std::span(groups->payload)};
  util::ByteReader str{std::span(store->payload)};
  if (!restored.read_signatures(sr) || !restored.read_groups(gr) ||
      !restored.read_store(str)) {
    return false;
  }

  layer_ = std::move(restored);
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
  std::unique_lock lock = writer_lock(mutex_);
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
  std::shared_lock lock = reader_lock(mutex_);
  // Collect candidates from the home bucket plus the probe buckets of
  // every table, then score them by Jaccard similarity against the query's
  // bitmap, straight off their slots. The top-k sorts by a total order, so
  // gathering order is free.
  CandidateSlots candidates(layer_.slab().slot_limit());
  hash::ProbeProfile probe_profile;
  layer_.collect(keys, probes, candidates, out.table_slot_reads,
                 &out.bucket_probes, &probe_profile);
  out.fingerprint_false_hits = probe_profile.fingerprint_false_hits;

  util::WallTimer score_timer;
  layer_.score(scorer, candidates.slots(), candidates.scores(), out.scored);
  out.score_s = score_timer.elapsed_seconds();
}

// --- State ------------------------------------------------------------------

std::size_t FastIndex::size() const {
  std::shared_lock lock = reader_lock(mutex_);
  return layer_.entries();
}

std::optional<hash::SparseSignature> FastIndex::signature_of(
    std::uint64_t id) const {
  std::shared_lock lock = reader_lock(mutex_);
  return layer_.signature_of(id);
}

void FastIndex::for_each_live(
    const std::function<void(std::uint64_t, const hash::SparseSignature&)>& fn)
    const {
  std::shared_lock lock = reader_lock(mutex_);
  for (const auto& [id, slot] : layer_.slots()) {
    fn(id, layer_.slab().unpack(slot));
  }
}

std::size_t FastIndex::group_count() const {
  std::shared_lock lock = reader_lock(mutex_);
  return layer_.group_count();
}

std::size_t FastIndex::rehash_count() const {
  std::shared_lock lock = reader_lock(mutex_);
  return rehashes_;
}

std::vector<std::uint64_t> FastIndex::group_members(std::size_t g) const {
  std::shared_lock lock = reader_lock(mutex_);
  std::vector<std::uint64_t> ids;
  for (const std::uint32_t slot : layer_.group(g)) {
    ids.push_back(layer_.slab().id(slot));
  }
  return ids;
}

std::size_t FastIndex::index_bytes() const {
  std::shared_lock lock = reader_lock(mutex_);
  std::size_t bytes = layer_.bytes();
  bytes += aggregator_->param_bytes();
  return bytes;
}

}  // namespace fast::core
