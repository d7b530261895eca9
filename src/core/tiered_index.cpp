#include "core/tiered_index.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/pipeline/factory.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

TieredIndex::TieredIndex(FastConfig config, vision::PcaModel pca)
    : TieredIndex(std::move(config), std::move(pca), /*start_worker=*/true) {}

TieredIndex::TieredIndex(FastConfig config, vision::PcaModel pca,
                         bool start_worker)
    : Backend(config, pipeline::make_summarizer(config, std::move(pca)),
              pipeline::make_aggregator(config)) {
  tables_ = aggregator_->table_count();
  mem_config_ = config_;
  // Headroom over the seal threshold keeps a filling memtable below the
  // store's 80% proactive-doubling load for a whole seal interval. Capped
  // so a huge (effectively never-seal) threshold does not pre-allocate an
  // arena the tier will never fill; past the cap the store grows on demand.
  const std::size_t target_cap = std::min<std::size_t>(
      config_.tier.seal_threshold + config_.tier.seal_threshold / 2,
      std::size_t{1} << 16);
  while (mem_config_.cuckoo.capacity < target_cap) {
    mem_config_.cuckoo.capacity *= 2;
  }
  const std::size_t lane_count = std::max<std::size_t>(config_.tier.lanes, 1);
  lanes_.reserve(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->mem = std::make_unique<IndexLayer>(mem_config_, tables_);
    lane->segments.store(std::make_shared<const SegmentList>());
    lanes_.push_back(std::move(lane));
  }
  init_metrics();
  tm_.tier_lanes->set(static_cast<double>(lanes_.size()));
  if (start_worker && config_.tier.background) {
    worker_ = std::thread(&TieredIndex::worker_loop, this);
  }
}

TieredIndex::~TieredIndex() { stop_worker(); }

void TieredIndex::init_metrics() {
  util::MetricsRegistry& r = metrics();
  tm_.tier_lanes = &r.gauge("tier.lanes");
  tm_.tier_memtable_entries = &r.gauge("tier.memtable_entries");
  tm_.tier_tombstones = &r.gauge("tier.tombstones");
  tm_.tier_seals = &r.counter("tier.seals");
  tm_.tier_segment_skips = &r.counter("tier.segment_skips");
  tm_.segment_count = &r.gauge("segment.count");
  tm_.compaction_runs = &r.counter("compaction.runs");
  tm_.compaction_dropped_tombstones =
      &r.counter("compaction.dropped_tombstones");
  tm_.compaction_merge_s = &r.latency_histogram("compaction.merge_s");
  tm_.compaction_merge_entries =
      &r.count_histogram("compaction.merge_entries");
  tm_.compaction_merged_segments =
      &r.count_histogram("compaction.merged_segments");
}

std::size_t TieredIndex::segment_count() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->segments.load()->size();
  return total;
}

std::size_t TieredIndex::tombstone_count() const {
  std::size_t total = static_cast<std::size_t>(
      std::max<std::int64_t>(mem_tombstones_.load(std::memory_order_relaxed),
                             0));
  for (const auto& lane : lanes_) {
    const auto list = lane->segments.load();
    for (const auto& seg : *list) total += seg->state().tombstone_count();
  }
  return total;
}

std::size_t TieredIndex::index_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lane : lanes_) {
    {
      std::shared_lock lk = reader_lock(lane->mem_mutex);
      bytes += lane->mem->bytes();
    }
    const auto list = lane->segments.load();
    for (const auto& seg : *list) {
      bytes += seg->state().bytes();
      if (seg->bloom().has_value()) {
        bytes += seg->bloom()->words().size() * sizeof(std::uint64_t);
      }
    }
  }
  bytes += aggregator_->param_bytes();
  return bytes;
}

void TieredIndex::publish_tier_gauges() {
  std::size_t segs = 0;
  std::size_t seg_tombstones = 0;
  for (const auto& lane : lanes_) {
    const auto list = lane->segments.load();
    segs += list->size();
    for (const auto& seg : *list) {
      seg_tombstones += seg->state().tombstone_count();
    }
  }
  tm_.segment_count->set(static_cast<double>(segs));
  tm_.tier_memtable_entries->set(static_cast<double>(
      std::max<std::int64_t>(mem_entries_.load(std::memory_order_relaxed),
                             0)));
  tm_.tier_tombstones->set(static_cast<double>(
      static_cast<std::size_t>(std::max<std::int64_t>(
          mem_tombstones_.load(std::memory_order_relaxed), 0)) +
      seg_tombstones));
  m_.index_size->set(static_cast<double>(size()));
}

// --- Mutations ------------------------------------------------------------

bool TieredIndex::segments_contain_live(const Lane& lane, std::uint64_t id) {
  const auto list = lane.segments.load();
  for (const auto& seg : *list) {
    if (seg->state().contains(id)) return true;
    if (seg->state().tombstoned(id)) return false;
  }
  return false;
}

void TieredIndex::evict(IndexLayer& layer, std::uint64_t id) const {
  layer.remove(id, derive_keys(*layer.signature_of(id), nullptr));
}

std::vector<std::vector<std::uint64_t>> TieredIndex::home_keys(
    const IndexLayer& layer) const {
  std::vector<std::vector<std::uint64_t>> keys;
  keys.reserve(layer.entries());
  for (const auto& [id, slot] : layer.slots()) {
    keys.push_back(derive_keys(layer.slab().unpack(slot), nullptr));
  }
  return keys;
}

void TieredIndex::place(std::span<Placement> batch) {
  for (Placement& p : batch) {
    if (place_one(p)) schedule_maintenance();
  }
}

bool TieredIndex::place_one(Placement& p) {
  // Keys were derived outside any lock; the critical section below is pure
  // placement (this is the point of the memtable split).
  const std::size_t lane_idx = lane_of(p.id);
  Lane& lane = *lanes_[lane_idx];
  bool sealed = false;
  IndexLayer::Placed placed;
  hash::ProbeProfile probe_profile;
  {
    std::unique_lock lk = writer_lock(lane.mem_mutex);
    // Log before apply (held lane lock keeps per-lane apply order equal to
    // sequence order); a throw leaves the memtable untouched. Recovery
    // replays through here before the log is attached, so nothing is
    // logged twice.
    if (durable()) {
      storage::throw_if_error(log_->append(storage::kWalRecordInsert, p.id,
                                           p.signature->encode()));
    }
    const std::int64_t e0 = static_cast<std::int64_t>(lane.mem->entries());
    const std::int64_t t0 =
        static_cast<std::int64_t>(lane.mem->tombstone_count());
    bool was_live;
    if (lane.mem->contains(p.id)) {
      // Re-insert replaces: evict the stale version from its groups first.
      was_live = true;
      evict(*lane.mem, p.id);
    } else if (lane.mem->tombstoned(p.id)) {
      was_live = false;
    } else {
      was_live = segments_contain_live(lane, p.id);
    }
    placed = lane.mem->place(p.id, *p.signature, p.keys, &probe_profile);
    p.result.rehashes = placed.rehashes;
    if (placed.rehashes > 0) p.result.ok = false;
    p.result.slot_reads = placed.slot_reads;
    p.result.store_writes = placed.store_writes;
    if (!was_live) live_.fetch_add(1, std::memory_order_relaxed);
    mem_entries_.fetch_add(
        static_cast<std::int64_t>(lane.mem->entries()) - e0,
        std::memory_order_relaxed);
    mem_tombstones_.fetch_add(
        static_cast<std::int64_t>(lane.mem->tombstone_count()) - t0,
        std::memory_order_relaxed);
    sealed = maybe_seal_locked(lane, lane_idx);
  }
  m_.chs_slot_reads->add(placed.slot_reads);
  if (probe_profile.fingerprint_false_hits != 0) {
    m_.chs_fingerprint_false_hits->add(probe_profile.fingerprint_false_hits);
  }
  m_.index_size->set(static_cast<double>(size()));
  return sealed;
}

std::size_t TieredIndex::remove(std::span<const std::uint64_t> ids) {
  std::size_t erased = 0;
  for (const std::uint64_t id : ids) {
    const auto [was_live, sealed] = erase_one(id);
    if (was_live) ++erased;
    if (sealed) schedule_maintenance();
  }
  return erased;
}

std::pair<bool, bool> TieredIndex::erase_one(std::uint64_t id) {
  const std::size_t lane_idx = lane_of(id);
  Lane& lane = *lanes_[lane_idx];
  bool erased = false;
  bool sealed = false;
  {
    std::unique_lock lk = writer_lock(lane.mem_mutex);
    const std::int64_t e0 = static_cast<std::int64_t>(lane.mem->entries());
    const std::int64_t t0 =
        static_cast<std::int64_t>(lane.mem->tombstone_count());
    // An id no layer owns (or already erased) is a no-op, not logged.
    const bool in_memtable = lane.mem->contains(id);
    erased = in_memtable ||
             (!lane.mem->tombstoned(id) && segments_contain_live(lane, id));
    if (erased && durable()) {
      storage::throw_if_error(log_->append(storage::kWalRecordErase, id, {}));
    }
    if (in_memtable) {
      evict(*lane.mem, id);
      // A stale live copy below must not resurrect after the memtable
      // seals away.
      if (segments_contain_live(lane, id)) lane.mem->add_tombstone(id);
    } else if (erased) {
      lane.mem->add_tombstone(id);
    }
    if (erased) {
      live_.fetch_sub(1, std::memory_order_relaxed);
      mem_entries_.fetch_add(
          static_cast<std::int64_t>(lane.mem->entries()) - e0,
          std::memory_order_relaxed);
      mem_tombstones_.fetch_add(
          static_cast<std::int64_t>(lane.mem->tombstone_count()) - t0,
          std::memory_order_relaxed);
      sealed = maybe_seal_locked(lane, lane_idx);
    }
  }
  if (erased) m_.index_size->set(static_cast<double>(size()));
  return {erased, sealed};
}

// --- Seal + compaction ----------------------------------------------------

bool TieredIndex::maybe_seal_locked(Lane& lane, std::size_t lane_idx) {
  const std::size_t threshold =
      std::max<std::size_t>(config_.tier.seal_threshold, 1);
  if (lane.mem->mention_count() < threshold) return false;
  seal_locked(lane, lane_idx);
  return true;
}

void TieredIndex::seal_locked(Lane& lane, std::size_t lane_idx) {
  util::TraceSpan span("seal");
  span.attr("lane", static_cast<double>(lane_idx));
  span.attr("entries", static_cast<double>(lane.mem->entries()));
  span.attr("tombstones", static_cast<double>(lane.mem->tombstone_count()));
  mem_entries_.fetch_sub(static_cast<std::int64_t>(lane.mem->entries()),
                         std::memory_order_relaxed);
  mem_tombstones_.fetch_sub(
      static_cast<std::int64_t>(lane.mem->tombstone_count()),
      std::memory_order_relaxed);
  // The memtable becomes the segment's frozen state by move, its store
  // rebuilt from the live keys at the size they need rather than the
  // memtable's pre-sized arena; the bloom summary is built later, off the
  // writer path.
  auto frozen = std::make_shared<IndexLayer>(std::move(*lane.mem));
  frozen->shrink_store(config_.cuckoo.capacity);
  lane.mem = std::make_unique<IndexLayer>(mem_config_, tables_);
  auto segment = std::make_shared<const ImmutableSegment>(
      next_segment_id_.fetch_add(1, std::memory_order_relaxed),
      std::shared_ptr<const IndexLayer>(std::move(frozen)));
  {
    std::lock_guard<std::mutex> pub(lane.publish_mutex);
    const auto current = lane.segments.load();
    auto next = std::make_shared<SegmentList>();
    next->reserve(current->size() + 1);
    next->push_back(std::move(segment));
    next->insert(next->end(), current->begin(), current->end());
    lane.segments.store(std::shared_ptr<const SegmentList>(std::move(next)));
  }
  tm_.tier_seals->add();
  publish_tier_gauges();
}

void TieredIndex::seal_active() {
  bool sealed_any = false;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = *lanes_[l];
    std::unique_lock lk = writer_lock(lane.mem_mutex);
    if (lane.mem->empty()) continue;
    seal_locked(lane, l);
    sealed_any = true;
  }
  if (sealed_any) schedule_maintenance();
}

void TieredIndex::schedule_maintenance() {
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(work_mutex_);
      work_pending_ = true;
    }
    work_cv_.notify_one();
  } else {
    // No worker (tier.background == false, or recovery replay before the
    // worker starts): maintain inline, deterministically.
    compact_once();
  }
}

void TieredIndex::worker_loop() {
  std::unique_lock<std::mutex> lk(work_mutex_);
  while (true) {
    work_cv_.wait(lk, [this] { return work_pending_ || stop_; });
    if (stop_) return;
    work_pending_ = false;
    worker_busy_ = true;
    lk.unlock();
    compact_once();
    lk.lock();
    worker_busy_ = false;
    idle_cv_.notify_all();
  }
}

void TieredIndex::stop_worker() {
  if (!worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(work_mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
  // A request that arrived after the worker decided to exit stays pending
  // forever; release any wait_idle() caller instead of hanging it.
  {
    std::lock_guard<std::mutex> lk(work_mutex_);
    work_pending_ = false;
  }
  idle_cv_.notify_all();
}

void TieredIndex::wait_idle() const {
  std::unique_lock<std::mutex> lk(work_mutex_);
  idle_cv_.wait(lk, [this] {
    return (!work_pending_ && !worker_busy_) || stop_;
  });
}

bool TieredIndex::compact_once() {
  std::lock_guard<std::mutex> guard(compaction_mutex_);
  bool merged = false;
  for (auto& lane : lanes_) {
    finalize_blooms(*lane);
    while (try_compact_lane(*lane)) merged = true;
  }
  publish_tier_gauges();
  return merged;
}

void TieredIndex::finalize_blooms(Lane& lane) {
  const auto list = lane.segments.load();
  for (const auto& seg : *list) {
    if (seg->finalized()) continue;
    util::TraceSpan span("seal.finalize");
    span.attr("segment", static_cast<double>(seg->id()));
    span.attr("entries", static_cast<double>(seg->state().entries()));
    hash::BloomFilter bloom = ImmutableSegment::build_bloom(
        home_keys(seg->state()), config_.tier.bloom_bits_per_key);
    span.attr("bloom_bits", static_cast<double>(bloom.bit_count()));
    // The upgraded segment SHARES the frozen state; only the summary is new.
    auto upgraded = std::make_shared<const ImmutableSegment>(
        seg->id(), seg->shared_state(), std::move(bloom));
    splice_segments(lane, seg->id(), 1, std::move(upgraded));
  }
}

bool TieredIndex::try_compact_lane(Lane& lane) {
  const auto list = lane.segments.load();
  const std::size_t fanin =
      std::max<std::size_t>(config_.tier.compact_fanin, 2);
  const std::size_t trigger =
      std::max<std::size_t>(config_.tier.compact_trigger, fanin);
  if (list->size() < trigger) return false;

  // Size-tiered pick: the contiguous window of `fanin` neighbors with the
  // fewest total mentions; ties go to the oldest run, which is where
  // tombstones can actually be retired.
  std::size_t best_start = 0;
  std::size_t best_weight = std::numeric_limits<std::size_t>::max();
  for (std::size_t start = 0; start + fanin <= list->size(); ++start) {
    std::size_t weight = 0;
    for (std::size_t i = 0; i < fanin; ++i) {
      const auto& seg = (*list)[start + i];
      weight += seg->state().entries() + seg->state().tombstone_count();
    }
    if (weight <= best_weight) {
      best_weight = weight;
      best_start = start;
    }
  }
  const bool includes_oldest = best_start + fanin == list->size();

  util::TraceSpan span("compact.merge");
  util::WallTimer timer;
  IndexLayer merged(mem_config_, tables_);
  std::vector<std::vector<std::uint64_t>> merged_keys;
  std::unordered_set<std::uint64_t> seen;
  std::size_t entries_in = 0;
  std::size_t dropped_tombstones = 0;
  // Newest -> oldest within the window; the first mention of an id wins.
  // Deterministic: tombstone carry-over is decided per id, and signatures
  // are placed in sorted-id order per segment.
  for (std::size_t i = 0; i < fanin; ++i) {
    const ImmutableSegment& seg = *(*list)[best_start + i];
    entries_in += seg.state().entries();
    for (const std::uint64_t id : seg.state().tombstones()) {
      if (!seen.insert(id).second) continue;
      if (includes_oldest) {
        ++dropped_tombstones;  // nothing older left to shadow
      } else {
        merged.add_tombstone(id);
      }
    }
    for (const std::uint64_t id : seg.state().sorted_ids()) {
      if (!seen.insert(id).second) continue;
      const hash::SparseSignature signature = *seg.state().signature_of(id);
      std::vector<std::uint64_t> keys = derive_keys(signature, nullptr);
      merged.place(id, signature, keys, nullptr);
      merged_keys.push_back(std::move(keys));
    }
  }

  merged.shrink_store(config_.cuckoo.capacity);
  std::shared_ptr<const ImmutableSegment> replacement;
  if (!merged.empty()) {
    hash::BloomFilter bloom = ImmutableSegment::build_bloom(
        merged_keys, config_.tier.bloom_bits_per_key);
    replacement = std::make_shared<const ImmutableSegment>(
        next_segment_id_.fetch_add(1, std::memory_order_relaxed),
        std::make_shared<const IndexLayer>(std::move(merged)),
        std::move(bloom));
  }
  const std::size_t entries_out =
      replacement == nullptr ? 0 : replacement->state().entries();
  splice_segments(lane, (*list)[best_start]->id(), fanin,
                  std::move(replacement));

  tm_.compaction_runs->add();
  tm_.compaction_dropped_tombstones->add(dropped_tombstones);
  tm_.compaction_merge_s->observe(timer.elapsed_seconds());
  tm_.compaction_merged_segments->observe(static_cast<double>(fanin));
  tm_.compaction_merge_entries->observe(static_cast<double>(entries_out));
  span.attr("inputs", static_cast<double>(fanin));
  span.attr("entries_in", static_cast<double>(entries_in));
  span.attr("entries_out", static_cast<double>(entries_out));
  span.attr("tombstones_dropped", static_cast<double>(dropped_tombstones));
  return true;
}

void TieredIndex::splice_segments(
    Lane& lane, std::uint64_t first_id, std::size_t count,
    std::shared_ptr<const ImmutableSegment> replacement) {
  std::lock_guard<std::mutex> pub(lane.publish_mutex);
  const auto current = lane.segments.load();
  auto next = std::make_shared<SegmentList>();
  next->reserve(current->size());
  std::size_t i = 0;
  for (; i < current->size() && (*current)[i]->id() != first_id; ++i) {
    next->push_back((*current)[i]);
  }
  // Compaction passes are serialized and seals only prepend, so the window
  // located at pick time is still a contiguous run here.
  FAST_CHECK_MSG(i + count <= current->size(),
                 "segment splice window vanished");
  if (replacement != nullptr) next->push_back(std::move(replacement));
  for (i += count; i < current->size(); ++i) next->push_back((*current)[i]);
  lane.segments.store(std::shared_ptr<const SegmentList>(std::move(next)));
}

// --- Queries --------------------------------------------------------------

void TieredIndex::gather(std::span<const std::uint64_t> keys,
                         std::span<const std::vector<std::uint64_t>> probes,
                         const hash::JaccardScorer& scorer, Gathered& out,
                         util::TraceSpan& probe_span) const {
  hash::ProbeProfile probe_profile;
  std::size_t segments_probed = 0;
  std::size_t segments_skipped = 0;
  // Segment candidates not shadowed by the memtable: slots of (*list)[si]
  // for each run {si, end} over seg_slots. Reused across lanes.
  std::vector<std::uint32_t> seg_slots;
  std::vector<std::pair<std::size_t, std::size_t>> seg_runs;
  std::vector<double> scores;
  for (const auto& lane_ptr : lanes_) {
    const Lane& lane = *lane_ptr;
    std::shared_ptr<const SegmentList> list;
    seg_slots.clear();
    seg_runs.clear();
    {
      std::shared_lock lk = reader_lock(lane.mem_mutex);
      const IndexLayer& mem = *lane.mem;
      // Pin the segment list under the memtable lock: seal publishes its
      // segment before dropping the exclusive lock, so this list and the
      // memtable form a consistent cut. Loading the list outside would
      // let a concurrent seal move memtable entries into a segment this
      // query never sees (missed hits, resurrected erases).
      list = lane.segments.load();

      // 1) Memtable: probe and score (its slab changes under writers, so
      //    scoring stays inside the lock).
      {
        CandidateSlots candidates(mem.slab().slot_limit());
        mem.collect(keys, probes, candidates, out.table_slot_reads,
                    &out.bucket_probes, &probe_profile);
        util::WallTimer mem_score_timer;
        mem.score(scorer, candidates.slots(), candidates.scores(), out.scored);
        out.score_s += mem_score_timer.elapsed_seconds();
      }

      // 2) Segments: candidate collection stays in the critical section
      //    because the memtable shadow decisions must come from the same
      //    cut. A finalized bloom that rejects every probe key skips the
      //    segment.
      for (std::size_t si = 0; si < list->size(); ++si) {
        const ImmutableSegment& seg = *(*list)[si];
        bool touch = false;
        for (std::size_t t = 0; t < keys.size() && !touch; ++t) {
          if (seg.may_contain(t, keys[t])) {
            touch = true;
            break;
          }
          for (const std::uint64_t pk : probes[t]) {
            if (seg.may_contain(t, pk)) {
              touch = true;
              break;
            }
          }
        }
        if (!touch) {
          ++segments_skipped;
          continue;
        }
        ++segments_probed;
        CandidateSlots candidates(seg.state().slab().slot_limit());
        seg.state().collect(keys, probes, candidates, out.table_slot_reads,
                            &out.bucket_probes, &probe_profile);
        for (const std::uint32_t slot : candidates.slots()) {
          if (!mem.shadows(seg.state().slab().id(slot))) {
            seg_slots.push_back(slot);
          }
        }
        seg_runs.emplace_back(si, seg_slots.size());
      }
    }

    // 3) Segment candidates, scored lock-free off the pinned immutable
    //    list: the newest unshadowed mention owns the id (drops tombstoned
    //    ids and stale duplicates in one rule).
    util::WallTimer seg_score_timer;
    std::size_t begin = 0;
    for (const auto& [si, end] : seg_runs) {
      const IndexLayer& layer = (*list)[si]->state();
      std::size_t kept = begin;
      for (std::size_t c = begin; c < end; ++c) {
        const std::uint64_t id = layer.slab().id(seg_slots[c]);
        bool shadowed = false;
        for (std::size_t sj = 0; sj < si && !shadowed; ++sj) {
          shadowed = (*list)[sj]->state().shadows(id);
        }
        if (!shadowed) seg_slots[kept++] = seg_slots[c];
      }
      const std::span<const std::uint32_t> slots(seg_slots.data() + begin,
                                                 kept - begin);
      scores.resize(slots.size());
      layer.score(scorer, slots, scores, out.scored);
      begin = end;
    }
    out.score_s += seg_score_timer.elapsed_seconds();
  }
  out.fingerprint_false_hits = probe_profile.fingerprint_false_hits;
  probe_span.attr("segments_probed", static_cast<double>(segments_probed));
  probe_span.attr("segments_skipped", static_cast<double>(segments_skipped));
  tm_.tier_segment_skips->add(segments_skipped);
}

std::optional<hash::SparseSignature> TieredIndex::signature_of(
    std::uint64_t id) const {
  const Lane& lane = *lanes_[lane_of(id)];
  {
    std::shared_lock lk = reader_lock(lane.mem_mutex);
    if (auto sig = lane.mem->signature_of(id)) return sig;
    if (lane.mem->tombstoned(id)) return std::nullopt;
  }
  const auto list = lane.segments.load();
  for (const auto& seg : *list) {
    if (auto sig = seg->state().signature_of(id)) return sig;
    if (seg->state().tombstoned(id)) return std::nullopt;
  }
  return std::nullopt;
}

void TieredIndex::for_each_live(
    const std::function<void(std::uint64_t, const hash::SparseSignature&)>&
        fn) const {
  for (const auto& lane_ptr : lanes_) {
    const Lane& lane = *lane_ptr;
    // Shadow set: ids already claimed by a newer layer (live or tombstone).
    std::unordered_set<std::uint64_t> seen;
    std::shared_ptr<const SegmentList> list;
    {
      // Pin the segment list under the memtable lock (same ordering as the
      // query path) so a concurrent seal cannot drop entries between the
      // memtable walk and the list load.
      std::shared_lock lk = reader_lock(lane.mem_mutex);
      for (const auto& [id, slot] : lane.mem->slots()) {
        seen.insert(id);
        fn(id, lane.mem->slab().unpack(slot));
      }
      for (const std::uint64_t id : lane.mem->tombstones()) seen.insert(id);
      list = lane.segments.load();
    }
    for (const auto& seg : *list) {  // newest -> oldest
      for (const auto& [id, slot] : seg->state().slots()) {
        if (seen.insert(id).second) fn(id, seg->state().slab().unpack(slot));
      }
      for (const std::uint64_t id : seg->state().tombstones()) seen.insert(id);
    }
  }
}

// --- Durability -----------------------------------------------------------

storage::SnapshotFile TieredIndex::build_snapshot_locked() const {
  storage::SnapshotFile snapshot;
  snapshot.config_fingerprint = config_fingerprint(config_);
  snapshot.last_seq = last_seq();

  util::ByteWriter params;
  params.f64(config_.lsh_input_scale);
  params.u64(next_segment_id_.load(std::memory_order_relaxed));
  params.u64(lanes_.size());
  snapshot.sections.push_back({storage::kSectionParams, params.take()});

  // Load each lane's list exactly once so the manifest and the per-segment
  // sections describe the same instant even if compaction republishes
  // mid-snapshot.
  std::vector<std::shared_ptr<const SegmentList>> lists;
  lists.reserve(lanes_.size());
  for (const auto& lane : lanes_) lists.push_back(lane->segments.load());

  util::ByteWriter manifest;
  manifest.u64(lanes_.size());
  for (const auto& list : lists) {
    manifest.u64(list->size());
    for (const auto& seg : *list) manifest.u64(seg->id());
  }
  snapshot.sections.push_back(
      {storage::kSectionTierManifest, manifest.take()});

  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    util::ByteWriter mem;
    mem.u64(l);
    lanes_[l]->mem->serialize(mem);
    snapshot.sections.push_back({storage::kSectionTierMemtable, mem.take()});
  }
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (const auto& seg : *lists[l]) {
      util::ByteWriter sw;
      sw.u64(l);
      seg->serialize(sw);
      snapshot.sections.push_back({storage::kSectionTierSegment, sw.take()});
    }
  }
  return snapshot;
}

storage::Status TieredIndex::save_snapshot() {
  if (!durable()) {
    return storage::Status::error(storage::StatusCode::kIoError,
                                  "save_snapshot on a non-durable index");
  }
  // Quiesce maintenance first: the background worker splices segment lists
  // and allocates segment ids without ever taking a lane lock, so without
  // this a snapshot could pin a lane list containing a freshly merged
  // segment whose id is >= the params section's next_segment_id (written
  // above the lists in build_snapshot_locked) — after recovery that
  // duplicate id would make splice_segments target the wrong window. Lock
  // order is compaction_mutex_ -> lane.mem_mutex; maintenance passes hold
  // compaction_mutex_ -> publish_mutex and are never entered with a lane
  // lock held (schedule_maintenance runs outside the seal's critical
  // section), so the orders cannot cycle.
  std::lock_guard<std::mutex> maintenance(compaction_mutex_);
  // Quiesce writers: every lane lock, in index order. The WAL cannot
  // advance without a lane lock held, so last_seq() is stable below.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(lanes_.size());
  for (auto& lane : lanes_) locks.push_back(writer_lock(lane->mem_mutex));
  return log_->checkpoint(build_snapshot_locked());
}

bool TieredIndex::restore_snapshot(const storage::SnapshotFile& snapshot) {
  const auto* params = snapshot.find(storage::kSectionParams);
  const auto* manifest = snapshot.find(storage::kSectionTierManifest);
  if (params == nullptr || manifest == nullptr) return false;

  util::ByteReader pr{std::span(params->payload)};
  const double input_scale = pr.f64();
  const std::uint64_t next_segment = pr.u64();
  const std::uint64_t lane_count = pr.u64();
  if (!pr.ok() || lane_count == 0 || lane_count > 65536) return false;

  util::ByteReader mr{std::span(manifest->payload)};
  const std::uint64_t manifest_lanes = mr.u64();
  if (!mr.ok() || manifest_lanes != lane_count) return false;
  std::vector<std::vector<std::uint64_t>> lane_segment_ids(lane_count);
  for (auto& ids : lane_segment_ids) {
    const std::uint64_t n = mr.u64();
    if (!mr.ok() || n > mr.remaining() / 8) return false;
    ids.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) ids.push_back(mr.u64());
  }
  if (!mr.ok()) return false;

  std::vector<std::unique_ptr<IndexLayer>> mems(lane_count);
  std::unordered_map<std::uint64_t, std::shared_ptr<const ImmutableSegment>>
      segs;
  for (const auto& section : snapshot.sections) {
    if (section.id == storage::kSectionTierMemtable) {
      util::ByteReader in{std::span(section.payload)};
      const std::uint64_t l = in.u64();
      if (!in.ok() || l >= lane_count || mems[l] != nullptr) return false;
      // mem_config_, not config_: restored memtables should start at the
      // same pre-expanded capacity the seal path hands out.
      auto mem = std::make_unique<IndexLayer>(mem_config_, tables_);
      if (!mem->deserialize(in)) return false;
      mems[l] = std::move(mem);
    } else if (section.id == storage::kSectionTierSegment) {
      util::ByteReader in{std::span(section.payload)};
      const std::uint64_t l = in.u64();
      if (!in.ok() || l >= lane_count) return false;
      auto seg = ImmutableSegment::deserialize(in, config_, tables_);
      if (seg == nullptr) return false;
      segs.emplace(seg->id(), std::move(seg));
    }
  }
  for (const auto& mem : mems) {
    if (mem == nullptr) return false;
  }

  // Adopt the snapshot's lane geometry: the id -> lane mapping is baked into
  // the layout, so the manifest wins over config_.tier.lanes.
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    auto lane = std::make_unique<Lane>();
    lane->mem = std::move(mems[l]);
    auto list = std::make_shared<SegmentList>();
    list->reserve(lane_segment_ids[l].size());
    for (const std::uint64_t id : lane_segment_ids[l]) {
      const auto it = segs.find(id);
      if (it == segs.end()) return false;
      list->push_back(it->second);
    }
    lane->segments.store(std::shared_ptr<const SegmentList>(std::move(list)));
    lanes.push_back(std::move(lane));
  }
  lanes_ = std::move(lanes);
  config_.tier.lanes = lanes_.size();
  tm_.tier_lanes->set(static_cast<double>(lanes_.size()));
  // Never hand out an id a restored segment already carries: a snapshot
  // written while compaction was splicing could contain a segment numbered
  // at (or past) the params section's next_segment_id, and a duplicate id
  // would make a later splice replace the wrong window.
  std::uint64_t next_id = next_segment;
  for (const auto& [seg_id, seg] : segs) {
    next_id = std::max(next_id, seg_id + 1);
  }
  next_segment_id_.store(next_id, std::memory_order_relaxed);
  config_.lsh_input_scale = input_scale;
  aggregator_->set_input_scale(input_scale);

  std::int64_t mem_entries = 0;
  std::int64_t mem_tombstones = 0;
  for (const auto& lane : lanes_) {
    mem_entries += static_cast<std::int64_t>(lane->mem->entries());
    mem_tombstones += static_cast<std::int64_t>(lane->mem->tombstone_count());
  }
  mem_entries_.store(mem_entries, std::memory_order_relaxed);
  mem_tombstones_.store(mem_tombstones, std::memory_order_relaxed);
  live_.store(count_live(), std::memory_order_relaxed);
  publish_tier_gauges();
  return true;
}

std::size_t TieredIndex::count_live() const {
  std::size_t live = 0;
  for (const auto& lane : lanes_) {
    live += lane->mem->entries();
    const auto list = lane->segments.load();
    for (std::size_t si = 0; si < list->size(); ++si) {
      for (const auto& [id, slot] : (*list)[si]->state().slots()) {
        if (lane->mem->shadows(id)) continue;
        bool shadowed = false;
        for (std::size_t sj = 0; sj < si && !shadowed; ++sj) {
          shadowed = (*list)[sj]->state().shadows(id);
        }
        if (!shadowed) ++live;
      }
    }
  }
  return live;
}

storage::StatusOr<std::unique_ptr<TieredIndex>> TieredIndex::open_or_recover(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats) {
  FAST_CHECK_MSG(config.tier.enabled,
                 "TieredIndex::open_or_recover needs tier.enabled");
  // No worker during replay: seals re-fire at the same thresholds and their
  // maintenance runs inline, in the original order.
  std::unique_ptr<TieredIndex> index(
      new TieredIndex(std::move(config), std::move(pca),
                      /*start_worker=*/false));
  TieredIndex& tier = *index;
  storage::Status opened = tier.open_log(opts, stats);
  if (!opened.ok()) return opened;
  if (tier.config_.tier.background) {
    tier.worker_ = std::thread(&TieredIndex::worker_loop, &tier);
  }
  // Segments restored without a finalized bloom (sealed pre-crash, never
  // finalized) get their summary rebuilt by the first maintenance pass.
  if (tier.segment_count() > 0) tier.schedule_maintenance();
  return index;
}

}  // namespace fast::core
