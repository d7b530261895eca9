#include "core/tiered_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/fast_index.hpp"
#include "core/pipeline/factory.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

TieredIndex::TieredIndex(FastConfig config, vision::PcaModel pca)
    : TieredIndex(std::move(config), std::move(pca), /*start_worker=*/true) {}

TieredIndex::TieredIndex(FastConfig config, vision::PcaModel pca,
                         bool start_worker)
    : config_(std::move(config)),
      summarizer_(pipeline::make_summarizer(config_, std::move(pca))),
      aggregator_(pipeline::make_aggregator(config_)) {
  FAST_CHECK_MSG(config_.lsh.dim == config_.bloom_bits,
                 "LSH input dim must equal the Bloom summary width");
  FAST_CHECK_MSG(summarizer_->signature_bits() == config_.bloom_bits,
                 "summarizer width must match the configured Bloom width");
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
    lane->mem = std::make_unique<MemtableIndex>(mem_config_, tables_);
    lane->segments.store(std::make_shared<const SegmentList>());
    lanes_.push_back(std::move(lane));
  }
  init_metrics();
  m_.tier_lanes->set(static_cast<double>(lanes_.size()));
  if (start_worker && config_.tier.background) {
    worker_ = std::thread(&TieredIndex::worker_loop, this);
  }
}

TieredIndex::~TieredIndex() { stop_worker(); }

void TieredIndex::init_metrics() {
  metrics_ = std::make_shared<util::MetricsRegistry>();
  util::MetricsRegistry& r = *metrics_;
  m_.fe_sm_images = &r.counter("fe_sm.images");
  m_.fe_sm_summarize_s = &r.latency_histogram("fe_sm.summarize_s");
  m_.inserts = &r.counter("index.inserts");
  m_.erases = &r.counter("index.erases");
  m_.queries = &r.counter("index.queries");
  m_.insert_sim_s = &r.latency_histogram("index.insert_sim_s");
  m_.query_sim_s = &r.latency_histogram("index.query_sim_s");
  m_.query_wall_s = &r.latency_histogram("query.wall_s");
  m_.sa_keys_derived = &r.counter("sa.keys_derived");
  m_.sa_insert_hash_ops = &r.counter("sa.insert_hash_ops");
  m_.sa_keys_wall_s = &r.latency_histogram("sa.keys_wall_s");
  m_.sa_probe_keys = &r.count_histogram("sa.probe_keys_per_query");
  m_.rank_wall_s = &r.latency_histogram("rank.wall_s");
  m_.chs_slot_reads = &r.counter("chs.slot_reads");
  m_.chs_bucket_probes = &r.count_histogram("chs.bucket_probes_per_query");
  m_.chs_candidates = &r.count_histogram("chs.candidates_per_query");
  m_.index_size = &r.gauge("index.size");
  m_.tier_lanes = &r.gauge("tier.lanes");
  m_.tier_memtable_entries = &r.gauge("tier.memtable_entries");
  m_.tier_tombstones = &r.gauge("tier.tombstones");
  m_.tier_seals = &r.counter("tier.seals");
  m_.tier_segment_skips = &r.counter("tier.segment_skips");
  m_.segment_count = &r.gauge("segment.count");
  m_.compaction_runs = &r.counter("compaction.runs");
  m_.compaction_dropped_tombstones =
      &r.counter("compaction.dropped_tombstones");
  m_.compaction_merge_s = &r.latency_histogram("compaction.merge_s");
  m_.compaction_merge_entries = &r.count_histogram("compaction.merge_entries");
  m_.compaction_merged_segments =
      &r.count_histogram("compaction.merged_segments");
  storage::DurableLog::register_metrics(r);
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
    for (const auto& seg : *list) total += seg->tombstone_count();
  }
  return total;
}

std::size_t TieredIndex::index_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lane : lanes_) {
    {
      std::shared_lock<std::shared_mutex> lk(lane->mem_mutex);
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
    for (const auto& seg : *list) seg_tombstones += seg->tombstone_count();
  }
  m_.segment_count->set(static_cast<double>(segs));
  m_.tier_memtable_entries->set(static_cast<double>(
      std::max<std::int64_t>(mem_entries_.load(std::memory_order_relaxed),
                             0)));
  m_.tier_tombstones->set(static_cast<double>(
      static_cast<std::size_t>(std::max<std::int64_t>(
          mem_tombstones_.load(std::memory_order_relaxed), 0)) +
      seg_tombstones));
  m_.index_size->set(static_cast<double>(size()));
}

// --- FE + SM --------------------------------------------------------------

hash::SparseSignature TieredIndex::summarize(const img::Image& image) const {
  util::TraceSpan span("fe_sm.summarize");
  util::WallTimer timer;
  hash::SparseSignature sig = summarizer_->summarize(image);
  m_.fe_sm_images->add();
  m_.fe_sm_summarize_s->observe(timer.elapsed_seconds());
  return sig;
}

sim::SimClock TieredIndex::frontend_insert_cost() const noexcept {
  sim::SimClock clock;
  clock.charge(config_.feature_extract_s);
  clock.charge_hash(config_.cost.hash_op_s,
                    config_.max_keypoints * config_.bloom_hashes);
  return clock;
}

void TieredIndex::calibrate_scale(
    std::span<const hash::SparseSignature> sample_queries,
    std::span<const hash::SparseSignature> corpus_sample,
    util::ThreadPool* pool) {
  FAST_CHECK_MSG(size() == 0, "calibrate before inserting");
  if (sample_queries.empty() || corpus_sample.empty()) return;
  // Same R-tuning as FastIndex::calibrate_scale (paper §IV-A2): median
  // sample-query NN distance mapped onto calibrate_target * omega.
  std::vector<double> best(sample_queries.size());
  const auto nn_of = [&](std::size_t i) {
    double b = std::numeric_limits<double>::infinity();
    for (const auto& c : corpus_sample) {
      const double d = static_cast<double>(
          hash::SparseSignature::hamming(sample_queries[i], c));
      b = std::min(b, d);
    }
    best[i] = b;
  };
  if (pool != nullptr && sample_queries.size() > 1) {
    pool->parallel_for(sample_queries.size(), nn_of);
  } else {
    for (std::size_t i = 0; i < sample_queries.size(); ++i) nn_of(i);
  }
  std::vector<double> nn;
  nn.reserve(best.size());
  for (const double b : best) {
    if (std::isfinite(b)) nn.push_back(std::sqrt(b));
  }
  FAST_CHECK(!nn.empty());
  std::nth_element(nn.begin(), nn.begin() + nn.size() / 2, nn.end());
  const double median_nn = std::max(nn[nn.size() / 2], 1.0);
  config_.lsh_input_scale =
      config_.calibrate_target * config_.lsh.omega / median_nn;
  aggregator_->set_input_scale(config_.lsh_input_scale);
}

// --- Mutations ------------------------------------------------------------

bool TieredIndex::segments_contain_live(const Lane& lane, std::uint64_t id) {
  const auto list = lane.segments.load();
  for (const auto& seg : *list) {
    if (seg->contains(id)) return true;
    if (seg->tombstoned(id)) return false;
  }
  return false;
}

InsertResult TieredIndex::insert(std::uint64_t id, const img::Image& image) {
  util::TraceSpan span("insert.image");
  const hash::SparseSignature sig = summarize(image);
  InsertResult stored = insert_signature(id, sig);
  stored.cost.merge(frontend_insert_cost());
  return stored;
}

InsertResult TieredIndex::insert_signature(
    std::uint64_t id, const hash::SparseSignature& signature) {
  util::TraceSpan span("insert");
  InsertResult result;
  FAST_CHECK(signature.bit_count() == config_.bloom_bits);

  const std::size_t sa_ops = aggregator_->insert_hash_ops(signature);
  if (aggregator_->cost_domain() ==
      pipeline::SemanticAggregator::CostDomain::kFlops) {
    result.cost.charge_flops(config_.cost.flop_s, sa_ops);
  } else {
    result.cost.charge_hash(config_.cost.mix_op_s, sa_ops);
  }

  // Keys are derived OUTSIDE the lane lock: the critical section below is
  // pure placement (this is the point of the memtable split).
  util::WallTimer keys_timer;
  std::vector<std::uint64_t> keys;
  {
    util::TraceSpan keys_span("sa.keys");
    keys = aggregator_->keys(signature, nullptr);
    keys_span.attr("keys", static_cast<double>(keys.size()));
  }
  m_.sa_keys_wall_s->observe(keys_timer.elapsed_seconds());
  m_.sa_keys_derived->add(keys.size());
  m_.sa_insert_hash_ops->add(sa_ops);
  hash::PackedSignature packed(signature);

  const std::size_t lane_idx = lane_of(id);
  Lane& lane = *lanes_[lane_idx];
  bool sealed = false;
  std::size_t slot_reads = 0;
  {
    std::unique_lock<std::shared_mutex> lk(lane.mem_mutex);
    // Log before apply (held lane lock keeps per-lane apply order equal to
    // sequence order); a throw leaves the memtable untouched. Recovery
    // replays through here before the log is attached, so nothing is
    // logged twice.
    if (durable()) {
      storage::throw_if_error(
          log_->append(storage::kWalRecordInsert, id, signature.encode()));
    }
    const std::int64_t e0 = static_cast<std::int64_t>(lane.mem->entries());
    const std::int64_t t0 =
        static_cast<std::int64_t>(lane.mem->tombstone_count());
    bool was_live;
    if (lane.mem->contains(id)) {
      // Re-insert replaces: evict the stale version from its groups first.
      was_live = true;
      lane.mem->remove(id);
    } else if (lane.mem->tombstoned(id)) {
      was_live = false;
    } else {
      was_live = segments_contain_live(lane, id);
    }
    const std::size_t events =
        lane.mem->place(id, std::move(packed), keys, &slot_reads);
    result.rehashes = events;
    if (events > 0) result.ok = false;
    result.cost.charge_ram(config_.cost.ram_access_s, slot_reads);
    if (!was_live) live_.fetch_add(1, std::memory_order_relaxed);
    mem_entries_.fetch_add(
        static_cast<std::int64_t>(lane.mem->entries()) - e0,
        std::memory_order_relaxed);
    mem_tombstones_.fetch_add(
        static_cast<std::int64_t>(lane.mem->tombstone_count()) - t0,
        std::memory_order_relaxed);
    sealed = maybe_seal_locked(lane, lane_idx);
  }
  m_.chs_slot_reads->add(slot_reads);
  m_.inserts->add();
  m_.insert_sim_s->observe(result.cost.elapsed_s());
  m_.index_size->set(static_cast<double>(size()));
  span.attr("rehash_events", static_cast<double>(result.rehashes));
  span.attr("lane", static_cast<double>(lane_idx));
  if (sealed) schedule_maintenance();
  return result;
}

std::vector<InsertResult> TieredIndex::insert_batch(
    std::span<const BatchImage> items, util::ThreadPool* pool) {
  std::vector<hash::SparseSignature> sigs(items.size());
  const auto summarize_one = [&](std::size_t i) {
    sigs[i] = summarize(*items[i].image);
  };
  if (pool != nullptr && items.size() > 1) {
    pool->parallel_for(items.size(), summarize_one);
  } else {
    for (std::size_t i = 0; i < items.size(); ++i) summarize_one(i);
  }

  util::TraceSpan span("insert_batch.place");
  span.attr("items", static_cast<double>(items.size()));
  std::vector<InsertResult> results;
  results.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    InsertResult stored = insert_signature(items[i].id, sigs[i]);
    stored.cost.merge(frontend_insert_cost());
    results.push_back(std::move(stored));
  }
  return results;
}

bool TieredIndex::erase(std::uint64_t id) {
  util::TraceSpan span("erase");
  const std::size_t lane_idx = lane_of(id);
  Lane& lane = *lanes_[lane_idx];
  bool erased = false;
  bool sealed = false;
  {
    std::unique_lock<std::shared_mutex> lk(lane.mem_mutex);
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
      lane.mem->remove(id);
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
  if (erased) {
    m_.erases->add();
    m_.index_size->set(static_cast<double>(size()));
  }
  if (sealed) schedule_maintenance();
  return erased;
}

std::size_t TieredIndex::erase_batch(std::span<const std::uint64_t> ids) {
  util::TraceSpan span("erase_batch");
  span.attr("items", static_cast<double>(ids.size()));
  std::size_t erased = 0;
  for (const std::uint64_t id : ids) {
    if (erase(id)) ++erased;
  }
  span.attr("erased", static_cast<double>(erased));
  return erased;
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
  // O(1) seal: the memtable becomes the segment's frozen state by move; the
  // bloom summary is built later, off the writer path.
  auto frozen = std::make_shared<MemtableIndex>(std::move(*lane.mem));
  lane.mem = std::make_unique<MemtableIndex>(mem_config_, tables_);
  auto segment = std::make_shared<const ImmutableSegment>(
      next_segment_id_.fetch_add(1, std::memory_order_relaxed),
      std::shared_ptr<const MemtableIndex>(std::move(frozen)));
  {
    std::lock_guard<std::mutex> pub(lane.publish_mutex);
    const auto current = lane.segments.load();
    auto next = std::make_shared<SegmentList>();
    next->reserve(current->size() + 1);
    next->push_back(std::move(segment));
    next->insert(next->end(), current->begin(), current->end());
    lane.segments.store(std::shared_ptr<const SegmentList>(std::move(next)));
  }
  m_.tier_seals->add();
  publish_tier_gauges();
}

void TieredIndex::seal_active() {
  bool sealed_any = false;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = *lanes_[l];
    std::unique_lock<std::shared_mutex> lk(lane.mem_mutex);
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
    span.attr("entries", static_cast<double>(seg->entries()));
    hash::BloomFilter bloom = ImmutableSegment::build_bloom(
        seg->state(), config_.tier.bloom_bits_per_key);
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
      weight += seg->entries() + seg->tombstone_count();
    }
    if (weight <= best_weight) {
      best_weight = weight;
      best_start = start;
    }
  }
  const bool includes_oldest = best_start + fanin == list->size();

  util::TraceSpan span("compact.merge");
  util::WallTimer timer;
  MemtableIndex merged(mem_config_, tables_);
  std::unordered_set<std::uint64_t> seen;
  std::size_t entries_in = 0;
  std::size_t dropped_tombstones = 0;
  // Newest -> oldest within the window; the first mention of an id wins.
  // Deterministic: tombstone carry-over is decided per id, and signatures
  // are placed in sorted-id order per segment.
  for (std::size_t i = 0; i < fanin; ++i) {
    const ImmutableSegment& seg = *(*list)[best_start + i];
    entries_in += seg.entries();
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
      merged.place(id, *seg.signature_of(id), *seg.state().keys_of(id),
                   nullptr);
    }
  }

  std::shared_ptr<const ImmutableSegment> replacement;
  if (!merged.empty()) {
    hash::BloomFilter bloom = ImmutableSegment::build_bloom(
        merged, config_.tier.bloom_bits_per_key);
    replacement = std::make_shared<const ImmutableSegment>(
        next_segment_id_.fetch_add(1, std::memory_order_relaxed),
        std::make_shared<const MemtableIndex>(std::move(merged)),
        std::move(bloom));
  }
  const std::size_t entries_out =
      replacement == nullptr ? 0 : replacement->entries();
  splice_segments(lane, (*list)[best_start]->id(), fanin,
                  std::move(replacement));

  m_.compaction_runs->add();
  m_.compaction_dropped_tombstones->add(dropped_tombstones);
  m_.compaction_merge_s->observe(timer.elapsed_seconds());
  m_.compaction_merged_segments->observe(static_cast<double>(fanin));
  m_.compaction_merge_entries->observe(static_cast<double>(entries_out));
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

QueryResult TieredIndex::query(const img::Image& image, std::size_t k) const {
  util::TraceSpan span("query.image");
  return query_summarized(summarize(image), k);
}

QueryResult TieredIndex::query_summarized(
    const hash::SparseSignature& signature, std::size_t k) const {
  QueryResult result = query_signature(signature, k);
  result.cost.merge(frontend_insert_cost());
  const double fe_chunk =
      config_.feature_extract_s / static_cast<double>(config_.max_keypoints);
  for (std::size_t i = 0; i < config_.max_keypoints; ++i) {
    result.parallel_tasks.push_back(fe_chunk);
  }
  return result;
}

std::vector<QueryResult> TieredIndex::query_batch(
    std::span<const img::Image* const> images, std::size_t k,
    util::ThreadPool* pool) const {
  std::vector<QueryResult> results(images.size());
  if (pool != nullptr && images.size() > 1) {
    pool->parallel_for(images.size(), [&](std::size_t i) {
      results[i] = query(*images[i], k);
    });
  } else {
    for (std::size_t i = 0; i < images.size(); ++i) {
      results[i] = query(*images[i], k);
    }
  }
  return results;
}

QueryResult TieredIndex::query_signature(const hash::SparseSignature& signature,
                                         std::size_t k) const {
  util::TraceSpan qspan("query");
  util::Tracer& tracer = util::Tracer::global();
  const bool profiling = tracer.enabled();
  const double profile_start_s = profiling ? tracer.now_s() : 0.0;
  util::WallTimer wall_timer;

  QueryResult result;
  FAST_CHECK(signature.bit_count() == config_.bloom_bits);

  std::vector<std::vector<std::uint64_t>> probes;
  std::vector<std::uint64_t> keys;
  std::size_t probe_keys = 0;
  util::WallTimer keys_timer;
  {
    util::TraceSpan keys_span("sa.keys");
    keys = aggregator_->keys(signature, &probes);
    for (const auto& per_table : probes) probe_keys += per_table.size();
    keys_span.attr("keys", static_cast<double>(keys.size()));
    keys_span.attr("probe_keys", static_cast<double>(probe_keys));
  }
  const double keys_s = keys_timer.elapsed_seconds();
  m_.sa_keys_wall_s->observe(keys_s);
  m_.sa_keys_derived->add(keys.size());
  m_.sa_probe_keys->observe(static_cast<double>(probe_keys));

  // SA hashing is per table, independent of how many layers get probed.
  const std::size_t per_table_ops =
      aggregator_->query_hash_ops_per_table(signature);
  const double hash_cost =
      aggregator_->cost_domain() ==
              pipeline::SemanticAggregator::CostDomain::kFlops
          ? config_.cost.flop_s * static_cast<double>(per_table_ops)
          : config_.cost.mix_op_s * static_cast<double>(per_table_ops);

  // Built once, before any lane lock is taken: every candidate of every
  // layer is scored against the query's bitmap.
  util::WallTimer scorer_timer;
  const hash::JaccardScorer scorer(signature);
  double rank_s = scorer_timer.elapsed_seconds();

  std::vector<std::size_t> table_slot_reads(keys.size(), 0);
  std::vector<ScoredId> scored;
  std::size_t slot_reads_total = 0;
  std::size_t segments_probed = 0;
  std::size_t segments_skipped = 0;
  {
    util::TraceSpan probe_span("chs.probe");
    for (const auto& lane_ptr : lanes_) {
      const Lane& lane = *lane_ptr;
      std::shared_ptr<const SegmentList> list;
      std::vector<std::unordered_set<std::uint64_t>> per_seg;
      std::unordered_map<std::uint64_t, bool> mem_shadowed;
      {
        std::shared_lock<std::shared_mutex> lk(lane.mem_mutex);
        // Pin the segment list under the memtable lock: seal publishes its
        // segment before dropping the exclusive lock, so this list and the
        // memtable form a consistent cut. Loading the list outside would
        // let a concurrent seal move memtable entries into a segment this
        // query never sees (missed hits, resurrected erases).
        list = lane.segments.load();

        // 1) Segments: candidate collection stays in the critical section
        //    because the shadow decisions below must come from the
        //    memtable of the same cut. A finalized bloom that rejects
        //    every probe key skips the segment.
        per_seg.resize(list->size());
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
          for (std::size_t t = 0; t < keys.size(); ++t) {
            ++result.bucket_probes;
            seg.state().collect(t, keys[t], per_seg[si], &table_slot_reads[t]);
            for (const std::uint64_t pk : probes[t]) {
              ++result.bucket_probes;
              seg.state().collect(t, pk, per_seg[si], &table_slot_reads[t]);
            }
          }
        }

        // 2) Memtable: probe, score (the signature map can rehash under
        //    writers, so scoring stays inside the lock), and take the
        //    shadow decisions segment candidates need.
        std::unordered_set<std::uint64_t> mem_ids;
        for (std::size_t t = 0; t < keys.size(); ++t) {
          ++result.bucket_probes;
          lane.mem->collect(t, keys[t], mem_ids, &table_slot_reads[t]);
          for (const std::uint64_t pk : probes[t]) {
            ++result.bucket_probes;
            lane.mem->collect(t, pk, mem_ids, &table_slot_reads[t]);
          }
        }
        util::WallTimer mem_rank_timer;
        for (const std::uint64_t id : mem_ids) {
          scored.push_back(
              ScoredId{id, scorer.score(*lane.mem->signature_of(id))});
        }
        rank_s += mem_rank_timer.elapsed_seconds();
        for (const auto& ids : per_seg) {
          for (const std::uint64_t id : ids) {
            if (mem_shadowed.find(id) == mem_shadowed.end()) {
              mem_shadowed.emplace(id, lane.mem->shadows(id));
            }
          }
        }
      }

      // 3) Segment candidates, scored lock-free off the pinned immutable
      //    list: the newest unshadowed mention owns the id (drops
      //    tombstoned ids and stale duplicates in one rule).
      util::WallTimer seg_rank_timer;
      for (std::size_t si = 0; si < per_seg.size(); ++si) {
        for (const std::uint64_t id : per_seg[si]) {
          if (mem_shadowed[id]) continue;
          bool shadowed = false;
          for (std::size_t sj = 0; sj < si && !shadowed; ++sj) {
            shadowed = (*list)[sj]->shadows(id);
          }
          if (shadowed) continue;
          scored.push_back(
              ScoredId{id, scorer.score(*(*list)[si]->signature_of(id))});
        }
      }
      rank_s += seg_rank_timer.elapsed_seconds();
    }

    // Per-table cost + Fig. 7 task shape, identical to the flat index
    // (slot reads just accumulate across layers).
    for (std::size_t t = 0; t < keys.size(); ++t) {
      const double probe_cost =
          config_.cost.ram_access_s *
          static_cast<double>(table_slot_reads[t]);
      result.cost.charge(hash_cost);
      result.cost.charge_ram(config_.cost.ram_access_s, table_slot_reads[t]);
      result.parallel_tasks.push_back(hash_cost + probe_cost);
      slot_reads_total += table_slot_reads[t];
    }
    probe_span.attr("bucket_probes",
                    static_cast<double>(result.bucket_probes));
    probe_span.attr("slot_reads", static_cast<double>(slot_reads_total));
    probe_span.attr("segments_probed", static_cast<double>(segments_probed));
    probe_span.attr("segments_skipped",
                    static_cast<double>(segments_skipped));
    probe_span.attr("candidates", static_cast<double>(scored.size()));
  }
  m_.chs_slot_reads->add(slot_reads_total);
  m_.tier_segment_skips->add(segments_skipped);

  result.candidates = scored.size();
  util::WallTimer topk_timer;
  {
    util::TraceSpan rank_span("rank");
    result.hits = std::move(scored);
    result.cost.charge_ram(config_.cost.ram_access_s, result.candidates);
    for (std::size_t c = 0; c < result.candidates; ++c) {
      result.parallel_tasks.push_back(config_.cost.ram_access_s);
    }
    const std::size_t keep = std::min(k, result.hits.size());
    std::partial_sort(result.hits.begin(),
                      result.hits.begin() + static_cast<std::ptrdiff_t>(keep),
                      result.hits.end(),
                      [](const ScoredId& a, const ScoredId& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.id < b.id;  // deterministic tie-break
                      });
    result.hits.resize(keep);
    rank_span.attr("candidates", static_cast<double>(result.candidates));
    rank_span.attr("hits", static_cast<double>(result.hits.size()));
  }
  rank_s += topk_timer.elapsed_seconds();
  m_.rank_wall_s->observe(rank_s);
  m_.queries->add();
  m_.chs_bucket_probes->observe(static_cast<double>(result.bucket_probes));
  m_.chs_candidates->observe(static_cast<double>(result.candidates));
  m_.query_sim_s->observe(result.cost.elapsed_s());
  m_.query_wall_s->observe(wall_timer.elapsed_seconds());

  qspan.attr("k", static_cast<double>(k));
  qspan.attr("hits", static_cast<double>(result.hits.size()));
  qspan.attr("candidates", static_cast<double>(result.candidates));
  qspan.attr("bucket_probes", static_cast<double>(result.bucket_probes));
  if (profiling) {
    util::QueryProfile profile;
    profile.request_id = qspan.request_id();
    profile.sampled = qspan.active();
    profile.start_s = profile_start_s;
    profile.wall_s = wall_timer.elapsed_seconds();
    profile.sa_keys_s = keys_s;
    profile.rank_s = rank_s;
    profile.probe_s = profile.wall_s - keys_s - rank_s;
    profile.k = k;
    profile.hits = result.hits.size();
    profile.candidates = result.candidates;
    profile.bucket_probes = result.bucket_probes;
    profile.probe_keys = probe_keys;
    profile.slot_reads = slot_reads_total;
    tracer.record_query(profile);
  }
  return result;
}

std::optional<hash::SparseSignature> TieredIndex::find_signature(
    std::uint64_t id) const {
  const Lane& lane = *lanes_[lane_of(id)];
  {
    std::shared_lock<std::shared_mutex> lk(lane.mem_mutex);
    if (const auto* sig = lane.mem->signature_of(id)) return sig->unpack();
    if (lane.mem->tombstoned(id)) return std::nullopt;
  }
  const auto list = lane.segments.load();
  for (const auto& seg : *list) {
    if (const auto* sig = seg->signature_of(id)) return sig->unpack();
    if (seg->tombstoned(id)) return std::nullopt;
  }
  return std::nullopt;
}

void TieredIndex::for_each_live_signature(
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
      std::shared_lock<std::shared_mutex> lk(lane.mem_mutex);
      for (const auto& [id, sig] : lane.mem->signatures()) {
        seen.insert(id);
        fn(id, sig.unpack());
      }
      for (const std::uint64_t id : lane.mem->tombstones()) seen.insert(id);
      list = lane.segments.load();
    }
    for (const auto& seg : *list) {  // newest -> oldest
      for (const auto& [id, sig] : seg->state().signatures()) {
        if (seen.insert(id).second) fn(id, sig.unpack());
      }
      for (const std::uint64_t id : seg->state().tombstones()) seen.insert(id);
    }
  }
}

// --- Durability -----------------------------------------------------------

storage::Status TieredIndex::sync_wal() {
  return durable() ? log_->sync() : storage::Status{};
}

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
  for (auto& lane : lanes_) locks.emplace_back(lane->mem_mutex);
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

  std::vector<std::unique_ptr<MemtableIndex>> mems(lane_count);
  std::unordered_map<std::uint64_t, std::shared_ptr<const ImmutableSegment>>
      segs;
  for (const auto& section : snapshot.sections) {
    if (section.id == storage::kSectionTierMemtable) {
      util::ByteReader in{std::span(section.payload)};
      const std::uint64_t l = in.u64();
      if (!in.ok() || l >= lane_count || mems[l] != nullptr) return false;
      // mem_config_, not config_: restored memtables should start at the
      // same pre-expanded capacity the seal path hands out.
      auto mem = std::make_unique<MemtableIndex>(mem_config_, tables_);
      if (!mem->deserialize(in, config_.bloom_bits)) return false;
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
  m_.tier_lanes->set(static_cast<double>(lanes_.size()));
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
      for (const std::uint64_t id : (*list)[si]->state().sorted_ids()) {
        if (lane->mem->shadows(id)) continue;
        bool shadowed = false;
        for (std::size_t sj = 0; sj < si && !shadowed; ++sj) {
          shadowed = (*list)[sj]->shadows(id);
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
  auto log = storage::DurableLog::open(
      opts.env != nullptr ? *opts.env : storage::Env::posix(), opts.dir,
      config_fingerprint(tier.config_), opts.wal_sync_every, tier.metrics(),
      stats,
      [&tier](const storage::SnapshotFile& snapshot) {
        return tier.restore_snapshot(snapshot);
      },
      [&tier](const storage::WalRecord& record) -> storage::Status {
        if (record.type == storage::kWalRecordErase) {
          tier.erase(record.id);
          return storage::Status{};
        }
        auto sig = decode_insert_payload(record.payload,
                                         tier.config_.bloom_bits);
        if (!sig.ok()) return sig.status();
        tier.insert_signature(record.id, sig.value());
        return storage::Status{};
      });
  if (!log.ok()) return log.status();
  tier.log_ = std::move(log).value();
  if (tier.config_.tier.background) {
    tier.worker_ = std::thread(&TieredIndex::worker_loop, &tier);
  }
  // Segments restored without a finalized bloom (sealed pre-crash, never
  // finalized) get their summary rebuilt by the first maintenance pass.
  if (tier.segment_count() > 0) tier.schedule_maintenance();
  return index;
}

}  // namespace fast::core
