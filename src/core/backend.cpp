#include "core/backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fast_index.hpp"
#include "core/tiered_index.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::core {

Backend::Backend(FastConfig config,
                 std::unique_ptr<pipeline::Summarizer> summarizer,
                 std::unique_ptr<pipeline::SemanticAggregator> aggregator)
    : config_(std::move(config)), summarizer_(std::move(summarizer)),
      aggregator_(std::move(aggregator)),
      metrics_(std::make_shared<util::MetricsRegistry>()) {
  FAST_CHECK_MSG(config_.lsh.dim == config_.bloom_bits,
                 "LSH input dim must equal the Bloom summary width");
  FAST_CHECK_MSG(summarizer_ != nullptr && aggregator_ != nullptr,
                 "pipeline stages must be non-null");
  FAST_CHECK_MSG(summarizer_->signature_bits() == config_.bloom_bits,
                 "summarizer width must match the configured Bloom width");
  util::MetricsRegistry& r = *metrics_;
  m_.fe_sm_images = &r.counter("fe_sm.images");
  m_.fe_sm_summarize_s = &r.latency_histogram("fe_sm.summarize_s");
  m_.inserts = &r.counter("index.inserts");
  m_.erases = &r.counter("index.erases");
  m_.queries = &r.counter("index.queries");
  m_.query_wall_s = &r.latency_histogram("query.wall_s");
  m_.insert_batch_size = &r.count_histogram("index.insert_batch_size");
  m_.query_batch_size = &r.count_histogram("index.query_batch_size");
  m_.erase_batch_size = &r.count_histogram("index.erase_batch_size");
  m_.sa_keys_derived = &r.counter("sa.keys_derived");
  m_.sa_keys_wall_s = &r.latency_histogram("sa.keys_wall_s");
  m_.sa_probe_keys = &r.count_histogram("sa.probe_keys_per_query");
  m_.rank_wall_s = &r.latency_histogram("rank.wall_s");
  m_.rank_scorer_s = &r.latency_histogram("rank.scorer_s");
  m_.rank_score_s = &r.latency_histogram("rank.score_s");
  m_.rank_topk_s = &r.latency_histogram("rank.topk_s");
  m_.chs_slot_reads = &r.counter("chs.slot_reads");
  m_.chs_fingerprint_false_hits = &r.counter("chs.fingerprint_false_hits");
  m_.chs_bucket_probes = &r.count_histogram("chs.bucket_probes_per_query");
  m_.chs_candidates = &r.count_histogram("chs.candidates_per_query");
  m_.index_size = &r.gauge("index.size");
  m_.writer_locks = &r.counter("index.writer_locks");
  m_.reader_locks = &r.counter("index.reader_locks");
  m_.writer_wait_s = &r.latency_histogram("lock.writer_wait_s");
  m_.reader_wait_s = &r.latency_histogram("lock.reader_wait_s");
  storage::DurableLog::register_metrics(r);
}

Backend::~Backend() = default;
Backend::Backend(Backend&&) noexcept = default;
Backend& Backend::operator=(Backend&&) noexcept = default;

// --- FE + SM ----------------------------------------------------------------

hash::SparseSignature Backend::summarize(const img::Image& image) const {
  util::TraceSpan span("fe_sm.summarize");
  util::WallTimer timer;
  hash::SparseSignature sig = summarizer_->summarize(image);
  m_.fe_sm_images->add();
  m_.fe_sm_summarize_s->observe(timer.elapsed_seconds());
  return sig;
}

void Backend::calibrate_scale(
    std::span<const hash::SparseSignature> sample_queries,
    std::span<const hash::SparseSignature> corpus_sample,
    util::ThreadPool* pool) {
  FAST_CHECK_MSG(size() == 0, "calibrate before inserting");
  if (sample_queries.empty() || corpus_sample.empty()) return;
  // The paper tunes R to the typical distance between a queried point and
  // its nearest neighbor (§IV-A2, the sampling method of the original LSH
  // study). We measure exactly that — each sample query's NN distance in
  // the corpus sample — and choose the LSH input scale that places the
  // median of those distances at calibrate_target * omega. The per-query
  // scans share no state, so the O(Q*C) sweep fans across the pool.
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
  // Collect in query order so the median is identical either way.
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

std::vector<hash::SparseSignature> Backend::summarize_batch(
    std::span<const img::Image* const> images, util::ThreadPool* pool) const {
  std::vector<hash::SparseSignature> sigs(images.size());
  if (pool != nullptr && images.size() > 1) {
    pool->parallel_for(images.size(), [&](std::size_t i) {
      sigs[i] = summarize(*images[i]);
    });
  } else {
    for (std::size_t i = 0; i < images.size(); ++i) {
      sigs[i] = summarize(*images[i]);
    }
  }
  return sigs;
}

std::unique_lock<std::shared_mutex> Backend::writer_lock(
    const IndexMutex& mutex) const {
  std::unique_lock lock(mutex.mutex_, std::defer_lock);
  util::WallTimer timer;
  {
    util::TraceSpan wait("lock.writer_wait");
    lock.lock();
  }
  m_.writer_wait_s->observe(timer.elapsed_seconds());
  m_.writer_locks->add();
  return lock;
}

std::shared_lock<std::shared_mutex> Backend::reader_lock(
    const IndexMutex& mutex) const {
  std::shared_lock lock(mutex.mutex_, std::defer_lock);
  util::WallTimer timer;
  {
    util::TraceSpan wait("lock.reader_wait");
    lock.lock();
  }
  m_.reader_wait_s->observe(timer.elapsed_seconds());
  m_.reader_locks->add();
  return lock;
}

std::vector<std::uint64_t> Backend::derive_keys(
    const hash::SparseSignature& signature,
    std::vector<std::vector<std::uint64_t>>* probes, double* elapsed_s) const {
  util::WallTimer timer;
  std::vector<std::uint64_t> keys;
  {
    util::TraceSpan span("sa.keys");
    keys = aggregator_->keys(signature, probes);
    span.attr("keys", static_cast<double>(keys.size()));
    if (probes != nullptr) {
      std::size_t probe_keys = 0;
      for (const auto& per_table : *probes) probe_keys += per_table.size();
      span.attr("probe_keys", static_cast<double>(probe_keys));
    }
  }
  const double s = timer.elapsed_seconds();
  m_.sa_keys_wall_s->observe(s);
  if (elapsed_s != nullptr) *elapsed_s = s;
  return keys;
}

// --- Writes -----------------------------------------------------------------

void Backend::prepare(Placement& p, std::uint64_t id,
                      const hash::SparseSignature& signature) const {
  FAST_CHECK(signature.bit_count() == config_.bloom_bits);
  p.id = id;
  p.signature = &signature;
  p.keys = derive_keys(signature, nullptr);
  m_.sa_keys_derived->add(p.keys.size());
}

InsertResult Backend::insert(std::uint64_t id, const img::Image& image) {
  util::TraceSpan span("insert.image");
  return insert_signature(id, summarize(image));
}

InsertResult Backend::insert_signature(std::uint64_t id,
                                       const hash::SparseSignature& signature) {
  util::TraceSpan span("insert");
  Placement p;
  prepare(p, id, signature);
  place(std::span<Placement>(&p, 1));
  m_.inserts->add();
  span.attr("rehash_events", static_cast<double>(p.result.rehashes));
  return std::move(p.result);
}

std::vector<InsertResult> Backend::insert_signatures(
    std::span<const EngineWrite> writes) {
  util::TraceSpan span("insert_batch");
  span.attr("items", static_cast<double>(writes.size()));
  m_.insert_batch_size->observe(static_cast<double>(writes.size()));
  std::vector<Placement> batch(writes.size());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    prepare(batch[i], writes[i].id, writes[i].signature);
  }
  place(batch);
  m_.inserts->add(batch.size());
  std::vector<InsertResult> results;
  results.reserve(batch.size());
  for (Placement& p : batch) results.push_back(p.result);
  return results;
}

std::vector<InsertResult> Backend::insert_batch(
    std::span<const BatchImage> items, util::ThreadPool* pool) {
  // Stage split: FE+SM for the whole batch first (embarrassingly parallel,
  // no index state touched), then placement in item order — the same final
  // state and per-item results as sequential insert() calls.
  std::vector<const img::Image*> images(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) images[i] = items[i].image;
  std::vector<hash::SparseSignature> sigs = summarize_batch(images, pool);
  std::vector<EngineWrite> writes(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    writes[i] = EngineWrite{items[i].id, std::move(sigs[i])};
  }
  return insert_signatures(writes);
}

bool Backend::erase(std::uint64_t id) {
  util::TraceSpan span("erase");
  const bool erased = remove(std::span<const std::uint64_t>(&id, 1)) == 1;
  if (erased) m_.erases->add();
  return erased;
}

std::size_t Backend::erase_batch(std::span<const std::uint64_t> ids) {
  util::TraceSpan span("erase_batch");
  span.attr("items", static_cast<double>(ids.size()));
  m_.erase_batch_size->observe(static_cast<double>(ids.size()));
  const std::size_t erased = remove(ids);
  m_.erases->add(erased);
  span.attr("erased", static_cast<double>(erased));
  return erased;
}

// --- Queries ----------------------------------------------------------------

QueryResult Backend::query(const img::Image& image, std::size_t k) const {
  util::TraceSpan span("query.image");
  return query_signature(summarize(image), k);
}

std::vector<QueryResult> Backend::query_batch(
    std::span<const img::Image* const> images, std::size_t k,
    util::ThreadPool* pool) const {
  m_.query_batch_size->observe(static_cast<double>(images.size()));
  // The whole per-query pipeline (FE+SM+probe+rank) is read-only, so the
  // batch fans complete queries across the pool, not just summarization.
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

QueryResult Backend::query_signature(const hash::SparseSignature& signature,
                                     std::size_t k) const {
  util::TraceSpan qspan("query");
  util::Tracer& tracer = util::Tracer::global();
  // Profiles are built whenever the tracer is enabled (not just when this
  // request was sampled) so slow queries reach the ring at any sample rate.
  const bool profiling = tracer.enabled();
  const double profile_start_s = profiling ? tracer.now_s() : 0.0;
  util::WallTimer wall_timer;

  QueryResult result;
  FAST_CHECK(signature.bit_count() == config_.bloom_bits);

  std::vector<std::vector<std::uint64_t>> probes;
  double keys_s = 0;
  const std::vector<std::uint64_t> keys =
      derive_keys(signature, &probes, &keys_s);
  std::size_t probe_keys = 0;
  for (const auto& per_table : probes) probe_keys += per_table.size();
  m_.sa_keys_derived->add(keys.size());
  m_.sa_probe_keys->observe(static_cast<double>(probe_keys));

  // Built once, before the layout takes any lock: every candidate is scored
  // against the query's bitmap.
  util::WallTimer scorer_timer;
  const hash::JaccardScorer scorer = [&] {
    util::TraceSpan span("rank.scorer");
    return hash::JaccardScorer(signature);
  }();
  const double scorer_s = scorer_timer.elapsed_seconds();

  Gathered gathered;
  gathered.table_slot_reads.assign(keys.size(), 0);
  std::size_t slot_reads_total = 0;
  {
    util::TraceSpan probe_span("chs.probe");
    gather(keys, probes, scorer, gathered, probe_span);
    for (const std::size_t reads : gathered.table_slot_reads) {
      slot_reads_total += reads;
    }
    probe_span.attr("bucket_probes",
                    static_cast<double>(gathered.bucket_probes));
    probe_span.attr("slot_reads", static_cast<double>(slot_reads_total));
    probe_span.attr("candidates", static_cast<double>(gathered.scored.size()));
  }
  m_.chs_slot_reads->add(slot_reads_total);
  if (gathered.fingerprint_false_hits != 0) {
    m_.chs_fingerprint_false_hits->add(gathered.fingerprint_false_hits);
  }
  result.bucket_probes = gathered.bucket_probes;
  result.candidates = gathered.scored.size();
  result.table_slot_reads = std::move(gathered.table_slot_reads);

  util::WallTimer topk_timer;
  {
    util::TraceSpan rank_span("rank.topk");
    result.hits = std::move(gathered.scored);
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
  const double topk_s = topk_timer.elapsed_seconds();
  const double rank_s = scorer_s + gathered.score_s + topk_s;
  m_.rank_scorer_s->observe(scorer_s);
  m_.rank_score_s->observe(gathered.score_s);
  m_.rank_topk_s->observe(topk_s);
  m_.rank_wall_s->observe(rank_s);
  m_.queries->add();
  m_.chs_bucket_probes->observe(static_cast<double>(result.bucket_probes));
  m_.chs_candidates->observe(static_cast<double>(result.candidates));
  const double wall_s = wall_timer.elapsed_seconds();
  m_.query_wall_s->observe(wall_s);

  qspan.attr("k", static_cast<double>(k));
  qspan.attr("hits", static_cast<double>(result.hits.size()));
  qspan.attr("candidates", static_cast<double>(result.candidates));
  qspan.attr("bucket_probes", static_cast<double>(result.bucket_probes));
  if (profiling) {
    util::QueryProfile profile;
    profile.request_id = qspan.request_id();
    profile.sampled = qspan.active();
    profile.start_s = profile_start_s;
    profile.wall_s = wall_s;
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

// --- Durability -------------------------------------------------------------

storage::Status Backend::sync_wal() {
  return durable() ? log_->sync() : storage::Status{};
}

storage::Status Backend::open_log(const DurabilityOptions& opts,
                                  RecoveryStats* stats) {
  // The log is attached only after replay, so replayed mutations run the
  // normal write paths without being logged a second time.
  auto log = storage::DurableLog::open(
      opts.env != nullptr ? *opts.env : storage::Env::posix(), opts.dir,
      config_fingerprint(config_), opts.wal_sync_every, metrics(), stats,
      [this](const storage::SnapshotFile& snapshot) {
        return restore_snapshot(snapshot);
      },
      [this](const storage::WalRecord& record) -> storage::Status {
        if (record.type == storage::kWalRecordErase) {
          erase(record.id);
          return storage::Status{};
        }
        auto sig = decode_insert_payload(record.payload, config_.bloom_bits);
        if (!sig.ok()) return sig.status();
        insert_signature(record.id, sig.value());
        return storage::Status{};
      });
  if (!log.ok()) return log.status();
  log_ = std::move(log).value();
  return storage::Status{};
}

// --- Layout choice ----------------------------------------------------------

std::unique_ptr<Backend> make_backend(FastConfig config, vision::PcaModel pca) {
  if (config.tier.enabled) {
    return std::make_unique<TieredIndex>(std::move(config), std::move(pca));
  }
  return std::make_unique<FastIndex>(std::move(config), std::move(pca));
}

storage::StatusOr<std::unique_ptr<Backend>> open_backend(
    FastConfig config, vision::PcaModel pca, const DurabilityOptions& opts,
    RecoveryStats* stats) {
  if (config.tier.enabled) {
    auto tiered = TieredIndex::open_or_recover(std::move(config),
                                               std::move(pca), opts, stats);
    if (!tiered.ok()) return tiered.status();
    return std::unique_ptr<Backend>(std::move(tiered).value());
  }
  auto flat = FastIndex::open_or_recover(std::move(config), std::move(pca),
                                         opts, stats);
  if (!flat.ok()) return flat.status();
  return std::unique_ptr<Backend>(
      std::make_unique<FastIndex>(std::move(flat).value()));
}

}  // namespace fast::core
