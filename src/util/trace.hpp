// Per-request tracing with sampled spans, query profiles and a slow-query
// ring buffer.
//
// The metrics registry (metrics.hpp) aggregates; it can say queries are slow
// on average but not WHICH query, WHICH stage, or WHY. This layer attributes
// cost per request: a sampled query/insert opens a root TraceSpan, every
// pipeline stage it passes through (FE/SM summarize, SA key derivation, CHS
// probe, lock waits, WAL append/sync, snapshot write, recovery replay) nests
// a child span under it, and spans carry attributes (buckets probed,
// candidates examined, cuckoo rehash events, bytes fsynced). Completed spans
// land in thread-local buffers and export as Chrome trace_event JSON, loadable
// in chrome://tracing or https://ui.perfetto.dev.
//
// Sampling model and overhead budget: the process-wide Tracer holds a sample
// rate. At rate 0 (the default) a TraceSpan constructor is ONE relaxed atomic
// load and a branch — no thread-local access, no clock read, no allocation —
// so fully traced binaries run at production speed until tracing is switched
// on. The sampling decision is made once per request (the first span a thread
// opens at depth 0); nested spans inherit it, so a sampled request records
// its whole stage tree and an unsampled one records nothing. Rate r samples
// every round(1/r)-th request deterministically (rate 1 = every request).
//
// Concurrency model: span records go to a per-thread buffer behind a
// per-buffer mutex that only the owning thread and exporters ever touch
// (uncontended in steady state); sampling counters, request ids and stats are
// relaxed atomics. Work fanned across a thread pool opens depth-0 spans on
// the worker threads, which make their own sampling decision — at the rate-1
// setting used for trace capture the full fan-out records either way.
//
// Scoping: the tracer is process-global. Benches that run several
// configurations in one process must export-then-reset() between them (see
// bench::dump_trace) so spans from one configuration do not bleed into the
// next configuration's artifact.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fast::util {

struct TraceOptions {
  /// Fraction of requests that record spans: 0 disables tracing entirely,
  /// 1 records every request, r in (0, 1) records every round(1/r)-th.
  double sample_rate = 0.0;
  /// Queries whose native wall time exceeds this land in the slow-query
  /// ring buffer regardless of whether they were sampled.
  double slow_query_s = 0.050;
  /// Capacity of the slow-query ring (oldest entries are evicted).
  std::size_t slow_ring_capacity = 64;
  /// Per-thread span budget; spans past it are dropped and counted.
  std::size_t max_events_per_thread = 1u << 18;
  /// Sampled-profile budget (per-query records kept for export).
  std::size_t max_profiles = 4096;
};

/// One span attribute. Keys must be string literals (or otherwise outlive
/// the tracer) — they are stored by pointer, never copied.
struct TraceAttr {
  const char* key = nullptr;
  double value = 0.0;
};

/// A completed span, as stored in the thread buffers and returned by
/// Tracer::events().
struct TraceEvent {
  static constexpr std::size_t kMaxAttrs = 8;
  const char* name = nullptr;     ///< string literal, by pointer
  std::uint64_t start_ns = 0;     ///< since the tracer epoch (last reset)
  std::uint64_t dur_ns = 0;
  std::uint64_t request_id = 0;   ///< shared by every span of one request
  std::uint32_t depth = 0;        ///< 1 = root span of its request
  std::uint32_t tid = 0;          ///< stable per-thread export id
  std::array<TraceAttr, kMaxAttrs> attrs{};
  std::uint32_t attr_count = 0;
};

/// Structured per-query record: what one query did and where its time went.
/// Built by FastIndex::query_signature whenever the tracer is enabled;
/// sampled queries are kept for export and queries slower than
/// TraceOptions::slow_query_s enter the slow-query ring either way.
struct QueryProfile {
  std::uint64_t request_id = 0;  ///< 0 when the query was not sampled
  bool sampled = false;
  double start_s = 0;            ///< seconds since the tracer epoch
  double wall_s = 0;             ///< native wall time of the whole query
  double sa_keys_s = 0;          ///< SA key-derivation wall time
  double probe_s = 0;            ///< the rest: CHS probe, candidate collection
  double rank_s = 0;             ///< candidate scoring + top-k wall time
  std::uint64_t k = 0;
  std::uint64_t hits = 0;
  std::uint64_t candidates = 0;
  std::uint64_t bucket_probes = 0;
  std::uint64_t probe_keys = 0;
  std::uint64_t slot_reads = 0;

  std::string to_json() const;
};

class TraceSpan;

class Tracer {
 public:
  /// The process-wide tracer every TraceSpan records into. Never destroyed
  /// (leaked on purpose), so spans on late-exiting threads stay safe.
  static Tracer& global() noexcept;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Sets the sampling/slow-query knobs. Takes effect for requests that
  /// START after the call; spans already in flight complete under their
  /// original decision. Does not clear recorded data — see reset().
  void configure(const TraceOptions& options);
  TraceOptions options() const;

  /// True when spans can record (sample_rate > 0). One relaxed load.
  bool enabled() const noexcept {
    return period_.load(std::memory_order_relaxed) != 0;
  }

  /// Drops every recorded span, profile, slow-query entry and stat, and
  /// restarts the epoch. Options are kept. Benches call this between
  /// configurations so per-config artifacts do not bleed into each other.
  void reset();

  struct Stats {
    std::uint64_t spans_recorded = 0;
    std::uint64_t spans_dropped = 0;
    std::uint64_t requests_seen = 0;     ///< depth-0 spans while enabled
    std::uint64_t requests_sampled = 0;
    std::uint64_t profiles_recorded = 0;
    std::uint64_t profiles_dropped = 0;
    std::uint64_t slow_queries = 0;      ///< entered the ring
    std::uint64_t slow_evicted = 0;      ///< pushed out of the ring
  };
  Stats stats() const;

  /// Files a per-query record: sampled profiles are kept (up to
  /// max_profiles), and any profile with wall_s >= slow_query_s enters the
  /// slow-query ring, evicting the oldest entry when full.
  void record_query(const QueryProfile& profile);

  /// Point-in-time copies, safe while other threads keep recording.
  std::vector<TraceEvent> events() const;
  std::vector<QueryProfile> sampled_profiles() const;
  std::vector<QueryProfile> slow_queries() const;  ///< oldest first

  /// Chrome trace_event JSON ({"traceEvents": [...]}), one complete ("X")
  /// event per span with its attributes under "args". Load in
  /// chrome://tracing or Perfetto.
  std::string chrome_trace_json() const;
  /// {"profiles": [...sampled...], "slow_queries": [...ring...]}.
  std::string profiles_json() const;
  /// Admin-plane export (GET /tracez, DESIGN.md §3j): one JSON object
  /// carrying the tracer stats, the slow-query ring, the sampled query
  /// profiles AND the recent sampled spans under "traceEvents" — the
  /// object loads directly in chrome://tracing / Perfetto (viewers ignore
  /// the extra top-level keys).
  std::string tracez_json() const;
  /// Write the corresponding *_json() to `path`; throws std::runtime_error
  /// when the file cannot be written.
  void write_chrome_trace(const std::string& path) const;
  void write_profiles(const std::string& path) const;

  /// Current slow-query threshold (relaxed read; hot-path safe).
  double slow_query_threshold_s() const noexcept;

  /// Nanoseconds / seconds since the epoch (construction or last reset()).
  std::uint64_t now_ns() const noexcept;
  double now_s() const noexcept {
    return static_cast<double>(now_ns()) * 1e-9;
  }

  /// Per-thread span storage (public only so the thread-local state in
  /// trace.cpp can hold a pointer; not part of the supported API).
  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
  };

 private:
  friend class TraceSpan;

  /// The calling thread's buffer, created and registered on first use.
  ThreadBuffer& local_buffer();
  void record_event(const TraceEvent& event);

  std::atomic<std::uint64_t> period_{0};  ///< 0 = off, N = every Nth request
  std::atomic<std::uint64_t> slow_threshold_bits_;
  std::atomic<std::uint64_t> sample_counter_{0};
  std::atomic<std::uint64_t> next_request_id_{0};
  std::atomic<std::uint64_t> epoch_ns_{0};

  std::atomic<std::uint64_t> requests_seen_{0};
  std::atomic<std::uint64_t> requests_sampled_{0};
  std::atomic<std::uint64_t> spans_recorded_{0};
  std::atomic<std::uint64_t> profiles_dropped_{0};

  std::atomic<std::size_t> max_events_per_thread_{
      TraceOptions{}.max_events_per_thread};

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::size_t slow_ring_capacity_ = TraceOptions{}.slow_ring_capacity;
  std::size_t max_profiles_ = TraceOptions{}.max_profiles;
  double sample_rate_ = 0.0;

  mutable std::mutex profile_mutex_;
  std::vector<QueryProfile> profiles_;
  std::vector<QueryProfile> slow_ring_;  ///< ring, head_ = oldest
  std::size_t slow_head_ = 0;
  std::uint64_t slow_total_ = 0;
  std::uint64_t slow_evicted_ = 0;
};

/// RAII scope that records one span into the global tracer.
///
/// Opened at depth 0 it is a request root and makes the sampling decision;
/// opened inside another span it inherits the request's decision. With the
/// tracer disabled, construction is a single relaxed load.
class TraceSpan {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit TraceSpan(const char* name) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when this span will be recorded (its request was sampled).
  bool active() const noexcept { return active_; }
  /// Request id shared by every span under the same root (0 if inactive).
  std::uint64_t request_id() const noexcept { return request_id_; }

  /// Attaches a key/value attribute (exported under "args"). `key` must be
  /// a string literal. Ignored when inactive or past kMaxAttrs.
  void attr(const char* key, double value) noexcept {
    if (active_ && attr_count_ < TraceEvent::kMaxAttrs) {
      attrs_[attr_count_++] = TraceAttr{key, value};
    }
  }

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t request_id_ = 0;
  std::uint32_t depth_ = 0;
  bool entered_ = false;  ///< tracer was enabled at construction
  bool active_ = false;
  std::array<TraceAttr, TraceEvent::kMaxAttrs> attrs_{};
  std::uint32_t attr_count_ = 0;
};

/// Configures the global tracer from the environment: FAST_TRACE (sample
/// rate, e.g. "1" or "0.01"; unset or 0 leaves tracing off),
/// FAST_TRACE_SLOW_MS (slow-query threshold, default 50) and
/// FAST_TRACE_RING (slow-ring capacity). Returns Tracer::global().enabled().
bool configure_global_tracer_from_env();

}  // namespace fast::util
