#include "util/trace.hpp"

#include "util/env.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace fast::util {

namespace {

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Microseconds with sub-µs precision, the unit chrome://tracing expects.
std::string fmt_us(std::uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

/// Per-thread tracing state. The buffer pointer stays valid for the process
/// lifetime (Tracer::global() is never destroyed and keeps every buffer).
struct TlsState {
  Tracer::ThreadBuffer* buffer = nullptr;
  std::uint32_t depth = 0;       ///< spans open on this thread
  bool sampled = false;          ///< decision of the current request root
  std::uint64_t request_id = 0;
};

TlsState& tls_state() noexcept {
  thread_local TlsState state;
  return state;
}

void write_text(const std::string& path, const std::string& text,
                const char* what) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  out << text;
  if (!out) {
    throw std::runtime_error(std::string(what) + ": write failed: " + path);
  }
}

}  // namespace

std::string QueryProfile::to_json() const {
  std::string out = "{";
  out += "\"request_id\": " + std::to_string(request_id);
  out += ", \"sampled\": " + std::string(sampled ? "true" : "false");
  out += ", \"start_s\": " + fmt_double(start_s);
  out += ", \"wall_s\": " + fmt_double(wall_s);
  out += ", \"sa_keys_s\": " + fmt_double(sa_keys_s);
  out += ", \"probe_s\": " + fmt_double(probe_s);
  out += ", \"rank_s\": " + fmt_double(rank_s);
  out += ", \"k\": " + std::to_string(k);
  out += ", \"hits\": " + std::to_string(hits);
  out += ", \"candidates\": " + std::to_string(candidates);
  out += ", \"bucket_probes\": " + std::to_string(bucket_probes);
  out += ", \"probe_keys\": " + std::to_string(probe_keys);
  out += ", \"slot_reads\": " + std::to_string(slot_reads);
  out += "}";
  return out;
}

Tracer& Tracer::global() noexcept {
  // Deliberately leaked: thread buffers referenced from thread_local state
  // must outlive every thread, including ones still unwinding at exit.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer()
    : slow_threshold_bits_(
          std::bit_cast<std::uint64_t>(TraceOptions{}.slow_query_s)),
      epoch_ns_(steady_ns()) {}

void Tracer::configure(const TraceOptions& options) {
  std::uint64_t period = 0;
  if (options.sample_rate >= 1.0) {
    period = 1;
  } else if (options.sample_rate > 0.0) {
    period = static_cast<std::uint64_t>(std::llround(1.0 / options.sample_rate));
    if (period == 0) period = 1;
  }
  {
    std::lock_guard lock(registry_mutex_);
    sample_rate_ = options.sample_rate;
  }
  max_events_per_thread_.store(options.max_events_per_thread,
                               std::memory_order_relaxed);
  {
    std::lock_guard lock(profile_mutex_);
    slow_ring_capacity_ = options.slow_ring_capacity;
    max_profiles_ = options.max_profiles;
  }
  slow_threshold_bits_.store(std::bit_cast<std::uint64_t>(options.slow_query_s),
                             std::memory_order_relaxed);
  period_.store(period, std::memory_order_relaxed);
}

TraceOptions Tracer::options() const {
  TraceOptions opts;
  {
    std::lock_guard lock(registry_mutex_);
    opts.sample_rate = sample_rate_;
  }
  opts.max_events_per_thread =
      max_events_per_thread_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(profile_mutex_);
    opts.slow_ring_capacity = slow_ring_capacity_;
    opts.max_profiles = max_profiles_;
  }
  opts.slow_query_s = slow_query_threshold_s();
  return opts;
}

double Tracer::slow_query_threshold_s() const noexcept {
  return std::bit_cast<double>(
      slow_threshold_bits_.load(std::memory_order_relaxed));
}

std::uint64_t Tracer::now_ns() const noexcept {
  return steady_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

void Tracer::reset() {
  {
    std::lock_guard lock(registry_mutex_);
    for (auto& buffer : buffers_) {
      std::lock_guard buffer_lock(buffer->mutex);
      buffer->events.clear();
      buffer->dropped = 0;
    }
  }
  {
    std::lock_guard lock(profile_mutex_);
    profiles_.clear();
    slow_ring_.clear();
    slow_head_ = 0;
    slow_total_ = 0;
    slow_evicted_ = 0;
  }
  sample_counter_.store(0, std::memory_order_relaxed);
  next_request_id_.store(0, std::memory_order_relaxed);
  requests_seen_.store(0, std::memory_order_relaxed);
  requests_sampled_.store(0, std::memory_order_relaxed);
  spans_recorded_.store(0, std::memory_order_relaxed);
  profiles_dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
}

Tracer::Stats Tracer::stats() const {
  Stats stats;
  stats.requests_seen = requests_seen_.load(std::memory_order_relaxed);
  stats.requests_sampled = requests_sampled_.load(std::memory_order_relaxed);
  stats.spans_recorded = spans_recorded_.load(std::memory_order_relaxed);
  stats.profiles_dropped = profiles_dropped_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      std::lock_guard buffer_lock(buffer->mutex);
      stats.spans_dropped += buffer->dropped;
    }
  }
  {
    std::lock_guard lock(profile_mutex_);
    stats.profiles_recorded = profiles_.size();
    stats.slow_queries = slow_total_;
    stats.slow_evicted = slow_evicted_;
  }
  return stats;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  TlsState& state = tls_state();
  if (state.buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard lock(registry_mutex_);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(std::move(buffer));
    state.buffer = buffers_.back().get();
  }
  return *state.buffer;
}

void Tracer::record_event(const TraceEvent& event) {
  ThreadBuffer& buffer = local_buffer();
  const std::size_t cap =
      max_events_per_thread_.load(std::memory_order_relaxed);
  std::lock_guard lock(buffer.mutex);
  if (buffer.events.size() >= cap) {
    ++buffer.dropped;
    return;
  }
  TraceEvent stored = event;
  stored.tid = buffer.tid;
  buffer.events.push_back(stored);
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record_query(const QueryProfile& profile) {
  const bool slow = profile.wall_s >= slow_query_threshold_s();
  if (!profile.sampled && !slow) return;
  std::lock_guard lock(profile_mutex_);
  if (profile.sampled) {
    if (profiles_.size() < max_profiles_) {
      profiles_.push_back(profile);
    } else {
      profiles_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (slow && slow_ring_capacity_ > 0) {
    ++slow_total_;
    if (slow_ring_.size() < slow_ring_capacity_) {
      slow_ring_.push_back(profile);
    } else {
      slow_ring_[slow_head_] = profile;
      slow_head_ = (slow_head_ + 1) % slow_ring_capacity_;
      ++slow_evicted_;
    }
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  std::lock_guard lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

std::vector<QueryProfile> Tracer::sampled_profiles() const {
  std::lock_guard lock(profile_mutex_);
  return profiles_;
}

std::vector<QueryProfile> Tracer::slow_queries() const {
  std::lock_guard lock(profile_mutex_);
  std::vector<QueryProfile> out;
  out.reserve(slow_ring_.size());
  for (std::size_t i = 0; i < slow_ring_.size(); ++i) {
    out.push_back(slow_ring_[(slow_head_ + i) % slow_ring_.size()]);
  }
  return out;
}

namespace {

/// The Chrome trace_event array ("[...]"), shared by chrome_trace_json and
/// the admin plane's tracez_json.
std::string emit_trace_events(const std::vector<TraceEvent>& all) {
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& e : all) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"";
    out += e.name;
    out += "\", \"cat\": \"fast\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    out += std::to_string(e.tid);
    out += ", \"ts\": " + fmt_us(e.start_ns);
    out += ", \"dur\": " + fmt_us(e.dur_ns);
    out += ", \"args\": {\"req\": " + std::to_string(e.request_id) +
           ", \"depth\": " + std::to_string(e.depth);
    for (std::uint32_t a = 0; a < e.attr_count; ++a) {
      out += ", \"";
      out += e.attrs[a].key;
      out += "\": " + fmt_double(e.attrs[a].value);
    }
    out += "}}";
  }
  out += first ? "]" : "\n]";
  return out;
}

/// A QueryProfile array with 4-space item indent.
std::string emit_profiles(const std::vector<QueryProfile>& list) {
  std::string out = "[";
  bool first = true;
  for (const QueryProfile& p : list) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += p.to_json();
  }
  out += first ? "]" : "\n  ]";
  return out;
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  return "{\"displayTimeUnit\": \"ms\", \"traceEvents\": " +
         emit_trace_events(events()) + "}\n";
}

std::string Tracer::profiles_json() const {
  // Take both copies first so the two sections are mutually consistent.
  const std::vector<QueryProfile> sampled = sampled_profiles();
  const std::vector<QueryProfile> slow = slow_queries();
  std::string out = "{\n  \"slow_query_threshold_s\": ";
  out += fmt_double(slow_query_threshold_s());
  out += ",\n  \"profiles\": " + emit_profiles(sampled);
  out += ",\n  \"slow_queries\": " + emit_profiles(slow);
  out += "\n}\n";
  return out;
}

std::string Tracer::tracez_json() const {
  const Stats s = stats();
  const std::vector<QueryProfile> sampled = sampled_profiles();
  const std::vector<QueryProfile> slow = slow_queries();
  std::string out = "{\n  \"enabled\": ";
  out += enabled() ? "true" : "false";
  out += ",\n  \"slow_query_threshold_s\": ";
  out += fmt_double(slow_query_threshold_s());
  out += ",\n  \"stats\": {";
  out += "\"requests_seen\": " + std::to_string(s.requests_seen);
  out += ", \"requests_sampled\": " + std::to_string(s.requests_sampled);
  out += ", \"spans_recorded\": " + std::to_string(s.spans_recorded);
  out += ", \"spans_dropped\": " + std::to_string(s.spans_dropped);
  out += ", \"profiles_recorded\": " + std::to_string(s.profiles_recorded);
  out += ", \"profiles_dropped\": " + std::to_string(s.profiles_dropped);
  out += ", \"slow_queries\": " + std::to_string(s.slow_queries);
  out += ", \"slow_evicted\": " + std::to_string(s.slow_evicted);
  out += "},\n  \"slow_queries\": " + emit_profiles(slow);
  out += ",\n  \"profiles\": " + emit_profiles(sampled);
  out += ",\n  \"displayTimeUnit\": \"ms\"";
  out += ",\n  \"traceEvents\": " + emit_trace_events(events());
  out += "\n}\n";
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  write_text(path, chrome_trace_json(), "Tracer::write_chrome_trace");
}

void Tracer::write_profiles(const std::string& path) const {
  write_text(path, profiles_json(), "Tracer::write_profiles");
}

TraceSpan::TraceSpan(const char* name) noexcept : name_(name) {
  Tracer& tracer = Tracer::global();
  const std::uint64_t period = tracer.period_.load(std::memory_order_relaxed);
  if (period == 0) return;  // disabled: one load, one branch, done
  TlsState& state = tls_state();
  if (state.depth == 0) {
    // Request root: make the sampling decision the whole request inherits.
    tracer.requests_seen_.fetch_add(1, std::memory_order_relaxed);
    state.sampled =
        period == 1 ||
        tracer.sample_counter_.fetch_add(1, std::memory_order_relaxed) %
                period ==
            0;
    if (state.sampled) {
      state.request_id =
          tracer.next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      tracer.requests_sampled_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  entered_ = true;
  ++state.depth;
  depth_ = state.depth;
  if (state.sampled) {
    active_ = true;
    request_id_ = state.request_id;
    start_ns_ = tracer.now_ns();
  }
}

TraceSpan::~TraceSpan() {
  if (!entered_) return;
  TlsState& state = tls_state();
  if (state.depth > 0) --state.depth;
  if (state.depth == 0) state.sampled = false;
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  TraceEvent event;
  event.name = name_;
  event.start_ns = start_ns_;
  const std::uint64_t end_ns = tracer.now_ns();
  event.dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  event.request_id = request_id_;
  event.depth = depth_;
  event.attrs = attrs_;
  event.attr_count = attr_count_;
  tracer.record_event(event);
}

bool configure_global_tracer_from_env() {
  // The knobs are independent: FAST_TRACE_SLOW_MS / FAST_TRACE_RING apply
  // even when the sample rate comes from somewhere else (a bench's --trace
  // flag configures the rate after this call). Parsing is checked — a
  // garbage, negative or overflowing value warns once and leaves the knob
  // at its previous setting instead of silently becoming 0.
  TraceOptions opts = Tracer::global().options();
  bool changed = false;
  if (const auto rate = env_number("FAST_TRACE", 0.0, 1.0)) {
    opts.sample_rate = *rate;
    changed = true;
  }
  if (const auto slow_ms = env_number("FAST_TRACE_SLOW_MS", 0.0, 1e9)) {
    opts.slow_query_s = *slow_ms / 1e3;
    changed = true;
  }
  if (const auto ring = env_count("FAST_TRACE_RING", 1, 1u << 20)) {
    opts.slow_ring_capacity = static_cast<std::size_t>(*ring);
    changed = true;
  }
  if (changed) Tracer::global().configure(opts);
  return Tracer::global().enabled();
}

}  // namespace fast::util
