// Benchmark-side spans: each call the traced run makes into a layer's
// public function is wrapped in one span (name, start, end, parent). Spans
// stay in memory; per-layer metrics are read back from their durations and
// the whole set is written as Chrome trace JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  double duration_us() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-3;
  }
};

/// Monotonic nanoseconds since an arbitrary process-wide origin.
std::int64_t now_ns();

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its id.
  std::uint32_t open(const char* name);
  /// Closes span `id` (must be the innermost open span).
  void close(std::uint32_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations (us) of every closed span called `name`.
  std::vector<double> durations_us(const char* name) const;

  /// Chrome trace_event JSON ("X" complete events, parent as an arg).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->open(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t id_;
};

}  // namespace servebench
