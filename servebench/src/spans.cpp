#include "spans.hpp"

#include <cstdio>
#include <cstring>

namespace servebench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::uint32_t SpanRecorder::open(const char* name) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = stack_.empty() ? 0 : stack_.back();
  spans_.push_back(span);
  stack_.push_back(span.id);
  spans_.back().start_ns = now_ns();
  return span.id;
}

void SpanRecorder::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  spans_[id - 1].end_ns = end;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> SpanRecorder::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(s.duration_us());
    }
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans_) {
    if (s.end_ns == 0) continue;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                 first ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3, s.duration_us(), s.id,
                 s.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
