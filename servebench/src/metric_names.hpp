// The benchmark's metric catalogue — the single list BENCHMARK.json
// mirrors (servebench_test checks that the two agree name for name) — and
// the collector that refuses to emit a result missing any of them.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace servebench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
  bool end_to_end;     ///< untraced run; otherwise per-layer (traced run)
};

const std::vector<MetricDef>& metric_defs();

/// Metric values by name for one run.
class MetricSet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;

  /// `{"name": {"value": v, "unit": u}, ...}` over every catalogue metric
  /// of the requested kind. Returns false (and names the culprit in
  /// *error) when one is missing or a value is not finite.
  bool to_json(bool end_to_end, std::string* json, std::string* error) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace servebench
