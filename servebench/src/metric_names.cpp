#include "metric_names.hpp"

#include <cmath>
#include <cstdio>

namespace servebench {

const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      // End to end: what a client of fast_server sees (untraced run).
      {"setup_s", "s", "lower", true},
      {"query_p50_ms", "ms", "lower", true},
      {"cpu_us_per_op", "us", "lower", true},
      {"ok_share", "ratio", "higher", true},
      {"precision_at_10", "ratio", "higher", true},
      {"rss_mb", "MB", "lower", true},
      // loadgen: the traced run's own end-to-end figures
      {"loadgen.lag_ms_p99", "ms", "lower", false},
      {"failed_share", "ratio", "lower", false},
      {"trace.query_p50_ms", "ms", "lower", false},
      {"trace.query_p99_ms", "ms", "lower", false},
      {"trace.write_p50_ms", "ms", "lower", false},
      {"trace.write_p99_ms", "ms", "lower", false},
      {"trace.closed_qps", "ops/s", "higher", false},
      // server
      {"server.queue_ms_p50", "ms", "lower", false},
      {"server.queue_ms_p99", "ms", "lower", false},
      {"server.exec_ms_p50", "ms", "lower", false},
      {"server.exec_ms_p99", "ms", "lower", false},
      {"server.net_ms_p50", "ms", "lower", false},
      {"server.net_ms_p99", "ms", "lower", false},
      {"server.retry_share", "ratio", "lower", false},
      // wire
      {"wire.encode_query_us", "us", "lower", false},
      {"wire.encode_insert_us", "us", "lower", false},
      {"wire.decode_request_us", "us", "lower", false},
      {"wire.encode_response_us", "us", "lower", false},
      {"wire.decode_response_us", "us", "lower", false},
      {"wire.request_bytes", "bytes", "lower", false},
      {"wire.response_bytes", "bytes", "lower", false},
      // engine
      {"engine.query_us_p50", "us", "lower", false},
      {"engine.query_us_p99", "us", "lower", false},
      {"engine.insert_us_p50", "us", "lower", false},
      {"engine.insert_us_p99", "us", "lower", false},
      {"engine.erase_us_p50", "us", "lower", false},
      {"engine.other_us_p50", "us", "lower", false},
      // SA
      {"sa.query_keys_us_p50", "us", "lower", false},
      {"sa.query_keys_us_p99", "us", "lower", false},
      {"sa.insert_keys_us_p50", "us", "lower", false},
      {"sa.keys_per_query", "count", "lower", false},
      {"sa.bits_set_p50", "count", "lower", false},
      // CHS
      {"chs.find_ns_p50", "ns", "lower", false},
      {"chs.lookups_per_query", "count", "lower", false},
      {"chs.slot_reads_per_lookup", "count", "lower", false},
      {"chs.bytes_per_lookup", "bytes", "lower", false},
      {"chs.place_us_p50", "us", "lower", false},
      {"chs.rehashes", "count", "lower", false},
      // rank
      {"rank.candidates_p50", "count", "lower", false},
      {"rank.candidates_p99", "count", "lower", false},
      {"rank.jaccard_us_p50", "us", "lower", false},
      {"rank.us_per_query_p50", "us", "lower", false},
      {"rank.useful_ratio", "ratio", "higher", false},
      // tier
      {"tier.seals", "count", "lower", false},
      {"tier.compaction_runs", "count", "lower", false},
      {"tier.compaction_merge_ms_p99", "ms", "lower", false},
      {"tier.segments_end", "count", "lower", false},
      {"tier.tombstones_end", "count", "lower", false},
      {"tier.segment_skips_per_query", "count", "higher", false},
      // storage
      {"wal.append_us_p50", "us", "lower", false},
      {"wal.sync_us_p50", "us", "lower", false},
      {"wal.sync_us_p99", "us", "lower", false},
      {"wal.bytes_per_write", "bytes", "lower", false},
      {"snapshot.write_ms", "ms", "lower", false},
      {"snapshot.mb", "MB", "lower", false},
      {"recovery.open_ms", "ms", "lower", false},
      // FE/SM (set-up)
      {"fe_sm.summarize_ms_p50", "ms", "lower", false},
      {"fe_sm.pca_train_s", "s", "lower", false},
  };
  return defs;
}

double MetricSet::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

bool MetricSet::to_json(bool end_to_end, std::string* json,
                        std::string* error) const {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& def : metric_defs()) {
    if (def.end_to_end != end_to_end) continue;
    const auto it = values_.find(def.name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      *error = std::string("metric ") + def.name +
               (it == values_.end() ? " was not measured" : " is not finite");
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, it->second, def.unit);
    out += buf;
    first = false;
  }
  *json = out + "}";
  return true;
}

}  // namespace servebench
