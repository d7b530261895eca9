// The benchmark's own tests: percentile and window arithmetic, open-loop
// accounting under a fake clock, seed determinism of every generated input,
// and agreement between the metric catalogue and BENCHMARK.json.
//
//   cmake --build .bench_build --target servebench_test
//   ./.bench_build/servebench_test
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "inputs.hpp"
#include "metric_names.hpp"
#include "schedule.hpp"
#include "stats.hpp"

namespace servebench {
namespace {

TEST(Percentile, CeilRankAtBoundaries) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({7}, 0), 7);
  EXPECT_EQ(percentile({7}, 100), 7);
  // p50 of two samples is the lower one; p100 the maximum; p0 the minimum.
  EXPECT_EQ(percentile({3, 1}, 50), 1);
  EXPECT_EQ(percentile({3, 1}, 100), 3);
  EXPECT_EQ(percentile({3, 1}, 0), 1);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(percentile(hundred, 99), 99);
  EXPECT_EQ(percentile(hundred, 99.5), 100);
  EXPECT_EQ(percentile(hundred, 1), 1);
  EXPECT_EQ(median(hundred), 50);
}

TEST(Percentile, TailSampleCounts) {
  EXPECT_EQ(samples_for_tail(99, 10), 1000u);
  EXPECT_EQ(samples_for_tail(50, 10), 20u);
  EXPECT_EQ(samples_for_tail(99.9, 10), 10000u);
}

TEST(Windows, StalledWindowsMoveOnlyTheirShare) {
  std::vector<double> ms, t;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 100; ++i) {
      ms.push_back(w == 2 || w == 4 ? 50.0 : 1.0 + i * 0.01);
      t.push_back(w + i * 0.01);
    }
  }
  EXPECT_DOUBLE_EQ(windowed_percentile(ms, t, 99, 100, 64, 25), 1.98);
  EXPECT_DOUBLE_EQ(windowed_percentile(ms, t, 99, 100, 64, 50), 1.98);
  EXPECT_DOUBLE_EQ(windowed_percentile(ms, t, 99, 100, 64, 75), 50.0);
  // Too few samples for two windows: the plain percentile.
  EXPECT_EQ(windowed_percentile(ms, t, 99, 1000, 64, 25), percentile(ms, 99));
}

TEST(Windows, RateIsAQuantileOfSlices) {
  std::vector<double> events;
  for (int i = 0; i < 100; ++i) events.push_back(i * 0.01);  // 100/s in [0,1)
  for (int i = 0; i < 10; ++i) events.push_back(1.0 + i * 0.1);  // 10/s
  for (int i = 0; i < 50; ++i) events.push_back(2.0 + i * 0.02);  // 50/s
  for (int i = 0; i < 100; ++i) events.push_back(3.0 + i * 0.01);
  EXPECT_DOUBLE_EQ(windowed_rate(events, 4.0, 4, 50), 50.0);
  EXPECT_DOUBLE_EQ(windowed_rate(events, 4.0, 4, 75), 100.0);
  EXPECT_DOUBLE_EQ(windowed_rate(events, 4.0, 4, 25), 10.0);
  EXPECT_EQ(windowed_rate(events, 0.0, 4, 75), 0.0);
}

TEST(LatencyBook, ChargesFromTheScheduledInstant) {
  // Fake clock in ns: two requests due at 0 and 1 ms; the generator stalls
  // and sends both at 5 ms; answers land at 6 and 7 ms.
  LatencyBook book;
  book.on_send(1, 0, 5'000'000);
  book.on_send(2, 1'000'000, 5'000'000);
  EXPECT_EQ(book.outstanding(), 2u);
  EXPECT_DOUBLE_EQ(*book.on_response(1, 6'000'000), 6.0);
  EXPECT_DOUBLE_EQ(*book.on_response(2, 7'000'000), 6.0);
  EXPECT_FALSE(book.on_response(2, 8'000'000).has_value());
  EXPECT_EQ(book.outstanding(), 0u);
  ASSERT_EQ(book.lag_ms().size(), 2u);
  EXPECT_DOUBLE_EQ(book.lag_ms()[0], 5.0);
  EXPECT_DOUBLE_EQ(book.lag_ms()[1], 4.0);
  // Closed loop: due == sent, so latency is send-to-answer and lag is 0.
  book.on_send(3, 9'000'000, 9'000'000);
  EXPECT_DOUBLE_EQ(*book.on_response(3, 9'500'000), 0.5);
  EXPECT_DOUBLE_EQ(book.lag_ms()[2], 0.0);
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = arrival_schedule(1000, 2.0, 7);
  const auto b = arrival_schedule(1000, 2.0, 7);
  const auto c = arrival_schedule(1000, 2.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  // Poisson(2000): well inside 5 sigma.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 5 * 45.0);
  EXPECT_TRUE(arrival_schedule(0, 2.0, 7).empty());
}

std::vector<std::tuple<int, std::uint64_t, std::vector<std::uint8_t>>> drain(
    OpSource& ops, int n) {
  std::vector<std::tuple<int, std::uint64_t, std::vector<std::uint8_t>>> out;
  for (int i = 0; i < n; ++i) {
    Op op = ops.next(static_cast<std::uint64_t>(i + 1));
    out.emplace_back(op.kind, op.id, std::move(op.body));
  }
  return out;
}

TEST(Inputs, SmallStreamIsSeeded) {
  SmallOps a(5, 10000), b(5, 10000), c(6, 10000);
  const auto sa = drain(a, 2000);
  EXPECT_EQ(sa, drain(b, 2000));
  EXPECT_NE(sa, drain(c, 2000));
  std::size_t queries = 0;
  for (const auto& [kind, id, body] : sa) {
    queries += kind == Op::kQuery;
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 10000u);
  }
  EXPECT_NEAR(static_cast<double>(queries) / 2000.0, 0.9, 0.04);
}

TEST(Inputs, CorpusIsByteIdenticalForASeed) {
  // Two builds with different FE/SM fan-out: the same bytes.
  const RealCorpus a = build_real_corpus(3, 24, 6, 1, nullptr);
  const RealCorpus b = build_real_corpus(3, 24, 6, 4, nullptr);
  ASSERT_EQ(a.sigs.size(), 24u);
  ASSERT_EQ(a.queries.size(), 6u);
  for (std::size_t i = 0; i < a.sigs.size(); ++i) {
    EXPECT_EQ(a.sigs[i].encode(), b.sigs[i].encode());
    EXPECT_EQ(a.ids[i], b.ids[i]);
    EXPECT_EQ(a.cluster[i], b.cluster[i]);
  }
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].encode(), b.queries[i].encode());
    EXPECT_EQ(a.relevant[i], b.relevant[i]);
    EXPECT_GT(a.queries[i].popcount(), 0u);
  }
}

/// {name: (unit, better)} of one BENCHMARK.json section.
std::map<std::string, std::pair<std::string, std::string>> section(
    const std::string& json, const std::string& key) {
  const std::size_t start = json.find("\"" + key + "\"");
  const std::size_t end = json.find(']', start);
  const std::string body = json.substr(start, end - start);
  const std::regex entry(
      R"re(\{"name": "([^"]+)", "unit": "([^"]+)", "better": "([^"]+)")re");
  std::map<std::string, std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out[(*it)[1]] = {(*it)[2], (*it)[3]};
  }
  return out;
}

TEST(Catalogue, MatchesBenchmarkJson) {
  std::ifstream in(SERVEBENCH_JSON);
  ASSERT_TRUE(in.good()) << SERVEBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const auto e2e = section(text.str(), "end_to_end");
  const auto layer = section(text.str(), "per_layer");
  std::set<std::string> names;
  std::size_t e2e_defs = 0;
  for (const MetricDef& def : metric_defs()) {
    EXPECT_TRUE(names.insert(def.name).second) << "duplicate " << def.name;
    const auto& table = def.end_to_end ? e2e : layer;
    const auto it = table.find(def.name);
    ASSERT_NE(it, table.end()) << def.name << " missing from BENCHMARK.json";
    EXPECT_EQ(it->second.first, def.unit) << def.name;
    EXPECT_EQ(it->second.second, def.better) << def.name;
    e2e_defs += def.end_to_end;
  }
  EXPECT_EQ(e2e.size(), e2e_defs);
  EXPECT_EQ(layer.size(), metric_defs().size() - e2e_defs);
  EXPECT_TRUE(e2e.count("setup_s"));
}

TEST(Catalogue, ResultRefusesAMissingMetric) {
  MetricSet set;
  std::string json, error;
  EXPECT_FALSE(set.to_json(true, &json, &error));
  EXPECT_NE(error.find("setup_s"), std::string::npos);
  for (const MetricDef& def : metric_defs()) {
    if (def.end_to_end) set.set(def.name, 1.5);
  }
  ASSERT_TRUE(set.to_json(true, &json, &error)) << error;
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("engine.query_us_p50"), std::string::npos);
}

}  // namespace
}  // namespace servebench
