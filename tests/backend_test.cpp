// core::Backend contract tests, parameterized on tier.enabled: one
// insert / erase / re-insert / batch / query script runs through
// make_backend on each layout and must answer exactly like a flat
// FastIndex fed the same script, and both layouts must export every
// instrument of the shared scaffold.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "core/fast_index.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fast::core {
namespace {

hash::SparseSignature make_signature(std::uint64_t seed,
                                     std::size_t bloom_bits) {
  constexpr std::size_t kPopcount = 96;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  const auto max_step =
      static_cast<std::uint32_t>(bloom_bits / (kPopcount + 1));
  for (std::size_t i = 0; i < kPopcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(max_step));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(bits, bloom_bits);
}

/// Signatures that share most bits with `base`'s, so queries gather
/// multi-member groups instead of singletons.
hash::SparseSignature near_signature(std::uint64_t base, std::uint64_t jitter,
                                     std::size_t bloom_bits) {
  std::vector<std::uint32_t> bits = make_signature(base, bloom_bits).set_bits();
  util::Rng rng(jitter * 0x51ed + base);
  for (std::size_t i = 0; i < bits.size(); i += 9) {
    bits[i] = static_cast<std::uint32_t>(rng.uniform_u64(bloom_bits));
  }
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  return hash::SparseSignature(bits, bloom_bits);
}

/// Parameter: config.tier.enabled.
class BackendContractTest : public ::testing::TestWithParam<bool> {
 protected:
  static FastConfig flat_config() {
    FastConfig cfg;
    cfg.cuckoo.capacity = 256;
    return cfg;
  }
  /// Tiny thresholds so the script crosses seals, tombstones and merges;
  /// background off keeps them inline and deterministic.
  static FastConfig config() {
    FastConfig cfg = flat_config();
    cfg.tier.enabled = GetParam();
    cfg.tier.seal_threshold = 6;
    cfg.tier.lanes = 2;
    cfg.tier.compact_fanin = 2;
    cfg.tier.compact_trigger = 2;
    cfg.tier.background = false;
    return cfg;
  }

  /// The script: singles, a batch, erases (known, unknown, repeated),
  /// re-inserts of erased ids and replacements of live ones.
  static void run_script(Backend& b) {
    const std::size_t bits = b.config().bloom_bits;
    for (std::uint64_t id = 0; id < 24; ++id) {
      b.insert_signature(id, near_signature(id % 6, id, bits));
    }
    std::vector<EngineWrite> batch;
    for (std::uint64_t id = 24; id < 36; ++id) {
      batch.push_back({id, near_signature(id % 6, id, bits)});
    }
    ASSERT_EQ(b.insert_signatures(batch).size(), batch.size());
    for (std::uint64_t id = 0; id < 8; ++id) EXPECT_TRUE(b.erase(id));
    EXPECT_FALSE(b.erase(3));
    EXPECT_FALSE(b.erase(999));
    const std::vector<std::uint64_t> victims = {10, 12, 12, 998, 30};
    EXPECT_EQ(b.erase_batch(victims), 3u);
    // Re-insert erased ids, and replace live ones with new signatures.
    for (std::uint64_t id = 0; id < 4; ++id) {
      b.insert_signature(id, near_signature(id % 6, id + 100, bits));
    }
    for (std::uint64_t id = 20; id < 26; ++id) {
      b.insert_signature(id, near_signature((id + 1) % 6, id + 200, bits));
    }
  }
};

TEST_P(BackendContractTest, ScriptAnswersLikeFlatIndex) {
  const vision::PcaModel pca = test::fake_pca();
  const std::unique_ptr<Backend> backend = make_backend(config(), pca);
  FastIndex reference(flat_config(), pca);
  ASSERT_NO_FATAL_FAILURE(run_script(*backend));
  ASSERT_NO_FATAL_FAILURE(run_script(reference));

  ASSERT_EQ(backend->size(), reference.size());
  const std::size_t bits = reference.config().bloom_bits;
  for (std::uint64_t id = 0; id < 40; ++id) {
    const auto got = backend->signature_of(id);
    const auto want = reference.signature_of(id);
    ASSERT_EQ(got.has_value(), want.has_value()) << "id " << id;
    if (got.has_value()) {
      EXPECT_EQ(got->set_bits(), want->set_bits()) << "id " << id;
    }
  }
  std::size_t live = 0;
  backend->for_each_live([&](std::uint64_t id, const hash::SparseSignature&) {
    EXPECT_TRUE(reference.signature_of(id).has_value()) << "id " << id;
    ++live;
  });
  EXPECT_EQ(live, reference.size());

  std::size_t multi_hit = 0;
  for (std::uint64_t q = 0; q < 48; ++q) {
    const hash::SparseSignature sig = near_signature(q % 6, q + 300, bits);
    const QueryResult a = backend->query_signature(sig, 8);
    const QueryResult b = reference.query_signature(sig, 8);
    ASSERT_EQ(a.hits.size(), b.hits.size()) << "query " << q;
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id) << "query " << q << " hit " << h;
      EXPECT_EQ(a.hits[h].score, b.hits[h].score)
          << "query " << q << " hit " << h;
    }
    if (a.hits.size() > 1) ++multi_hit;
  }
  EXPECT_GT(multi_hit, 0u);  // the script exercises real candidate sets
}

// The image, batch and signature entry points report the same work for
// the same photos, so core::sim_cost prices them alike.
TEST_P(BackendContractTest, ImagePathsChargeLikeSignaturePaths) {
  const workload::Dataset dataset = test::small_dataset(8);
  const std::unique_ptr<Backend> batched =
      make_backend(config(), test::fake_pca());
  const std::unique_ptr<Backend> single =
      make_backend(config(), test::fake_pca());
  const std::unique_ptr<Backend> split =
      make_backend(config(), test::fake_pca());
  util::ThreadPool pool(2);
  std::vector<BatchImage> items;
  for (std::size_t i = 0; i < 4; ++i) {
    items.push_back(BatchImage{i, &dataset.photos[i].image});
  }
  const std::vector<InsertResult> batch = batched->insert_batch(items, &pool);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const InsertResult a = single->insert(i, *items[i].image);
    const InsertResult b =
        split->insert_signature(i, split->summarize(*items[i].image));
    for (const InsertResult* r : {&a, &b}) {
      EXPECT_EQ(batch[i].slot_reads, r->slot_reads) << i;
      EXPECT_EQ(batch[i].store_writes, r->store_writes) << i;
    }
  }
  EXPECT_GT(batch.front().store_writes, 0u);
  const QueryResult a = single->query(dataset.photos[0].image, 3);
  const QueryResult b =
      single->query_signature(single->summarize(dataset.photos[0].image), 3);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.table_slot_reads, b.table_slot_reads);
}

// The instruments the shared scaffold owns, registered by every backend
// whatever its layout (DESIGN.md §3b). A layout may add its own.
TEST_P(BackendContractTest, RegistersEverySharedInstrument) {
  const std::unique_ptr<Backend> backend =
      make_backend(config(), test::fake_pca());
  ASSERT_NO_FATAL_FAILURE(run_script(*backend));
  const std::size_t bits = backend->config().bloom_bits;
  constexpr std::uint64_t kQueries = 5;
  for (std::uint64_t q = 0; q < kQueries; ++q) {
    (void)backend->query_signature(make_signature(q, bits), 4);
  }
  const util::MetricsSnapshot snap = backend->metrics().snapshot();
  std::set<std::string> names;
  for (const auto& [name, value] : snap.counters) names.insert(name);
  for (const auto& [name, value] : snap.gauges) names.insert(name);
  for (const auto& [name, value] : snap.histograms) names.insert(name);
  for (const char* want :
       {"fe_sm.images", "fe_sm.summarize_s", "index.inserts", "index.erases",
        "index.queries", "query.wall_s", "index.insert_batch_size",
        "index.query_batch_size", "index.erase_batch_size", "index.size",
        "sa.keys_derived", "sa.keys_wall_s", "sa.probe_keys_per_query",
        "rank.wall_s", "chs.slot_reads", "chs.fingerprint_false_hits",
        "chs.bucket_probes_per_query", "chs.candidates_per_query",
        "index.writer_locks", "index.reader_locks", "lock.writer_wait_s",
        "lock.reader_wait_s"}) {
    EXPECT_TRUE(names.contains(want)) << "missing " << want;
  }
  // Simulated prices stay out of the live registry (core::sim_cost).
  for (const char* gone :
       {"index.insert_sim_s", "index.query_sim_s", "sa.insert_hash_ops"}) {
    EXPECT_FALSE(names.contains(gone)) << "unexpected " << gone;
  }
  EXPECT_EQ(snap.histograms.at("query.wall_s").count, kQueries);
  EXPECT_EQ(snap.histograms.at("rank.wall_s").count, kQueries);
  EXPECT_EQ(snap.counters.at("index.queries"), kQueries);
  // Every lock acquisition, on either layout, is timed once.
  EXPECT_GE(snap.counters.at("index.reader_locks"), kQueries);
  EXPECT_GT(snap.counters.at("index.writer_locks"), 0u);
  EXPECT_EQ(snap.histograms.at("lock.reader_wait_s").count,
            snap.counters.at("index.reader_locks"));
  EXPECT_EQ(snap.histograms.at("lock.writer_wait_s").count,
            snap.counters.at("index.writer_locks"));
  // 36 inserts + 10 re-inserts/replacements; 8 + 3 acknowledged erases.
  EXPECT_EQ(snap.counters.at("index.inserts"), 46u);
  EXPECT_EQ(snap.counters.at("index.erases"), 11u);
  EXPECT_EQ(snap.gauges.at("index.size"),
            static_cast<double>(backend->size()));
}

INSTANTIATE_TEST_SUITE_P(Layouts, BackendContractTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Tiered" : "Flat");
                         });

}  // namespace
}  // namespace fast::core
