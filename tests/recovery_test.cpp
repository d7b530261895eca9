// Crash-recovery validation for the durable index (snapshot + WAL).
//
// Two layers:
//  - RecoveryTest: directed scenarios over the recovery contract — WAL
//    replay, snapshot fallback, torn tails, config mismatch, retention.
//  - CrashMatrixTest: exhaustive fault sweeps. A scripted workload runs
//    under FaultInjectingEnv once per failure point (every mutating I/O op
//    x {fail, short write, torn write}); after each planned crash the
//    directory is recovered with a clean env and the result is compared
//    BIT-EXACTLY against a reference index built from the acknowledged
//    operations. The invariants: no acknowledged record is ever lost, no
//    erased id is ever resurrected, and at most the single in-flight
//    mutation may additionally survive.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fast_index.hpp"
#include "core/pipeline/factory.hpp"
#include "core/query_engine.hpp"
#include "core/tiered_index.hpp"
#include "storage/io.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"
#include "golden_fixture.hpp"
#include "test_helpers.hpp"
#include "util/codec.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace fast::core {
namespace {

/// Directories fresh_dir made for the running test.
std::vector<std::string>& scratch_dirs() {
  static std::vector<std::string> dirs;
  return dirs;
}

/// Removes the running test's directories when it ends, unless it failed:
/// a failing case's WAL and snapshot files stay on disk for diagnosis.
class ScratchDirCleanup : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    for (const std::string& dir : scratch_dirs()) {
      if (!info.result()->Failed()) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      } else {
        std::cerr << "kept " << dir << " for diagnosis\n";
      }
    }
    scratch_dirs().clear();
  }
};

[[maybe_unused]] const bool kScratchDirCleanupInstalled = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new ScratchDirCleanup);
  return true;
}();

std::string fresh_dir(const std::string& name) {
  // ctest runs every case as its own process against the shared TempDir;
  // the pid keeps concurrently running cases (e.g. the three crash-matrix
  // sweeps, which all start with a dry run) out of each other's state.
  const std::string dir = ::testing::TempDir() + "fast_recovery_" +
                          std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  scratch_dirs().push_back(dir);
  return dir;
}

FastConfig small_config(
    FastConfig::ChsBackend backend = FastConfig::ChsBackend::kFlatCuckoo) {
  FastConfig cfg;
  cfg.cuckoo.capacity = 256;
  cfg.chs_backend = backend;
  return cfg;
}

/// Deterministic synthetic signature with ~`popcount` set bits.
hash::SparseSignature make_signature(std::uint64_t seed,
                                     std::size_t bloom_bits,
                                     std::size_t popcount = 96) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::uint32_t> bits;
  std::uint32_t cur = 0;
  const std::uint32_t max_step =
      static_cast<std::uint32_t>(bloom_bits / (popcount + 1));
  for (std::size_t i = 0; i < popcount; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.uniform_u64(max_step));
    if (cur >= bloom_bits) break;
    bits.push_back(cur);
  }
  return hash::SparseSignature(bits, bloom_bits);
}

/// Strict state equality: same ids with identical signatures, and identical
/// ranked results (ids AND scores) for a set of probe queries. Two indexes
/// built by the same apply sequence must pass this bit-exactly.
void expect_same_state(const FastIndex& got, const FastIndex& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.group_count(), want.group_count());
  for (std::uint64_t id = 0; id < 64; ++id) {
    const auto a = got.signature_of(id);
    const auto b = want.signature_of(id);
    ASSERT_EQ(a.has_value(), b.has_value()) << "id " << id;
    if (a.has_value()) {
      EXPECT_EQ(a->set_bits(), b->set_bits()) << "id " << id;
    }
  }
  for (std::uint64_t q = 0; q < 5; ++q) {
    const auto sig = make_signature(1000 + q, want.config().bloom_bits);
    const QueryResult ra = got.query_signature(sig, 10);
    const QueryResult rb = want.query_signature(sig, 10);
    ASSERT_EQ(ra.hits.size(), rb.hits.size()) << "query " << q;
    for (std::size_t i = 0; i < ra.hits.size(); ++i) {
      EXPECT_EQ(ra.hits[i].id, rb.hits[i].id) << "query " << q << " hit " << i;
      EXPECT_EQ(ra.hits[i].score, rb.hits[i].score)
          << "query " << q << " hit " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Directed recovery scenarios
// ---------------------------------------------------------------------------

TEST(RecoveryTest, FreshDirectoryOpensEmptyDurableIndex) {
  DurabilityOptions opts;
  opts.dir = fresh_dir("fresh");
  RecoveryStats stats;
  auto index = FastIndex::open_or_recover(small_config(), test::fake_pca(),
                                          opts, &stats);
  ASSERT_TRUE(index.ok()) << index.status().to_string();
  EXPECT_EQ(index.value().size(), 0u);
  EXPECT_TRUE(index.value().durable());
  EXPECT_EQ(index.value().last_seq(), 0u);
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
}

TEST(RecoveryTest, WalReplayRestoresInsertsExactly) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("wal_replay");

  FastIndex reference(cfg, pca);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 30; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      EXPECT_EQ(durable.insert_signature(id, sig).ok,
                reference.insert_signature(id, sig).ok);
    }
    EXPECT_EQ(durable.last_seq(), 30u);
  }

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 30u);
  EXPECT_EQ(recovered.value().last_seq(), 30u);
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, SnapshotLoadNeedsNoReplay) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("snap_load");

  FastIndex reference(cfg, pca);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 20; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
  }

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 20u);
  EXPECT_EQ(stats.replayed_records, 0u);
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, SnapshotPlusWalTailReplay) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("snap_tail");

  FastIndex reference(cfg, pca);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 12; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    for (std::uint64_t id = 12; id < 20; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    EXPECT_TRUE(durable.erase(3));
    EXPECT_TRUE(reference.erase(3));
    EXPECT_TRUE(durable.erase(15));
    EXPECT_TRUE(reference.erase(15));
  }

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 12u);
  EXPECT_EQ(stats.replayed_records, 10u);  // 8 inserts + 2 erases
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, ErasedIdIsNeverResurrected) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("erase");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 10; ++id) {
      durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    EXPECT_TRUE(durable.erase(4));  // erase AFTER the snapshot holds the id
    EXPECT_FALSE(durable.erase(77));  // unknown id: no-op, not logged
  }
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().signature_of(4).has_value());
  EXPECT_EQ(recovered.value().size(), 9u);
}

TEST(RecoveryTest, ReInsertAfterEraseKeepsLatestSignature) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("reinsert");
  const auto v1 = make_signature(500, cfg.bloom_bits);
  const auto v2 = make_signature(501, cfg.bloom_bits);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(9, v1);
    EXPECT_TRUE(durable.erase(9));
    durable.insert_signature(9, v2);
  }
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered.value().signature_of(9).has_value());
  EXPECT_EQ(recovered.value().signature_of(9)->set_bits(), v2.set_bits());
}

TEST(RecoveryTest, ConfigMismatchIsHardError) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("mismatch");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(1, make_signature(1, cfg.bloom_bits));
    ASSERT_TRUE(durable.save_snapshot().ok());
  }
  FastConfig other = cfg;
  other.minhash.seed ^= 1;  // different SA geometry -> different groups
  auto recovered = FastIndex::open_or_recover(other, pca, opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), storage::StatusCode::kConfigMismatch);
}

TEST(RecoveryTest, CorruptNewestSnapshotFallsBackExactly) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("fallback");

  FastIndex reference(cfg, pca);
  std::uint64_t newest_seq = 0;
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 10; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    for (std::uint64_t id = 10; id < 16; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    newest_seq = durable.last_seq();
  }
  // Bit-rot the newest snapshot image. Retention kept the previous snapshot
  // and the WAL segments it does not cover, so recovery must reproduce the
  // exact pre-corruption state from the older generation.
  const std::string newest =
      opts.dir + "/" + storage::snapshot_file_name(newest_seq);
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(48);
    const char x = 0x7f;
    f.write(&x, 1);
  }
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.snapshots_skipped, 1u);
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 10u);
  EXPECT_EQ(stats.replayed_records, 6u);
  expect_same_state(recovered.value(), reference);
}

// A CRC-valid newest snapshot whose signature section claims 2^40 entries
// must count as undecodable (fall back to the previous generation), not
// reserve for the claimed count and throw out of open_or_recover.
TEST(RecoveryTest, BogusSignatureCountFallsBackExactly) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("bogus_count");

  FastIndex reference(cfg, pca);
  std::uint64_t newest_seq = 0;
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 16; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
      if (id == 9) {
        ASSERT_TRUE(durable.save_snapshot().ok());
      }
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    newest_seq = durable.last_seq();
  }
  storage::Env& env = storage::Env::posix();
  auto snapshot = storage::read_snapshot(
      env, opts.dir + "/" + storage::snapshot_file_name(newest_seq));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().to_string();
  storage::SnapshotFile crafted = std::move(snapshot).value();
  bool patched = false;
  for (auto& section : crafted.sections) {
    if (section.id != storage::kSectionSignatures) continue;
    util::ByteWriter count;
    count.u64(std::uint64_t{1} << 40);
    const std::vector<std::uint8_t> bytes = count.take();
    ASSERT_GE(section.payload.size(), bytes.size());
    std::copy(bytes.begin(), bytes.end(), section.payload.begin());
    patched = true;
  }
  ASSERT_TRUE(patched);
  ASSERT_TRUE(storage::write_snapshot(env, opts.dir, crafted).ok());

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.snapshots_skipped, 1u);
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 10u);
  EXPECT_EQ(stats.replayed_records, 6u);
  expect_same_state(recovered.value(), reference);
}

TEST(RecoveryTest, SnapshotRetainsExactlyOnePreviousGeneration) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("retention");
  auto opened = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(opened.ok());
  FastIndex durable = std::move(opened).value();

  std::vector<std::uint64_t> snapshot_seqs;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      const auto id = static_cast<std::uint64_t>(round) * 4 + i;
      durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
    }
    ASSERT_TRUE(durable.save_snapshot().ok());
    snapshot_seqs.push_back(durable.last_seq());
  }
  storage::Env& env = storage::Env::posix();
  // Newest + one previous generation live; the oldest is gone.
  EXPECT_TRUE(env.file_exists(
      opts.dir + "/" + storage::snapshot_file_name(snapshot_seqs[2])));
  EXPECT_TRUE(env.file_exists(
      opts.dir + "/" + storage::snapshot_file_name(snapshot_seqs[1])));
  EXPECT_FALSE(env.file_exists(
      opts.dir + "/" + storage::snapshot_file_name(snapshot_seqs[0])));
}

TEST(RecoveryTest, TornWalTailIsTruncatedNotFatal) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("torn_tail");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 5; ++id) {
      durable.insert_signature(id, make_signature(id, cfg.bloom_bits));
    }
  }
  // Tear the last frame, as a crash mid-append would.
  const std::string segment = opts.dir + "/" + storage::wal_segment_name(1);
  const auto full = std::filesystem::file_size(segment);
  std::filesystem::resize_file(segment, full - 7);

  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.wal_torn);
  EXPECT_EQ(recovered.value().size(), 4u);
  EXPECT_EQ(recovered.value().last_seq(), 4u);
  EXPECT_TRUE(recovered.value().signature_of(3).has_value());
  EXPECT_FALSE(recovered.value().signature_of(4).has_value());
}

TEST(RecoveryTest, StrayFilesInDirectoryAreIgnored) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("stray");
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(1, make_signature(1, cfg.bloom_bits));
  }
  // A crashed snapshot writer leaves a .tmp; users leave READMEs.
  for (const char* name : {"snapshot-00000000000000000099.fast.tmp",
                           "README.txt", "wal-backup.old"}) {
    std::ofstream out(opts.dir + "/" + name, std::ios::binary);
    out << "junk";
  }
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value().size(), 1u);
}

// ---------------------------------------------------------------------------
// Crash matrix
// ---------------------------------------------------------------------------

// The scripted workload's logged mutations, in order. Keeping the script in
// data form lets the checker re-apply exactly the acknowledged prefix (plus
// at most the one in-flight record) to a reference index.
struct ScriptOp {
  bool is_erase = false;
  std::uint64_t id = 0;
  std::uint64_t sig_seed = 0;  // inserts only
};

std::vector<ScriptOp> crash_script() {
  std::vector<ScriptOp> ops;
  for (std::uint64_t id = 0; id < 10; ++id) ops.push_back({false, id, id});
  // (snapshot happens after op 9; see run_workload)
  for (std::uint64_t id = 10; id < 18; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 3, 0});
  ops.push_back({true, 7, 0});
  ops.push_back({true, 12, 0});
  // (snapshot happens after op 20)
  for (std::uint64_t id = 18; id < 23; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 15, 0});
  ops.push_back({false, 12, 912});  // re-insert an erased id, new signature
  return ops;
}

/// Snapshot points, expressed as "after N logged mutations".
constexpr std::size_t kSnapshotAfter[] = {10, 21};

void apply_script_op(FastIndex& index, const ScriptOp& op) {
  if (op.is_erase) {
    index.erase(op.id);
  } else {
    index.insert_signature(
        op.id, make_signature(op.sig_seed, index.config().bloom_bits));
  }
}

/// Runs the scripted workload against `dir` under `env` until the first
/// failure (the planned crash) or completion. Returns the number of
/// mutations that were ACKNOWLEDGED (returned without an I/O error).
std::size_t run_workload(storage::Env& env, const std::string& dir,
                         const FastConfig& cfg, const vision::PcaModel& pca) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.env = &env;
  auto opened = FastIndex::open_or_recover(cfg, pca, opts);
  if (!opened.ok()) return 0;  // crashed during open: nothing acked
  FastIndex index = std::move(opened).value();

  const std::vector<ScriptOp> script = crash_script();
  std::size_t acked = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    try {
      apply_script_op(index, script[i]);
    } catch (const storage::IoError&) {
      return acked;  // process died mid-mutation
    }
    ++acked;
    for (const std::size_t at : kSnapshotAfter) {
      if (acked == at && !index.save_snapshot().ok()) {
        return acked;  // crash inside the snapshot/rotation path
      }
    }
  }
  return acked;
}

/// Recovers `dir` with a clean env and checks the crash invariants against
/// `acked` acknowledged mutations.
void check_recovery(const std::string& dir, const FastConfig& cfg,
                    const vision::PcaModel& pca, std::size_t acked,
                    const std::string& label) {
  DurabilityOptions opts;
  opts.dir = dir;
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok())
      << label << ": recovery failed: " << recovered.status().to_string();

  const std::vector<ScriptOp> script = crash_script();
  const std::uint64_t got_seq = recovered.value().last_seq();
  // Every acknowledged record must survive; at most the one in-flight
  // mutation (whose bytes may have fully landed before the crash) may
  // additionally appear.
  ASSERT_GE(got_seq, acked) << label << ": acknowledged records lost";
  ASSERT_LE(got_seq, acked + 1) << label << ": phantom records appeared";
  ASSERT_LE(got_seq, script.size()) << label;

  FastIndex reference(cfg, pca);
  for (std::size_t i = 0; i < got_seq; ++i) {
    apply_script_op(reference, script[i]);
  }
  expect_same_state(recovered.value(), reference);
}

class CrashMatrixTest
    : public ::testing::TestWithParam<storage::FaultPlan::Kind> {};

TEST_P(CrashMatrixTest, NoAckedRecordLostAtAnyFailurePoint) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();

  // Dry run: count the workload's mutating I/O ops to size the sweep.
  const std::string dry = fresh_dir("matrix_dry");
  storage::FaultInjectingEnv counter(storage::Env::posix(), {});
  const std::size_t clean_acked =
      run_workload(counter, dry, cfg, pca);
  const std::size_t total_ops = counter.ops_attempted();
  ASSERT_EQ(clean_acked, crash_script().size());
  // The issue's floor: the matrix must cover at least 50 failure points.
  ASSERT_GE(total_ops, 50u);

  const storage::FaultPlan::Kind kind = GetParam();
  for (std::size_t fail_at = 0; fail_at < total_ops; ++fail_at) {
    const std::string label =
        "kind=" + std::to_string(static_cast<int>(kind)) +
        " fail_at=" + std::to_string(fail_at);
    const std::string dir =
        fresh_dir("matrix_" + std::to_string(static_cast<int>(kind)) + "_" +
                  std::to_string(fail_at));
    storage::FaultPlan plan;
    plan.kind = kind;
    plan.fail_at_op = fail_at;
    plan.seed = 0xc0ffee ^ fail_at;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    const std::size_t acked = run_workload(env, dir, cfg, pca);
    EXPECT_TRUE(env.crashed()) << label;
    ASSERT_NO_FATAL_FAILURE(check_recovery(dir, cfg, pca, acked, label));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashMatrixTest,
    ::testing::Values(storage::FaultPlan::Kind::kFail,
                      storage::FaultPlan::Kind::kShortWrite,
                      storage::FaultPlan::Kind::kTornWrite));

// ---------------------------------------------------------------------------
// Fingerprint-compressed backend durability
// ---------------------------------------------------------------------------

// Snapshot + WAL-tail round trip with the compact store section: the
// recovered index must be bit-identical to a reference that applied the
// same mutations in-memory.
TEST(RecoveryTest, CompactBackendRoundTripsSnapshotAndWal) {
  const FastConfig cfg =
      small_config(FastConfig::ChsBackend::kCompactFlatCuckoo);
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("compact_roundtrip");

  FastIndex reference(cfg, pca);
  {
    auto opened = FastIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 24; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable.erase(5));
    ASSERT_TRUE(reference.erase(5));
    ASSERT_TRUE(durable.save_snapshot().ok());
    // WAL tail past the snapshot, including a re-insert of the erased id.
    for (std::uint64_t id : {5ULL, 30ULL, 31ULL}) {
      const auto sig = make_signature(100 + id, cfg.bloom_bits);
      durable.insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
  }
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_GT(stats.replayed_records, 0u);
  expect_same_state(recovered.value(), reference);
}

// A directory written by one cuckoo backend must be rejected by the other
// as a config mismatch — a typed, recoverable error, never parsed as the
// wrong section format (which would surface as corruption).
TEST(RecoveryTest, FlatCompactDirectoryMismatchIsConfigError) {
  const vision::PcaModel pca = test::fake_pca();
  const auto backends = {FastConfig::ChsBackend::kFlatCuckoo,
                         FastConfig::ChsBackend::kCompactFlatCuckoo};
  int dir_no = 0;
  for (const auto writer : backends) {
    for (const auto reader : backends) {
      if (writer == reader) continue;
      const FastConfig wcfg = small_config(writer);
      DurabilityOptions opts;
      opts.dir = fresh_dir("backend_mismatch_" + std::to_string(dir_no++));
      {
        auto opened = FastIndex::open_or_recover(wcfg, pca, opts);
        ASSERT_TRUE(opened.ok());
        FastIndex durable = std::move(opened).value();
        durable.insert_signature(1, make_signature(1, wcfg.bloom_bits));
        ASSERT_TRUE(durable.save_snapshot().ok());
      }
      const FastConfig rcfg = small_config(reader);
      auto recovered = FastIndex::open_or_recover(rcfg, pca, opts);
      ASSERT_FALSE(recovered.ok());
      EXPECT_EQ(recovered.status().code(),
                storage::StatusCode::kConfigMismatch);
    }
  }
}

// Crash-matrix subset with the compact backend: torn writes are the
// nastiest plan (partial bytes of a record land), and the compact store
// section must recover every acknowledged mutation exactly like flat does.
// A strided subset keeps the sweep cheap; the full matrix runs on flat.
TEST(CrashMatrixCompact, TornWriteSubsetRecoversExactly) {
  const FastConfig cfg =
      small_config(FastConfig::ChsBackend::kCompactFlatCuckoo);
  const vision::PcaModel pca = test::fake_pca();

  const std::string dry = fresh_dir("compact_matrix_dry");
  storage::FaultInjectingEnv counter(storage::Env::posix(), {});
  const std::size_t clean_acked = run_workload(counter, dry, cfg, pca);
  const std::size_t total_ops = counter.ops_attempted();
  ASSERT_EQ(clean_acked, crash_script().size());

  for (std::size_t fail_at = 0; fail_at < total_ops; fail_at += 4) {
    const std::string label = "compact torn fail_at=" + std::to_string(fail_at);
    const std::string dir =
        fresh_dir("compact_matrix_" + std::to_string(fail_at));
    storage::FaultPlan plan;
    plan.kind = storage::FaultPlan::Kind::kTornWrite;
    plan.fail_at_op = fail_at;
    plan.seed = 0xc0ffee ^ fail_at;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    const std::size_t acked = run_workload(env, dir, cfg, pca);
    EXPECT_TRUE(env.crashed()) << label;
    ASSERT_NO_FATAL_FAILURE(check_recovery(dir, cfg, pca, acked, label));
  }
}

// ---------------------------------------------------------------------------
// Tiered recovery (memtable lanes + sealed segments + tombstones)
// ---------------------------------------------------------------------------

/// Tiny tier thresholds so the crash scripts cross seal and compaction
/// boundaries; background off keeps replay-time merges deterministic.
FastConfig tiered_config() {
  FastConfig cfg = small_config();
  cfg.tier.enabled = true;
  cfg.tier.seal_threshold = 4;
  cfg.tier.lanes = 2;
  cfg.tier.compact_fanin = 2;
  cfg.tier.compact_trigger = 2;
  cfg.tier.background = false;
  return cfg;
}

/// Layout-independent state equality for tiered indexes: recovery may land
/// ids in different segments than the pre-crash process (replay re-seals,
/// compaction re-runs), so we compare the LIVE SET and query behavior, not
/// the physical layout.
void expect_same_tier_state(const TieredIndex& got, const TieredIndex& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::uint64_t id = 0; id < 64; ++id) {
    const auto a = got.signature_of(id);
    const auto b = want.signature_of(id);
    ASSERT_EQ(a.has_value(), b.has_value()) << "id " << id;
    if (a.has_value()) {
      EXPECT_EQ(a->set_bits(), b->set_bits()) << "id " << id;
    }
  }
  for (std::uint64_t q = 0; q < 5; ++q) {
    const auto sig = make_signature(1000 + q, want.config().bloom_bits);
    const QueryResult ra = got.query_signature(sig, 10);
    const QueryResult rb = want.query_signature(sig, 10);
    ASSERT_EQ(ra.hits.size(), rb.hits.size()) << "query " << q;
    for (std::size_t i = 0; i < ra.hits.size(); ++i) {
      EXPECT_EQ(ra.hits[i].id, rb.hits[i].id) << "query " << q << " hit " << i;
      EXPECT_EQ(ra.hits[i].score, rb.hits[i].score)
          << "query " << q << " hit " << i;
    }
  }
}

void apply_tiered_op(TieredIndex& index, const ScriptOp& op) {
  if (op.is_erase) {
    index.erase(op.id);
  } else {
    index.insert_signature(
        op.id, make_signature(op.sig_seed, index.config().bloom_bits));
  }
}

/// Interleaved insert/erase churn sized to cross several seal thresholds
/// (4 mentions per lane): erases of sealed ids become tombstones, a sealed
/// tombstone later compacts away, and an erased id is re-inserted. Every
/// erase targets a live id so each op is logged (op index == WAL seq).
std::vector<ScriptOp> tiered_crash_script() {
  std::vector<ScriptOp> ops;
  for (std::uint64_t id = 0; id < 12; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 1, 0});   // likely sealed by now -> tombstone
  ops.push_back({true, 6, 0});
  // (snapshot happens after op 14; see run_tiered_workload)
  for (std::uint64_t id = 12; id < 18; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 14, 0});  // memtable-resident erase
  ops.push_back({true, 3, 0});
  ops.push_back({false, 6, 906});   // re-insert over a tombstone
  // (snapshot happens after op 23)
  for (std::uint64_t id = 18; id < 24; ++id) ops.push_back({false, id, id});
  ops.push_back({true, 0, 0});
  ops.push_back({false, 1, 901});   // resurrect the first erase, new content
  return ops;
}

constexpr std::size_t kTieredSnapshotAfter[] = {14, 23};

std::size_t run_tiered_workload(storage::Env& env, const std::string& dir,
                                const FastConfig& cfg,
                                const vision::PcaModel& pca) {
  DurabilityOptions opts;
  opts.dir = dir;
  opts.env = &env;
  auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
  if (!opened.ok()) return 0;
  std::unique_ptr<TieredIndex> index = std::move(opened).value();

  const std::vector<ScriptOp> script = tiered_crash_script();
  std::size_t acked = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    try {
      apply_tiered_op(*index, script[i]);
    } catch (const storage::IoError&) {
      return acked;
    }
    ++acked;
    for (const std::size_t at : kTieredSnapshotAfter) {
      if (acked == at && !index->save_snapshot().ok()) {
        return acked;
      }
    }
  }
  return acked;
}

void check_tiered_recovery(const std::string& dir, const FastConfig& cfg,
                           const vision::PcaModel& pca, std::size_t acked,
                           const std::string& label) {
  DurabilityOptions opts;
  opts.dir = dir;
  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok())
      << label << ": recovery failed: " << recovered.status().to_string();

  const std::vector<ScriptOp> script = tiered_crash_script();
  const std::uint64_t got_seq = recovered.value()->last_seq();
  ASSERT_GE(got_seq, acked) << label << ": acknowledged records lost";
  ASSERT_LE(got_seq, acked + 1) << label << ": phantom records appeared";
  ASSERT_LE(got_seq, script.size()) << label;

  TieredIndex reference(cfg, pca);
  for (std::size_t i = 0; i < got_seq; ++i) {
    apply_tiered_op(reference, script[i]);
  }
  expect_same_tier_state(*recovered.value(), reference);
}

TEST(TieredRecoveryTest, WalReplayRestoresTierExactly) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_wal_replay");

  TieredIndex reference(cfg, pca);
  {
    auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    auto durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 20; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable->insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    EXPECT_TRUE(durable->erase(2));
    EXPECT_TRUE(reference.erase(2));
    EXPECT_TRUE(durable->erase(17));
    EXPECT_TRUE(reference.erase(17));
    EXPECT_FALSE(durable->erase(99));  // unknown: not logged
    EXPECT_EQ(durable->last_seq(), 22u);
    EXPECT_GE(durable->segment_count(), 1u);
  }

  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 22u);
  EXPECT_EQ(recovered.value()->last_seq(), 22u);
  // Replay re-fires the same seals, so even the layout matches a fresh run.
  EXPECT_EQ(recovered.value()->segment_count(), reference.segment_count());
  expect_same_tier_state(*recovered.value(), reference);
}

TEST(TieredRecoveryTest, SnapshotRoundTripPreservesSegmentsAndTombstones) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_snapshot");

  TieredIndex reference(cfg, pca);
  std::size_t segments_before = 0;
  std::size_t tombstones_before = 0;
  {
    auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    auto durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 16; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable->insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    EXPECT_TRUE(durable->erase(1));
    EXPECT_TRUE(reference.erase(1));
    segments_before = durable->segment_count();
    tombstones_before = durable->tombstone_count();
    ASSERT_GE(segments_before, 1u);
    ASSERT_TRUE(durable->save_snapshot().ok());
  }

  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 0u);
  // The manifest restores the exact tier layout, not just the live set.
  EXPECT_EQ(recovered.value()->segment_count(), segments_before);
  EXPECT_EQ(recovered.value()->tombstone_count(), tombstones_before);
  expect_same_tier_state(*recovered.value(), reference);

  // And the restored tier keeps working: mutations and seals continue.
  recovered.value()->insert_signature(40, make_signature(40, cfg.bloom_bits));
  EXPECT_TRUE(recovered.value()->signature_of(40).has_value());
}

TEST(TieredRecoveryTest, SnapshotPlusChurnTailReplay) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_snap_tail");

  TieredIndex reference(cfg, pca);
  {
    auto opened = TieredIndex::open_or_recover(cfg, pca, opts);
    ASSERT_TRUE(opened.ok());
    auto durable = std::move(opened).value();
    for (std::uint64_t id = 0; id < 10; ++id) {
      const auto sig = make_signature(id, cfg.bloom_bits);
      durable->insert_signature(id, sig);
      reference.insert_signature(id, sig);
    }
    ASSERT_TRUE(durable->save_snapshot().ok());
    // Churn tail: erase sealed ids, re-insert one with new content.
    EXPECT_TRUE(durable->erase(4));
    EXPECT_TRUE(reference.erase(4));
    EXPECT_TRUE(durable->erase(7));
    EXPECT_TRUE(reference.erase(7));
    const auto fresh = make_signature(704, cfg.bloom_bits);
    durable->insert_signature(7, fresh);
    reference.insert_signature(7, fresh);
  }

  RecoveryStats stats;
  auto recovered = TieredIndex::open_or_recover(cfg, pca, opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 10u);
  EXPECT_EQ(stats.replayed_records, 3u);
  EXPECT_FALSE(recovered.value()->signature_of(4).has_value());
  ASSERT_TRUE(recovered.value()->signature_of(7).has_value());
  expect_same_tier_state(*recovered.value(), reference);
}

/// A tiered memtable or segment section rewritten in the layout before
/// memtables and segments moved onto the signature slab: every signature
/// entry is followed by its per-table home keys, under the retired id.
storage::SnapshotSection to_keyed_layout(
    const storage::SnapshotSection& section,
    const pipeline::SemanticAggregator& aggregator) {
  util::ByteReader in{std::span(section.payload)};
  util::ByteWriter out;
  out.u64(in.u64());  // lane
  const bool segment = section.id == storage::kSectionTierSegment;
  if (segment) {
    out.u64(in.u64());  // segment id
    const std::uint8_t has_bloom = in.u8();
    out.u8(has_bloom);
    if (has_bloom != 0) {
      for (int i = 0; i < 4; ++i) out.u64(in.u64());  // geometry, count
      const std::uint64_t words = in.u64();
      out.u64(words);
      out.bytes(in.bytes(words * 8));
    }
  }
  const std::uint64_t count = in.u64();
  out.u64(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.u64(in.u64());
    const auto encoded = in.blob();
    out.blob(encoded);
    const auto sig = hash::SparseSignature::decode(encoded);
    for (const std::uint64_t key : aggregator.keys(sig, nullptr)) out.u64(key);
  }
  // Tombstones, groups and store kept the same encoding.
  out.bytes(in.bytes(in.remaining()));
  EXPECT_TRUE(in.ok());
  return {segment ? storage::kSectionTierSegmentKeyed
                  : storage::kSectionTierMemtableKeyed,
          out.take()};
}

// A tiered image of the layout before memtables and segments moved onto
// the signature slab carries the retired memtable/segment section ids. A
// reader must never decode it as the current layout: recovery either falls
// back past it and replays the WAL to every acked record, or fails with a
// Status error. It never opens with acked records missing. With one such
// image, the retained generation behind it and the WAL cover every record;
// with two, the WAL no longer reaches back to an image recovery can use.
TEST(TieredRecoveryTest, RetiredSectionIdsNeverOpenWithRecordsMissing) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();
  storage::Env& env = storage::Env::posix();
  for (const std::size_t retired_images : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(retired_images) + " retired image(s)");
    DurabilityOptions opts;
    opts.dir = fresh_dir("tier_retired_ids_" + std::to_string(retired_images));
    TieredIndex reference(cfg, pca);
    std::vector<std::uint64_t> snapshot_seqs;
    {
      auto opened = open_backend(cfg, pca, opts);
      ASSERT_TRUE(opened.ok());
      const std::unique_ptr<Backend> durable = std::move(opened).value();
      for (std::uint64_t id = 0; id < 30; ++id) {
        const auto sig = make_signature(id, cfg.bloom_bits);
        durable->insert_signature(id, sig);
        reference.insert_signature(id, sig);
        if (id % 3 == 2) {
          EXPECT_TRUE(durable->erase(id - 2));
          EXPECT_TRUE(reference.erase(id - 2));
        }
        if (id % 9 == 8) {
          ASSERT_TRUE(durable->save_snapshot().ok());
          snapshot_seqs.push_back(durable->last_seq());
        }
      }
    }
    ASSERT_EQ(snapshot_seqs.size(), 3u);

    // The newest images, their memtables and segments in the retired
    // layout.
    const auto aggregator = pipeline::make_aggregator(cfg);
    for (std::size_t i = 0; i < retired_images; ++i) {
      const std::uint64_t seq = snapshot_seqs[snapshot_seqs.size() - 1 - i];
      auto snapshot = storage::read_snapshot(
          env, opts.dir + "/" + storage::snapshot_file_name(seq));
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().to_string();
      storage::SnapshotFile retired = std::move(snapshot).value();
      std::size_t rewritten = 0;
      for (auto& section : retired.sections) {
        if (section.id == storage::kSectionTierMemtable ||
            section.id == storage::kSectionTierSegment) {
          section = to_keyed_layout(section, *aggregator);
          ++rewritten;
        }
      }
      ASSERT_GE(rewritten, cfg.tier.lanes);
      ASSERT_TRUE(storage::write_snapshot(env, opts.dir, retired).ok());
    }

    RecoveryStats stats;
    auto recovered = open_backend(cfg, pca, opts, &stats);
    if (!recovered.ok()) {
      EXPECT_EQ(retired_images, 2u) << recovered.status().to_string();
      continue;
    }
    EXPECT_GE(stats.snapshots_skipped, retired_images);
    const auto* tiered =
        dynamic_cast<const TieredIndex*>(recovered.value().get());
    ASSERT_NE(tiered, nullptr);
    expect_same_tier_state(*tiered, reference);
  }
}

TEST(TieredRecoveryTest, FlatDirectoryRejectedByTieredConfig) {
  const vision::PcaModel pca = test::fake_pca();
  DurabilityOptions opts;
  opts.dir = fresh_dir("tier_mismatch");
  {
    auto opened = FastIndex::open_or_recover(small_config(), pca, opts);
    ASSERT_TRUE(opened.ok());
    FastIndex durable = std::move(opened).value();
    durable.insert_signature(1, make_signature(1, durable.config().bloom_bits));
    ASSERT_TRUE(durable.save_snapshot().ok());
  }
  // tier.enabled feeds the config fingerprint: a flat directory must not
  // be silently reinterpreted as a tiered one.
  auto recovered = TieredIndex::open_or_recover(tiered_config(), pca, opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), storage::StatusCode::kConfigMismatch);
}

class TieredCrashMatrixTest
    : public ::testing::TestWithParam<storage::FaultPlan::Kind> {};

TEST_P(TieredCrashMatrixTest, ChurnSurvivesAnyFailurePoint) {
  const FastConfig cfg = tiered_config();
  const vision::PcaModel pca = test::fake_pca();

  const std::string dry = fresh_dir("tier_matrix_dry");
  storage::FaultInjectingEnv counter(storage::Env::posix(), {});
  const std::size_t clean_acked = run_tiered_workload(counter, dry, cfg, pca);
  const std::size_t total_ops = counter.ops_attempted();
  ASSERT_EQ(clean_acked, tiered_crash_script().size());
  ASSERT_GE(total_ops, 50u);

  const storage::FaultPlan::Kind kind = GetParam();
  for (std::size_t fail_at = 0; fail_at < total_ops; ++fail_at) {
    const std::string label =
        "tiered kind=" + std::to_string(static_cast<int>(kind)) +
        " fail_at=" + std::to_string(fail_at);
    const std::string dir =
        fresh_dir("tier_matrix_" + std::to_string(static_cast<int>(kind)) +
                  "_" + std::to_string(fail_at));
    storage::FaultPlan plan;
    plan.kind = kind;
    plan.fail_at_op = fail_at;
    plan.seed = 0xbeef ^ fail_at;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    const std::size_t acked = run_tiered_workload(env, dir, cfg, pca);
    EXPECT_TRUE(env.crashed()) << label;
    ASSERT_NO_FATAL_FAILURE(
        check_tiered_recovery(dir, cfg, pca, acked, label));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TieredCrashMatrixTest,
    ::testing::Values(storage::FaultPlan::Kind::kFail,
                      storage::FaultPlan::Kind::kShortWrite,
                      storage::FaultPlan::Kind::kTornWrite));

// ---------------------------------------------------------------------------
// Both flavors over the one DurableLog
// ---------------------------------------------------------------------------

enum class Flavor { kFlat, kTiered };

/// Names the flavor in test listings instead of its raw bytes.
void PrintTo(Flavor flavor, std::ostream* os) {
  *os << (flavor == Flavor::kTiered ? "tiered" : "flat");
}

/// Runs each case once per index flavor. The engine facade opens either
/// flavor from the config, so one test body covers both.
class RecoveryFlavorTest : public ::testing::TestWithParam<Flavor> {
 protected:
  FastConfig config() const {
    return GetParam() == Flavor::kTiered ? tiered_config() : small_config();
  }

  std::unique_ptr<QueryEngine> open(const DurabilityOptions& opts) const {
    auto opened = QueryEngine::open(config(), test::fake_pca(), opts,
                                    nullptr, /*threads=*/1);
    EXPECT_TRUE(opened.ok()) << opened.status().to_string();
    return opened.ok() ? std::move(opened).value() : nullptr;
  }

  static bool holds(const QueryEngine& engine, std::uint64_t id) {
    return engine.backend().signature_of(id).has_value();
  }

  /// Inserts id 1, then id 2 under a transient fault at the
  /// `fault_offset`-th I/O op of its log write (0 = append, 1 = fsync),
  /// runs `after_fault`, and tries id 3. Then reopens the directory and
  /// expects every insert that returned to be there.
  void expect_acked_writes_survive(
      std::size_t fault_offset, std::uint64_t seed,
      const std::function<void(QueryEngine&)>& after_fault) const {
    const std::size_t bits = config().bloom_bits;
    const std::string label = "seed " + std::to_string(seed);
    // Dry run: id 2's first I/O op index is the op count after id 1.
    std::size_t id2_first_op = 0;
    {
      storage::FaultInjectingEnv counter(storage::Env::posix(), {});
      DurabilityOptions opts;
      opts.dir = fresh_dir("fence_dry");
      opts.env = &counter;
      auto engine = open(opts);
      ASSERT_NE(engine, nullptr);
      engine->insert_signature(1, make_signature(1, bits));
      id2_first_op = counter.ops_attempted();
    }
    storage::FaultPlan plan;
    plan.kind = storage::FaultPlan::Kind::kTransientShortWrite;
    plan.fail_at_op = id2_first_op + fault_offset;
    plan.seed = seed;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    DurabilityOptions opts;
    opts.dir = fresh_dir("fence_" + std::to_string(fault_offset) + "_" +
                         std::to_string(seed));
    opts.env = &env;
    std::vector<std::uint64_t> acked;
    {
      auto engine = open(opts);
      ASSERT_NE(engine, nullptr) << label;
      engine->insert_signature(1, make_signature(1, bits));
      acked.push_back(1);
      EXPECT_THROW(engine->insert_signature(2, make_signature(2, bits)),
                   storage::IoError)
          << label;
      EXPECT_FALSE(env.crashed()) << label;
      after_fault(*engine);
      try {
        engine->insert_signature(3, make_signature(3, bits));
        acked.push_back(3);
      } catch (const storage::IoError&) {
      }
    }
    opts.env = nullptr;
    auto reopened = open(opts);
    ASSERT_NE(reopened, nullptr) << label;
    for (const std::uint64_t id : acked) {
      EXPECT_TRUE(holds(*reopened, id)) << label << ": acked id " << id;
    }
  }
};

std::string flavor_name(const ::testing::TestParamInfo<Flavor>& info) {
  return info.param == Flavor::kTiered ? "Tiered" : "Flat";
}

/// The wal.*, snapshot.* and recovery.* names an index exports.
std::vector<std::string> durability_instruments(
    const util::MetricsSnapshot& snap) {
  std::vector<std::string> names;
  const auto collect = [&](const auto& instruments) {
    for (const auto& [name, value] : instruments) {
      if (name.rfind("wal.", 0) == 0 || name.rfind("snapshot.", 0) == 0 ||
          name.rfind("recovery.", 0) == 0) {
        names.push_back(name);
      }
    }
  };
  collect(snap.counters);
  collect(snap.gauges);
  collect(snap.histograms);
  std::sort(names.begin(), names.end());
  return names;
}

TEST_P(RecoveryFlavorTest, InMemoryIndexExportsDurabilityInstruments) {
  const FastConfig cfg = config();
  const vision::PcaModel pca = test::fake_pca();
  const std::vector<std::string> want = {
      "recovery.replayed_records", "recovery.snapshots_skipped",
      "snapshot.bytes",            "snapshot.write_s",
      "wal.appends",               "wal.bytes",
      "wal.syncs"};
  if (GetParam() == Flavor::kTiered) {
    TieredIndex index(cfg, pca);
    EXPECT_FALSE(index.durable());
    EXPECT_EQ(durability_instruments(index.metrics().snapshot()), want);
  } else {
    FastIndex index(cfg, pca);
    EXPECT_FALSE(index.durable());
    EXPECT_EQ(durability_instruments(index.metrics().snapshot()), want);
  }
}

TEST_P(RecoveryFlavorTest, WalMetricsAccumulate) {
  DurabilityOptions opts;
  opts.dir = fresh_dir("metrics");
  auto engine = open(opts);
  ASSERT_NE(engine, nullptr);
  for (std::uint64_t id = 0; id < 3; ++id) {
    engine->insert_signature(id, make_signature(id, config().bloom_bits));
  }
  const auto snap = engine->metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wal.appends"), 3u);
  EXPECT_EQ(snap.counters.at("wal.syncs"), 3u);  // wal_sync_every = 1
  EXPECT_GT(snap.counters.at("wal.bytes"), 0u);
}

TEST_P(RecoveryFlavorTest, GroupSyncedWalAcksInBatches) {
  DurabilityOptions opts;
  opts.dir = fresh_dir("group_sync");
  opts.wal_sync_every = 4;
  auto engine = open(opts);
  ASSERT_NE(engine, nullptr);
  for (std::uint64_t id = 0; id < 8; ++id) {
    engine->insert_signature(id, make_signature(id, config().bloom_bits));
  }
  const auto snap = engine->metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wal.appends"), 8u);
  EXPECT_EQ(snap.counters.at("wal.syncs"), 2u);
}

/// A live (non-crash) short write: id 2's append lands only a prefix of its
/// frame and fails. Without fencing, id 3 would be logged behind that
/// partial frame under id 2's sequence number, and recovery would cut it
/// off as a torn tail. The seeds vary how much of id 2's frame lands.
TEST_P(RecoveryFlavorTest, TransientShortWriteFencesTheLog) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    expect_acked_writes_survive(/*fault_offset=*/0, seed,
                                [](QueryEngine& engine) {
                                  EXPECT_FALSE(engine.sync_wal().ok());
                                });
  }
}

/// Id 2's record reaches the segment but its fsync fails. A checkpoint now
/// would rotate to a segment starting at id 2's sequence number, so
/// recovery would replay the unapplied id 2 and skip id 3 behind it: the
/// checkpoint must be refused.
TEST_P(RecoveryFlavorTest, FailedSyncRefusesCheckpoint) {
  expect_acked_writes_survive(/*fault_offset=*/1, /*seed=*/1,
                              [](QueryEngine& engine) {
                                EXPECT_FALSE(engine.save_snapshot().ok());
                              });
}

INSTANTIATE_TEST_SUITE_P(Flavors, RecoveryFlavorTest,
                         ::testing::Values(Flavor::kFlat, Flavor::kTiered),
                         flavor_name);

// ---------------------------------------------------------------------------
// Golden v1 fixture
// ---------------------------------------------------------------------------

/// Copies the checked-in fixture to a scratch directory (recovery rotates
/// the WAL, which must never dirty the repository copy).
std::string golden_copy(const std::string& name) {
  const std::string src = std::string(FAST_TEST_DATA_DIR) + "/golden_v1";
  const std::string dst = fresh_dir("golden_" + name);
  std::filesystem::copy(src, dst,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  return dst;
}

TEST(RecoveryGoldenTest, V1FixtureRecoversExactly) {
  DurabilityOptions opts;
  opts.dir = golden_copy("exact");
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(test::golden_config(),
                                              test::fake_pca(), opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_TRUE(stats.loaded_snapshot);
  EXPECT_EQ(stats.snapshot_seq, 13u);
  EXPECT_EQ(stats.replayed_records, 3u);
  EXPECT_EQ(stats.snapshots_skipped, 0u);
  EXPECT_EQ(recovered.value().last_seq(), 16u);

  // The fixture bytes must decode to the same state today's code produces
  // for the same workload — any format drift breaks one side or the other.
  FastIndex reference(test::golden_config(), test::fake_pca());
  for (std::uint64_t id = 0; id < 12; ++id) {
    reference.insert_signature(
        id, test::golden_signature(id, reference.config().bloom_bits));
  }
  reference.erase(2);
  reference.insert_signature(
      12, test::golden_signature(12, reference.config().bloom_bits));
  reference.insert_signature(
      13, test::golden_signature(13, reference.config().bloom_bits));
  reference.erase(5);
  expect_same_state(recovered.value(), reference);

  for (const std::uint64_t id : test::golden_present_ids()) {
    EXPECT_TRUE(recovered.value().signature_of(id).has_value())
        << "id " << id;
  }
  EXPECT_FALSE(recovered.value().signature_of(2).has_value());
  EXPECT_FALSE(recovered.value().signature_of(5).has_value());
}

TEST(RecoveryGoldenTest, CorruptedFixtureSnapshotFallsBackToFullReplay) {
  DurabilityOptions opts;
  opts.dir = golden_copy("corrupt");
  // Bit-rot the snapshot. The fixture retains the full WAL history (the
  // first snapshot deletes no segments), so recovery degrades to an empty
  // base plus a complete replay — same final state, one skipped snapshot.
  const std::string snapshot =
      opts.dir + "/" + storage::snapshot_file_name(13);
  ASSERT_TRUE(std::filesystem::exists(snapshot));
  {
    std::fstream f(snapshot, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(50);
    const char x = 0x2a;
    f.write(&x, 1);
  }
  RecoveryStats stats;
  auto recovered = FastIndex::open_or_recover(test::golden_config(),
                                              test::fake_pca(), opts, &stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  EXPECT_EQ(stats.snapshots_skipped, 1u);
  EXPECT_FALSE(stats.loaded_snapshot);
  EXPECT_EQ(stats.replayed_records, 16u);
  EXPECT_EQ(recovered.value().last_seq(), 16u);
  for (const std::uint64_t id : test::golden_present_ids()) {
    EXPECT_TRUE(recovered.value().signature_of(id).has_value())
        << "id " << id;
  }
  EXPECT_EQ(recovered.value().size(), test::golden_present_ids().size());
}

TEST(RecoveryGoldenTest, FixtureRejectsMismatchedGeometry) {
  DurabilityOptions opts;
  opts.dir = golden_copy("geometry");
  FastConfig other = test::golden_config();
  other.cuckoo.seed ^= 0x1;
  auto recovered =
      FastIndex::open_or_recover(other, test::fake_pca(), opts);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), storage::StatusCode::kConfigMismatch);
}

/// The writer side of the fixture: today's code, run on the fixture's
/// workload in an empty directory, must write the checked-in bytes exactly.
TEST(RecoveryGoldenTest, WriterReproducesFixtureBytes) {
  DurabilityOptions opts;
  opts.dir = fresh_dir("golden_writer");
  {
    auto opened = FastIndex::open_or_recover(test::golden_config(),
                                             test::fake_pca(), opts);
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    FastIndex index = std::move(opened).value();
    test::apply_golden_workload(index);
  }
  const std::string fixture = std::string(FAST_TEST_DATA_DIR) + "/golden_v1";
  std::vector<std::string> want_names;
  for (const auto& entry : std::filesystem::directory_iterator(fixture)) {
    want_names.push_back(entry.path().filename().string());
  }
  std::vector<std::string> got_names;
  for (const auto& entry : std::filesystem::directory_iterator(opts.dir)) {
    got_names.push_back(entry.path().filename().string());
  }
  std::sort(want_names.begin(), want_names.end());
  std::sort(got_names.begin(), got_names.end());
  ASSERT_EQ(want_names.size(), 3u);
  ASSERT_EQ(got_names, want_names);
  for (const std::string& name : want_names) {
    auto want = storage::read_file(storage::Env::posix(), fixture + "/" + name);
    auto got = storage::read_file(storage::Env::posix(), opts.dir + "/" + name);
    ASSERT_TRUE(want.ok() && got.ok()) << name;
    EXPECT_EQ(got.value(), want.value()) << name;
  }
}

/// A second crash during RECOVERY itself (before the new WAL header lands)
/// must leave the directory recoverable: recovery is read-only until the
/// rotation point, so it is idempotent.
TEST(CrashMatrixTest_RecoveryCrash, CrashDuringRecoveryIsIdempotent) {
  const FastConfig cfg = small_config();
  const vision::PcaModel pca = test::fake_pca();
  const std::string dir = fresh_dir("recovery_crash");

  // Build a directory with a snapshot and a WAL tail.
  std::size_t acked = 0;
  {
    storage::FaultInjectingEnv env(storage::Env::posix(), {});
    acked = run_workload(env, dir, cfg, pca);
  }
  ASSERT_EQ(acked, crash_script().size());

  // Crash the reopen at each of its first ops (the new segment header
  // append/sync), then verify a clean recovery still succeeds.
  for (std::size_t fail_at = 0; fail_at < 2; ++fail_at) {
    storage::FaultPlan plan;
    plan.kind = storage::FaultPlan::Kind::kTornWrite;
    plan.fail_at_op = fail_at;
    plan.seed = 42 + fail_at;
    storage::FaultInjectingEnv env(storage::Env::posix(), plan);
    DurabilityOptions opts;
    opts.dir = dir;
    opts.env = &env;
    auto attempt = FastIndex::open_or_recover(cfg, pca, opts);
    EXPECT_FALSE(attempt.ok()) << "fail_at=" << fail_at;
    ASSERT_NO_FATAL_FAILURE(
        check_recovery(dir, cfg, pca, acked,
                       "post-recovery-crash fail_at=" +
                           std::to_string(fail_at)));
  }
}

}  // namespace
}  // namespace fast::core
