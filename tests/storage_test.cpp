#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/durable_log.hpp"
#include "storage/io.hpp"
#include "storage/page_cache.hpp"
#include "storage/shard.hpp"
#include "storage/snapshot.hpp"
#include "storage/sql_like_store.hpp"
#include "storage/wal.hpp"
#include "util/codec.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"

namespace fast::storage {
namespace {

/// Fresh empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fast_storage_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// Flips one byte of a file in place (corruption injection for readers).
void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0xff);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

/// Truncates a file to `keep` bytes (torn-tail injection).
void truncate_file(const std::string& path, std::size_t keep) {
  std::filesystem::resize_file(path, keep);
}

SnapshotFile sample_snapshot() {
  SnapshotFile snap;
  snap.config_fingerprint = 0xdeadbeefULL;
  snap.last_seq = 17;
  snap.sections.push_back({kSectionParams, bytes_of({1})});
  snap.sections.push_back({kSectionSignatures, bytes_of({2, 3, 4})});
  snap.sections.push_back({kSectionGroups, {}});
  snap.sections.push_back({kSectionStore, bytes_of({5, 6})});
  return snap;
}

// ---------- PageCache ----------

TEST(PageCache, MissThenHit) {
  PageCache cache(4);
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.access(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCache, EvictsLeastRecentlyUsed) {
  PageCache cache(2);
  cache.access(1);
  cache.access(2);
  cache.access(1);  // 1 most recent
  cache.access(3);  // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
}

TEST(PageCache, ZeroCapacityAlwaysMisses) {
  PageCache cache(0);
  EXPECT_FALSE(cache.access(1));
  EXPECT_FALSE(cache.access(1));
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PageCache, SizeBoundedByCapacity) {
  PageCache cache(3);
  for (std::uint64_t p = 0; p < 100; ++p) cache.access(p);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PageCache, ClearEmpties) {
  PageCache cache(4);
  cache.access(1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.access(1));
}

// Regression: clear() used to evict the pages but keep hits_/misses_, so
// hit-rate measurements leaked across bench runs sharing a cache.
TEST(PageCache, ClearResetsHitMissCounters) {
  PageCache cache(4);
  cache.access(1);  // miss
  cache.access(1);  // hit
  ASSERT_EQ(cache.hits(), 1u);
  ASSERT_EQ(cache.misses(), 1u);
  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // The next access starts a fresh measurement.
  cache.access(1);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCache, ResetStatsKeepsResidentPages) {
  PageCache cache(4);
  cache.access(1);
  cache.access(2);
  cache.access(1);
  ASSERT_EQ(cache.hits(), 1u);
  ASSERT_EQ(cache.misses(), 2u);
  cache.reset_stats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 2u);
  // Pages stayed resident: these are hits, not refaults.
  EXPECT_TRUE(cache.access(1));
  EXPECT_TRUE(cache.access(2));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 0u);
}

// ---------- SqlLikeStore ----------

TEST(SqlStore, PutChargesWrite) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 16);
  sim::SimClock clock;
  store.put(1, 100000, clock);
  EXPECT_GT(clock.elapsed_s(), cost.disk_seek_s);
  EXPECT_EQ(clock.disk_writes(), 1u);
  EXPECT_EQ(store.record_count(), 1u);
  EXPECT_EQ(store.total_bytes(), 100000u);
}

TEST(SqlStore, ReadMissingReturnsNullopt) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 16);
  sim::SimClock clock;
  EXPECT_FALSE(store.read(99, clock).has_value());
  EXPECT_EQ(clock.elapsed_s(), 0.0);
}

TEST(SqlStore, ColdReadChargesDiskWarmReadDoesNot) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 1024);
  sim::SimClock w;
  store.put(1, 8192, w);

  sim::SimClock cold;
  EXPECT_EQ(store.read(1, cold).value(), 8192u);
  EXPECT_GE(cold.disk_reads(), 1u);
  EXPECT_GT(cold.elapsed_s(), cost.disk_seek_s);

  sim::SimClock warm;
  store.read(1, warm);
  EXPECT_EQ(warm.disk_reads(), 0u);
  EXPECT_LT(warm.elapsed_s(), cold.elapsed_s());
}

TEST(SqlStore, CacheThrashingKeepsCostHigh) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 2);  // tiny cache
  sim::SimClock w;
  for (std::uint64_t i = 0; i < 20; ++i) store.put(i, 8192, w);
  // Scanning all records twice: second pass still misses (thrash).
  sim::SimClock pass1, pass2;
  for (std::uint64_t i = 0; i < 20; ++i) store.read(i, pass1);
  for (std::uint64_t i = 0; i < 20; ++i) store.read(i, pass2);
  EXPECT_GE(pass2.disk_reads(), pass1.disk_reads() / 2);
}

TEST(SqlStore, PageCountReflectsBytes) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 4);
  sim::SimClock clock;
  store.put(1, cost.disk_page_bytes * 3 + 1, clock);
  EXPECT_EQ(store.page_count(), 4u);
}

TEST(SqlStore, ContainsWorks) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 4);
  sim::SimClock clock;
  store.put(5, 10, clock);
  EXPECT_TRUE(store.contains(5));
  EXPECT_FALSE(store.contains(6));
}

TEST(SqlStore, FlushChargesOneSeekBarrier) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 16);
  sim::SimClock clock;
  store.put(1, 1000, clock);
  const double before = clock.elapsed_s();
  store.flush(clock);
  EXPECT_DOUBLE_EQ(clock.elapsed_s(), before + cost.disk_seek_s);
  // Nothing pending: flush is free.
  store.flush(clock);
  EXPECT_DOUBLE_EQ(clock.elapsed_s(), before + cost.disk_seek_s);
}

TEST(SqlStore, CloseFlushesAndIsIdempotent) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 16);
  sim::SimClock clock;
  store.put(1, 1000, clock);
  const double before = clock.elapsed_s();
  EXPECT_FALSE(store.closed());
  store.close(clock);
  EXPECT_TRUE(store.closed());
  EXPECT_DOUBLE_EQ(clock.elapsed_s(), before + cost.disk_seek_s);
  store.close(clock);  // no double charge
  EXPECT_DOUBLE_EQ(clock.elapsed_s(), before + cost.disk_seek_s);
  // Metadata queries stay valid on a closed store.
  EXPECT_TRUE(store.contains(1));
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(SqlStoreDeathTest, PutAfterCloseAborts) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 16);
  sim::SimClock clock;
  store.close(clock);
  EXPECT_DEATH(store.put(1, 10, clock), "closed store");
}

TEST(SqlStoreDeathTest, ReadAfterCloseAborts) {
  sim::CostModel cost;
  SqlLikeStore store(cost, 16);
  sim::SimClock clock;
  store.put(1, 10, clock);
  store.close(clock);
  EXPECT_DEATH(store.read(1, clock), "closed store");
}

// ---------- Status / Env ----------

TEST(IoStatus, DefaultIsOkAndToStringFormats) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.to_string(), "ok");
  Status bad = Status::error(StatusCode::kCorrupt, "bad crc");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kCorrupt);
  EXPECT_NE(bad.to_string().find("bad crc"), std::string::npos);
}

TEST(PosixEnv, WriteSyncReadRoundTrip) {
  const std::string dir = fresh_dir("posix_rt");
  Env& env = Env::posix();
  auto file = env.new_writable(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  const auto data = bytes_of({1, 2, 3, 4, 5});
  ASSERT_TRUE(file.value()->append(data).ok());
  ASSERT_TRUE(file.value()->sync().ok());
  ASSERT_TRUE(file.value()->close().ok());

  auto back = read_file(env, dir + "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(PosixEnv, MissingFileIsNotFound) {
  Env& env = Env::posix();
  auto r = env.new_sequential(fresh_dir("posix_missing") + "/absent");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(PosixEnv, RenameAndListDir) {
  const std::string dir = fresh_dir("posix_ls");
  Env& env = Env::posix();
  auto file = env.new_writable(dir + "/a.tmp", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->close().ok());
  ASSERT_TRUE(env.rename_file(dir + "/a.tmp", dir + "/a").ok());
  EXPECT_TRUE(env.file_exists(dir + "/a"));
  EXPECT_FALSE(env.file_exists(dir + "/a.tmp"));
  auto names = env.list_dir(dir);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names.value().size(), 1u);
  EXPECT_EQ(names.value()[0], "a");
}

// ---------- FaultInjectingEnv ----------

TEST(FaultEnv, DryRunCountsOpsWithoutFiring) {
  const std::string dir = fresh_dir("fault_dry");
  FaultPlan plan;  // Kind::kNone
  FaultInjectingEnv env(Env::posix(), plan);
  auto file = env.new_writable(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of({1, 2, 3})).ok());  // op 0
  ASSERT_TRUE(file.value()->sync().ok());                       // op 1
  ASSERT_TRUE(env.rename_file(dir + "/f", dir + "/g").ok());    // op 2
  EXPECT_EQ(env.ops_attempted(), 3u);
  EXPECT_FALSE(env.crashed());
}

TEST(FaultEnv, UnsyncedAppendsVanishOnCrash) {
  const std::string dir = fresh_dir("fault_unsynced");
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kFail;
  plan.fail_at_op = 2;  // ops: append, sync, append(<- fires)
  FaultInjectingEnv env(Env::posix(), plan);
  auto file = env.new_writable(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  const auto synced = bytes_of({10, 11});
  ASSERT_TRUE(file.value()->append(synced).ok());
  ASSERT_TRUE(file.value()->sync().ok());
  EXPECT_FALSE(file.value()->append(bytes_of({12, 13})).ok());
  EXPECT_TRUE(env.crashed());
  // After the crash every mutating op on the env fails.
  EXPECT_FALSE(env.new_writable(dir + "/other", true).ok());
  EXPECT_FALSE(env.rename_file(dir + "/f", dir + "/g").ok());
  // Only the synced prefix reached the base filesystem.
  auto back = read_file(Env::posix(), dir + "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), synced);
}

TEST(FaultEnv, AppendBuffersUntilSync) {
  const std::string dir = fresh_dir("fault_buffered");
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kFail;
  plan.fail_at_op = 1;  // ops: append (buffers, ok), sync(<- fires)
  FaultInjectingEnv env(Env::posix(), plan);
  auto file = env.new_writable(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of({1, 2, 3, 4})).ok());
  EXPECT_FALSE(file.value()->sync().ok());
  // The failed sync dropped the page-cache buffer: the file is empty.
  auto back = read_file(Env::posix(), dir + "/f");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(FaultEnv, ShortWriteLeavesDeterministicPrefix) {
  const auto run = [](std::uint64_t seed) {
    const std::string dir =
        fresh_dir("fault_short_" + std::to_string(seed));
    FaultPlan plan;
    plan.kind = FaultPlan::Kind::kShortWrite;
    plan.fail_at_op = 0;
    plan.seed = seed;
    FaultInjectingEnv env(Env::posix(), plan);
    auto file = env.new_writable(dir + "/f", true);
    EXPECT_TRUE(file.ok());
    std::vector<std::uint8_t> data(64);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i);
    }
    EXPECT_FALSE(file.value()->append(data).ok());
    auto back = read_file(Env::posix(), dir + "/f");
    EXPECT_TRUE(back.ok());
    // A short write lands a strict prefix of the attempted append.
    EXPECT_LE(back.value().size(), data.size());
    for (std::size_t i = 0; i < back.value().size(); ++i) {
      EXPECT_EQ(back.value()[i], data[i]);
    }
    return back.value();
  };
  // Same seed -> identical surviving bytes; different seed may differ.
  EXPECT_EQ(run(7), run(7));
}

TEST(FaultEnv, TornWriteCorruptsTrailingBytes) {
  const std::string dir = fresh_dir("fault_torn");
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kTornWrite;
  plan.fail_at_op = 0;
  plan.seed = 99;
  FaultInjectingEnv env(Env::posix(), plan);
  auto file = env.new_writable(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> data(128, 0x41);
  EXPECT_FALSE(file.value()->append(data).ok());
  auto back = read_file(Env::posix(), dir + "/f");
  ASSERT_TRUE(back.ok());
  // Never longer than the attempted write (prefix + scrambled tail bytes).
  EXPECT_LE(back.value().size(), data.size());
}

TEST(FaultEnv, TransientShortWriteFailsOnceThenContinues) {
  const std::string dir = fresh_dir("fault_transient");
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kTransientShortWrite;
  plan.fail_at_op = 1;  // ops: append, append(<- fires), append, sync
  plan.seed = 3;
  FaultInjectingEnv env(Env::posix(), plan);
  auto file = env.new_writable(dir + "/f", true);
  ASSERT_TRUE(file.ok());
  const auto before = bytes_of({1, 2});
  const std::vector<std::uint8_t> failed(64, 0x41);
  const auto after = bytes_of({9});
  ASSERT_TRUE(file.value()->append(before).ok());
  EXPECT_FALSE(file.value()->append(failed).ok());
  EXPECT_FALSE(env.crashed());
  ASSERT_TRUE(file.value()->append(after).ok());
  ASSERT_TRUE(file.value()->sync().ok());
  // The earlier bytes, a prefix of the failed append, then the later one.
  auto back = read_file(Env::posix(), dir + "/f");
  ASSERT_TRUE(back.ok());
  ASSERT_GE(back.value().size(), before.size() + after.size());
  const std::size_t landed =
      back.value().size() - before.size() - after.size();
  ASSERT_LE(landed, failed.size());
  std::vector<std::uint8_t> want = before;
  want.insert(want.end(), failed.begin(), failed.begin() + landed);
  want.insert(want.end(), after.begin(), after.end());
  EXPECT_EQ(back.value(), want);
}

// ---------- DurableLog ----------

/// Opens a DurableLog over an empty directory whose callbacks accept
/// nothing (no snapshot, no records to replay).
std::unique_ptr<DurableLog> open_empty_log(Env& env, const std::string& dir,
                                           util::MetricsRegistry& metrics) {
  auto log = DurableLog::open(
      env, dir, /*config_fingerprint=*/1, /*sync_every=*/1, metrics, nullptr,
      [](const SnapshotFile&) { return false; },
      [](const WalRecord&) { return Status{}; });
  EXPECT_TRUE(log.ok()) << log.status().to_string();
  return log.ok() ? std::move(log).value() : nullptr;
}

TEST(DurableLog, FailedAppendFencesEveryLaterWrite) {
  const std::string dir = fresh_dir("log_fence_append");
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kTransientShortWrite;
  plan.fail_at_op = 4;  // header append + sync, record 1 append + sync
  plan.seed = 5;
  FaultInjectingEnv env(Env::posix(), plan);
  util::MetricsRegistry metrics;
  auto log = open_empty_log(env, dir, metrics);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->append(kWalRecordInsert, 1, bytes_of({1})).ok());
  const Status failed = log->append(kWalRecordInsert, 2, bytes_of({2}));
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(env.crashed());
  EXPECT_EQ(log->last_seq(), 1u);

  // Fenced: the first error comes back and no file is touched again.
  const std::size_t ops = env.ops_attempted();
  EXPECT_EQ(log->append(kWalRecordInsert, 3, bytes_of({3})).message(),
            failed.message());
  EXPECT_FALSE(log->sync().ok());
  SnapshotFile snapshot;
  snapshot.last_seq = log->last_seq();
  EXPECT_FALSE(log->checkpoint(snapshot).ok());
  EXPECT_EQ(env.ops_attempted(), ops);
  EXPECT_EQ(log->last_seq(), 1u);
  EXPECT_EQ(metrics.snapshot().counters.at("wal.appends"), 1u);
}

TEST(DurableLog, FailedSyncFencesCheckpoint) {
  const std::string dir = fresh_dir("log_fence_sync");
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kTransientShortWrite;
  plan.fail_at_op = 3;  // header append + sync, record 1 append, sync
  FaultInjectingEnv env(Env::posix(), plan);
  util::MetricsRegistry metrics;
  auto log = open_empty_log(env, dir, metrics);
  ASSERT_NE(log, nullptr);
  // The record reached the segment but was never made durable; it must not
  // count as logged, and no checkpoint may rotate past it.
  EXPECT_FALSE(log->append(kWalRecordInsert, 1, bytes_of({1})).ok());
  EXPECT_EQ(log->last_seq(), 0u);
  SnapshotFile snapshot;
  EXPECT_FALSE(log->checkpoint(snapshot).ok());
  EXPECT_FALSE(log->append(kWalRecordInsert, 2, bytes_of({2})).ok());
  auto names = Env::posix().list_dir(dir);
  ASSERT_TRUE(names.ok());
  std::uint64_t seq = 0;
  for (const std::string& name : names.value()) {
    EXPECT_FALSE(parse_snapshot_file_name(name, &seq)) << name;
  }
}

// ---------- WAL ----------

TEST(Wal, SegmentNameRoundTrip) {
  const std::string name = wal_segment_name(42);
  std::uint64_t seq = 0;
  ASSERT_TRUE(parse_wal_segment_name(name, &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(parse_wal_segment_name("wal-.log", &seq));
  EXPECT_FALSE(parse_wal_segment_name("snapshot-0.fast", &seq));
  EXPECT_FALSE(parse_wal_segment_name(name + ".tmp", &seq));
}

TEST(Wal, AppendSyncReadRoundTrip) {
  const std::string dir = fresh_dir("wal_rt");
  Env& env = Env::posix();
  auto writer = WalWriter::create(env, dir, 5);
  ASSERT_TRUE(writer.ok());
  WalWriter& w = *writer.value();
  EXPECT_EQ(w.next_seq(), 5u);
  ASSERT_TRUE(w.append(kWalRecordInsert, 100, bytes_of({9, 8, 7})).ok());
  ASSERT_TRUE(w.append(kWalRecordErase, 100, {}).ok());
  ASSERT_TRUE(w.sync().ok());
  ASSERT_TRUE(w.close().ok());
  EXPECT_EQ(w.next_seq(), 7u);

  auto seg = read_wal_segment(env, dir + "/" + wal_segment_name(5));
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg.value().start_seq, 5u);
  EXPECT_FALSE(seg.value().torn);
  ASSERT_EQ(seg.value().records.size(), 2u);
  EXPECT_EQ(seg.value().records[0].seq, 5u);
  EXPECT_EQ(seg.value().records[0].type, kWalRecordInsert);
  EXPECT_EQ(seg.value().records[0].id, 100u);
  EXPECT_EQ(seg.value().records[0].payload, bytes_of({9, 8, 7}));
  EXPECT_EQ(seg.value().records[1].seq, 6u);
  EXPECT_EQ(seg.value().records[1].type, kWalRecordErase);
  EXPECT_TRUE(seg.value().records[1].payload.empty());
}

TEST(Wal, CloseIsIdempotentAndSealsAppends) {
  const std::string dir = fresh_dir("wal_close");
  auto writer = WalWriter::create(Env::posix(), dir, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->close().ok());
  EXPECT_TRUE(writer.value()->close().ok());
  EXPECT_FALSE(writer.value()->append(kWalRecordInsert, 1, {}).ok());
}

TEST(Wal, TornTailTruncatesAtFirstBadFrame) {
  const std::string dir = fresh_dir("wal_torn");
  Env& env = Env::posix();
  auto writer = WalWriter::create(env, dir, 1);
  ASSERT_TRUE(writer.ok());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        writer.value()->append(kWalRecordInsert, i, bytes_of({1, 2})).ok());
  }
  ASSERT_TRUE(writer.value()->sync().ok());
  ASSERT_TRUE(writer.value()->close().ok());

  const std::string path = dir + "/" + wal_segment_name(1);
  const auto full = std::filesystem::file_size(path);
  // Chop mid-way through the last frame: records 1..2 survive, 3 is torn.
  truncate_file(path, static_cast<std::size_t>(full) - 5);

  auto seg = read_wal_segment(env, path);
  ASSERT_TRUE(seg.ok());
  EXPECT_TRUE(seg.value().torn);
  ASSERT_EQ(seg.value().records.size(), 2u);
  EXPECT_EQ(seg.value().records[1].seq, 2u);
}

TEST(Wal, CorruptMidFrameCrcTruncatesThere) {
  const std::string dir = fresh_dir("wal_crc");
  Env& env = Env::posix();
  auto writer = WalWriter::create(env, dir, 1);
  ASSERT_TRUE(writer.ok());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        writer.value()->append(kWalRecordInsert, i, bytes_of({1, 2})).ok());
  }
  ASSERT_TRUE(writer.value()->sync().ok());
  ASSERT_TRUE(writer.value()->close().ok());

  const std::string path = dir + "/" + wal_segment_name(1);
  // Header is 20 bytes; flip a byte inside the second frame's body.
  const std::size_t frame_bytes = 8 + 17 + 2;  // crc+len, fixed body, payload
  flip_byte(path, 20 + frame_bytes + 12);

  auto seg = read_wal_segment(env, path);
  ASSERT_TRUE(seg.ok());
  EXPECT_TRUE(seg.value().torn);
  ASSERT_EQ(seg.value().records.size(), 1u);
  EXPECT_EQ(seg.value().records[0].seq, 1u);
}

TEST(Wal, DamagedHeaderReadsAsEmptyTornSegment) {
  const std::string dir = fresh_dir("wal_hdr");
  Env& env = Env::posix();
  auto writer = WalWriter::create(env, dir, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->append(kWalRecordInsert, 1, {}).ok());
  ASSERT_TRUE(writer.value()->sync().ok());
  ASSERT_TRUE(writer.value()->close().ok());
  const std::string path = dir + "/" + wal_segment_name(1);
  flip_byte(path, 10);  // corrupt the header's start_seq field

  auto seg = read_wal_segment(env, path);
  ASSERT_TRUE(seg.ok());
  EXPECT_TRUE(seg.value().torn);
  EXPECT_TRUE(seg.value().records.empty());
}

TEST(Wal, OtherFastFormatIsBadMagic) {
  // A snapshot handed to the WAL reader is a caller bug (kBadMagic), while
  // arbitrary junk is indistinguishable from a pre-header-sync crash and
  // reads as an empty torn segment.
  const std::string dir = fresh_dir("wal_magic");
  Env& env = Env::posix();
  auto name = write_snapshot(env, dir, sample_snapshot());
  ASSERT_TRUE(name.ok());
  auto seg = read_wal_segment(env, dir + "/" + name.value());
  ASSERT_FALSE(seg.ok());
  EXPECT_EQ(seg.status().code(), StatusCode::kBadMagic);

  auto junk = env.new_writable(dir + "/junk", true);
  ASSERT_TRUE(junk.ok());
  ASSERT_TRUE(junk.value()->append(std::vector<std::uint8_t>(64, 0x5a)).ok());
  ASSERT_TRUE(junk.value()->close().ok());
  auto torn = read_wal_segment(env, dir + "/junk");
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn.value().torn);
  EXPECT_TRUE(torn.value().records.empty());
}

// ---------- Snapshot container ----------

TEST(Snapshot, FileNameRoundTrip) {
  std::uint64_t seq = 0;
  ASSERT_TRUE(parse_snapshot_file_name(snapshot_file_name(17), &seq));
  EXPECT_EQ(seq, 17u);
  EXPECT_FALSE(parse_snapshot_file_name("snapshot-1.fast.tmp", &seq));
  EXPECT_FALSE(parse_snapshot_file_name("wal-1.log", &seq));
}

TEST(Snapshot, WriteReadRoundTrip) {
  const std::string dir = fresh_dir("snap_rt");
  Env& env = Env::posix();
  const SnapshotFile snap = sample_snapshot();
  auto name = write_snapshot(env, dir, snap);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value(), snapshot_file_name(17));
  // No .tmp left behind after the atomic publish.
  EXPECT_FALSE(env.file_exists(dir + "/" + name.value() + ".tmp"));

  auto back = read_snapshot(env, dir + "/" + name.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().version, kSnapshotFormatVersion);
  EXPECT_EQ(back.value().config_fingerprint, 0xdeadbeefULL);
  EXPECT_EQ(back.value().last_seq, 17u);
  ASSERT_EQ(back.value().sections.size(), 4u);
  ASSERT_NE(back.value().find(kSectionSignatures), nullptr);
  EXPECT_EQ(back.value().find(kSectionSignatures)->payload,
            bytes_of({2, 3, 4}));
  EXPECT_EQ(back.value().find(99), nullptr);
}

TEST(Snapshot, CorruptSectionCrcIsCorrupt) {
  const std::string dir = fresh_dir("snap_crc");
  Env& env = Env::posix();
  auto name = write_snapshot(env, dir, sample_snapshot());
  ASSERT_TRUE(name.ok());
  const std::string path = dir + "/" + name.value();
  flip_byte(path, 40);  // inside the first section, past the 32-byte header
  auto back = read_snapshot(env, path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorrupt);
}

TEST(Snapshot, TruncatedFileIsCorrupt) {
  const std::string dir = fresh_dir("snap_trunc");
  Env& env = Env::posix();
  auto name = write_snapshot(env, dir, sample_snapshot());
  ASSERT_TRUE(name.ok());
  const std::string path = dir + "/" + name.value();
  truncate_file(path, std::filesystem::file_size(path) - 3);
  auto back = read_snapshot(env, path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorrupt);
}

TEST(Snapshot, NonSnapshotFileIsBadMagic) {
  const std::string dir = fresh_dir("snap_magic");
  Env& env = Env::posix();
  auto file = env.new_writable(dir + "/junk", true);
  ASSERT_TRUE(file.ok());
  std::vector<std::uint8_t> junk(64, 0x13);
  ASSERT_TRUE(file.value()->append(junk).ok());
  ASSERT_TRUE(file.value()->close().ok());
  auto back = read_snapshot(env, dir + "/junk");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kBadMagic);
}

TEST(Snapshot, FutureVersionIsBadVersion) {
  const std::string dir = fresh_dir("snap_ver");
  Env& env = Env::posix();
  // Hand-craft a header claiming format version 2 with a VALID header CRC,
  // as a future writer would produce it.
  util::ByteWriter header;
  const char magic[8] = {'F', 'A', 'S', 'T', 's', 'n', 'p', '1'};
  for (char c : magic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kSnapshotFormatVersion + 1);
  header.u64(0);   // fingerprint
  header.u64(0);   // last_seq
  std::vector<std::uint8_t> bytes = std::move(header).take();
  util::ByteWriter with_crc;
  with_crc.bytes(bytes);
  with_crc.u32(util::crc32(bytes));
  auto file = env.new_writable(dir + "/future.fast", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(std::move(with_crc).take()).ok());
  ASSERT_TRUE(file.value()->close().ok());

  auto back = read_snapshot(env, dir + "/future.fast");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kBadVersion);
  EXPECT_NE(back.status().message().find("version"), std::string::npos);
}

TEST(Snapshot, TamperedVersionFailsHeaderCrc) {
  const std::string dir = fresh_dir("snap_tamper");
  Env& env = Env::posix();
  auto name = write_snapshot(env, dir, sample_snapshot());
  ASSERT_TRUE(name.ok());
  const std::string path = dir + "/" + name.value();
  flip_byte(path, 8);  // version field, without fixing the header CRC
  auto back = read_snapshot(env, path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorrupt);
}

TEST(ShardMap, StableAssignment) {
  ShardMap shards(8);
  for (std::uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(shards.shard_of(id), shards.shard_of(id));
    EXPECT_LT(shards.shard_of(id), 8u);
  }
}

TEST(ShardMap, RoughlyUniform) {
  ShardMap shards(4);
  std::vector<int> counts(4, 0);
  for (std::uint64_t id = 0; id < 10000; ++id) {
    ++counts[shards.shard_of(id)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 2500, 300);
  }
}

TEST(ShardMap, PartitionCoversAll) {
  ShardMap shards(3);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 50; ++i) ids.push_back(i);
  const auto parts = shards.partition(ids);
  ASSERT_EQ(parts.size(), 3u);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, 50u);
}

TEST(ShardMap, ZeroShardsClampedToOne) {
  ShardMap shards(0);
  EXPECT_EQ(shards.shard_count(), 1u);
  EXPECT_EQ(shards.shard_of(123), 0u);
}

}  // namespace
}  // namespace fast::storage
