#include "storage/durable_log.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace fast::storage {

namespace {

/// Retention after a checkpoint at `last_seq`: keep ONE previous snapshot
/// generation and the WAL segments it does not cover, so a latent-corrupt
/// newest image (bit rot, torn sector) still recovers exactly — previous
/// snapshot + surviving segments replay to the same state. Only files the
/// RETAINED generation covers are dead: snapshots older than it, and
/// segments whose records it contains (rotation happens at every snapshot,
/// so a segment starting at or before the previous snapshot's seq ends
/// there too). Before the first snapshot the fallback generation is the
/// empty index, which needs every segment. Best effort: a file left behind
/// only costs space.
void retire_covered_files(Env& env, const std::string& dir,
                          std::uint64_t last_seq) {
  auto names = env.list_dir(dir);
  if (!names.ok()) return;
  std::uint64_t prev_snapshot = 0;
  for (const std::string& name : names.value()) {
    std::uint64_t seq = 0;
    if (parse_snapshot_file_name(name, &seq) && seq < last_seq) {
      prev_snapshot = std::max(prev_snapshot, seq);
    }
  }
  for (const std::string& name : names.value()) {
    std::uint64_t seq = 0;
    const bool dead_snapshot =
        parse_snapshot_file_name(name, &seq) && seq < prev_snapshot;
    const bool dead_segment =
        parse_wal_segment_name(name, &seq) && seq <= prev_snapshot;
    if (dead_snapshot || dead_segment) {
      (void)env.remove_file(dir + "/" + name);
    }
  }
}

}  // namespace

void DurableLog::register_metrics(util::MetricsRegistry& metrics) {
  (void)metrics.counter("wal.appends");
  (void)metrics.counter("wal.bytes");
  (void)metrics.counter("wal.syncs");
  (void)metrics.latency_histogram("snapshot.write_s");
  (void)metrics.gauge("snapshot.bytes");
  (void)metrics.counter("recovery.replayed_records");
  (void)metrics.counter("recovery.snapshots_skipped");
}

DurableLog::DurableLog(Env& env, std::string dir, std::size_t sync_every,
                       util::MetricsRegistry& metrics,
                       std::unique_ptr<WalWriter> wal, std::uint64_t last_seq)
    : env_(env), dir_(std::move(dir)),
      sync_every_(std::max<std::size_t>(sync_every, 1)), wal_(std::move(wal)),
      last_seq_(last_seq), appends_(&metrics.counter("wal.appends")),
      bytes_(&metrics.counter("wal.bytes")),
      syncs_(&metrics.counter("wal.syncs")),
      snapshot_write_s_(&metrics.latency_histogram("snapshot.write_s")),
      snapshot_bytes_(&metrics.gauge("snapshot.bytes")) {}

StatusOr<std::unique_ptr<DurableLog>> DurableLog::open(
    Env& env, const std::string& dir, std::uint64_t config_fingerprint,
    std::size_t sync_every, util::MetricsRegistry& metrics,
    RecoveryStats* stats_out, const RestoreFn& restore,
    const ReplayFn& replay) {
  util::TraceSpan span("recovery.open");
  RecoveryStats stats;
  Status s = env.make_dirs(dir);
  if (!s.ok()) return s;
  auto names = env.list_dir(dir);
  if (!names.ok()) return names.status();

  std::vector<std::uint64_t> snapshot_seqs;
  std::vector<std::uint64_t> wal_seqs;
  for (const std::string& name : names.value()) {
    std::uint64_t seq = 0;
    if (parse_snapshot_file_name(name, &seq)) {
      snapshot_seqs.push_back(seq);
    } else if (parse_wal_segment_name(name, &seq)) {
      wal_seqs.push_back(seq);
    }
    // Anything else (.tmp images from interrupted writes, stray files) is
    // ignored; a crashed snapshot write must not affect recovery.
  }
  std::sort(snapshot_seqs.rbegin(), snapshot_seqs.rend());  // newest first
  std::sort(wal_seqs.begin(), wal_seqs.end());

  std::uint64_t last_seq = 0;
  for (const std::uint64_t seq : snapshot_seqs) {
    const std::string path = dir + "/" + snapshot_file_name(seq);
    auto snapshot = read_snapshot(env, path);
    if (!snapshot.ok()) {
      switch (snapshot.status().code()) {
        case StatusCode::kCorrupt:
        case StatusCode::kBadMagic:
          // Damaged image: fall back to the previous snapshot (its WAL
          // segments were only deleted after THIS one was fully published,
          // so an older snapshot plus surviving segments is still exact).
          ++stats.snapshots_skipped;
          continue;
        default:
          return snapshot.status();  // kBadVersion / filesystem trouble
      }
    }
    if (snapshot.value().config_fingerprint != config_fingerprint) {
      return Status::error(StatusCode::kConfigMismatch,
                           "snapshot " + path +
                               " was written under a different pipeline "
                               "geometry");
    }
    if (!restore(snapshot.value())) {
      ++stats.snapshots_skipped;
      continue;
    }
    last_seq = snapshot.value().last_seq;
    stats.loaded_snapshot = true;
    stats.snapshot_seq = last_seq;
    break;
  }

  for (const std::uint64_t seq : wal_seqs) {
    const std::string path = dir + "/" + wal_segment_name(seq);
    auto segment = read_wal_segment(env, path);
    if (!segment.ok()) return segment.status();
    ++stats.segments_scanned;
    if (segment.value().torn) stats.wal_torn = true;
    for (const WalRecord& record : segment.value().records) {
      if (record.seq <= last_seq) continue;  // inside the snapshot
      if (record.seq != last_seq + 1) {
        return Status::error(StatusCode::kCorrupt,
                             "WAL gap: expected seq " +
                                 std::to_string(last_seq + 1) + ", segment " +
                                 path + " continues at " +
                                 std::to_string(record.seq));
      }
      if (record.type != kWalRecordInsert && record.type != kWalRecordErase) {
        return Status::error(StatusCode::kCorrupt,
                             "unknown WAL record type " +
                                 std::to_string(record.type));
      }
      Status applied = replay(record);
      if (!applied.ok()) return applied;
      last_seq = record.seq;
      ++stats.replayed_records;
    }
  }
  metrics.counter("recovery.replayed_records").add(stats.replayed_records);
  metrics.counter("recovery.snapshots_skipped").add(stats.snapshots_skipped);
  span.attr("replayed_records", static_cast<double>(stats.replayed_records));
  span.attr("snapshots_skipped", static_cast<double>(stats.snapshots_skipped));
  span.attr("segments_scanned", static_cast<double>(stats.segments_scanned));

  auto writer = WalWriter::create(env, dir, last_seq + 1);
  if (!writer.ok()) return writer.status();
  if (stats_out != nullptr) *stats_out = stats;
  return std::unique_ptr<DurableLog>(new DurableLog(
      env, dir, sync_every, metrics, std::move(writer).value(), last_seq));
}

Status DurableLog::append(std::uint8_t type, std::uint64_t id,
                          std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (!fence_.ok()) return fence_;
  const std::uint64_t bytes_before = wal_->bytes_appended();
  Status s = wal_->append(type, id, payload);
  if (s.ok() && ++appends_since_sync_ >= sync_every_) s = sync_locked();
  if (!s.ok()) {
    fence_ = s;
    return s;
  }
  appends_->add();
  bytes_->add(wal_->bytes_appended() - bytes_before);
  last_seq_ = wal_->next_seq() - 1;
  return Status{};
}

std::uint64_t DurableLog::last_seq() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return last_seq_;
}

Status DurableLog::sync() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (!fence_.ok()) return fence_;
  if (appends_since_sync_ == 0) return Status{};
  Status s = sync_locked();
  if (!s.ok()) fence_ = s;
  return s;
}

Status DurableLog::sync_locked() {
  Status s = wal_->sync();
  if (s.ok()) {
    appends_since_sync_ = 0;
    syncs_->add();
  }
  return s;
}

Status DurableLog::checkpoint(const SnapshotFile& snapshot) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (!fence_.ok()) return fence_;
  FAST_CHECK_MSG(snapshot.last_seq == last_seq_,
                 "checkpoint image must describe the index at last_seq()");
  util::TraceSpan span("snapshot.save");
  util::WallTimer timer;
  auto published = write_snapshot(env_, dir_, snapshot);
  if (!published.ok()) return published.status();

  std::size_t image_bytes = 32 + 12;  // header + end marker
  for (const SnapshotSection& section : snapshot.sections) {
    image_bytes += 12 + section.payload.size();
  }
  span.attr("bytes", static_cast<double>(image_bytes));
  span.attr("sections", static_cast<double>(snapshot.sections.size()));
  snapshot_bytes_->set(static_cast<double>(image_bytes));
  snapshot_write_s_->observe(timer.elapsed_seconds());

  // On create failure the closed writer stays in place, so every further
  // append fails (and fences the log) instead of going unlogged.
  (void)wal_->close();
  auto rotated = WalWriter::create(env_, dir_, snapshot.last_seq + 1);
  if (!rotated.ok()) return rotated.status();
  wal_ = std::move(rotated).value();
  appends_since_sync_ = 0;
  retire_covered_files(env_, dir_, snapshot.last_seq);
  return Status{};
}

}  // namespace fast::storage
