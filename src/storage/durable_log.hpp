// DurableLog — the one snapshot + WAL durability path every durable index
// flavor runs on (DESIGN.md §3d).
//
// It owns everything about persistence that does not depend on what the
// index stores: the directory scan and newest-valid-snapshot fallback, the
// fingerprint check, WAL replay with its gap and record checks, the fsync
// cadence, checkpoint publication with rotation and retention, and the
// wal.* / snapshot.* / recovery.* instruments. Snapshot sections and WAL
// payloads stay opaque: the index hands in a restore callback and a replay
// callback at open time, builds its own SnapshotFile for checkpoint(), and
// supplies its own quiescence (no append may race a checkpoint).
//
// Fencing: the first append or sync error is kept. After a failed append,
// part of the frame may already sit in the segment, and a later record
// written behind it would be cut off as a torn tail on restart; after a
// failed sync, the segment may hold a record the index never applied. So
// every later append, sync and checkpoint returns that first error without
// touching any file, and the caller must reopen the directory to go on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "storage/io.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace fast::util {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace fast::util

namespace fast::storage {

/// What DurableLog::open found and did; for observability and tests.
struct RecoveryStats {
  bool loaded_snapshot = false;
  std::uint64_t snapshot_seq = 0;     ///< last_seq of the loaded snapshot
  std::size_t snapshots_skipped = 0;  ///< corrupt snapshots passed over
  std::size_t segments_scanned = 0;   ///< WAL segments read
  std::size_t replayed_records = 0;   ///< WAL records applied on top
  bool wal_torn = false;              ///< truncated a torn tail / header
};

class DurableLog {
 public:
  /// Adopts a validated snapshot whose fingerprint matched. Returns false
  /// for undecodable content, and must then leave the index untouched:
  /// recovery falls back to the next older snapshot.
  using RestoreFn = std::function<bool(const SnapshotFile&)>;
  /// Applies one insert or erase record past the restored snapshot, in
  /// sequence order. A non-ok status aborts recovery with that status.
  using ReplayFn = std::function<Status(const WalRecord&)>;

  /// Registers the durability instruments in `metrics`, so an index exports
  /// the same names whether or not it is durable.
  static void register_metrics(util::MetricsRegistry& metrics);

  /// Recovers `dir` (created when absent) into the caller's index through
  /// `restore` and `replay`, then starts a fresh WAL segment. Snapshots are
  /// tried newest first; kCorrupt / kBadMagic images and failed restores
  /// are skipped. Hard errors: kConfigMismatch for a snapshot written under
  /// another `config_fingerprint`, kCorrupt for a WAL sequence gap or an
  /// unknown record type, kBadVersion, filesystem failure, and any replay
  /// error. `stats` is filled on success only.
  static StatusOr<std::unique_ptr<DurableLog>> open(
      Env& env, const std::string& dir, std::uint64_t config_fingerprint,
      std::size_t sync_every, util::MetricsRegistry& metrics,
      RecoveryStats* stats, const RestoreFn& restore,
      const ReplayFn& replay);

  /// Logs one record as sequence last_seq() + 1, fsyncing every
  /// `sync_every` records. On error nothing counts as logged and the log
  /// is fenced.
  Status append(std::uint8_t type, std::uint64_t id,
                std::span<const std::uint8_t> payload);

  /// Fsyncs records buffered by the cadence; no-op when none are. On error
  /// the log is fenced.
  Status sync();

  /// Publishes `snapshot` (which must describe the index at last_seq()),
  /// rotates the WAL to a segment starting at last_seq() + 1, and retires
  /// files the retained previous generation covers. The caller quiesces
  /// appends for the duration. Refused once the log is fenced.
  Status checkpoint(const SnapshotFile& snapshot);

  /// Sequence number of the last logged (or recovered) record.
  std::uint64_t last_seq() const;

 private:
  DurableLog(Env& env, std::string dir, std::size_t sync_every,
             util::MetricsRegistry& metrics, std::unique_ptr<WalWriter> wal,
             std::uint64_t last_seq);

  /// Caller holds mutex_ and has checked the fence.
  Status sync_locked();

  Env& env_;
  const std::string dir_;
  const std::size_t sync_every_;

  mutable std::mutex mutex_;  // guards the four fields below
  std::unique_ptr<WalWriter> wal_;
  std::size_t appends_since_sync_ = 0;
  Status fence_;  ///< first append/sync error; ok while the log is healthy
  std::uint64_t last_seq_;

  util::Counter* appends_;
  util::Counter* bytes_;
  util::Counter* syncs_;
  util::Histogram* snapshot_write_s_;
  util::Gauge* snapshot_bytes_;
};

}  // namespace fast::storage
