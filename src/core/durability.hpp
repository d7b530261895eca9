// Durability contract of the durable index flavors (FastIndex, TieredIndex
// and the facades over them): snapshot + write-ahead log.
//
// An index opened with open_or_recover logs every mutation to the WAL
// BEFORE applying it, fsyncing on a configurable cadence; save_snapshot
// writes a full checksummed image of the index and rotates the log. After a
// crash, open_or_recover loads the newest intact snapshot, replays the WAL
// tail on top, and truncates the torn record of an in-flight append — so
// with wal_sync_every == 1 every acknowledged mutation survives, and the
// recovered index answers queries bit-identically to the pre-crash one.
// Both flavors run this through one storage::DurableLog; the first failed
// append or sync fences it, so every later mutation throws IoError until
// the directory is reopened (DESIGN.md §3d states the invariants;
// tests/recovery_test.cpp sweeps every failure point).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "hash/sparse_signature.hpp"
#include "storage/durable_log.hpp"
#include "storage/io.hpp"

namespace fast::core {

struct FastConfig;

struct DurabilityOptions {
  /// Directory holding snapshot-*.fast and wal-*.log; created when absent.
  std::string dir;

  /// fsync the WAL after every N appended records. 1 (default) makes every
  /// returned mutation durable; larger values trade the crash window for
  /// ingest throughput, exactly the group-commit knob of a database.
  std::size_t wal_sync_every = 1;

  /// Filesystem to operate through; nullptr = the real one. Tests pass a
  /// storage::FaultInjectingEnv here to crash at a chosen operation.
  storage::Env* env = nullptr;
};

/// What open_or_recover found and did; for observability and tests.
using RecoveryStats = storage::RecoveryStats;

/// FNV-1a over the SM/SA/CHS geometry of a config — every field that
/// changes how persisted index state must be interpreted (Bloom width,
/// aggregator seeds and table counts, storage backend and shape). Frontend
/// and cost-model settings are excluded: they affect future summaries, not
/// the meaning of stored ones. lsh_input_scale is excluded too — it is
/// persisted in the snapshot's params section and restored on load.
std::uint64_t config_fingerprint(const FastConfig& config) noexcept;

/// Decodes the signature an insert record carries; kCorrupt when the
/// payload does not decode or its width is not `bloom_bits`. Shared by the
/// replay callbacks of both index flavors.
storage::StatusOr<hash::SparseSignature> decode_insert_payload(
    std::span<const std::uint8_t> payload, std::size_t bloom_bits);

}  // namespace fast::core
