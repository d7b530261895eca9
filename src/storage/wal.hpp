// Append-only write-ahead log for index mutations.
//
// A durable index logs every insert/erase here (through storage::DurableLog)
// BEFORE applying it in memory, so a crash can lose at most the un-fsynced
// tail. Each record is framed as
//
//   [u32 crc][u32 len][body]     body = u64 seq | u8 type | u64 id | payload
//
// with the CRC taken over the body. The payload is opaque to this layer —
// the index encodes its own SparseSignature bytes — which keeps storage free
// of core/hash dependencies. Recovery reads records until the first frame
// whose CRC or length does not check out, treats that point as the torn tail
// of an in-flight append, and truncates there; a damaged segment HEADER means
// no record of the segment was ever acknowledged, so it reads as empty.
//
// Segments are named wal-<start_seq>.log (zero-padded so lexicographic order
// is numeric order). A snapshot at sequence S makes every segment whose
// records are all <= S dead; rotation removes them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/io.hpp"

namespace fast::storage {

inline constexpr std::uint8_t kWalRecordInsert = 1;
inline constexpr std::uint8_t kWalRecordErase = 2;

struct WalRecord {
  std::uint64_t seq = 0;
  std::uint8_t type = 0;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> payload;
};

/// Appends records to one segment file. Records are durable only after
/// sync(); the caller (storage::DurableLog) owns the fsync cadence and stops
/// appending after the first error (a failed append may leave a partial
/// frame behind).
class WalWriter {
 public:
  /// Creates (truncates) segment wal-<start_seq>.log in `dir` and writes the
  /// segment header. The header is synced immediately so an empty segment is
  /// never mistaken for a torn one.
  static StatusOr<std::unique_ptr<WalWriter>> create(Env& env,
                                                     const std::string& dir,
                                                     std::uint64_t start_seq);

  /// Appends one record with sequence number next_seq(); does NOT sync.
  Status append(std::uint8_t type, std::uint64_t id,
                std::span<const std::uint8_t> payload);

  Status sync();

  /// Idempotent; further appends fail.
  Status close();

  std::uint64_t next_seq() const noexcept { return next_seq_; }
  std::uint64_t start_seq() const noexcept { return start_seq_; }
  /// Total frame bytes appended (headers excluded) — feeds wal.bytes.
  std::uint64_t bytes_appended() const noexcept { return bytes_; }
  /// Frame bytes appended since the last successful sync() — the amount a
  /// crash right now could lose; exported on "wal.sync" trace spans.
  std::uint64_t bytes_since_sync() const noexcept { return bytes_since_sync_; }

 private:
  WalWriter(std::unique_ptr<WritableFile> file, std::uint64_t start_seq)
      : file_(std::move(file)), start_seq_(start_seq), next_seq_(start_seq) {}

  std::unique_ptr<WritableFile> file_;
  std::uint64_t start_seq_;
  std::uint64_t next_seq_;
  std::uint64_t bytes_ = 0;
  std::uint64_t bytes_since_sync_ = 0;
  bool closed_ = false;
};

/// One parsed segment. `torn` reports whether the read stopped at a corrupt
/// frame (expected after a crash mid-append) rather than a clean EOF.
struct WalSegment {
  std::uint64_t start_seq = 0;
  std::vector<WalRecord> records;
  bool torn = false;
};

/// Reads a segment, truncating at the first corrupt frame. Only kBadMagic /
/// kIoError are hard errors; torn tails and a damaged header are normal
/// crash artifacts and produce a (possibly empty) record list.
StatusOr<WalSegment> read_wal_segment(Env& env, const std::string& path);

/// Segment file name for a start sequence: "wal-<20-digit seq>.log".
std::string wal_segment_name(std::uint64_t start_seq);

/// True iff `name` parses as a segment file name; start seq in *start_seq.
bool parse_wal_segment_name(const std::string& name, std::uint64_t* start_seq);

}  // namespace fast::storage
