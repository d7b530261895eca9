// Versioned, checksummed snapshot container.
//
// A snapshot is a point-in-time image of the full index state, written as a
// generic sectioned file so this layer stays independent of core/hash types
// — the index supplies each section's payload bytes and interprets them on
// load. Layout:
//
//   "FASTsnp1" | u32 version | u64 config_fingerprint | u64 last_seq
//             | u32 header_crc
//   repeated:  u32 section_id | u32 len | payload | u32 crc(id|len|payload)
//   trailer:   section_id 0 (end marker, same framing, empty payload)
//
// Publication is atomic: the image is written to snapshot-<seq>.fast.tmp,
// fsynced, then renamed into place. A crash mid-write leaves only a .tmp
// that recovery ignores; a crash mid-rename leaves either the old state or
// the complete new file. Recovery tries snapshots newest-first and falls
// back past corrupt ones, so a damaged latest snapshot degrades to the
// previous one plus a longer WAL replay instead of data loss.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/io.hpp"

namespace fast::storage {

inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Section ids used by FastIndex (other writers may add their own; readers
/// skip unknown ids for forward compatibility within a format version).
inline constexpr std::uint32_t kSectionEnd = 0;
inline constexpr std::uint32_t kSectionParams = 1;
inline constexpr std::uint32_t kSectionSignatures = 2;
inline constexpr std::uint32_t kSectionGroups = 3;
inline constexpr std::uint32_t kSectionStore = 4;
// Tiered-index sections (core::TieredIndex): the manifest lists every live
// segment per lane; each memtable and each sealed segment is one section so
// a damaged section fails the whole image's CRC and recovery falls back.
inline constexpr std::uint32_t kSectionTierManifest = 5;
// Retired ids of the tiered memtable and segment sections as id-keyed maps
// with a home-key column. Nothing writes them; a reader finds no memtable
// in such an image and falls back past it as past a damaged one.
inline constexpr std::uint32_t kSectionTierMemtableKeyed = 6;
inline constexpr std::uint32_t kSectionTierSegmentKeyed = 7;
// CHS store serialized by the fingerprint-compressed compact backend. A
// distinct id (on top of the chs_backend config-fingerprint gate) so
// readers built before the compact backend reject such snapshots outright
// instead of misreading the section as a full-key store.
inline constexpr std::uint32_t kSectionStoreCompact = 8;
// A tiered memtable or segment as one core::IndexLayer codec payload
// (signatures, tombstones, groups, store), with no key column.
inline constexpr std::uint32_t kSectionTierMemtable = 9;
inline constexpr std::uint32_t kSectionTierSegment = 10;

struct SnapshotSection {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;
};

struct SnapshotFile {
  std::uint32_t version = kSnapshotFormatVersion;
  std::uint64_t config_fingerprint = 0;
  std::uint64_t last_seq = 0;  ///< WAL records <= this are already applied
  std::vector<SnapshotSection> sections;

  /// First section with this id, or nullptr.
  const SnapshotSection* find(std::uint32_t id) const;
};

/// Serializes `snapshot` to dir/snapshot-<last_seq>.fast via tmp+sync+rename.
/// Returns the published file name (not path) on success.
StatusOr<std::string> write_snapshot(Env& env, const std::string& dir,
                                     const SnapshotFile& snapshot);

/// Parses and fully validates a snapshot file: kBadMagic when it is not a
/// snapshot, kBadVersion for files written by a future format, kCorrupt for
/// any CRC or framing failure (header or section).
StatusOr<SnapshotFile> read_snapshot(Env& env, const std::string& path);

/// "snapshot-<20-digit seq>.fast"
std::string snapshot_file_name(std::uint64_t seq);
bool parse_snapshot_file_name(const std::string& name, std::uint64_t* seq);

}  // namespace fast::storage
