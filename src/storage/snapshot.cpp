#include "storage/snapshot.hpp"

#include <cstdio>
#include <cstring>

#include "util/codec.hpp"
#include "util/crc32.hpp"
#include "util/trace.hpp"

namespace fast::storage {

namespace {

constexpr char kSnapshotMagic[8] = {'F', 'A', 'S', 'T', 's', 'n', 'p', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 4;
constexpr std::uint32_t kMaxSectionBytes = 1u << 30;

void append_section(util::ByteWriter& out, std::uint32_t id,
                    std::span<const std::uint8_t> payload) {
  util::ByteWriter framed;
  framed.u32(id);
  framed.u32(static_cast<std::uint32_t>(payload.size()));
  framed.bytes(payload);
  out.bytes(framed.data());
  out.u32(util::crc32(framed.data()));
}

}  // namespace

const SnapshotSection* SnapshotFile::find(std::uint32_t id) const {
  for (const SnapshotSection& section : sections) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

std::string snapshot_file_name(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.fast",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool parse_snapshot_file_name(const std::string& name, std::uint64_t* seq) {
  constexpr std::size_t kLen = 9 + 20 + 5;  // "snapshot-" + digits + ".fast"
  if (name.size() != kLen || name.rfind("snapshot-", 0) != 0 ||
      name.compare(kLen - 5, 5, ".fast") != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = 9; i < kLen - 5; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

StatusOr<std::string> write_snapshot(Env& env, const std::string& dir,
                                     const SnapshotFile& snapshot) {
  util::TraceSpan span("snapshot.write");
  util::ByteWriter image;
  image.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kSnapshotMagic),
      sizeof(kSnapshotMagic)));
  image.u32(snapshot.version);
  image.u64(snapshot.config_fingerprint);
  image.u64(snapshot.last_seq);
  image.u32(util::crc32(std::span(image.data()).first(kHeaderBytes - 4)));
  for (const SnapshotSection& section : snapshot.sections) {
    FAST_CHECK_MSG(section.id != kSectionEnd,
                   "section id 0 is reserved for the end marker");
    append_section(image, section.id, section.payload);
  }
  append_section(image, kSectionEnd, {});

  span.attr("bytes", static_cast<double>(image.data().size()));
  const std::string name = snapshot_file_name(snapshot.last_seq);
  const std::string tmp_path = dir + "/" + name + ".tmp";
  auto file = env.new_writable(tmp_path, /*truncate=*/true);
  if (!file.ok()) return file.status();
  Status s = file.value()->append(image.data());
  if (s.ok()) s = file.value()->sync();
  if (s.ok()) s = file.value()->close();
  if (s.ok()) s = env.rename_file(tmp_path, dir + "/" + name);
  if (!s.ok()) return s;
  return name;
}

StatusOr<SnapshotFile> read_snapshot(Env& env, const std::string& path) {
  util::TraceSpan span("snapshot.read");
  auto bytes = read_file(env, path);
  if (!bytes.ok()) return bytes.status();
  const std::vector<std::uint8_t>& raw = bytes.value();
  span.attr("bytes", static_cast<double>(raw.size()));

  if (raw.size() < kHeaderBytes ||
      std::memcmp(raw.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::error(StatusCode::kBadMagic, "not a snapshot: " + path);
  }
  util::ByteReader header{std::span(raw).first(kHeaderBytes)};
  (void)header.bytes(sizeof(kSnapshotMagic));
  SnapshotFile snapshot;
  snapshot.version = header.u32();
  snapshot.config_fingerprint = header.u64();
  snapshot.last_seq = header.u64();
  const std::uint32_t header_crc = header.u32();
  if (header_crc != util::crc32(std::span(raw).first(kHeaderBytes - 4))) {
    return Status::error(StatusCode::kCorrupt,
                         "snapshot header checksum mismatch: " + path);
  }
  if (snapshot.version > kSnapshotFormatVersion) {
    return Status::error(
        StatusCode::kBadVersion,
        "snapshot " + path + " is format version " +
            std::to_string(snapshot.version) + "; this build reads <= " +
            std::to_string(kSnapshotFormatVersion));
  }

  std::size_t pos = kHeaderBytes;
  bool saw_end = false;
  while (!saw_end) {
    if (raw.size() - pos < 4 + 4) {
      return Status::error(StatusCode::kCorrupt,
                           "snapshot truncated mid-section: " + path);
    }
    util::ByteReader frame{std::span(raw).subspan(pos, 8)};
    const std::uint32_t id = frame.u32();
    const std::uint32_t len = frame.u32();
    if (len > kMaxSectionBytes || raw.size() - pos - 8 < len + 4u) {
      return Status::error(StatusCode::kCorrupt,
                           "snapshot section overruns file: " + path);
    }
    const auto framed = std::span(raw).subspan(pos, 8 + len);
    util::ByteReader crc_reader{std::span(raw).subspan(pos + 8 + len, 4)};
    if (crc_reader.u32() != util::crc32(framed)) {
      return Status::error(StatusCode::kCorrupt,
                           "snapshot section " + std::to_string(id) +
                               " checksum mismatch: " + path);
    }
    if (id == kSectionEnd) {
      saw_end = true;
    } else {
      SnapshotSection section;
      section.id = id;
      section.payload.assign(framed.begin() + 8, framed.end());
      snapshot.sections.push_back(std::move(section));
    }
    pos += 8 + len + 4;
  }
  if (pos != raw.size()) {
    return Status::error(StatusCode::kCorrupt,
                         "snapshot has trailing bytes: " + path);
  }
  return snapshot;
}

}  // namespace fast::storage
