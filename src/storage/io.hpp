// Pluggable file I/O for the persistence subsystem (snapshot + WAL).
//
// All durable state flows through the Env abstraction: a small filesystem
// interface (sequential reads, append-only writes with an explicit fsync
// barrier, atomic rename) with two implementations — the real POSIX
// filesystem, and FaultInjectingEnv, which wraps another Env and turns
// "the process crashed at byte N of operation K" into a deterministic,
// seed-controlled event. That determinism is what lets the recovery tests
// sweep every failure point of the snapshot-write and WAL-append paths and
// prove, not hope, that recovery never loses an acknowledged record.
//
// Error handling is value-based (Status / StatusOr) so corrupt or torn
// files surface as typed errors instead of UB; IoError is the exception
// bridge used by index mutation paths whose signatures predate persistence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace fast::storage {

enum class StatusCode {
  kOk,
  kIoError,          ///< underlying filesystem operation failed
  kNotFound,         ///< file or directory absent
  kCorrupt,          ///< checksum mismatch / malformed framing
  kBadMagic,         ///< file is not the expected format at all
  kBadVersion,       ///< written by a future format version
  kConfigMismatch,   ///< snapshot fingerprint != caller's config
  kInjectedFault,    ///< FaultInjectingEnv fired its planned fault
};

class Status {
 public:
  Status() = default;  // ok

  static Status error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "ok" or "<code>: <message>" for logs and test diagnostics.
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    FAST_CHECK_MSG(!status_.ok(), "StatusOr built from an ok Status");
  }
  StatusOr(T value)  // NOLINT(runtime/explicit)
      : value_(std::move(value)) {}

  bool ok() const noexcept { return status_.ok(); }
  const Status& status() const noexcept { return status_; }

  T& value() & {
    FAST_CHECK_MSG(ok(), "StatusOr::value on an error");
    return *value_;
  }
  const T& value() const& {
    FAST_CHECK_MSG(ok(), "StatusOr::value on an error");
    return *value_;
  }
  T&& value() && {
    FAST_CHECK_MSG(ok(), "StatusOr::value on an error");
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Exception bridge for write-ahead logging inside mutation paths
/// (FastIndex::insert_signature / erase return domain results, not Status).
/// A thrown IoError means the index must be treated as crashed: discard the
/// instance and open_or_recover from disk.
class IoError : public std::runtime_error {
 public:
  explicit IoError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

/// Throws IoError carrying `status` unless it is ok.
inline void throw_if_error(Status status) {
  if (!status.ok()) throw IoError(std::move(status));
}

/// Append-only byte sink. Appends are durable only after a successful
/// sync() — exactly the POSIX write/fsync contract the WAL relies on.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status append(std::span<const std::uint8_t> data) = 0;
  virtual Status sync() = 0;
  virtual Status close() = 0;
};

/// Forward-only byte source.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  /// Reads up to out.size() bytes; returns the count read (< out.size()
  /// only at end of file).
  virtual StatusOr<std::size_t> read(std::span<std::uint8_t> out) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  virtual StatusOr<std::unique_ptr<WritableFile>> new_writable(
      const std::string& path, bool truncate) = 0;
  virtual StatusOr<std::unique_ptr<SequentialFile>> new_sequential(
      const std::string& path) = 0;

  virtual Status make_dirs(const std::string& dir) = 0;
  /// File names (not paths) inside `dir`, unsorted.
  virtual StatusOr<std::vector<std::string>> list_dir(
      const std::string& dir) = 0;
  virtual Status rename_file(const std::string& from,
                             const std::string& to) = 0;
  virtual Status remove_file(const std::string& path) = 0;
  virtual bool file_exists(const std::string& path) = 0;

  /// The process-wide real-filesystem Env.
  static Env& posix();
};

/// Convenience: reads a whole file into memory (snapshot/WAL loading).
StatusOr<std::vector<std::uint8_t>> read_file(Env& env,
                                              const std::string& path);

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One planned fault. Ops are counted across the env: every WritableFile
/// append and sync, and every rename/remove, is one op. At op index
/// `fail_at_op` the planned fault fires. Every kind but the transient one
/// is a crash: the env enters the crashed state, in which every subsequent
/// mutating operation fails — modeling the process dying mid-write.
/// Recovery then reopens the directory with a clean Env, exactly like a
/// restart.
struct FaultPlan {
  enum class Kind {
    kNone,        ///< never fire (dry runs that only count ops)
    kFail,        ///< the op performs no I/O and fails
    kShortWrite,  ///< a seed-chosen prefix of the append lands, then crash
    kTornWrite,   ///< short prefix + a few corrupted trailing bytes land
    /// A live I/O error, not a crash: an append lands a seed-chosen prefix
    /// (a sync, rename or remove does nothing) and fails, and later ops
    /// succeed again.
    kTransientShortWrite,
  };
  Kind kind = Kind::kNone;
  std::size_t fail_at_op = ~std::size_t{0};
  std::uint64_t seed = 0;
};

/// Wraps a base Env with the write-loss semantics of a real crash:
/// appended bytes live in a buffer (the "page cache") until sync() flushes
/// them to the base env, so un-synced appends VANISH when the planned fault
/// fires — only synced data, plus the deterministic partial bytes of the
/// failing append itself, survive to be seen by recovery.
class FaultInjectingEnv : public Env {
 public:
  FaultInjectingEnv(Env& base, FaultPlan plan)
      : base_(base), plan_(plan) {}

  StatusOr<std::unique_ptr<WritableFile>> new_writable(
      const std::string& path, bool truncate) override;
  StatusOr<std::unique_ptr<SequentialFile>> new_sequential(
      const std::string& path) override;
  Status make_dirs(const std::string& dir) override;
  StatusOr<std::vector<std::string>> list_dir(const std::string& dir) override;
  Status rename_file(const std::string& from, const std::string& to) override;
  Status remove_file(const std::string& path) override;
  bool file_exists(const std::string& path) override;

  /// Mutating ops observed so far (append/sync/rename/remove). A dry run
  /// with Kind::kNone sizes the crash matrix: every N < ops_attempted() is
  /// a distinct deterministic failure point.
  std::size_t ops_attempted() const noexcept { return ops_; }
  bool crashed() const noexcept { return crashed_; }

 private:
  friend class FaultWritableFile;

  /// Counts one op; returns true when the planned fault fires on it.
  bool tick();
  Status crashed_status() const {
    return Status::error(StatusCode::kInjectedFault,
                         "injected fault at op " +
                             std::to_string(plan_.fail_at_op));
  }

  Env& base_;
  FaultPlan plan_;
  std::size_t ops_ = 0;
  bool crashed_ = false;
};

}  // namespace fast::storage
