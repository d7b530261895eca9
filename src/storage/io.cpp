#include "storage/io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <unistd.h>

namespace fast::storage {

namespace {

const char* code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kCorrupt: return "corrupt";
    case StatusCode::kBadMagic: return "bad_magic";
    case StatusCode::kBadVersion: return "bad_version";
    case StatusCode::kConfigMismatch: return "config_mismatch";
    case StatusCode::kInjectedFault: return "injected_fault";
  }
  return "unknown";
}

Status errno_status(const std::string& op, const std::string& path) {
  return Status::error(StatusCode::kIoError,
                       op + " " + path + ": " + std::strerror(errno));
}

// ---------------------------------------------------------------------------
// POSIX env
// ---------------------------------------------------------------------------

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) (void)std::fclose(file_);
  }

  Status append(std::span<const std::uint8_t> data) override {
    if (file_ == nullptr) {
      return Status::error(StatusCode::kIoError, "append on closed " + path_);
    }
    if (data.empty()) return Status{};
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return errno_status("write", path_);
    }
    return Status{};
  }

  Status sync() override {
    if (file_ == nullptr) {
      return Status::error(StatusCode::kIoError, "sync on closed " + path_);
    }
    if (std::fflush(file_) != 0) return errno_status("flush", path_);
    if (::fsync(fileno(file_)) != 0) return errno_status("fsync", path_);
    return Status{};
  }

  Status close() override {
    if (file_ == nullptr) return Status{};
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) return errno_status("close", path_);
    return Status{};
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixSequentialFile() override {
    if (file_ != nullptr) (void)std::fclose(file_);
  }

  StatusOr<std::size_t> read(std::span<std::uint8_t> out) override {
    const std::size_t n = std::fread(out.data(), 1, out.size(), file_);
    if (n < out.size() && std::ferror(file_) != 0) {
      return errno_status("read", path_);
    }
    return n;
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixEnv final : public Env {
 public:
  StatusOr<std::unique_ptr<WritableFile>> new_writable(
      const std::string& path, bool truncate) override {
    std::FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (f == nullptr) return errno_status("open", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(f, path));
  }

  StatusOr<std::unique_ptr<SequentialFile>> new_sequential(
      const std::string& path) override {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      if (errno == ENOENT) {
        return Status::error(StatusCode::kNotFound, "no such file: " + path);
      }
      return errno_status("open", path);
    }
    return std::unique_ptr<SequentialFile>(
        std::make_unique<PosixSequentialFile>(f, path));
  }

  Status make_dirs(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::error(StatusCode::kIoError,
                           "mkdir " + dir + ": " + ec.message());
    }
    return Status{};
  }

  StatusOr<std::vector<std::string>> list_dir(const std::string& dir) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec) {
      return Status::error(StatusCode::kIoError,
                           "list " + dir + ": " + ec.message());
    }
    return names;
  }

  Status rename_file(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return errno_status("rename", from + " -> " + to);
    }
    return Status{};
  }

  Status remove_file(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) return errno_status("remove", path);
    return Status{};
  }

  bool file_exists(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::exists(path, ec);
  }
};

}  // namespace

std::string Status::to_string() const {
  if (ok()) return "ok";
  return std::string(code_name(code_)) + ": " + message_;
}

Env& Env::posix() {
  static PosixEnv env;
  return env;
}

StatusOr<std::vector<std::uint8_t>> read_file(Env& env,
                                              const std::string& path) {
  auto file = env.new_sequential(path);
  if (!file.ok()) return file.status();
  std::vector<std::uint8_t> out;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    auto n = file.value()->read(chunk);
    if (!n.ok()) return n.status();
    out.insert(out.end(), chunk, chunk + n.value());
    if (n.value() < sizeof(chunk)) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultInjectingEnv
// ---------------------------------------------------------------------------

namespace {
/// Cheap stateless scrambler for deriving per-op values from the plan seed.
std::uint64_t scramble(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

/// Buffers appends until sync, so a crash drops everything un-synced — the
/// page-cache loss model that makes "acknowledged == fsynced" testable.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectingEnv& env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status append(std::span<const std::uint8_t> data) override {
    if (env_.crashed_) return env_.crashed_status();
    if (env_.tick()) return inject(data);
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    return Status{};
  }

  Status sync() override {
    if (env_.crashed_) return env_.crashed_status();
    if (env_.tick()) {
      // A crash at fsync may lose everything since the last barrier; a
      // transient failure leaves the buffered bytes for a later sync.
      if (env_.crashed_) buffer_.clear();
      return env_.crashed_status();
    }
    Status s = base_->append(buffer_);
    if (s.ok()) s = base_->sync();
    buffer_.clear();
    return s;
  }

  Status close() override {
    // A clean close leaves the buffered bytes in the OS page cache; they
    // reach the disk eventually, so flush them through (no op charged, not
    // a crash point — the process survived to close the file).
    if (env_.crashed_) return env_.crashed_status();
    Status s = base_->append(buffer_);
    buffer_.clear();
    if (s.ok()) s = base_->close();
    return s;
  }

 private:
  /// The planned fault fires on this append: a deterministic prefix of the
  /// data (plus corrupted trailing bytes for torn writes) lands in the base
  /// file, un-synced buffered bytes are lost, and the env is crashed. A
  /// transient fault instead lands the buffered bytes and then the prefix,
  /// as a short write() that returned an error would, and the env lives on.
  Status inject(std::span<const std::uint8_t> data) {
    const FaultPlan& plan = env_.plan_;
    if (plan.kind != FaultPlan::Kind::kFail && !data.empty()) {
      const std::uint64_t r = scramble(plan.seed ^ (env_.ops_ * 0x9e37ULL));
      const std::size_t landed = static_cast<std::size_t>(
          r % (static_cast<std::uint64_t>(data.size()) + 1));
      if (plan.kind == FaultPlan::Kind::kTransientShortWrite) {
        buffer_.insert(buffer_.end(), data.begin(), data.begin() + landed);
        (void)base_->append(buffer_);
        buffer_.clear();
        return env_.crashed_status();
      }
      std::vector<std::uint8_t> partial(data.begin(),
                                        data.begin() + landed);
      if (plan.kind == FaultPlan::Kind::kTornWrite) {
        // A torn sector: a few more bytes land, but scrambled.
        const std::size_t torn = std::min<std::size_t>(8, data.size() - landed);
        for (std::size_t i = 0; i < torn; ++i) {
          partial.push_back(static_cast<std::uint8_t>(
              data[landed + i] ^ (0xa5u + static_cast<std::uint8_t>(i)) ^
              static_cast<std::uint8_t>(r >> (8 * (i % 8)))));
        }
      }
      (void)base_->append(partial);
      (void)base_->sync();
    }
    if (env_.crashed_) buffer_.clear();
    return env_.crashed_status();
  }

  FaultInjectingEnv& env_;
  std::unique_ptr<WritableFile> base_;
  std::vector<std::uint8_t> buffer_;
};

bool FaultInjectingEnv::tick() {
  const std::size_t op = ops_++;
  if (plan_.kind != FaultPlan::Kind::kNone && op == plan_.fail_at_op) {
    crashed_ = plan_.kind != FaultPlan::Kind::kTransientShortWrite;
    return true;
  }
  return false;
}

StatusOr<std::unique_ptr<WritableFile>> FaultInjectingEnv::new_writable(
    const std::string& path, bool truncate) {
  if (crashed_) return crashed_status();
  auto base = base_.new_writable(path, truncate);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(std::make_unique<FaultWritableFile>(
      *this, std::move(base).value()));
}

StatusOr<std::unique_ptr<SequentialFile>> FaultInjectingEnv::new_sequential(
    const std::string& path) {
  if (crashed_) return crashed_status();
  return base_.new_sequential(path);
}

Status FaultInjectingEnv::make_dirs(const std::string& dir) {
  if (crashed_) return crashed_status();
  return base_.make_dirs(dir);
}

StatusOr<std::vector<std::string>> FaultInjectingEnv::list_dir(
    const std::string& dir) {
  if (crashed_) return crashed_status();
  return base_.list_dir(dir);
}

Status FaultInjectingEnv::rename_file(const std::string& from,
                                      const std::string& to) {
  if (crashed_) return crashed_status();
  if (tick()) return crashed_status();  // rename either happens or does not
  return base_.rename_file(from, to);
}

Status FaultInjectingEnv::remove_file(const std::string& path) {
  if (crashed_) return crashed_status();
  if (tick()) return crashed_status();
  return base_.remove_file(path);
}

bool FaultInjectingEnv::file_exists(const std::string& path) {
  return base_.file_exists(path);
}

}  // namespace fast::storage
