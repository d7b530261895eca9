// The fast_server child process: spawn with pinned flags, wait until it
// answers a ping, read its peak RSS, stop it with SIGTERM (drain, fsync,
// snapshot) and reap it. The destructor kills and reaps a child that is
// still running, so no exit path leaves a server behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `binary args...` with --port=0, stdout/stderr to `log_path`,
  /// and blocks until the server answers a ping (or `timeout_s` passes).
  /// Returns the seconds from spawn to the first answered ping; negative
  /// on failure.
  double start(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path, double timeout_s = 60.0);

  std::uint16_t port() const noexcept { return port_; }
  bool running() const noexcept { return pid_ > 0; }

  /// VmHWM (peak resident set) of the child, MB; 0 when unreadable.
  double peak_rss_mb() const;

  /// User + system CPU time the child has used so far, all threads, in
  /// seconds (clock-tick resolution); 0 when unreadable.
  double cpu_s() const;

  /// SIGTERM, then wait up to `timeout_s` (SIGKILL after). Returns the
  /// exit status (0 = clean drain), or -1 when it had to be killed.
  int stop(double timeout_s = 60.0);

 private:
  void kill_now();

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace servebench
