#include "server_process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "server/client.hpp"
#include "spans.hpp"

namespace servebench {

namespace {

/// Port from the server's "listening on 127.0.0.1:<port>" banner, 0 while
/// it has not been printed yet.
std::uint16_t port_from_log(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  const std::string marker = "listening on ";
  while (std::getline(in, line)) {
    const std::size_t at = line.find(marker);
    if (at == std::string::npos) continue;
    const std::size_t colon = line.find(':', at + marker.size());
    if (colon == std::string::npos) return 0;
    return static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
  }
  return 0;
}

bool pinged(std::uint16_t port) {
  fast::server::Client client;
  if (!client.connect("127.0.0.1", port).ok()) return false;
  const auto reply = client.ping();
  return reply.ok() && reply.value().status == fast::server::Status::kOk;
}

}  // namespace

ServerProcess::~ServerProcess() { kill_now(); }

double ServerProcess::start(const std::string& binary,
                            const std::vector<std::string>& args,
                            const std::string& log_path, double timeout_s) {
  kill_now();
  std::vector<std::string> argv_s = {binary, "--port=0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const std::int64_t spawn_ns = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    // Die with the generator, even when it is killed mid-run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return -1.0;
    }
    if (port_ == 0) port_ = port_from_log(log_path);
    if (port_ != 0 && pinged(port_)) {
      return static_cast<double>(now_ns() - spawn_ns) * 1e-9;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  kill_now();
  return -1.0;
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double ServerProcess::cpu_s() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name, which may hold spaces:
  // state is field 3, utime and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 1));
  std::string skip;
  for (int field = 3; field < 14 && fields >> skip; ++field) {
  }
  double utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) return 0.0;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int ServerProcess::stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      port_ = 0;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill_now();
  return -1;
}

void ServerProcess::kill_now() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  port_ = 0;
}

}  // namespace servebench
