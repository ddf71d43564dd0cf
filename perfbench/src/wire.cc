#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "util.h"

extern char** environ;

namespace perfbench {

namespace {

int RemainingMs(uint64_t deadline_ns) {
  const uint64_t now = NowNs();
  if (now >= deadline_ns) return 0;
  return static_cast<int>((deadline_ns - now) / 1000000 + 1);
}

// Reads one '\n'-terminated line from `fd` before the deadline.
bool ReadLine(int fd, std::string* line, uint64_t deadline_ns) {
  line->clear();
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, RemainingMs(deadline_ns));
    if (rc <= 0) return false;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

uint16_t PortAfter(const std::string& line, const std::string& prefix) {
  if (line.rfind(prefix, 0) != 0) return 0;
  const size_t colon = line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
}

// Children started and not yet reaped. Only the main thread starts and
// stops servers.
std::vector<int>& LivePids() {
  static std::vector<int> pids;
  return pids;
}

void Forget(int pid) {
  std::vector<int>& pids = LivePids();
  pids.erase(std::remove(pids.begin(), pids.end(), pid), pids.end());
}

}  // namespace

void KillLiveServers() {
  for (int pid : LivePids()) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  LivePids().clear();
}

ServerProcess::~ServerProcess() { Stop(5.0); }

void ServerProcess::Start(const std::string& binary,
                          const std::string& catalog,
                          const std::vector<std::string>& env,
                          const std::string& stderr_path, double timeout_s) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) Die("pipe failed");
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    // The benchmark fixes every SCALEIN_* knob itself.
    if (kv.rfind("SCALEIN_", 0) != 0) env_store.push_back(kv);
  }
  for (const std::string& kv : env) env_store.push_back(kv);
  std::vector<char*> envp;
  for (std::string& kv : env_store) envp.push_back(kv.data());
  envp.push_back(nullptr);
  std::string bin = binary;
  std::string cat = catalog;
  char* argv[] = {bin.data(), cat.data(), nullptr};

  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    const int err = ::open(stderr_path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
    ::close(out_pipe[0]);
    ::execve(bin.c_str(), argv, envp.data());
    _exit(127);
  }
  ::close(out_pipe[1]);
  pid_ = pid;
  LivePids().push_back(pid);
  stdout_fd_ = out_pipe[0];
  exit_status_.clear();
  port_ = 0;
  metrics_port_ = 0;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  std::string line;
  while (port_ == 0 || metrics_port_ == 0) {
    if (!ReadLine(stdout_fd_, &line, deadline)) {
      const std::string why = Stop(1.0);
      Die("server did not come up (" + why + "); see " + stderr_path);
    }
    if (uint16_t p = PortAfter(line, "listening on "); p != 0) port_ = p;
    if (uint16_t p = PortAfter(line, "metrics on "); p != 0) {
      metrics_port_ = p;
    }
  }
}

void ServerProcess::Reap(int status) {
  if (WIFEXITED(status)) {
    exit_status_ = "exit " + std::to_string(WEXITSTATUS(status));
  } else if (WIFSIGNALED(status)) {
    exit_status_ = "signal " + std::to_string(WTERMSIG(status));
  } else {
    exit_status_ = "status " + std::to_string(status);
  }
  Forget(pid_);
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

bool ServerProcess::Alive() {
  if (pid_ < 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    Reap(status);
    return false;
  }
  return true;
}

std::string ServerProcess::Stop(double timeout_s) {
  if (pid_ < 0) return exit_status_;
  if (!Alive()) return exit_status_;
  ::kill(pid_, SIGTERM);
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  while (NowNs() < deadline) {
    // Drain the announcement pipe so a late print cannot block the child.
    char buf[256];
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 5) > 0) (void)::read(stdout_fd_, buf, sizeof(buf));
    if (!Alive()) return exit_status_;
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  Reap(status);
  exit_status_ += " (killed after SIGTERM timeout)";
  return exit_status_;
}

bool Conn::Connect(uint16_t port) {
  Close();
  decoder_ = scalein::serve::FrameDecoder();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Close();
    return false;
  }
  return true;
}

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Conn::SendAll(const std::string& bytes, uint64_t deadline_ns) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd_, POLLOUT, 0};
      if (::poll(&p, 1, RemainingMs(deadline_ns)) <= 0) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool Conn::ReadAvailable() {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool Conn::ReadFrame(bool* ok, std::string* payload, uint64_t deadline_ns) {
  for (;;) {
    if (decoder_.Next(ok, payload)) return true;
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, RemainingMs(deadline_ns)) <= 0) return false;
    if (!ReadAvailable()) {
      return decoder_.Next(ok, payload);
    }
  }
}

bool Exchange(Conn* conn, const std::string& line, bool* ok,
              std::string* payload, double timeout_s) {
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  return conn->SendAll(line + "\n", deadline) &&
         conn->ReadFrame(ok, payload, deadline);
}

std::map<std::string, double> ScrapeMetrics(uint16_t port, double timeout_s) {
  std::map<std::string, double> out;
  Conn conn;
  if (!conn.Connect(port)) Die("cannot connect to the metrics port");
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  if (!conn.SendAll("GET /metrics HTTP/1.0\r\n\r\n", deadline)) {
    Die("metrics scrape: send failed");
  }
  std::string body;
  char buf[65536];
  for (;;) {
    pollfd p{conn.fd(), POLLIN, 0};
    if (::poll(&p, 1, RemainingMs(deadline)) <= 0) {
      Die("metrics scrape timed out");
    }
    const ssize_t n = ::recv(conn.fd(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    body.append(buf, static_cast<size_t>(n));
  }
  const size_t header_end = body.find("\r\n\r\n");
  if (body.rfind("HTTP/1.0 200", 0) != 0 || header_end == std::string::npos) {
    Die("metrics scrape: unexpected response");
  }
  body.erase(0, header_end + 4);
  // "# HELP <prom_name> <dotted name>" precedes each series; map back.
  std::map<std::string, std::string> dotted;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.rfind("# HELP ", 0) == 0) {
      // "# HELP <prom_name> scalein metric <dotted name>"
      std::istringstream h(line.substr(7));
      std::string prom, word1, word2, name;
      h >> prom >> word1 >> word2 >> name;
      dotted[prom] = name;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string key = line.substr(0, sp);
    const double v = std::strtod(line.c_str() + sp + 1, nullptr);
    if (key.find('{') != std::string::npos) continue;  // histogram buckets
    std::string suffix;
    for (const char* s : {"_count", "_sum"}) {
      const std::string sfx(s);
      if (dotted.count(key) == 0 && key.size() > sfx.size() &&
          key.compare(key.size() - sfx.size(), sfx.size(), sfx) == 0) {
        suffix = "." + sfx.substr(1);
        key.resize(key.size() - sfx.size());
      }
    }
    auto it = dotted.find(key);
    out[(it == dotted.end() ? key : it->second) + suffix] = v;
  }
  return out;
}

}  // namespace perfbench
