// The benchmark's side of the TCP boundary: the shipped server as a child
// process, blocking and pipelined client connections, and the /metrics
// scrape.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/message.h"

namespace perfbench {

/// The shipped server (`scalein_served <catalog>`) as a child process. Its
/// stdout announces the protocol and scrape ports; stderr goes to a file.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server with `env` ("K=V") added to the inherited
  /// environment and waits until it listens. Dies on failure.
  void Start(const std::string& binary, const std::string& catalog,
             const std::vector<std::string>& env,
             const std::string& stderr_path, double timeout_s);

  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }
  int pid() const { return pid_; }

  /// True while the child has not exited (reaps it if it has).
  bool Alive();

  /// SIGTERM, wait up to `timeout_s`, then SIGKILL. Returns the exit status
  /// as text ("exit 0", "signal 11", ...). Idempotent.
  std::string Stop(double timeout_s);

 private:
  void Reap(int status);

  int pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
  std::string exit_status_;
};

/// Kills (SIGKILL) and reaps every server child still running; for exit
/// paths that skip destructors (Die).
void KillLiveServers();

/// One protocol connection. Blocking calls carry a deadline so a hung
/// server surfaces as a timeout, never as a stuck benchmark.
class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(uint16_t port);
  void Close();
  int fd() const { return fd_; }

  /// Writes all of `bytes`; false on error or deadline.
  bool SendAll(const std::string& bytes, uint64_t deadline_ns);
  /// Reads until one frame is complete; false on EOF, error or deadline.
  bool ReadFrame(bool* ok, std::string* payload, uint64_t deadline_ns);

 private:
  /// Reads what is available into the decoder; false on EOF or error.
  bool ReadAvailable();

  int fd_ = -1;
  scalein::serve::FrameDecoder decoder_;
};

/// One request/response exchange on a fresh blocking connection.
bool Exchange(Conn* conn, const std::string& line, bool* ok,
              std::string* payload, double timeout_s);

/// GET /metrics from the scrape port: dotted metric name -> value (counters
/// and gauges; histograms contribute <name>.count and <name>.sum).
std::map<std::string, double> ScrapeMetrics(uint16_t port, double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
