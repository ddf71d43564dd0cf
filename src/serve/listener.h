#ifndef SCALEIN_SERVE_LISTENER_H_
#define SCALEIN_SERVE_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "util/status.h"

namespace scalein::serve {

/// The loopback connection lifecycle under serve::Port and
/// serve::MetricsHttp: binds 127.0.0.1:<port>, accepts on one thread and
/// runs the handler on one thread per connection, closing the fd when the
/// handler returns. The accept loop joins finished connection threads before
/// it spawns the next one (Shutdown joins the rest), so the threads held —
/// and the stacks the C library keeps until a join — are bounded by live
/// connections, not by connections ever accepted. A fired `accept_site`
/// failpoint counts serve.io_faults and drops only that connection.
class Listener {
 public:
  /// Serves one connection; `conn_id` counts accepted connections from 1.
  using Handler = std::function<void(int fd, uint64_t conn_id)>;

  /// `metrics` receives serve.io_faults and must outlive the listener.
  Listener(const char* accept_site, obs::MetricsRegistry* metrics,
           Handler handler);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:<port> (0 = ephemeral), listens, and spawns the accept
  /// loop.
  Status Listen(uint16_t port);

  /// The bound port (after Listen; ephemeral requests resolve here).
  uint16_t port() const { return port_; }

  /// Connections handed to the handler so far (faulted accepts excluded).
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Closes the listener and shuts every live connection down, then joins
  /// all threads. Idempotent; called by the destructor.
  void Shutdown();

 private:
  struct Conn {
    int fd = -1;
    bool finished = false;  ///< under mu_: fd closed, thread about to exit
    std::thread thread;
  };

  void AcceptLoop();
  void RunConnection(Conn* conn, uint64_t conn_id);

  const char* const accept_site_;
  obs::MetricsRegistry* const metrics_;
  const Handler handler_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> accepted_{0};
  std::mutex mu_;
  std::list<Conn> conns_;  ///< guarded by mu_; nodes never move
  std::thread accept_thread_;
};

/// Writes all of `bytes` to socket `fd`; false once the peer is gone. Never
/// raises SIGPIPE, so a write racing Shutdown fails only that connection.
bool WriteAll(int fd, std::string_view bytes);

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_LISTENER_H_
