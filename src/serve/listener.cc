#include "serve/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <string>
#include <system_error>
#include <utility>

#include "util/failpoint.h"

namespace scalein::serve {
namespace {

/// Pending-connection queue depth of every loopback door.
constexpr int kBacklog = 64;

}  // namespace

Listener::Listener(const char* accept_site, obs::MetricsRegistry* metrics,
                   Handler handler)
    : accept_site_(accept_site),
      metrics_(metrics),
      handler_(std::move(handler)) {}

Listener::~Listener() { Shutdown(); }

Status Listener::Listen(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const char* failed = nullptr;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    failed = "bind: ";
  } else if (::listen(listen_fd_, kBacklog) < 0) {
    failed = "listen: ";
  }
  if (failed != nullptr) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(failed + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Listener::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR) continue;
      break;  // listener closed or broken: stop accepting
    }
    if (!SCALEIN_FAILPOINT(accept_site_).ok()) {
      // Injected accept fault: this connection is the blast radius —
      // count it, drop it, keep serving everyone else.
      metrics_->GetCounter("serve.io_faults").Increment();
      ::close(fd);
      continue;
    }
    std::list<Conn> finished;  // joined outside mu_: their last step takes it
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_relaxed)) {
        ::close(fd);
        break;
      }
      for (auto it = conns_.begin(); it != conns_.end();) {
        const auto next = std::next(it);
        if (it->finished) finished.splice(finished.end(), conns_, it);
        it = next;
      }
      Conn& conn = conns_.emplace_back();
      conn.fd = fd;
      const uint64_t conn_id = accepted_.load(std::memory_order_relaxed) + 1;
      try {
        conn.thread = std::thread(&Listener::RunConnection, this, &conn,
                                  conn_id);
        accepted_.store(conn_id, std::memory_order_relaxed);
      } catch (const std::system_error&) {
        // No thread to serve it (a thread or memory limit): drop only it.
        conns_.pop_back();
        ::close(fd);
        metrics_->GetCounter("serve.io_faults").Increment();
      }
    }
    for (Conn& done : finished) done.thread.join();
  }
}

void Listener::RunConnection(Conn* conn, uint64_t conn_id) {
  handler_(conn->fd, conn_id);
  std::lock_guard<std::mutex> lock(mu_);
  ::close(conn->fd);
  conn->finished = true;
}

void Listener::Shutdown() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  std::list<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Conn& conn : conns_) {
      if (!conn.finished) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Nothing spawns any more; splicing keeps each thread's node in place.
    std::lock_guard<std::mutex> lock(mu_);
    conns.splice(conns.end(), conns_);
  }
  for (Conn& conn : conns) conn.thread.join();
  listen_fd_ = -1;
}

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t w = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (w <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(w));
  }
  return true;
}

}  // namespace scalein::serve
