#include "serve/port.h"

#include <unistd.h>

#include <string>

#include "obs/flight_recorder.h"
#include "serve/message.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace scalein::serve {

Port::Port(Server* server, Options options)
    : server_(server),
      options_(options),
      listener_("serve_accept", server->shell_metrics(),
                [this](int fd, uint64_t conn_id) { Serve(fd, conn_id); }) {}

void Port::Serve(int fd, uint64_t conn_id) {
  const std::string sid = StrFormat("conn%llu",
                                    static_cast<unsigned long long>(conn_id));
  std::string pending;
  char chunk[4096];
  bool session_opened = false;
  // Until disconnect, `bye` or a fault; Shutdown's SHUT_RDWR ends a blocked
  // read and fails the next write.
  for (;;) {
    if (!SCALEIN_FAILPOINT("serve_read").ok()) {
      server_->shell_metrics()->GetCounter("serve.io_faults").Increment();
      break;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;  // disconnect (or shutdown-induced error)
    pending.append(chunk, static_cast<size_t>(n));
    size_t nl;
    bool closing = false;
    while ((nl = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      const std::string_view stripped = StripWhitespace(line);
      Result<std::string> out = server_->HandleLine(sid, stripped);
      if (out.ok() && stripped == "hello") session_opened = true;
      const std::string frame =
          out.ok() ? EncodeFrame(true, *out)
                   : EncodeFrame(false, out.status().ToString() + "\n");
      if (!SCALEIN_FAILPOINT("serve_write").ok()) {
        server_->shell_metrics()->GetCounter("serve.io_faults").Increment();
        closing = true;
        break;
      }
      if (!WriteAll(fd, frame)) {
        closing = true;
        break;
      }
      // The flush phase: the response frame is on the wire. Unstamped (the
      // request's QueryId is not visible at the port layer), but adjacent
      // to the stamped serve-phase lifecycle event in the ring.
      obs::RecordFlightNums(obs::EventKind::kServePhase, "flush",
                            {{"bytes", static_cast<double>(frame.size())}});
      if (stripped == "bye") {
        session_opened = false;
        closing = true;
        break;
      }
    }
    if (closing) break;
  }
  // Client disconnect is a preemption event: close the session so its
  // envelope's cancellation token stops any still-running evaluation.
  if (session_opened) (void)server_->CloseSession(sid);
}

}  // namespace scalein::serve
