// Load generation over the real TCP port: a closed loop (each connection
// waits for its reply) and an open loop (Poisson arrivals on a fixed
// schedule), with per-request failure accounting and the Theorem 4.2 bound
// check on every response.
#ifndef PERFBENCH_LOOPS_H_
#define PERFBENCH_LOOPS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "shapes.h"

namespace perfbench {

/// What one response frame said.
struct Response {
  bool frame_ok = false;
  std::string action;   ///< admit / degrade / reject
  std::string reason;   ///< reject reason ("budget", "queue-full", ...)
  double bound = -1.0;  ///< static bound on the decision line; -1 = none
  bool has_result = false;
  uint64_t answers = 0;
  uint64_t fetched = 0;
  bool partial = false;
  std::string rendered;  ///< the (capped) answer-set rendering
  std::string tag;       ///< echoed trace tag
};

bool ParseResponse(bool frame_ok, const std::string& payload, Response* out);

/// Tallies of one loop; merged across connections.
struct LoopResult {
  uint64_t attempted = 0;
  uint64_t answered = 0;
  uint64_t protocol_errors = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t timeouts = 0;
  uint64_t lost = 0;  ///< pending when the connection or server died
  uint64_t bound_violations = 0;
  uint64_t fetched = 0;  ///< summed over answered requests
  uint64_t sessions = 0;
  double wall_s = 0.0;
  /// Per-request latency in ms (open loop: from due time; closed loop: from
  /// send). Failed requests enter as +inf.
  std::vector<double> latency_ms;
  /// Window of each latency_ms entry: seconds since the loop's start (open
  /// loop: of the due time; closed loop: of the send time) divided by the
  /// loop's window length.
  std::vector<uint32_t> window;
  /// Open loop: send time - due time (the generator's lateness, including
  /// waits for an idle connection).
  std::vector<double> gen_lag_ms;
  /// Closed loop: completions per one-second window (for a median rate).
  std::vector<double> window_qps;
  /// Sampled requests kept for the reference comparison.
  std::vector<std::pair<Request, std::string>> samples;
  /// Tagged runs: (tag, client RTT in ms) of answered requests.
  std::vector<std::pair<std::string, double>> tag_rtt_ms;
  std::vector<std::string> notes;  ///< first few failure descriptions

  /// The median over windows of each window's q-quantile of latency;
  /// windows with fewer than `min_samples` requests are skipped. Failed
  /// requests count as `fail_ms`.
  double WindowedQuantile(double q, size_t min_samples, double fail_ms) const;

  uint64_t failed() const {
    return protocol_errors + rejected + shed + degraded + timeouts + lost;
  }
  void Merge(LoopResult&& other);
};

struct LoadConfig {
  uint16_t port = 0;
  size_t connections = 4;
  uint64_t reopen_every = 100;  ///< requests per session (bye + hello)
  double timeout_s = 5.0;       ///< per-request client timeout
  uint64_t sample_every = 0;    ///< keep every n-th request for checking
  size_t max_samples = 0;       ///< per connection
  double window_s = 1.0;        ///< latency window length
  bool tagged = false;          ///< send per-request @tags
  std::string tag_prefix = "r";
};

/// Closed loop for `seconds`, or until each connection has sent
/// `max_per_conn` requests when that is non-zero: each connection draws its
/// own seeded stream.
LoopResult RunClosedLoop(const LoadConfig& cfg, const QueryMix& mix,
                         uint64_t seed, double seconds,
                         uint64_t max_per_conn = 0);

/// Open loop: Poisson arrivals at `rate` for `seconds`, drawn from `seed`;
/// each is sent on the next idle connection (at most one request in flight
/// per connection) and timed from its due time.
LoopResult RunOpenLoop(const LoadConfig& cfg, const QueryMix& mix,
                       uint64_t seed, double rate, double seconds);

/// Compares sampled responses with the reference; returns mismatches and
/// prints the first few.
uint64_t CheckSamples(const LoopResult& r, const QueryMix& mix,
                      const Reference& ref, uint64_t* checked);

}  // namespace perfbench

#endif  // PERFBENCH_LOOPS_H_
