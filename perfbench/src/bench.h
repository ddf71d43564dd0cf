// Entry points of the workloads and the run context they share.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "shapes.h"
#include "util.h"

namespace perfbench {

// Settings every workload shares. perfbench/README.md gives the reason for
// each value.
inline constexpr double kZipf = 0.8;            ///< person skew of requests
inline constexpr size_t kConnections = 4;
inline constexpr int kServerThreads = 1;        ///< SCALEIN_THREADS
inline constexpr int kMaxRunning = 4;           ///< SCALEIN_SLA_MAX_RUNNING
inline constexpr uint64_t kSessionLease = 2000000;
inline constexpr uint64_t kReopenEvery = 100;   ///< requests per session
inline constexpr double kClientTimeoutS = 5.0;
inline constexpr uint64_t kLogMaxBytes = 256ULL << 20;  ///< journal, access log
inline constexpr uint64_t kWarmupRequests = 250;  ///< per connection
inline constexpr uint64_t kSetupReps = 3;
inline constexpr double kOpenSeconds = 3.0;     ///< open loop of a run
inline constexpr uint64_t kReplayWarmup = 200;
inline constexpr uint64_t kReplayRequests = 2000;

/// Settings that differ between the workloads.
struct WorkloadSpec {
  std::string name;
  double rate = 0;                ///< open-loop offered rate, req/s
  double window_s = 1;            ///< open-loop latency window length
  uint64_t samples_per_conn = 64; ///< answers checked per connection, loop
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunContext {
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;  ///< the shipped server, built from source
  std::string run_dir;     ///< scratch directory inside the checkout
};

struct RunOutput {
  MetricSink metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// point / fanout / cold_plans: the shipped server over loopback TCP.
RunOutput RunReadWorkload(const RunContext& ctx);

/// Updates beside reads, in-process and single-threaded, traced: adds the
/// relational/incremental/views per-layer metrics and the batch and read
/// counts to `out`; returns false when a correctness gate failed.
bool RunMaintainTrace(const RunContext& ctx, RunOutput* out);

/// Traced in-process replay of a read workload's request stream (the
/// per-layer split of Server::HandleLine). Adds its metrics to `out`;
/// returns false when the per-layer identity does not hold.
bool RunReplay(const RunContext& ctx, const QueryMix& mix,
               const std::vector<std::string>& catalog_lines,
               MetricSink* out);

/// Every per-layer metric name with its unit, in BENCHMARK.json order; a
/// traced run reports each one (0 for a layer the workload does not touch).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Order statistics helper: adds <name>.p50 / .p99 (and .n when
/// `with_count`) from `samples`, scaled by `scale`.
void AddPercentiles(MetricSink* out, const std::string& name,
                    const std::vector<double>& samples, const char* unit,
                    bool with_count = false);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
