// Small helpers shared by the benchmark's load generator: clocks, order
// statistics, the metric sink that renders the final result line, and fatal
// errors.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds / seconds.
uint64_t NowNs();
double NowSec();

/// Prints "perfbench: <msg>" to stderr and exits with status 2. Used for
/// set-up failures and correctness-gate violations: the run prints no
/// result line.
[[noreturn]] void Die(const std::string& msg);

/// Linear-interpolated quantile of `v` (q in [0,1]); NaN when empty.
/// +inf entries (failed requests) sort last and propagate as +inf.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// The median over windows of each window's q-quantile: values[i] falls in
/// window windows[i]; windows with fewer than `min_samples` values are
/// skipped (when none qualifies, the q-quantile of all values). One stall
/// episode then moves one window, not the run's figure.
double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<uint32_t>& windows, double q,
                        size_t min_samples);

/// Peak resident set (VmHWM) of a process, in MiB; -1 when unreadable.
double PeakRssMb(int pid);

/// Metrics of one run, keyed by name; rendered as the final JSON line.
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{...}}
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
