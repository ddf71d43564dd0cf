#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSec() { return static_cast<double>(NowNs()) / 1e9; }

void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stdout);
  std::exit(2);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi]) || lo == hi) return v[hi == lo ? lo : hi];
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<uint32_t>& windows, double q,
                        size_t min_samples) {
  std::vector<std::vector<double>> by_window;
  for (size_t i = 0; i < values.size() && i < windows.size(); ++i) {
    if (windows[i] >= by_window.size()) by_window.resize(windows[i] + 1);
    by_window[windows[i]].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : by_window) {
    if (!w.empty() && w.size() >= min_samples) {
      per_window.push_back(Quantile(w, q));
    }
  }
  // Too slow for any full window: fall back to the run's own quantile.
  if (per_window.empty()) return Quantile(values, q);
  return Median(std::move(per_window));
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return -1.0;
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  values_[name] = {value, unit};
}

std::string MetricSink::ResultJson(bool correct, uint64_t attempted,
                                   uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    double v = vu.first;
    if (!std::isfinite(v)) v = 0.0;  // JSON has no NaN/inf; callers avoid it
    char num[64];
    std::snprintf(num, sizeof(num), "%.9g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
