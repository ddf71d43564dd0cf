#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"
#include "obs/trace.h"
#include "util/check.h"

namespace scalein::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<uint64_t>[upper_bounds_.size() + 1]) {
  SI_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()));
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) buckets_[i].store(0);
}

size_t HistogramBucketIndex(const std::vector<double>& edges, double value) {
  return static_cast<size_t>(
      std::lower_bound(edges.begin(), edges.end(), value) - edges.begin());
}

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

void Histogram::Observe(double value) {
  const size_t bucket = HistogramBucketIndex(upper_bounds_, value);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(upper_bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<double> DefaultLatencyBucketsMs() {
  return {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0};
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    if (upper_bounds.empty()) upper_bounds = DefaultLatencyBucketsMs();
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) +
           "\": " + std::to_string(counter->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out +=
        "    \"" + JsonEscape(name) + "\": " + std::to_string(gauge->value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(hist->count()) +
           ", \"sum\": " + JsonNumber(hist->sum()) + ", \"buckets\": [";
    const std::vector<double>& bounds = hist->upper_bounds();
    std::vector<uint64_t> counts = hist->bucket_counts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i != 0) out += ", ";
      out += "{\"le\": ";
      out += i < bounds.size() ? JsonNumber(bounds[i]) : "\"inf\"";
      out += ", \"count\": " + std::to_string(counts[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dotted registry names
/// ("exec.governor.trips.deadline") map onto underscores.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

/// `le` label value: Prometheus renders bucket edges as floats, +Inf last.
std::string PromLe(double bound) {
  std::string s = JsonNumber(bound);
  return s;
}

/// The HELP line carries the registry's original dotted name: it is the one
/// piece of information sanitization destroys, and it lets a scraper map
/// `serve_e2e_ms_small` back to the `serve.e2e_ms.small` series that
/// `stats` renders. HELP text escapes `\` and newline per the exposition
/// format; dotted names contain neither, but user-supplied relation names
/// inside metric keys may.
std::string PromHelp(const std::string& prom_name, const std::string& name) {
  std::string text;
  for (char c : name) {
    if (c == '\\') {
      text += "\\\\";
    } else if (c == '\n') {
      text += "\\n";
    } else {
      text += c;
    }
  }
  return "# HELP " + prom_name + " scalein metric " + text + "\n";
}

}  // namespace

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    const std::string p = PromName(name);
    out += PromHelp(p, name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string p = PromName(name);
    out += PromHelp(p, name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(gauge->value()) + "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const std::string p = PromName(name);
    out += PromHelp(p, name);
    out += "# TYPE " + p + " histogram\n";
    const std::vector<double>& bounds = hist->upper_bounds();
    std::vector<uint64_t> counts = hist->bucket_counts();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      out += p + "_bucket{le=\"";
      out += i < bounds.size() ? PromLe(bounds[i]) : "+Inf";
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += p + "_sum " + JsonNumber(hist->sum()) + "\n";
    out += p + "_count " + std::to_string(hist->count()) + "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

ScopedLatencyMs::ScopedLatencyMs(Histogram* histogram)
    : histogram_(histogram) {
  if (histogram_ != nullptr) start_ns_ = MonotonicNowNs();
}

ScopedLatencyMs::~ScopedLatencyMs() {
  if (histogram_ == nullptr) return;
  histogram_->Observe(static_cast<double>(MonotonicNowNs() - start_ns_) /
                      1e6);
}

}  // namespace scalein::obs
