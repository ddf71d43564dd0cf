#include "obs/flight_recorder.h"

#include <atomic>

#include "obs/correlation.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace scalein::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kShellCommand:
      return "shell-command";
    case EventKind::kQueryStart:
      return "query-start";
    case EventKind::kQueryFinish:
      return "query-finish";
    case EventKind::kPlan:
      return "plan";
    case EventKind::kChaseStep:
      return "chase-step";
    case EventKind::kMaintenanceStep:
      return "maintenance-step";
    case EventKind::kGovernorTrip:
      return "governor-trip";
    case EventKind::kFailpointFire:
      return "failpoint-fire";
    case EventKind::kCertificate:
      return "certificate";
    case EventKind::kAdvisorSearch:
      return "advisor-search";
    case EventKind::kQdsiDecision:
      return "qdsi-decision";
    case EventKind::kWitnessSearch:
      return "witness-search";
    case EventKind::kViewRefresh:
      return "view-refresh";
    case EventKind::kMetricsDump:
      return "metrics-dump";
    case EventKind::kOpOpen:
      return "op-open";
    case EventKind::kOpNext:
      return "op-next-batch";
    case EventKind::kOpClose:
      return "op-close";
    case EventKind::kServePhase:
      return "serve-phase";
  }
  return "?";
}

std::pair<std::string, std::string> EventArg(std::string key,
                                             std::string_view value) {
  return {std::move(key), "\"" + JsonEscape(value) + "\""};
}

std::pair<std::string, std::string> EventArg(std::string key,
                                             const char* value) {
  return EventArg(std::move(key), std::string_view(value));
}

std::pair<std::string, std::string> EventArg(std::string key, uint64_t value) {
  return {std::move(key), std::to_string(value)};
}

std::pair<std::string, std::string> EventArg(std::string key, double value) {
  return {std::move(key), JsonNumber(value)};
}

std::pair<std::string, std::string> EventArg(std::string key, bool value) {
  return {std::move(key), value ? "true" : "false"};
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void FlightRecorder::Append(
    EventKind kind, std::string label,
    std::vector<std::pair<std::string, std::string>> args) {
  std::lock_guard<std::mutex> lock(mu_);
  FlightEvent event;
  event.seq = next_seq_++;
  event.t_ns = clock_ != nullptr ? clock_() : MonotonicNowNs();
  event.kind = kind;
  event.label = std::move(label);
  event.args = std::move(args);
  const QueryId qid = CurrentQueryId();
  event.qid_session = qid.session;
  event.qid_seq = qid.seq;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  // Saturated: slot seq % capacity holds the oldest event; overwrite it.
  ++dropped_;
  ring_[event.seq % capacity_] = std::move(event);
}

void FlightRecorder::AppendCompact(EventKind kind, const char* label,
                                   std::initializer_list<NumArg> nums) {
  std::lock_guard<std::mutex> lock(mu_);
  FlightEvent event;
  event.seq = next_seq_++;
  event.t_ns = clock_ != nullptr ? clock_() : MonotonicNowNs();
  event.kind = kind;
  event.label = label;
  const QueryId qid = CurrentQueryId();
  event.qid_session = qid.session;
  event.qid_seq = qid.seq;
  for (const NumArg& n : nums) {
    if (event.num_count == FlightEvent::kMaxNums) break;
    event.nums[event.num_count++] = n;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ++dropped_;
  ring_[event.seq % capacity_] = std::move(event);
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  const uint64_t oldest = next_seq_ - capacity_;
  for (uint64_t seq = oldest; seq < next_seq_; ++seq) {
    out.push_back(ring_[seq % capacity_]);
  }
  return out;
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t FlightRecorder::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_seq_ = 0;
  dropped_ = 0;
}

void FlightRecorder::set_clock(uint64_t (*clock)()) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = clock;
}

std::string FlightRecorder::ToJson() const {
  std::vector<FlightEvent> snapshot = events();
  uint64_t appended;
  uint64_t dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    appended = next_seq_;
    dropped = dropped_;
  }
  std::string out = "{\"capacity\":" + std::to_string(capacity_) +
                    ",\"appended\":" + std::to_string(appended) +
                    ",\"dropped\":" + std::to_string(dropped) + ",\"events\":[";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const FlightEvent& e = snapshot[i];
    if (i > 0) out += ",";
    out += "{\"seq\":" + std::to_string(e.seq) +
           ",\"t_ns\":" + std::to_string(e.t_ns) + ",\"kind\":\"" +
           EventKindName(e.kind) + "\",\"label\":\"" + JsonEscape(e.label) +
           "\"";
    if (e.qid_seq != 0) {
      // Only stamped events carry the field: an unstamped stream (no query
      // in flight) keeps its exact pre-correlation bytes.
      out += ",\"query_id\":\"" +
             RenderQueryId(QueryId{e.qid_session, e.qid_seq}) + "\"";
    }
    if (!e.args.empty() || e.num_count > 0) {
      out += ",\"args\":{";
      bool first = true;
      for (const auto& [key, value] : e.args) {
        if (!first) out += ",";
        first = false;
        out += "\"" + JsonEscape(key) + "\":" + value;
      }
      for (uint32_t a = 0; a < e.num_count; ++a) {
        if (!first) out += ",";
        first = false;
        // Counters are exact integers; render them without %g's 6-digit
        // rounding (a 7.9M fetch count must not dump as 7.9e+06).
        const double v = e.nums[a].value;
        if (v == static_cast<double>(static_cast<int64_t>(v))) {
          out += "\"" + JsonEscape(e.nums[a].key) +
                 "\":" + std::to_string(static_cast<int64_t>(v));
        } else {
          out += "\"" + JsonEscape(e.nums[a].key) + "\":" + JsonNumber(v);
        }
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

/// Failpoint fire → flight event. Installed while a global recorder is
/// live; util/ stays obs-free because the hook points the other way.
void RecordFailpointFire(const char* site, const char* action) {
  RecordFlightEvent(EventKind::kFailpointFire, site,
                    {EventArg("action", action)});
}

}  // namespace

FlightRecorder* FlightRecorder::Global() {
  return g_recorder.load(std::memory_order_relaxed);
}

void FlightRecorder::InstallGlobal(FlightRecorder* recorder) {
  g_recorder.store(recorder, std::memory_order_relaxed);
  util::Failpoints::Global().set_fire_listener(
      recorder != nullptr ? &RecordFailpointFire : nullptr);
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex16(uint64_t value) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::string Fingerprint(std::string_view canonical_text) {
  return Hex16(Fnv1a64(canonical_text));
}

}  // namespace scalein::obs
