#include "obs/dump.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/correlation.h"
#include "util/strings.h"

namespace scalein::obs {

std::string RenderDump(std::string_view reason, const FlightRecorder* recorder,
                       const QueryJournal* journal,
                       const MetricsRegistry* metrics) {
  std::string out = "{\"reason\":\"" + JsonEscape(reason) + "\"";
  // A dump taken mid-evaluation (governor trip, failpoint error, signal) is
  // joinable to that query's spans/events/certificate by one id.
  if (const QueryId qid = CurrentQueryId(); qid.valid()) {
    out += ",\"query_id\":\"" + RenderQueryId(qid) + "\"";
  }
  if (recorder != nullptr) out += ",\"recorder\":" + recorder->ToJson();
  if (journal != nullptr) out += ",\"journal\":" + journal->ToJson();
  if (metrics != nullptr) out += ",\"metrics\":" + metrics->ToJson();
  out += "}";
  return out;
}

Result<CertificateStream> ParseDumpStream(std::string_view json) {
  CertificateStream stream;
  SI_ASSIGN_OR_RETURN(stream.dump, ParseJson(json));
  const JsonValue* certs = &stream.dump;
  if (!certs->is_array()) {
    const JsonValue* journal = stream.dump.Find("journal");
    certs = (journal != nullptr ? journal : &stream.dump)->Find("certificates");
  }
  if (certs == nullptr || !certs->is_array()) {
    return Status::InvalidArgument(
        "dump has no certificate array (expected a post-mortem dump, a "
        "journal object, or a bare array)");
  }
  for (size_t i = 0; i < certs->array.size(); ++i) {
    Result<JournalEntry> entry = JournalEntryFromJson(certs->array[i]);
    if (!entry.ok()) {
      return Status::InvalidArgument("certificate " + std::to_string(i) +
                                     ": " + entry.status().message());
    }
    stream.entries.push_back(std::move(entry).ValueOrDie());
  }
  return stream;
}

Result<CertificateStream> LoadCertificateStream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  Result<CertificateStream> dump = ParseDumpStream(text.str());
  if (dump.ok()) return dump;
  CertificateStream stream;
  SI_ASSIGN_OR_RETURN(stream.entries, JournalStore(path).Load());
  if (stream.entries.empty()) {
    return Status::InvalidArgument(
        "no certificate line parses as a journal entry");
  }
  return stream;
}

namespace {

/// Records listed in each ranking section of the certify report.
constexpr size_t kReportTop = 5;

/// "fetches=<n>  bound <M>" — a record's actuals against its Thm 4.2 bound.
std::string FetchesAndBound(const AccessCertificate& c) {
  return StrFormat("fetches=%llu  ",
                   static_cast<unsigned long long>(c.actual_fetches)) +
         (c.static_bound < 0 ? "(no static bound)"
                             : StrFormat("bound %g", c.static_bound));
}

/// "  <fp>  <qid>  <detail>  [<verdict>]<suffix>", the query text beneath.
std::string EntryLines(const JournalEntry& e, const std::string& detail,
                       const std::string& suffix = "") {
  const AccessCertificate& c = e.cert;
  std::string out = "  " + c.query_fingerprint + "  " +
                    (c.query_id.empty() ? "-" : c.query_id) + "  " + detail +
                    "  [" + CertVerdictName(c.verdict) + "]" + suffix + "\n";
  if (!c.query_text.empty()) out += "      " + c.query_text + "\n";
  return out;
}

/// The first kReportTop of `rows` by `key`, largest first; ties keep
/// journal order.
template <typename Key>
std::vector<const JournalEntry*> TopBy(std::vector<const JournalEntry*> rows,
                                       Key key) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const JournalEntry* a, const JournalEntry* b) {
                     return key(*a) > key(*b);
                   });
  if (rows.size() > kReportTop) rows.resize(kReportTop);
  return rows;
}

/// A recorder event arg as text: strings bare, numbers %g, bools by name.
std::string ArgText(const JsonValue& v) {
  if (v.is_string()) return v.string;
  if (v.is_number()) return JsonNumber(v.number);
  if (v.kind == JsonValue::Kind::kBool) return v.boolean ? "true" : "false";
  return "?";
}

std::string RenderEventSections(const JsonValue& recorder) {
  const JsonValue* events = recorder.Find("events");
  const std::vector<JsonValue> none;
  const std::vector<JsonValue>& list =
      events != nullptr ? events->array : none;
  std::string out = "\n== trip timeline ==\n";
  const double t0 = list.empty() ? 0 : list[0].NumberOr("t_ns", 0);
  size_t shown = 0;
  std::map<std::string, size_t> kinds;
  for (const JsonValue& e : list) {
    const std::string kind = e.StringOr("kind", "?");
    ++kinds[kind];
    if (kind != "governor-trip" && kind != "failpoint-fire") continue;
    ++shown;
    out += StrFormat("  +%10.3f ms  seq=%5.0f  %s  %s",
                     (e.NumberOr("t_ns", 0) - t0) / 1e6,
                     e.NumberOr("seq", 0), kind.c_str(),
                     e.StringOr("label", "").c_str());
    if (const JsonValue* args = e.Find("args"); args != nullptr) {
      for (const auto& [key, value] : args->object) {
        out += " " + key + "=" + ArgText(value);
      }
    }
    out += "\n";
  }
  if (shown == 0) out += "  none — no governor trips or failpoint fires\n";
  out += "\n== event kinds ==\n";
  for (const auto& [kind, count] : kinds) {
    out += StrFormat("  %-20s %zu\n", kind.c_str(), count);
  }
  return out;
}

}  // namespace

std::string RenderCertificateReport(const CertificateStream& stream,
                                    std::string_view source) {
  std::string out;
  std::vector<const JournalEntry*> sealed;
  for (const JournalEntry& e : stream.entries) {
    out += StrFormat("  %s %s %s\n", e.cert.query_fingerprint.c_str(),
                     CertVerdictName(e.cert.verdict),
                     e.seal_ok ? "signature-ok" : "SIGNATURE-MISMATCH");
    if (e.seal_ok) sealed.push_back(&e);
  }
  out += StrFormat("%zu/%zu certificates verify", sealed.size(),
                   stream.entries.size());
  if (!source.empty()) out += " (from " + std::string(source) + ")";
  out += "\n\n";

  const JsonValue& dump = stream.dump;
  const JsonValue* recorder = dump.Find("recorder");
  if (const JsonValue* reason = dump.Find("reason"); reason != nullptr) {
    out += "dump reason: " + reason->string + "\n";
  }
  if (recorder != nullptr) {
    const JsonValue* events = recorder->Find("events");
    out += StrFormat("events: %zu in ring (%.0f appended, %.0f dropped)\n",
                     events != nullptr ? events->array.size() : 0,
                     recorder->NumberOr("appended", 0),
                     recorder->NumberOr("dropped", 0));
  }
  out += StrFormat("certificates: %zu", stream.entries.size());
  if (const JsonValue* journal = dump.Find("journal"); journal != nullptr) {
    out += StrFormat(" (%.0f dropped)", journal->NumberOr("dropped", 0));
  }
  out += "\n";

  out += StrFormat("\n== top queries by fetches (top %zu) ==\n", kReportTop);
  if (sealed.empty()) out += "  (no sealed certificates)\n";
  for (const JournalEntry* e :
       TopBy(sealed, [](const JournalEntry& e) {
         return e.cert.actual_fetches;
       })) {
    out += EntryLines(*e, FetchesAndBound(e->cert));
  }

  // A record without a latency (< 0) sorts last and is not listed.
  std::vector<const JournalEntry*> slowest =
      TopBy(sealed, [](const JournalEntry& e) { return e.latency_ms; });
  while (!slowest.empty() && slowest.back()->latency_ms < 0) {
    slowest.pop_back();
  }
  out += StrFormat("\n== slowest queries (top %zu) ==\n", kReportTop);
  if (slowest.empty()) out += "  (no recorded latencies)\n";
  for (const JournalEntry* e : slowest) {
    out += EntryLines(
        *e, StrFormat("%.3f ms  fetches=%llu", e->latency_ms,
                      static_cast<unsigned long long>(e->cert.actual_fetches)),
        e->client_tag.empty() ? "" : "  tag=" + e->client_tag);
  }

  out += "\n== certificate violations ==\n";
  size_t violations = 0;
  for (const JournalEntry* e : sealed) {
    const AccessCertificate& c = e->cert;
    if (c.verdict != CertVerdict::kExceeded &&
        c.verdict != CertVerdict::kTripped) {
      continue;
    }
    ++violations;
    out += EntryLines(*e, FetchesAndBound(c),
                      c.trip_reason.empty() ? "" : "  — " + c.trip_reason);
  }
  if (violations == 0) {
    out += "  none — every sealed query stayed within its bound\n";
  }

  if (recorder != nullptr) out += RenderEventSections(*recorder);
  return out;
}

Status EnsureParentDirs(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) return Status::OK();
  std::error_code ec;
  if (fs::exists(parent, ec)) return Status::OK();
  fs::create_directories(parent, ec);
  if (ec) {
    return Status::Internal("cannot create parent directory '" +
                            parent.string() + "' for '" + path +
                            "': " + ec.message());
  }
  return Status::OK();
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Status AppendTextLine(const std::string& path, std::string_view line) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for appending");
  }
  const size_t written = std::fwrite(line.data(), 1, line.size(), f);
  const bool newline_ok = std::fputc('\n', f) != EOF;
  const bool closed = std::fclose(f) == 0;
  if (written != line.size() || !newline_ok || !closed) {
    return Status::Internal("short append to '" + path + "'");
  }
  return Status::OK();
}

Status ParseMetricsDumpSpec(std::string_view spec, std::string* path,
                            double* interval_seconds) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument(
        "metrics-dump spec '" + std::string(spec) + "' is not <path>:<secs>");
  }
  const std::string secs(spec.substr(colon + 1));
  char* end = nullptr;
  const double interval = std::strtod(secs.c_str(), &end);
  if (end != secs.c_str() + secs.size() || !(interval > 0)) {
    return Status::InvalidArgument("metrics-dump interval '" + secs +
                                   "' is not a positive number of seconds");
  }
  *path = std::string(spec.substr(0, colon));
  *interval_seconds = interval;
  return Status::OK();
}

MetricsDumper::~MetricsDumper() { Stop(); }

Status MetricsDumper::Start(std::string path, double interval_seconds,
                            const MetricsRegistry* registry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("metrics dumper already running");
    }
    if (!(interval_seconds > 0)) {
      return Status::InvalidArgument("metrics-dump interval must be > 0");
    }
    path_ = std::move(path);
    interval_seconds_ = interval_seconds;
    registry_ = registry != nullptr ? registry : &MetricsRegistry::Global();
    stop_requested_ = false;
    snapshots_ = 0;
  }
  // First snapshot synchronously: Start fails loudly on an unwritable path
  // instead of a background thread failing silently forever.
  SI_RETURN_IF_ERROR(WriteSnapshot());
  std::lock_guard<std::mutex> lock(mu_);
  running_ = true;
  thread_ = std::thread(&MetricsDumper::Run, this);
  return Status::OK();
}

void MetricsDumper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool MetricsDumper::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

uint64_t MetricsDumper::snapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_;
}

void MetricsDumper::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    const auto interval = std::chrono::duration<double>(interval_seconds_);
    if (cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      return;
    }
    lock.unlock();
    (void)WriteSnapshot();  // a transiently unwritable path skips one tick
    lock.lock();
  }
}

namespace {

// MetricsRegistry::ToJson() pretty-prints; a JSONL consumer needs one
// physical line per snapshot. JsonEscape encodes control characters, so
// every raw newline in the rendered document is formatting — drop it and
// the indentation that follows.
std::string FlattenJson(const std::string& pretty) {
  std::string flat;
  flat.reserve(pretty.size());
  for (size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] == '\n') {
      while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
      continue;
    }
    flat += pretty[i];
  }
  return flat;
}

}  // namespace

Status MetricsDumper::WriteSnapshot() {
  const MetricsRegistry* registry;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry = registry_;
    path = path_;
  }
  SI_RETURN_IF_ERROR(AppendTextLine(path, FlattenJson(registry->ToJson())));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++snapshots_;
  }
  RecordFlightEvent(EventKind::kMetricsDump, path);
  return Status::OK();
}

namespace {

struct PostMortemState {
  std::mutex mu;
  bool armed = false;
  std::string path;
  const FlightRecorder* recorder = nullptr;
  const QueryJournal* journal = nullptr;
  const MetricsRegistry* metrics = nullptr;
};

PostMortemState& GlobalPostMortem() {
  static PostMortemState* state = new PostMortemState();
  return *state;
}

}  // namespace

void ArmPostMortem(std::string path, const FlightRecorder* recorder,
                   const QueryJournal* journal,
                   const MetricsRegistry* metrics) {
  PostMortemState& state = GlobalPostMortem();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed = true;
  state.path = std::move(path);
  state.recorder = recorder;
  state.journal = journal;
  state.metrics = metrics;
}

void DisarmPostMortem() {
  PostMortemState& state = GlobalPostMortem();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed = false;
  state.recorder = nullptr;
  state.journal = nullptr;
  state.metrics = nullptr;
}

bool PostMortemArmed() {
  PostMortemState& state = GlobalPostMortem();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.armed;
}

Status WritePostMortemStatus(std::string_view reason) {
  PostMortemState& state = GlobalPostMortem();
  std::string path;
  const FlightRecorder* recorder;
  const QueryJournal* journal;
  const MetricsRegistry* metrics;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.armed) {
      return Status::FailedPrecondition("post-mortem dump is not armed");
    }
    path = state.path;
    recorder = state.recorder;
    journal = state.journal;
    metrics = state.metrics;
  }
  const std::string dump = RenderDump(reason, recorder, journal, metrics);
  SI_RETURN_IF_ERROR(EnsureParentDirs(path));
  return WriteTextFile(path, dump);
}

bool WritePostMortem(std::string_view reason) {
  return WritePostMortemStatus(reason).ok();
}

}  // namespace scalein::obs
