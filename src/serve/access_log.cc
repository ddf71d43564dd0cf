#include "serve/access_log.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace scalein::serve {

std::string AccessLogRecordJson(const AccessLogRecord& rec) {
  using obs::JsonEscape;
  using obs::JsonNumber;
  std::string out;
  out.reserve(256);  // typical record; keeps the hot append allocation-light
  out += "{\"query_id\":\"" + JsonEscape(rec.query_id) + "\"";
  if (!rec.client_tag.empty()) {
    out += ",\"client_tag\":\"" + JsonEscape(rec.client_tag) + "\"";
  }
  out += ",\"session\":\"" + JsonEscape(rec.session_id) + "\"";
  out += ",\"class\":\"";
  out += BoundClassName(rec.bound_class);
  out += "\",\"action\":\"";
  out += AdmitActionName(rec.action);
  out += "\"";
  if (rec.reject != RejectReason::kNone) {
    out += ",\"reject\":\"";
    out += RejectReasonName(rec.reject);
    out += "\"";
  }
  if (rec.static_bound >= 0) {
    out += ",\"static_bound\":" + JsonNumber(rec.static_bound);
  }
  out += ",\"lease\":" + std::to_string(rec.lease);
  out += ",\"fetches\":" + std::to_string(rec.fetches);
  out += ",\"answers\":" + std::to_string(rec.answers);
  out += ",\"queue_wait_ms\":" + JsonNumber(rec.queue_wait_ms);
  out += ",\"exec_ms\":" + JsonNumber(rec.exec_ms);
  out += ",\"e2e_ms\":" + JsonNumber(rec.e2e_ms);
  out += ",\"bytes_out\":" + std::to_string(rec.bytes_out);
  out += ",\"tripped\":";
  out += rec.tripped ? "true" : "false";
  if (!rec.trip_reason.empty()) {
    out += ",\"trip\":\"" + JsonEscape(rec.trip_reason) + "\"";
  }
  out += ",\"degraded\":";
  out += rec.degraded ? "true" : "false";
  out += "}";
  return out;
}

AccessLog::AccessLog(std::string path, uint64_t max_bytes)
    : file_(std::move(path), max_bytes, "access_log_append",
            "access_log_rotate") {}

Status AccessLog::Append(const AccessLogRecord& rec) {
  return file_.Append(AccessLogRecordJson(rec));
}

bool AdmitActionFromName(const std::string& name, AdmitAction* out) {
  for (AdmitAction a : {AdmitAction::kAdmit, AdmitAction::kQueue,
                        AdmitAction::kDegrade, AdmitAction::kReject}) {
    if (name == AdmitActionName(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

bool RejectReasonFromName(const std::string& name, RejectReason* out) {
  for (RejectReason r :
       {RejectReason::kNone, RejectReason::kNoStaticBound,
        RejectReason::kBudgetExhausted, RejectReason::kQueueFull,
        RejectReason::kQueueClassFull, RejectReason::kQueueTimeout,
        RejectReason::kDraining}) {
    if (name == RejectReasonName(r)) {
      *out = r;
      return true;
    }
  }
  return false;
}

bool BoundClassFromName(const std::string& name, BoundClass* out) {
  for (BoundClass c : {BoundClass::kSmall, BoundClass::kMedium,
                       BoundClass::kLarge, BoundClass::kHuge}) {
    if (name == BoundClassName(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

namespace {

Result<AccessLogRecord> RecordFromJsonValue(const obs::JsonValue& v) {
  if (!v.is_object()) {
    return Status::InvalidArgument("access-log line is not an object");
  }
  AccessLogRecord rec;
  rec.query_id = v.StringOr("query_id", "");
  rec.client_tag = v.StringOr("client_tag", "");
  rec.session_id = v.StringOr("session", "");
  if (!BoundClassFromName(v.StringOr("class", ""), &rec.bound_class)) {
    return Status::InvalidArgument("access-log line has an unknown class");
  }
  if (!AdmitActionFromName(v.StringOr("action", ""), &rec.action)) {
    return Status::InvalidArgument("access-log line has an unknown action");
  }
  const std::string reject = v.StringOr("reject", "none");
  if (!RejectReasonFromName(reject, &rec.reject)) {
    return Status::InvalidArgument(
        "access-log line has an unknown reject reason");
  }
  rec.static_bound = v.NumberOr("static_bound", -1.0);
  rec.lease = static_cast<uint64_t>(v.NumberOr("lease", 0));
  rec.fetches = static_cast<uint64_t>(v.NumberOr("fetches", 0));
  rec.answers = static_cast<uint64_t>(v.NumberOr("answers", 0));
  rec.queue_wait_ms = v.NumberOr("queue_wait_ms", 0.0);
  rec.exec_ms = v.NumberOr("exec_ms", 0.0);
  rec.e2e_ms = v.NumberOr("e2e_ms", 0.0);
  rec.bytes_out = static_cast<uint64_t>(v.NumberOr("bytes_out", 0));
  rec.tripped = v.BoolOr("tripped", false);
  rec.trip_reason = v.StringOr("trip", "");
  rec.degraded = v.BoolOr("degraded", false);
  return rec;
}

}  // namespace

Result<std::vector<AccessLogRecord>> LoadAccessLogRecords(
    const std::string& path, AccessLogLoadReport* report) {
  AccessLogLoadReport local;
  std::vector<AccessLogRecord> out;
  obs::LoadRotatedJsonl(
      path,
      [&](const obs::JsonValue& line, const std::string& /*where*/) -> Status {
        Result<AccessLogRecord> rec = RecordFromJsonValue(line);
        if (!rec.ok()) return rec.status();
        ++local.records;
        out.push_back(std::move(rec).ValueOrDie());
        return Status::OK();
      },
      &local);
  if (report != nullptr) *report = std::move(local);
  return out;
}

namespace {

/// Requests listed in the report's slowest section.
constexpr size_t kSlowestShown = 5;
/// Missing query ids listed in the journal-join section.
constexpr size_t kMissingShown = 5;

std::string PhaseLatencySection(const std::vector<AccessLogRecord>& records) {
  std::string out = "phase latency (ms):\n";
  for (size_t cls = 0; cls < kBoundClasses; ++cls) {
    std::vector<double> queue_wait, exec, e2e;
    for (const AccessLogRecord& rec : records) {
      if (static_cast<size_t>(rec.bound_class) != cls) continue;
      queue_wait.push_back(rec.queue_wait_ms);
      exec.push_back(rec.exec_ms);
      e2e.push_back(rec.e2e_ms);
    }
    if (e2e.empty()) continue;
    out += StrFormat("  %s n=%zu", BoundClassName(static_cast<BoundClass>(cls)),
                     e2e.size());
    for (auto [name, values] : {std::pair{"queue_wait", &queue_wait},
                                std::pair{"exec", &exec},
                                std::pair{"e2e", &e2e}}) {
      std::sort(values->begin(), values->end());
      out += StrFormat(
          "  %s p50=%s p99=%s", name,
          obs::JsonNumber(obs::NearestRankPercentile(*values, 0.50)).c_str(),
          obs::JsonNumber(obs::NearestRankPercentile(*values, 0.99)).c_str());
    }
    out += "\n";
  }
  if (records.empty()) out += "  (none)\n";
  return out;
}

std::string SlowestSection(const std::vector<AccessLogRecord>& records) {
  std::vector<const AccessLogRecord*> ranked;
  for (const AccessLogRecord& rec : records) ranked.push_back(&rec);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const AccessLogRecord* a, const AccessLogRecord* b) {
                     return a->e2e_ms > b->e2e_ms;
                   });
  if (ranked.size() > kSlowestShown) ranked.resize(kSlowestShown);
  std::string out =
      StrFormat("slowest requests (top %zu by e2e):\n", kSlowestShown);
  if (ranked.empty()) out += "  (none)\n";
  for (const AccessLogRecord* rec : ranked) {
    out += StrFormat(
        "  %s %s %s e2e=%sms queue_wait=%sms exec=%sms fetches=%llu",
        rec->query_id.c_str(), BoundClassName(rec->bound_class),
        AdmitActionName(rec->action), obs::JsonNumber(rec->e2e_ms).c_str(),
        obs::JsonNumber(rec->queue_wait_ms).c_str(),
        obs::JsonNumber(rec->exec_ms).c_str(),
        static_cast<unsigned long long>(rec->fetches));
    if (!rec->client_tag.empty()) out += " tag=" + rec->client_tag;
    out += "\n";
  }
  return out;
}

/// Admission's safety margin in practice: how far under its static
/// Theorem 4.2 bound admitted work actually ran.
std::string SlackSection(const std::vector<AccessLogRecord>& records) {
  std::vector<double> ratios;
  for (const AccessLogRecord& rec : records) {
    const bool ran = rec.action == AdmitAction::kAdmit ||
                     rec.action == AdmitAction::kDegrade;
    if (ran && rec.static_bound > 0) {
      ratios.push_back(static_cast<double>(rec.fetches) / rec.static_bound);
    }
  }
  std::string out =
      "bound slack (fetches / static bound, admitted+degraded):\n";
  if (ratios.empty()) return out + "  (none)\n";
  std::sort(ratios.begin(), ratios.end());
  double sum = 0;
  for (double r : ratios) sum += r;
  return out + StrFormat("  n=%zu mean=%.4f p50=%.4f max=%.4f\n",
                         ratios.size(),
                         sum / static_cast<double>(ratios.size()),
                         obs::NearestRankPercentile(ratios, 0.50),
                         ratios.back());
}

/// Per-client-tag request counts, (count desc, tag asc); empty when no
/// request was tagged.
std::string TagsSection(const std::vector<AccessLogRecord>& records) {
  std::map<std::string, uint64_t> by_tag;
  for (const AccessLogRecord& rec : records) {
    if (!rec.client_tag.empty()) ++by_tag[rec.client_tag];
  }
  if (by_tag.empty()) return "";
  std::vector<std::pair<std::string, uint64_t>> ranked(by_tag.begin(),
                                                       by_tag.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::string out = "client tags:\n";
  for (const auto& [tag, count] : ranked) {
    out += StrFormat("  %s n=%llu\n", tag.c_str(),
                     static_cast<unsigned long long>(count));
  }
  return out + "\n";
}

/// Joins every access-log record to its journal certificate by query_id.
/// Both channels observed the same run, so the sealed fetch count and the
/// observational one must agree (refusals journal 0 fetches).
std::string JournalJoinSection(const std::vector<AccessLogRecord>& records,
                               const std::string& journal_path) {
  Result<std::vector<obs::JournalEntry>> entries =
      obs::JournalStore(journal_path).Load();
  std::unordered_map<std::string, const obs::JournalEntry*> by_qid;
  if (entries.ok()) {
    for (const obs::JournalEntry& e : *entries) by_qid[e.cert.query_id] = &e;
  }
  size_t joined = 0, sealed = 0, tampered = 0, fetch_mismatches = 0;
  std::vector<std::string> missing;
  for (const AccessLogRecord& rec : records) {
    auto it = by_qid.find(rec.query_id);
    if (it == by_qid.end()) {
      missing.push_back(rec.query_id);
      continue;
    }
    ++joined;
    ++(it->second->seal_ok ? sealed : tampered);
    if (it->second->cert.actual_fetches != rec.fetches) ++fetch_mismatches;
  }
  std::string out = "journal join (" + journal_path + "):\n";
  out += StrFormat(
      "  joined=%zu (sealed=%zu, tampered=%zu)  missing=%zu  "
      "fetch_mismatches=%zu\n",
      joined, sealed, tampered, missing.size(), fetch_mismatches);
  for (size_t i = 0; i < missing.size() && i < kMissingShown; ++i) {
    out += "  missing from journal: " + missing[i] + "\n";
  }
  if (missing.size() > kMissingShown) {
    out += StrFormat("  ... and %zu more\n", missing.size() - kMissingShown);
  }
  return out;
}

}  // namespace

Result<std::string> RenderServeReport(const std::string& access_log_path,
                                      const std::string& journal_path) {
  AccessLogLoadReport load;
  SI_ASSIGN_OR_RETURN(std::vector<AccessLogRecord> records,
                      LoadAccessLogRecords(access_log_path, &load));
  if (load.files == 0) {
    return Status::NotFound("no access log at '" + access_log_path +
                            "' (nor rotated generations)");
  }
  ClassTallies tallies;
  for (const AccessLogRecord& rec : records) {
    tallies.Count(rec.bound_class, rec.action, rec.reject);
  }
  std::string out = "serve report: " + access_log_path + "\n";
  out += StrFormat("files: %zu  records: %zu (%zu malformed)\n\n",
                   load.files, load.records, load.malformed);
  out += tallies.Render() + "\n";
  out += PhaseLatencySection(records) + "\n";
  out += SlowestSection(records) + "\n";
  out += SlackSection(records) + "\n";
  out += TagsSection(records);
  if (!journal_path.empty()) out += JournalJoinSection(records, journal_path);
  return out;
}

}  // namespace scalein::serve
