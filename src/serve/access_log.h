#ifndef SCALEIN_SERVE_ACCESS_LOG_H_
#define SCALEIN_SERVE_ACCESS_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "serve/admission.h"
#include "util/status.h"

namespace scalein::serve {

/// One served request's lifecycle record — the structured access-log line.
/// Everything a capacity review needs to join a request's admission promise
/// (the static Theorem 4.2 bound it was admitted under) against what it
/// actually did (fetches, latency split by phase, bytes shipped). The
/// `query_id` is the same RenderQueryId stamped on the sealed certificate,
/// trace spans, and flight events, so one grep correlates all four.
struct AccessLogRecord {
  std::string query_id;    ///< RenderQueryId of the serving evaluation
  std::string client_tag;  ///< caller-supplied trace tag; empty = untagged
  std::string session_id;
  BoundClass bound_class = BoundClass::kHuge;
  AdmitAction action = AdmitAction::kReject;
  RejectReason reject = RejectReason::kNone;  ///< kNone unless rejected
  double static_bound = -1.0;  ///< Theorem 4.2 bound; < 0 = none derived
  uint64_t lease = 0;          ///< fetch sub-budget the run executed under
  uint64_t fetches = 0;        ///< base tuples actually read
  uint64_t answers = 0;
  double queue_wait_ms = 0.0;  ///< time parked in the bounded FIFO
  double exec_ms = 0.0;        ///< evaluation proper (EvalForServe)
  double e2e_ms = 0.0;         ///< arrival to response-ready
  uint64_t bytes_out = 0;      ///< response bytes handed back to the client
  bool tripped = false;        ///< governor stopped the run
  std::string trip_reason;
  bool degraded = false;       ///< ran under a reduced sub-budget
};

/// Deterministic JSONL rendering with stable field order; optional fields
/// (client_tag, reject, static_bound, trip) are omitted when unset so
/// untagged/clean records stay compact.
std::string AccessLogRecordJson(const AccessLogRecord& rec);

/// Structured access log: one AccessLogRecord JSONL line per served request,
/// written to SCALEIN_ACCESS_LOG_PATH with the same size-based rotation
/// contract as the certificate journal (`path` → `path.1` → `path.2`,
/// oldest dropped). Chaos sites "access_log_append"/"access_log_rotate"
/// mirror the journal's; an append failure is surfaced as a Status the
/// server turns into a warning, never a failed request.
class AccessLog {
 public:
  static constexpr uint64_t kDefaultMaxBytes = 1 << 20;

  explicit AccessLog(std::string path,
                     uint64_t max_bytes = kDefaultMaxBytes);
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  const std::string& path() const { return file_.path(); }
  uint64_t max_bytes() const { return file_.max_bytes(); }

  Status Append(const AccessLogRecord& rec);

  uint64_t appended() const { return file_.appended(); }
  uint64_t rotations() const { return file_.rotations(); }

 private:
  obs::RotatingJsonlFile file_;
};

/// What a LoadAccessLogRecords pass found — malformed lines are counted and
/// skipped, never fatal, matching the journal loader's tolerance.
struct AccessLogLoadReport : obs::JsonlLoadReport {
  size_t records = 0;
};

/// Replays every surviving generation oldest-first through
/// obs::LoadRotatedJsonl, so record order equals append order. A missing
/// file is an empty log, not an error.
Result<std::vector<AccessLogRecord>> LoadAccessLogRecords(
    const std::string& path, AccessLogLoadReport* report = nullptr);

/// The offline serve report — `scalein_served --report <access.jsonl>
/// [--journal <journal.jsonl>]`. Reads the access log with
/// LoadAccessLogRecords and renders: the load counts; the `classes` tallies
/// (folded through ClassTallies, so they match the live command byte for
/// byte); per-class queue_wait / exec / e2e p50 and p99; the slowest
/// requests; bound slack (fetches / static bound of admitted and degraded
/// runs); per-client-tag counts; and, given a journal, the query_id join
/// against JournalStore::Load, where a certificate counts as sealed only if
/// obs::VerifyCertificate accepts it and its fetch count must match the
/// access log's. NotFound when no generation of the access log exists.
Result<std::string> RenderServeReport(const std::string& access_log_path,
                                      const std::string& journal_path = "");

/// Name→enum parsers for the log's stable strings; return false on an
/// unknown name (the loader counts the line malformed).
bool AdmitActionFromName(const std::string& name, AdmitAction* out);
bool RejectReasonFromName(const std::string& name, RejectReason* out);
bool BoundClassFromName(const std::string& name, BoundClass* out);

}  // namespace scalein::serve

#endif  // SCALEIN_SERVE_ACCESS_LOG_H_
