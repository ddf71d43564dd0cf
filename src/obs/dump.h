#ifndef SCALEIN_OBS_DUMP_H_
#define SCALEIN_OBS_DUMP_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace scalein::obs {

/// Renders the post-mortem dump document: one JSON object joining the flight
/// recorder's event ring, the query journal's certificates, and a metrics
/// snapshot, prefixed by why the dump was taken. Every section is optional
/// (nullptr omits it); field order is fixed, so with a fixed recorder clock
/// the bytes are deterministic.
///
///   {"reason":"...","recorder":{...},"journal":{...},"metrics":{...}}
std::string RenderDump(std::string_view reason, const FlightRecorder* recorder,
                       const QueryJournal* journal,
                       const MetricsRegistry* metrics);

/// A certificate stream read back for `certify`: every journal record with
/// its seal re-verified, plus — when the source is a dump document — the
/// parsed document, whose reason and recorder sections the report renders.
struct CertificateStream {
  std::vector<JournalEntry> entries;
  JsonValue dump;  ///< null for a JSONL journal
};

/// Reads a dump document: a whole post-mortem dump (`{"journal": {...}}`),
/// a bare journal object (`{"certificates": [...]}`) or a bare array.
Result<CertificateStream> ParseDumpStream(std::string_view json);

/// Reads `path` as a dump document, else as a JournalStore file (every
/// rotated generation, oldest first). InvalidArgument when neither yields a
/// record.
Result<CertificateStream> LoadCertificateStream(const std::string& path);

/// The report `certify` prints: one seal line per record and "V/N
/// certificates verify" (suffixed "(from <source>)" when `source` is
/// non-empty), then the dump header, the top queries by fetches, the slowest
/// queries, the violations (exceeded or tripped), and — when the stream has
/// a recorder section — the trip timeline and the event-kind histogram.
/// Rankings and violations count only records whose seal verifies.
std::string RenderCertificateReport(const CertificateStream& stream,
                                    std::string_view source);

/// Creates any missing parent directories of `path` (the file itself is not
/// touched). A clear Status — not a silent drop — when creation fails. Used
/// for operator-configured sinks (SCALEIN_DUMP_PATH, SCALEIN_JOURNAL_PATH,
/// explicit `dump <path>`); the low-level writers below deliberately do NOT
/// auto-create, so a typo'd path still fails loudly where tests expect it.
Status EnsureParentDirs(const std::string& path);

/// Writes `text` to `path`, truncating any existing file.
Status WriteTextFile(const std::string& path, std::string_view text);

/// Appends `line` plus a trailing newline to `path` (creating it if absent) —
/// the writer behind periodic metrics dumps, which are JSON-lines streams.
Status AppendTextLine(const std::string& path, std::string_view line);

/// Parses the `SCALEIN_METRICS_DUMP=<path>:<secs>` knob. `<secs>` must be a
/// positive number; `<path>` is everything before the *last* ':' so paths
/// containing colons survive.
Status ParseMetricsDumpSpec(std::string_view spec, std::string* path,
                            double* interval_seconds);

/// Periodic metrics snapshotter for long-running shells: a background thread
/// that appends one `MetricsRegistry::ToJson` line to a file immediately on
/// Start (so behavior is testable without sleeping) and then every
/// `interval_seconds`. Each snapshot also lands a kMetricsDump event in the
/// global flight recorder, making dump cadence visible post-mortem.
class MetricsDumper {
 public:
  MetricsDumper() = default;
  ~MetricsDumper();
  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  /// Starts the writer thread; `registry` nullptr means the global registry.
  /// Fails if already running, the interval is not positive, or the first
  /// snapshot cannot be written.
  Status Start(std::string path, double interval_seconds,
               const MetricsRegistry* registry = nullptr);

  /// Stops and joins the writer thread; idempotent.
  void Stop();

  bool running() const;
  /// Snapshots successfully appended since Start.
  uint64_t snapshots() const;

 private:
  void Run();
  Status WriteSnapshot();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::string path_;
  double interval_seconds_ = 0;
  const MetricsRegistry* registry_ = nullptr;
  uint64_t snapshots_ = 0;
};

/// Arms process-wide post-mortem dumping: on `WritePostMortem(reason)` the
/// three sections are rendered to `path`. The shell arms this from
/// SCALEIN_DUMP_PATH and calls it on governor trips, failpoint-induced
/// errors, and exit; the shell binary's SIGTERM handler calls it too.
/// Any source may be nullptr. Re-arming replaces the previous arming.
void ArmPostMortem(std::string path, const FlightRecorder* recorder,
                   const QueryJournal* journal, const MetricsRegistry* metrics);

/// Disarms; subsequent WritePostMortem calls are no-ops.
void DisarmPostMortem();

bool PostMortemArmed();

/// Writes the armed dump file with the given reason. Returns true iff a file
/// was written (armed and the write succeeded). Later calls overwrite — the
/// file always holds the most recent (closest-to-death) snapshot.
bool WritePostMortem(std::string_view reason);

/// Status-returning variant: FailedPrecondition when not armed, otherwise
/// the write's own status (missing parent directories are created first).
/// Callers who can surface text — the shell — report this instead of
/// silently dropping the dump.
Status WritePostMortemStatus(std::string_view reason);

}  // namespace scalein::obs

#endif  // SCALEIN_OBS_DUMP_H_
