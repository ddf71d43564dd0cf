#ifndef SCALEIN_OBS_JOURNAL_H_
#define SCALEIN_OBS_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace scalein::obs {

/// Did the query honor its Theorem 4.2 contract?
enum class CertVerdict {
  kWithinBound,    ///< actual_fetches <= static_bound
  kExceeded,       ///< actual_fetches > static_bound — a theorem violation
  kNoStaticBound,  ///< the analysis produced no finite bound to check
  kTripped,        ///< the governor stopped the query; accounting is partial
};

/// Canonical kebab-case name ("within-bound", "exceeded", ...).
const char* CertVerdictName(CertVerdict verdict);

/// Per-operator slice of a certificate — a plain mirror of the EXPLAIN
/// ANALYZE counters (obs/ must not depend on exec/, so the shell copies the
/// fields across). `static_bound < 0` means the node carries no bound.
struct CertOp {
  std::string label;
  uint64_t rows_out = 0;
  uint64_t tuples_fetched = 0;
  uint64_t index_lookups = 0;
  double static_bound = -1.0;
};

/// A per-query access certificate: the signed-off record tying one executed
/// query to its scale-independence evidence — `(query fingerprint, static
/// Theorem 4.2 bound, actual fetches, per-op breakdown, verdict)`. Sealed by
/// `SealCertificate` at query end; `VerifyCertificate` re-derives both the
/// verdict and the FNV-1a signature offline, so a journal dump is checkable
/// without the engine. The signature is tamper-*evident* bookkeeping, not a
/// cryptographic guarantee.
struct AccessCertificate {
  std::string query_fingerprint;  ///< Fingerprint(query_text)
  std::string query_id;           ///< RenderQueryId of the minting evaluation
  std::string query_text;         ///< canonical query string
  double static_bound = -1.0;     ///< Theorem 4.2 M; < 0 when unbounded
  uint64_t actual_fetches = 0;    ///< base tuples actually read
  uint64_t index_lookups = 0;
  std::vector<CertOp> ops;        ///< per-op breakdown (may be empty)
  bool tripped = false;           ///< governor stopped the query
  std::string trip_reason;        ///< TripInfo text when tripped
  CertVerdict verdict = CertVerdict::kNoStaticBound;  ///< derived on seal
  uint64_t signature = 0;         ///< FNV-1a over CertificatePayload
};

/// Derives the verdict from (tripped, static_bound, actual_fetches).
CertVerdict DeriveVerdict(const AccessCertificate& cert);

/// The canonical byte string the signature covers: every field except the
/// signature itself, rendered deterministically.
std::string CertificatePayload(const AccessCertificate& cert);

/// Fills `verdict` and `signature` in place; call once all counters are set.
void SealCertificate(AccessCertificate* cert);

/// True iff the stored verdict and signature match re-derivation — the
/// offline check. A certificate edited after sealing fails.
bool VerifyCertificate(const AccessCertificate& cert);

/// Deterministic JSON object with stable field order.
std::string CertificateToJson(const AccessCertificate& cert);

/// One JSONL journal line: CertificateToJson plus the non-sealed sibling
/// fields ("latency_ms" when >= 0, "noncontrollable", and "client_tag" when
/// non-empty — the serve layer's caller-supplied trace tag, observational
/// like latency). The sealed payload is untouched, so the parsed-back
/// certificate re-verifies byte-for-byte.
std::string JournalLineJson(const AccessCertificate& cert, double latency_ms,
                            bool noncontrollable,
                            const std::string& client_tag = "");

/// Parses a canonical verdict name ("within-bound", ...) back into the enum;
/// returns false for an unknown name.
bool CertVerdictFromName(std::string_view name, CertVerdict* out);

/// Reads certificates back out of dumped JSON — the offline side of the
/// `certify <file>` shell command (a JSONL journal goes through
/// JournalStore::Load instead). Accepts a whole post-mortem dump
/// (`{"journal": {...}}`), a bare journal object
/// (`{"certificates": [...]}`), or a bare certificate array. Every numeric
/// field round-trips exactly (emitters print doubles with the same %.6g the
/// parser reads back), so `VerifyCertificate` re-derives signatures from
/// parsed certificates byte-for-byte.
Result<std::vector<AccessCertificate>> CertificatesFromDumpJson(
    std::string_view json);

/// One replayed journal line: the sealed certificate plus the non-sealed
/// sibling fields the store records next to it. Latency is observational
/// (it varies run to run) so it lives *outside* the sealed payload —
/// certificates stay byte-identical across thread counts and reruns.
struct JournalEntry {
  AccessCertificate cert;
  double latency_ms = -1.0;     ///< < 0 when unknown
  bool noncontrollable = false; ///< evaluation failed Thm 4.2 controllability
  std::string client_tag;       ///< serve-layer trace tag; empty when untagged
  bool seal_ok = false;         ///< VerifyCertificate at load time
};

/// What a pass over a rotated JSONL stream found: the generations read and
/// the lines skipped as malformed, each described as "file:line: why" in
/// `errors` — counted, never fatal.
struct JsonlLoadReport {
  size_t files = 0;
  size_t malformed = 0;
  std::vector<std::string> errors;
};

struct JsonValue;

/// The one offline reader of a RotatingJsonlFile: replays every surviving
/// generation oldest-first (`path.2`, `path.1`, `path`), so lines arrive in
/// append order. Each non-empty line is parsed and handed to `visit` with
/// its "file:line" location; a line that does not parse, or that `visit`
/// refuses with a non-OK Status, counts as malformed. A missing generation
/// is skipped — a missing file is an empty stream, not an error.
void LoadRotatedJsonl(
    const std::string& path,
    const std::function<Status(const JsonValue& line,
                               const std::string& where)>& visit,
    JsonlLoadReport* report);

/// What a JournalStore::Load pass found, for surfacing instead of crashing:
/// tampered entries (seal mismatch, also listed in `errors`) and malformed
/// lines are counted and described, never fatal.
struct JournalLoadReport : JsonlLoadReport {
  size_t entries = 0;
  size_t sealed_ok = 0;
  size_t tampered = 0;

  /// "journal: N entries (S sealed, T tampered, M malformed)".
  std::string ToString() const;
};

/// Size-rotated JSONL sink: one text line per Append, written to `path`
/// with size-based rotation `path` → `path.1` → `path.2` (oldest dropped)
/// before a line that would push the live file past `max_bytes`. Parent
/// directories are created on first append (obs::EnsureParentDirs); failures
/// surface as a Status, never a silent drop. Two chaos sites — named per
/// instance so the journal's ("journal_append"/"journal_rotate") and the
/// access log's ("access_log_append"/"access_log_rotate") can be armed
/// independently — fire before the write and before the rename chain.
/// Thread-safe; the file handle stays open between appends (flushed per
/// line, so concurrent readers always see whole lines).
class RotatingJsonlFile {
 public:
  /// Rotated generations kept besides the live file (`path.1`, `path.2`).
  static constexpr int kRotations = 2;

  RotatingJsonlFile(std::string path, uint64_t max_bytes,
                    std::string append_site, std::string rotate_site);
  RotatingJsonlFile(const RotatingJsonlFile&) = delete;
  RotatingJsonlFile& operator=(const RotatingJsonlFile&) = delete;
  ~RotatingJsonlFile();

  const std::string& path() const { return path_; }
  uint64_t max_bytes() const { return max_bytes_; }

  /// Appends `line` (no trailing newline) plus '\n', rotating first when the
  /// live file would exceed max_bytes().
  Status Append(std::string_view line);

  uint64_t appended() const;
  uint64_t rotations() const;

 private:
  Status RotateLocked();

  mutable std::mutex mu_;
  const std::string path_;
  const uint64_t max_bytes_;
  const std::string append_site_;
  const std::string rotate_site_;
  std::unique_ptr<std::ofstream> out_;  ///< live handle; reopened on rotate
  int64_t live_bytes_ = -1;  ///< lazily initialized from the file on disk
  uint64_t appended_ = 0;
  uint64_t rotations_ = 0;
};

/// Durable append-only query journal: one JSONL line per sealed certificate
/// (plus non-sealed latency/noncontrollable/client-tag siblings), written to
/// SCALEIN_JOURNAL_PATH via a RotatingJsonlFile. Load replays it through
/// LoadRotatedJsonl — oldest entry first — re-verifying every seal, so a
/// workload history survives shell restarts and stays checkable offline.
class JournalStore {
 public:
  static constexpr uint64_t kDefaultMaxBytes = 1 << 20;
  /// Rotated generations kept besides the live file (`path.1`, `path.2`).
  static constexpr int kRotations = RotatingJsonlFile::kRotations;

  explicit JournalStore(std::string path,
                        uint64_t max_bytes = kDefaultMaxBytes);
  JournalStore(const JournalStore&) = delete;
  JournalStore& operator=(const JournalStore&) = delete;

  const std::string& path() const { return file_.path(); }
  uint64_t max_bytes() const { return file_.max_bytes(); }

  /// Appends one journal line; rotates first when the live file would
  /// exceed max_bytes(). `latency_ms < 0` omits the latency field; an empty
  /// `client_tag` omits the tag field.
  Status Append(const AccessCertificate& cert, double latency_ms,
                bool noncontrollable, const std::string& client_tag = "");

  /// Replays every surviving generation oldest-first. Tampered or malformed
  /// entries are reported in `report` (may be nullptr), not errors; the
  /// call fails only on an unreadable live file scheme (a missing file is
  /// an empty journal, not an error).
  Result<std::vector<JournalEntry>> Load(
      JournalLoadReport* report = nullptr) const;

  uint64_t appended() const { return file_.appended(); }
  uint64_t rotations() const { return file_.rotations(); }

 private:
  RotatingJsonlFile file_;
};

/// Fixed-size ring of sealed certificates, one per completed query — the
/// query journal the `journal`/`certify` shell commands read and post-mortem
/// dumps embed. Same eviction contract as the flight recorder: strict FIFO,
/// `dropped()` counts evictions.
class QueryJournal {
 public:
  explicit QueryJournal(size_t capacity = kDefaultCapacity);
  QueryJournal(const QueryJournal&) = delete;
  QueryJournal& operator=(const QueryJournal&) = delete;

  static constexpr size_t kDefaultCapacity = 256;

  void Append(AccessCertificate cert);

  /// Snapshot oldest → newest.
  std::vector<AccessCertificate> certificates() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t total_appended() const;
  uint64_t dropped() const;
  void Clear();

  /// {"capacity":...,"appended":...,"dropped":...,"certificates":[...]}
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<AccessCertificate> ring_;  ///< ring_[seq % capacity_] saturated
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace scalein::obs

#endif  // SCALEIN_OBS_JOURNAL_H_
