#include "obs/journal.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "obs/dump.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "util/failpoint.h"

namespace scalein::obs {

const char* CertVerdictName(CertVerdict verdict) {
  switch (verdict) {
    case CertVerdict::kWithinBound:
      return "within-bound";
    case CertVerdict::kExceeded:
      return "exceeded";
    case CertVerdict::kNoStaticBound:
      return "no-static-bound";
    case CertVerdict::kTripped:
      return "tripped";
  }
  return "?";
}

CertVerdict DeriveVerdict(const AccessCertificate& cert) {
  if (cert.tripped) return CertVerdict::kTripped;
  if (cert.static_bound < 0) return CertVerdict::kNoStaticBound;
  return static_cast<double>(cert.actual_fetches) <= cert.static_bound
             ? CertVerdict::kWithinBound
             : CertVerdict::kExceeded;
}

std::string CertificatePayload(const AccessCertificate& cert) {
  std::string payload = "fp=" + cert.query_fingerprint +
                        "|qid=" + cert.query_id +
                        "|q=" + cert.query_text +
                        "|bound=" + JsonNumber(cert.static_bound) +
                        "|fetches=" + std::to_string(cert.actual_fetches) +
                        "|lookups=" + std::to_string(cert.index_lookups) +
                        "|tripped=" + (cert.tripped ? "1" : "0") +
                        "|trip=" + cert.trip_reason +
                        "|verdict=" + CertVerdictName(cert.verdict);
  for (const CertOp& op : cert.ops) {
    payload += "|op=" + op.label + "," + std::to_string(op.rows_out) + "," +
               std::to_string(op.tuples_fetched) + "," +
               std::to_string(op.index_lookups) + "," +
               JsonNumber(op.static_bound);
  }
  return payload;
}

void SealCertificate(AccessCertificate* cert) {
  cert->verdict = DeriveVerdict(*cert);
  cert->signature = Fnv1a64(CertificatePayload(*cert));
}

bool VerifyCertificate(const AccessCertificate& cert) {
  if (cert.verdict != DeriveVerdict(cert)) return false;
  return cert.signature == Fnv1a64(CertificatePayload(cert));
}

std::string CertificateToJson(const AccessCertificate& cert) {
  std::string out =
      "{\"query_fingerprint\":\"" + JsonEscape(cert.query_fingerprint) + "\"";
  if (!cert.query_id.empty()) {
    out += ",\"query_id\":\"" + JsonEscape(cert.query_id) + "\"";
  }
  out += ",\"query\":\"" + JsonEscape(cert.query_text) + "\"";
  if (cert.static_bound >= 0) {
    out += ",\"static_bound\":" + JsonNumber(cert.static_bound);
  }
  out += ",\"actual_fetches\":" + std::to_string(cert.actual_fetches) +
         ",\"index_lookups\":" + std::to_string(cert.index_lookups);
  if (!cert.ops.empty()) {
    out += ",\"ops\":[";
    for (size_t i = 0; i < cert.ops.size(); ++i) {
      const CertOp& op = cert.ops[i];
      if (i > 0) out += ",";
      out += "{\"label\":\"" + JsonEscape(op.label) +
             "\",\"rows_out\":" + std::to_string(op.rows_out) +
             ",\"tuples_fetched\":" + std::to_string(op.tuples_fetched) +
             ",\"index_lookups\":" + std::to_string(op.index_lookups);
      if (op.static_bound >= 0) {
        out += ",\"static_bound\":" + JsonNumber(op.static_bound);
      }
      out += "}";
    }
    out += "]";
  }
  out += ",\"tripped\":";
  out += cert.tripped ? "true" : "false";
  if (!cert.trip_reason.empty()) {
    out += ",\"trip_reason\":\"" + JsonEscape(cert.trip_reason) + "\"";
  }
  out += ",\"verdict\":\"";
  out += CertVerdictName(cert.verdict);
  out += "\",\"signature\":\"" + Hex16(cert.signature) + "\"}";
  return out;
}

bool CertVerdictFromName(std::string_view name, CertVerdict* out) {
  for (CertVerdict v :
       {CertVerdict::kWithinBound, CertVerdict::kExceeded,
        CertVerdict::kNoStaticBound, CertVerdict::kTripped}) {
    if (name == CertVerdictName(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

namespace {

/// Generation `gen` of a rotated file: `path` itself for 0, `path.<gen>`
/// otherwise — the one naming rule behind rotation and replay.
std::string GenerationPath(const std::string& path, int gen) {
  return gen == 0 ? path : path + "." + std::to_string(gen);
}

/// One parsed certificate object — shared by the dump reader (arrays) and
/// the JSONL journal reader (one object per line).
Result<AccessCertificate> CertificateFromJsonValue(const JsonValue& c) {
  if (!c.is_object()) {
    return Status::InvalidArgument("certificate is not an object");
  }
  AccessCertificate cert;
  cert.query_fingerprint = c.StringOr("query_fingerprint", "");
  cert.query_id = c.StringOr("query_id", "");
  cert.query_text = c.StringOr("query", "");
  cert.static_bound = c.NumberOr("static_bound", -1.0);
  cert.actual_fetches = static_cast<uint64_t>(c.NumberOr("actual_fetches", 0));
  cert.index_lookups = static_cast<uint64_t>(c.NumberOr("index_lookups", 0));
  cert.tripped = c.BoolOr("tripped", false);
  cert.trip_reason = c.StringOr("trip_reason", "");
  if (!CertVerdictFromName(c.StringOr("verdict", ""), &cert.verdict)) {
    return Status::InvalidArgument("certificate has an unknown verdict");
  }
  const std::string sig = c.StringOr("signature", "");
  char* end = nullptr;
  cert.signature = std::strtoull(sig.c_str(), &end, 16);
  if (sig.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("certificate has a malformed signature");
  }
  if (const JsonValue* ops = c.Find("ops"); ops != nullptr) {
    for (const JsonValue& o : ops->array) {
      CertOp op;
      op.label = o.StringOr("label", "");
      op.rows_out = static_cast<uint64_t>(o.NumberOr("rows_out", 0));
      op.tuples_fetched =
          static_cast<uint64_t>(o.NumberOr("tuples_fetched", 0));
      op.index_lookups = static_cast<uint64_t>(o.NumberOr("index_lookups", 0));
      op.static_bound = o.NumberOr("static_bound", -1.0);
      cert.ops.push_back(std::move(op));
    }
  }
  return cert;
}

}  // namespace

Result<std::vector<AccessCertificate>> CertificatesFromDumpJson(
    std::string_view json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* certs = nullptr;
  if (parsed->is_array()) {
    certs = &*parsed;
  } else {
    certs = parsed->Find("certificates");
    if (certs == nullptr) {
      const JsonValue* journal = parsed->Find("journal");
      if (journal != nullptr) certs = journal->Find("certificates");
    }
  }
  if (certs == nullptr || !certs->is_array()) {
    return Status::InvalidArgument(
        "dump has no certificate array (expected a post-mortem dump, a "
        "journal object, or a bare array)");
  }

  std::vector<AccessCertificate> out;
  out.reserve(certs->array.size());
  for (size_t i = 0; i < certs->array.size(); ++i) {
    Result<AccessCertificate> cert = CertificateFromJsonValue(certs->array[i]);
    if (!cert.ok()) {
      return Status::InvalidArgument("certificate " + std::to_string(i) +
                                     ": " + cert.status().message());
    }
    out.push_back(std::move(cert).ValueOrDie());
  }
  return out;
}

std::string JournalLineJson(const AccessCertificate& cert, double latency_ms,
                            bool noncontrollable,
                            const std::string& client_tag) {
  std::string line = CertificateToJson(cert);
  line.pop_back();  // re-open the object for the non-sealed siblings
  if (latency_ms >= 0) line += ",\"latency_ms\":" + JsonNumber(latency_ms);
  if (!client_tag.empty()) {
    line += ",\"client_tag\":\"" + JsonEscape(client_tag) + "\"";
  }
  line += ",\"noncontrollable\":";
  line += noncontrollable ? "true" : "false";
  line += "}";
  return line;
}

QueryJournal::QueryJournal(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void QueryJournal::Append(AccessCertificate cert) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = next_seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(cert));
    return;
  }
  ++dropped_;
  ring_[seq % capacity_] = std::move(cert);
}

std::vector<AccessCertificate> QueryJournal::certificates() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AccessCertificate> out;
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

size_t QueryJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t QueryJournal::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

uint64_t QueryJournal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void QueryJournal::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_seq_ = 0;
  dropped_ = 0;
}

std::string JournalLoadReport::ToString() const {
  std::string out = "journal: " + std::to_string(entries) + " entr" +
                    (entries == 1 ? "y" : "ies") + " (" +
                    std::to_string(sealed_ok) + " sealed, " +
                    std::to_string(tampered) + " tampered, " +
                    std::to_string(malformed) + " malformed)";
  return out;
}

RotatingJsonlFile::RotatingJsonlFile(std::string path, uint64_t max_bytes,
                                     std::string append_site,
                                     std::string rotate_site)
    : path_(std::move(path)),
      max_bytes_(max_bytes == 0 ? 1 : max_bytes),
      append_site_(std::move(append_site)),
      rotate_site_(std::move(rotate_site)) {}

RotatingJsonlFile::~RotatingJsonlFile() = default;

Status RotatingJsonlFile::RotateLocked() {
  SI_RETURN_IF_ERROR(SCALEIN_FAILPOINT(rotate_site_.c_str()));
  namespace fs = std::filesystem;
  std::error_code ec;
  out_.reset();  // close the live handle before renaming under it
  // path.1 -> path.2 (clobbering the oldest generation), then path -> path.1.
  for (int gen = kRotations - 1; gen >= 0; --gen) {
    const std::string from = GenerationPath(path_, gen);
    const std::string to = GenerationPath(path_, gen + 1);
    if (gen > 0 && !fs::exists(from, ec)) continue;
    fs::rename(from, to, ec);
    if (ec) {
      return Status::Internal("journal rotate: cannot rename '" + from +
                              "' to '" + to + "': " + ec.message());
    }
  }
  ++rotations_;
  live_bytes_ = 0;
  return Status::OK();
}

Status RotatingJsonlFile::Append(std::string_view line) {
  // Chaos site: an injected append fault surfaces as this Status — callers
  // (the shell's RecordEvalOutcome, the serve access log) render it as a
  // warning and keep the request's result, never failing it over its paper
  // trail.
  SI_RETURN_IF_ERROR(SCALEIN_FAILPOINT(append_site_.c_str()));
  std::lock_guard<std::mutex> lock(mu_);
  if (live_bytes_ < 0) {
    // First touch: create missing parent directories loudly (the fix for
    // silently dropped writes) and size any surviving live file.
    SI_RETURN_IF_ERROR(EnsureParentDirs(path_));
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_, ec);
    live_bytes_ = ec ? 0 : static_cast<int64_t>(size);
  }
  if (live_bytes_ > 0 &&
      static_cast<uint64_t>(live_bytes_) + line.size() + 1 > max_bytes_) {
    SI_RETURN_IF_ERROR(RotateLocked());
  }
  if (out_ == nullptr) {
    out_ = std::make_unique<std::ofstream>(path_, std::ios::app);
    if (!out_->is_open()) {
      out_.reset();
      return Status::Internal("cannot open '" + path_ + "' for append");
    }
  }
  out_->write(line.data(), static_cast<std::streamsize>(line.size()));
  out_->put('\n');
  out_->flush();
  if (!out_->good()) {
    out_.reset();
    return Status::Internal("cannot append to '" + path_ + "'");
  }
  live_bytes_ += static_cast<int64_t>(line.size()) + 1;
  ++appended_;
  return Status::OK();
}

uint64_t RotatingJsonlFile::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

uint64_t RotatingJsonlFile::rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

void LoadRotatedJsonl(
    const std::string& path,
    const std::function<Status(const JsonValue& line,
                               const std::string& where)>& visit,
    JsonlLoadReport* report) {
  // Oldest generation first, so replay order equals append order.
  for (int gen = RotatingJsonlFile::kRotations; gen >= 0; --gen) {
    const std::string file = GenerationPath(path, gen);
    std::ifstream in(file);
    if (!in.is_open()) continue;
    ++report->files;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      const std::string where = file + ":" + std::to_string(lineno);
      Result<JsonValue> parsed = ParseJson(line);
      const Status status =
          parsed.ok() ? visit(*parsed, where) : parsed.status();
      if (!status.ok()) {
        ++report->malformed;
        report->errors.push_back(where + ": " + status.message());
      }
    }
  }
}

JournalStore::JournalStore(std::string path, uint64_t max_bytes)
    : file_(std::move(path), max_bytes, "journal_append", "journal_rotate") {}

Status JournalStore::Append(const AccessCertificate& cert, double latency_ms,
                            bool noncontrollable,
                            const std::string& client_tag) {
  return file_.Append(
      JournalLineJson(cert, latency_ms, noncontrollable, client_tag));
}

Result<std::vector<JournalEntry>> JournalStore::Load(
    JournalLoadReport* report) const {
  JournalLoadReport local;
  std::vector<JournalEntry> out;
  LoadRotatedJsonl(
      path(),
      [&](const JsonValue& line, const std::string& where) -> Status {
        Result<AccessCertificate> cert = CertificateFromJsonValue(line);
        if (!cert.ok()) return cert.status();
        JournalEntry entry;
        entry.cert = std::move(cert).ValueOrDie();
        entry.latency_ms = line.NumberOr("latency_ms", -1.0);
        entry.noncontrollable = line.BoolOr("noncontrollable", false);
        entry.client_tag = line.StringOr("client_tag", "");
        entry.seal_ok = VerifyCertificate(entry.cert);
        if (entry.seal_ok) {
          ++local.sealed_ok;
        } else {
          ++local.tampered;
          local.errors.push_back(where +
                                 ": seal mismatch (tampered after sealing?)");
        }
        ++local.entries;
        out.push_back(std::move(entry));
        return Status::OK();
      },
      &local);
  if (report != nullptr) *report = std::move(local);
  return out;
}

std::string QueryJournal::ToJson() const {
  std::vector<AccessCertificate> snapshot = certificates();
  uint64_t appended;
  uint64_t dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    appended = next_seq_;
    dropped = dropped_;
  }
  std::string out = "{\"capacity\":" + std::to_string(capacity_) +
                    ",\"appended\":" + std::to_string(appended) +
                    ",\"dropped\":" + std::to_string(dropped) +
                    ",\"certificates\":[";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    if (i > 0) out += ",";
    out += CertificateToJson(snapshot[i]);
  }
  out += "]}";
  return out;
}

}  // namespace scalein::obs
