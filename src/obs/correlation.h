#ifndef SCALEIN_OBS_CORRELATION_H_
#define SCALEIN_OBS_CORRELATION_H_

#include <cstdint>
#include <string>

namespace scalein::obs {

/// One query's correlation identity: every artifact an evaluation produces
/// — spans, flight-recorder events, the sealed access certificate,
/// post-mortem dumps, journal lines — carries the same QueryId, so
/// a forensic reader can join them without guessing by timestamp.
///
/// `session` fingerprints the process (or SCALEIN_SESSION_ID when set, for
/// reproducible runs); `seq` is the per-session evaluation counter, starting
/// at 1. `seq == 0` means "no query in flight" and renders as the empty
/// string everywhere, so unset ids never perturb deterministic output.
struct QueryId {
  uint64_t session = 0;
  uint64_t seq = 0;

  bool valid() const { return seq != 0; }
  bool operator==(const QueryId& other) const {
    return session == other.session && seq == other.seq;
  }
};

/// "<hex16-session>-<seq>" (e.g. "91ab…f3-7"); empty when `!id.valid()`.
std::string RenderQueryId(const QueryId& id);

/// The process-wide session fingerprint: FNV-1a of SCALEIN_SESSION_ID when
/// that env var is set (deterministic runs), otherwise a start-time/pid hash
/// computed once per process.
uint64_t SessionFingerprint();

/// The query currently being evaluated (process-wide; the shell runs one
/// query at a time and worker lanes inherit it). Invalid when idle.
QueryId CurrentQueryId();

/// Installs `id` as the current query; an invalid id clears the slot.
/// Prefer ScopedQueryCorrelation so the slot can't leak past an early
/// return.
void SetCurrentQueryId(const QueryId& id);

/// RAII correlation scope: sets the current QueryId for the duration of one
/// evaluation and restores the previous value (normally "none") on exit, so
/// everything recorded in between — on any thread — is stamped with it.
class ScopedQueryCorrelation {
 public:
  explicit ScopedQueryCorrelation(const QueryId& id) : prev_(CurrentQueryId()) {
    SetCurrentQueryId(id);
  }
  ~ScopedQueryCorrelation() { SetCurrentQueryId(prev_); }
  ScopedQueryCorrelation(const ScopedQueryCorrelation&) = delete;
  ScopedQueryCorrelation& operator=(const ScopedQueryCorrelation&) = delete;

 private:
  QueryId prev_;
};

}  // namespace scalein::obs

#endif  // SCALEIN_OBS_CORRELATION_H_
