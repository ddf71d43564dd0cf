#ifndef SCALEIN_UTIL_FAILPOINT_H_
#define SCALEIN_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

/// Compile-time kill switch: building with -DSCALEIN_FAILPOINTS_COMPILED=0
/// turns every SCALEIN_FAILPOINT site into `Status::OK()` with no registry
/// reference at all, so release builds can strip the framework entirely.
/// When compiled in (the default), a disarmed registry costs one relaxed
/// atomic load and a predicted branch per site.
#ifndef SCALEIN_FAILPOINTS_COMPILED
#define SCALEIN_FAILPOINTS_COMPILED 1
#endif

namespace scalein::util {

/// What an armed failpoint does when its trigger fires.
enum class FailAction {
  kError,  ///< return Status::Internal("failpoint <site> fired")
  kDelay,  ///< sleep `delay_ms`, then return OK
};

/// How an armed failpoint decides whether a given hit fires.
enum class FailTrigger {
  kAlways,       ///< every hit
  kProbability,  ///< each hit independently with probability `probability`
  kEveryNth,     ///< hits n, 2n, 3n, ... (1-based count)
};

/// One configured injection site.
struct FailpointConfig {
  std::string site;
  FailAction action = FailAction::kError;
  FailTrigger trigger = FailTrigger::kAlways;
  double probability = 1.0;  ///< kProbability: chance in [0, 1]
  uint64_t every_n = 1;      ///< kEveryNth: period
  uint64_t delay_ms = 0;     ///< kDelay: sleep duration
};

/// Named fault-injection sites ("failpoints", after the FreeBSD/TiKV
/// mechanism): engine hot spots call `SCALEIN_FAILPOINT("site")` and
/// propagate the returned Status. Disarmed (the default), a site is a relaxed
/// atomic load; armed, the registry looks the site up by name and applies its
/// configured action.
///
/// Activation is either programmatic (`Configure`, used by the chaos tests)
/// or via the environment (`InitFromEnv` reading SCALEIN_FAILPOINTS, wired
/// into the shell binary). The spec grammar, `;`-separated:
///
///   SCALEIN_FAILPOINTS="index_probe=error(1%);scan_next=delay(2ms);
///                       chase_step=error(every:50);delta_apply=error;seed=7"
///
///   <site>=error            fire on every hit
///   <site>=error(P%)        fire each hit with probability P/100
///   <site>=error(every:N)   fire on every Nth hit (deterministic)
///   <site>=delay(Xms)       sleep X ms on every hit (same (..) triggers ok)
///   seed=<n>                seed for the probability draws (deterministic)
///
/// Probability draws use a per-registry SplitMix64 stream seeded from `seed`
/// (default 0), so a given spec replays identically — randomized chaos
/// schedules are reproducible from (spec, seed) alone.
///
/// Engine sites (grep SCALEIN_FAILPOINT for the authoritative list):
/// storage probes `index_probe`, `scan_next`, `delta_apply`; the §4 chase
/// `chase_step`; the worker pool's `pool_wake` (a worker between waking for
/// a job and draining it; only `delay` is meaningful there); and the §3 decision-procedure search loops `qsi_candidate`
/// (one hit per candidate counterexample database), `qdsi_subset` (one hit
/// per candidate subset) and `qdsi_support` (one hit per answer whose
/// supports are gathered). A fault at a §3 site degrades the verdict to
/// kUnknown and surfaces the Status in the decision's `error` field — it
/// never forges a yes/no.
///
/// Thread safety: Configure/Clear must not race with hits (arm before the
/// workload, as the chaos harness does); counters use relaxed atomics.
class Failpoints {
 public:
  /// Process-wide registry used by the SCALEIN_FAILPOINT macro.
  static Failpoints& Global();

  /// True when any site is armed; the macro's fast-path gate.
  static bool armed() {
    return armed_flag_.load(std::memory_order_relaxed);
  }

  /// Parses `spec` and replaces the armed configuration (empty spec = clear).
  Status Configure(const std::string& spec);

  /// Arms from the SCALEIN_FAILPOINTS environment variable; no-op when the
  /// variable is unset or empty. Returns the parse status.
  Status InitFromEnv();

  /// Disarms every site.
  void Clear();

  /// Slow path behind the macro: looks up `site` and applies its action.
  /// Unconfigured sites return OK. Every hit of a configured site is counted
  /// whether or not it fires.
  Status Hit(const char* site);

  /// Total fires (error or delay actions taken) since the last Configure.
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }
  /// Hits on configured sites since the last Configure.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// The currently armed configuration (for tests and diagnostics).
  std::vector<FailpointConfig> configs() const;

  /// Observer invoked on every fire with (site, action name) — how the
  /// flight recorder sees injections without util/ depending on obs/. A
  /// plain function pointer so installation is one relaxed store; nullptr
  /// (the default) disables. Install before arming sites.
  void set_fire_listener(void (*listener)(const char* site,
                                          const char* action)) {
    fire_listener_.store(listener, std::memory_order_relaxed);
  }

 private:
  struct SiteState {
    FailpointConfig config;
    std::atomic<uint64_t> hit_count{0};
  };

  static std::atomic<bool> armed_flag_;

  // Swapped wholesale by Configure; sized at arm time, stable while armed.
  std::vector<std::unique_ptr<SiteState>> sites_;
  std::atomic<uint64_t> rng_state_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> fires_{0};
  std::atomic<void (*)(const char*, const char*)> fire_listener_{nullptr};
};

/// Parses a failpoint spec into configs + seed without arming anything
/// (exposed for tests of the grammar).
Status ParseFailpointSpec(const std::string& spec,
                          std::vector<FailpointConfig>* out, uint64_t* seed);

}  // namespace scalein::util

#if SCALEIN_FAILPOINTS_COMPILED
/// Evaluates to the Status of hitting `site` (OK when disarmed/unconfigured).
#define SCALEIN_FAILPOINT(site)                       \
  (::scalein::util::Failpoints::armed()               \
       ? ::scalein::util::Failpoints::Global().Hit(site) \
       : ::scalein::Status::OK())
#else
#define SCALEIN_FAILPOINT(site) (::scalein::Status::OK())
#endif

#endif  // SCALEIN_UTIL_FAILPOINT_H_
