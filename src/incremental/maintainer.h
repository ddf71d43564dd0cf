#ifndef SCALEIN_INCREMENTAL_MAINTAINER_H_
#define SCALEIN_INCREMENTAL_MAINTAINER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "exec/compiler.h"
#include "incremental/delta_rules.h"
#include "query/cq.h"

namespace scalein {

/// Bounded incremental maintenance of a parameterized CQ (§5 made
/// executable: Corollary 5.3 and Proposition 5.5).
///
/// For each atom occurrence o of the query, the *residual query* replaces o
/// by a concrete update tuple (the paper's occurrence-substitution ∆Q —
/// compare ∆Q2 in Example 1.1(b)). When every residual is controlled under
/// the access schema by the parameters plus the occurrence's variables,
/// insertions maintain Q(D) with O(|∆D|) bounded lookups — the 3·|∆D| fetch
/// bound of Example 1.1(b). Deletions additionally need the whole body to be
/// controlled by parameters + head variables, so removed candidates can be
/// re-checked membership-wise.
class IncrementalMaintainer {
 public:
  /// Builds maintenance plans for `q` with the variables of `params` fixed.
  /// Fails only on structural errors; unsupported update paths are reported
  /// through SupportsInsertions/SupportsDeletions.
  static Result<IncrementalMaintainer> Create(const Cq& q, const Schema& schema,
                                              const AccessSchema& access,
                                              const VarSet& params);

  /// True if insertions into `relation` can be maintained boundedly (every
  /// occurrence's residual is controlled).
  bool SupportsInsertions(const std::string& relation) const;

  /// True if deletions (from any relation of the query) are maintainable:
  /// residuals controlled and the body re-checkable given head + params.
  bool SupportsDeletions() const;

  /// Resource envelope applied to every inner bounded evaluation. The fetch
  /// budget is per-evaluation (each residual/membership check gets the full
  /// budget — the per-tuple bound the paper's O(|∆D|) maintenance cost is
  /// built from); a relative deadline is pinned once per Maintain call so
  /// the whole update batch shares one wall clock.
  void set_limits(const exec::GovernorLimits& limits) { limits_ = limits; }
  const exec::GovernorLimits& limits() const { return limits_; }

  /// Static bound on base tuples fetched per inserted tuple into `relation`.
  double FetchBoundPerInsertedTuple(const std::string& relation) const;

  /// Full evaluation of Q(params, D): the once-and-offline precomputation.
  Result<AnswerSet> InitialAnswers(Database* db, const Binding& params) const;

  /// Applies `u` to `*db` and maintains `*answers` (which must currently
  /// equal Q(params, D)). Base-relation accesses are counted into `stats`;
  /// they are bounded by |∆D| times the static per-tuple bounds, independent
  /// of |D|.
  Status Maintain(Database* db, const Update& u, const Binding& params,
                  AnswerSet* answers, BoundedEvalStats* stats = nullptr) const;

  // --- Phase API ---
  // For callers coordinating several maintainers over ONE shared update
  // (e.g. the disjuncts of a UCQ): run CollectDeletionCandidates on every
  // maintainer *before* ApplyUpdate, then IntegrateInsertions and
  // RecheckCandidates after. Maintain() is the single-query composition.

  /// Phase 1 (pre-update): answers that might lose support under `u`'s
  /// deletions. Fails if deletions are present but unsupported.
  Status CollectDeletionCandidates(Database* db, const Update& u,
                                   const Binding& params, AnswerSet* candidates,
                                   BoundedEvalStats* stats = nullptr) const;

  /// Phase 2 (post-update): inserts answers gained through `u`'s insertions.
  Status IntegrateInsertions(Database* db, const Update& u,
                             const Binding& params, AnswerSet* answers,
                             BoundedEvalStats* stats = nullptr) const;

  /// Phase 3 (post-update): re-checks each candidate's membership and erases
  /// the ones that no longer hold.
  Status RecheckCandidates(Database* db, const AnswerSet& candidates,
                           const Binding& params, AnswerSet* answers,
                           BoundedEvalStats* stats = nullptr) const;

  const Cq& query() const { return query_; }

 private:
  struct Occurrence {
    size_t atom_index;
    FoQuery residual;  ///< remaining atoms, existentially closed
    std::shared_ptr<ControllabilityAnalysis> analysis;
    /// The residual's bytecode beside its derivation, compiled once per
    /// parameter set rather than once per update tuple.
    std::shared_ptr<exec::CompiledPlanSet> programs =
        std::make_shared<exec::CompiledPlanSet>();
    bool controlled = false;
    double fetch_bound = 0;
  };

  IncrementalMaintainer(Cq q, VarSet params)
      : query_(std::move(q)), params_(std::move(params)) {}

  /// Unifies atom `atom_index`'s arguments with `t` under `params`; returns
  /// the extended binding or nullopt on mismatch.
  std::optional<Binding> UnifyAtom(size_t atom_index, TupleView t,
                                   const Binding& params) const;

  /// Evaluates the residual of `occ` under `env`, emitting full head tuples.
  /// `limits` is the (already pinned) envelope for this evaluation.
  Status CollectAnswers(const Occurrence& occ, Database* db, const Binding& env,
                        AnswerSet* out, BoundedEvalStats* stats,
                        const exec::GovernorLimits& limits) const;

  // Pinned-limits internals behind the public phase API (the public phases
  // pin `limits_` themselves; Maintain pins once for all three).
  Status CollectDeletionCandidatesImpl(Database* db, const Update& u,
                                       const Binding& params,
                                       AnswerSet* candidates,
                                       BoundedEvalStats* stats,
                                       const exec::GovernorLimits& limits) const;
  Status IntegrateInsertionsImpl(Database* db, const Update& u,
                                 const Binding& params, AnswerSet* answers,
                                 BoundedEvalStats* stats,
                                 const exec::GovernorLimits& limits) const;
  Status RecheckCandidatesImpl(Database* db, const AnswerSet& candidates,
                               const Binding& params, AnswerSet* answers,
                               BoundedEvalStats* stats,
                               const exec::GovernorLimits& limits) const;

  Cq query_;
  VarSet params_;
  exec::GovernorLimits limits_;
  std::vector<Occurrence> occurrences_;
  /// Membership re-check: body controlled by params + head variables.
  FoQuery membership_query_;
  std::shared_ptr<ControllabilityAnalysis> membership_analysis_;
  std::shared_ptr<exec::CompiledPlanSet> membership_programs_ =
      std::make_shared<exec::CompiledPlanSet>();
  bool deletions_supported_ = false;
};

}  // namespace scalein

#endif  // SCALEIN_INCREMENTAL_MAINTAINER_H_
