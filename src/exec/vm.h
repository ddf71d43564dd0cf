#ifndef SCALEIN_EXEC_VM_H_
#define SCALEIN_EXEC_VM_H_

#include <vector>

#include "core/bounded_eval.h"
#include "eval/answer_set.h"
#include "exec/bytecode.h"
#include "exec/exec_context.h"
#include "exec/governor.h"
#include "relational/database.h"
#include "util/status.h"

namespace scalein::exec {

/// Register-bytecode executor for compiled bounded plans (exec/compiler.h)
/// — the one bounded executor; core's BoundedEvaluator compiles and calls
/// it.
///
/// Frontiers are flat register rows, unification is a fused step loop
/// (computed-goto dispatch where the compiler supports it), and set
/// semantics come from sort+unique over fixed-width rows. Every metered
/// charge goes through the ExecContext in derivation order, and wide
/// frontiers fan out through the governed morsel protocol
/// (exec/governed_parallel.h), so answers, fetch totals, per-relation/per-op
/// accounting, TripInfo and sealed access certificates are identical at any
/// thread count. Timing capture (`set_collect_timing`) is supported, but
/// per-node wall times are *approximate* (wrapper ops share one start
/// clock); timing never feeds certificates or accounting.
class CompiledEvaluator {
 public:
  explicit CompiledEvaluator(Database* db) : db_(db) {}

  /// Any access returning more rows than its statement's N fails with
  /// ResourceExhausted (the database does not conform to A).
  void set_enforce_bounds(bool enforce) { enforce_bounds_ = enforce; }

  void set_fetch_budget(uint64_t budget) { limits_.fetch_budget = budget; }

  /// Per-evaluation resource envelope, armed on each evaluation's fresh
  /// ExecContext.
  void set_limits(const GovernorLimits& limits) { limits_ = limits; }
  const GovernorLimits& limits() const { return limits_; }

  void set_collect_timing(bool collect) { collect_timing_ = collect; }

  /// Executes a kPlain program. `params` must bind exactly the variables
  /// the program was compiled for.
  Result<AnswerSet> Evaluate(const CompiledProgram& program,
                             const Binding& params,
                             BoundedEvalStats* stats = nullptr) const;

  /// Degradation-aware kPlain execution: a governor trip returns the partial
  /// answer set with the trip record and op snapshot instead of an error.
  Result<Degraded<AnswerSet>> EvaluateDegraded(
      const CompiledProgram& program, const Binding& params,
      BoundedEvalStats* stats = nullptr) const;

  /// Executes a kEmbedded program (Proposition 4.5 chase).
  Result<AnswerSet> EvaluateEmbedded(const CompiledProgram& program,
                                     const Binding& params,
                                     BoundedEvalStats* stats = nullptr) const;

  /// Degradation-aware kEmbedded execution; on a trip with
  /// `fallback_to_approx` and a fetch budget armed, the greedy budgeted
  /// engine (core/approx.h) re-answers within the same budget.
  Result<Degraded<AnswerSet>> EvaluateEmbeddedDegraded(
      const CompiledProgram& program, const Binding& params,
      BoundedEvalStats* stats = nullptr, bool fallback_to_approx = false) const;

 private:
  Result<AnswerSet> RunEmbedded(const CompiledProgram& program,
                                         const Binding& params,
                                         ExecContext* ctx,
                                         bool capture_ops) const;

  Database* db_;
  bool enforce_bounds_ = false;
  GovernorLimits limits_;
  bool collect_timing_ = false;
};

/// Builds every index `program` can probe (plain leaves or embedded chase
/// steps + verification), so parallel execution only ever finds them.
void PrebuildCompiledIndexes(const Database& db, const CompiledProgram& program);

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_VM_H_
