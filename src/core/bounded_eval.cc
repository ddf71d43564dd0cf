#include "core/bounded_eval.h"

#include <optional>

#include "exec/compiler.h"
#include "exec/vm.h"
#include "par/worker_pool.h"

namespace scalein {
namespace {

/// Non-owning handle for the compiler's keepalive: the program lives for
/// one call, while the caller keeps the analysis alive.
template <typename T>
std::shared_ptr<const T> Borrow(const T& object) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &object);
}

using Program = Result<std::shared_ptr<const exec::CompiledProgram>>;

/// Compiles one program per distinct variable set in `batch` and prebuilds
/// its indexes, so the fan-out only reads; then runs `run(program, binding,
/// stats)` per binding on the global pool. Results are in input order and
/// stats merge in input order, so totals are identical to a sequential loop.
template <typename Compile, typename Run>
std::vector<Result<AnswerSet>> RunBatch(const Database& db,
                                        const std::vector<Binding>& batch,
                                        BoundedEvalStats* stats,
                                        const Compile& compile,
                                        const Run& run) {
  std::map<VarSet, Program> programs;
  for (const Binding& b : batch) {
    VarSet vars = BoundVars(b);
    if (programs.count(vars)) continue;
    Program p = compile(vars);
    if (p.ok()) exec::PrebuildCompiledIndexes(db, **p);
    programs.emplace(std::move(vars), std::move(p));
  }
  // Result<T> has no default constructor, so slots are optional and filled
  // by index.
  std::vector<std::optional<Result<AnswerSet>>> slots(batch.size());
  std::vector<BoundedEvalStats> worker_stats(batch.size());
  const bool capture_ops = stats != nullptr && stats->capture_ops;
  par::WorkerPool::Global().ParallelFor(batch.size(), [&](size_t i) {
    worker_stats[i].capture_ops = capture_ops;
    const Program& p = programs.at(BoundVars(batch[i]));
    slots[i].emplace(p.ok() ? run(**p, batch[i], &worker_stats[i])
                            : Result<AnswerSet>(p.status()));
  });
  std::vector<Result<AnswerSet>> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (stats != nullptr) stats->Merge(worker_stats[i]);
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

}  // namespace

exec::CompiledEvaluator BoundedEvaluator::Vm() const {
  exec::CompiledEvaluator vm(db_);
  vm.set_enforce_bounds(enforce_bounds_);
  vm.set_limits(limits_);
  vm.set_collect_timing(collect_timing_);
  return vm;
}

Result<AnswerSet> BoundedEvaluator::Evaluate(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  SI_ASSIGN_OR_RETURN(auto program,
                      exec::CompilePlain(q, Borrow(analysis), BoundVars(params)));
  return Vm().Evaluate(*program, params, stats);
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateDegraded(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  SI_ASSIGN_OR_RETURN(auto program,
                      exec::CompilePlain(q, Borrow(analysis), BoundVars(params)));
  return Vm().EvaluateDegraded(*program, params, stats);
}

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateBatch(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const std::vector<Binding>& batch, BoundedEvalStats* stats) const {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  const exec::CompiledEvaluator vm = Vm();
  return RunBatch(
      *db_, batch, stats,
      [&](const VarSet& vars) {
        return exec::CompilePlain(q, Borrow(analysis), vars);
      },
      [&](const exec::CompiledProgram& program, const Binding& params,
          BoundedEvalStats* s) { return vm.Evaluate(program, params, s); });
}

Result<AnswerSet> BoundedEvaluator::EvaluateEmbedded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats) const {
  SI_ASSIGN_OR_RETURN(auto program,
                      exec::CompileEmbedded(Borrow(analysis), BoundVars(params)));
  return Vm().EvaluateEmbedded(*program, params, stats);
}

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedBatch(
    const EmbeddedCqAnalysis& analysis, const std::vector<Binding>& batch,
    BoundedEvalStats* stats) const {
  const exec::CompiledEvaluator vm = Vm();
  return RunBatch(
      *db_, batch, stats,
      [&](const VarSet& vars) {
        return exec::CompileEmbedded(Borrow(analysis), vars);
      },
      [&](const exec::CompiledProgram& program, const Binding& params,
          BoundedEvalStats* s) {
        return vm.EvaluateEmbedded(program, params, s);
      });
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedDegraded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats, bool fallback_to_approx) const {
  SI_ASSIGN_OR_RETURN(auto program,
                      exec::CompileEmbedded(Borrow(analysis), BoundVars(params)));
  return Vm().EvaluateEmbeddedDegraded(*program, params, stats,
                                       fallback_to_approx);
}

}  // namespace scalein
