#ifndef SCALEIN_EXEC_COMPILER_H_
#define SCALEIN_EXEC_COMPILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "exec/bytecode.h"
#include "query/formula.h"
#include "util/status.h"

namespace scalein::exec {

/// Lowers a §4 plain-controllability derivation into register bytecode.
///
/// Every derivation the controllability analysis emits compiles: all six §4
/// rules (atom, condition, and with safe negations, or, exists, forall),
/// nested to any depth. The program issues the derivation's metered charges
/// in evaluation order, so answers, TripInfo, per-op/per-relation
/// accounting and sealed certificates are a function of the derivation and
/// the data alone, at any thread count.
///
/// Fails with FailedPrecondition when `param_vars` controls no derived
/// option, and with InvalidArgument when the derivation needs more than
/// 65 534 registers (one per variable).
///
/// `analysis` is retained by the returned program (the bytecode points into
/// the analysis' access statements and formulas).
Result<std::shared_ptr<const CompiledProgram>> CompilePlain(
    const FoQuery& q,
    std::shared_ptr<const ControllabilityAnalysis> analysis,
    const VarSet& param_vars);

/// Lowers a Proposition 4.5 embedded chase plan into register bytecode for
/// bindings over `param_vars`, which must include the analysis' parameters;
/// extra variables seed the chase like parameters do. Fails with
/// FailedPrecondition for a non-scale-independent analysis and with
/// InvalidArgument for a missing parameter.
Result<std::shared_ptr<const CompiledProgram>> CompileEmbedded(
    std::shared_ptr<const EmbeddedCqAnalysis> analysis,
    const VarSet& param_vars);

/// The compiled-plan side of one AnalysisCache entry: programs per parameter
/// set, living and dying with the cached derivation. The cache drops the
/// whole entry on DDL/env-drift/eviction, so a program can never outlive (or
/// lag behind) the analysis it was lowered from — the invalidation story of
/// the derivation and its bytecode is one object.
///
/// Thread-safe. A parameter set's program is compiled on its first sight and
/// kept; a failed compilation is not kept (its error goes to the caller).
class CompiledPlanSet {
 public:
  /// Kept only for benchmark code; the one behavior: compile on first sight.
  enum class Mode : uint8_t { kAuto };

  /// The compiled plain program for `param_vars`, compiling it on first
  /// sight; the compile error when there is none.
  Result<std::shared_ptr<const CompiledProgram>> Plain(
      const FoQuery& q,
      const std::shared_ptr<const ControllabilityAnalysis>& analysis,
      const VarSet& param_vars);

  /// Plain() for callers that want nullptr with the error text in `*why`.
  std::shared_ptr<const CompiledProgram> GetOrCompilePlain(
      Mode mode, const FoQuery& q,
      const std::shared_ptr<const ControllabilityAnalysis>& analysis,
      const VarSet& param_vars, std::string* why);

  /// Number of successful compilations (tests assert recompile-after-DDL).
  uint64_t compiles() const;

 private:
  mutable std::mutex mu_;
  std::map<VarSet, std::shared_ptr<const CompiledProgram>> programs_;
  uint64_t compiles_ = 0;
};

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_COMPILER_H_
