#include "incremental/maintainer.h"

#include <algorithm>

#include "eval/cq_evaluator.h"
#include "exec/vm.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/failpoint.h"

namespace scalein {
namespace {

/// Existentially closes `atoms` keeping `keep` free; the head lists the kept
/// variables in VarSet order.
FoQuery ResidualQuery(const std::string& name, const std::vector<CqAtom>& atoms,
                      const VarSet& keep) {
  VarSet body_vars;
  for (const CqAtom& a : atoms) {
    VarSet av = a.Vars();
    body_vars.insert(av.begin(), av.end());
  }
  VarSet kept = VarIntersect(keep, body_vars);
  VarSet quantified = VarMinus(body_vars, kept);

  FoQuery q;
  q.name = name;
  q.head.assign(kept.begin(), kept.end());
  if (atoms.empty()) {
    q.body = Formula::True();
    return q;
  }
  std::vector<Formula> conjuncts;
  conjuncts.reserve(atoms.size());
  for (const CqAtom& a : atoms) {
    conjuncts.push_back(Formula::Atom(a.relation, a.args));
  }
  q.body = Formula::Exists(
      std::vector<Variable>(quantified.begin(), quantified.end()),
      Formula::And(std::move(conjuncts)));
  return q;
}

/// Bounded evaluation of `q` under `env` on the VM, with the program for
/// env's variables taken from (or compiled into) `programs`.
Result<AnswerSet> EvaluateCompiled(
    exec::CompiledPlanSet* programs, const FoQuery& q,
    const std::shared_ptr<const ControllabilityAnalysis>& analysis,
    Database* db, const Binding& env, const exec::GovernorLimits& limits,
    BoundedEvalStats* stats) {
  SI_ASSIGN_OR_RETURN(auto program,
                      programs->Plain(q, analysis, BoundVars(env)));
  exec::CompiledEvaluator vm(db);
  vm.set_limits(limits);
  return vm.Evaluate(*program, env, stats);
}

}  // namespace

Result<IncrementalMaintainer> IncrementalMaintainer::Create(
    const Cq& q, const Schema& schema, const AccessSchema& access,
    const VarSet& params) {
  SI_RETURN_IF_ERROR(access.Validate(schema));
  IncrementalMaintainer m(q, params);
  const VarSet head_vars = q.HeadVars();

  for (size_t i = 0; i < q.atoms().size(); ++i) {
    Occurrence occ;
    occ.atom_index = i;
    std::vector<CqAtom> others = q.atoms();
    others.erase(others.begin() + static_cast<ptrdiff_t>(i));
    VarSet atom_vars = q.atoms()[i].Vars();
    VarSet keep = VarUnion(VarUnion(head_vars, params), atom_vars);
    occ.residual =
        ResidualQuery(q.name() + "_res" + std::to_string(i), others, keep);
    SI_ASSIGN_OR_RETURN(
        ControllabilityAnalysis analysis,
        ControllabilityAnalysis::Analyze(occ.residual.body, schema, access));
    occ.analysis =
        std::make_shared<ControllabilityAnalysis>(std::move(analysis));
    VarSet given = VarUnion(params, atom_vars);
    occ.controlled = occ.analysis->IsControlledBy(given);
    if (occ.controlled) {
      SI_ASSIGN_OR_RETURN(occ.fetch_bound,
                          occ.analysis->StaticFetchBound(given));
    }
    m.occurrences_.push_back(std::move(occ));
  }

  // Membership re-check query for deletions.
  m.membership_query_ =
      ResidualQuery(q.name() + "_member", q.atoms(), VarUnion(head_vars, params));
  SI_ASSIGN_OR_RETURN(ControllabilityAnalysis membership,
                      ControllabilityAnalysis::Analyze(
                          m.membership_query_.body, schema, access));
  m.membership_analysis_ =
      std::make_shared<ControllabilityAnalysis>(std::move(membership));
  bool all_controlled = true;
  for (const Occurrence& occ : m.occurrences_) {
    all_controlled &= occ.controlled;
  }
  m.deletions_supported_ =
      all_controlled &&
      m.membership_analysis_->IsControlledBy(VarUnion(head_vars, params));
  return m;
}

bool IncrementalMaintainer::SupportsInsertions(
    const std::string& relation) const {
  for (const Occurrence& occ : occurrences_) {
    if (query_.atoms()[occ.atom_index].relation == relation && !occ.controlled) {
      return false;
    }
  }
  return true;
}

bool IncrementalMaintainer::SupportsDeletions() const {
  return deletions_supported_;
}

double IncrementalMaintainer::FetchBoundPerInsertedTuple(
    const std::string& relation) const {
  double bound = 0;
  for (const Occurrence& occ : occurrences_) {
    if (query_.atoms()[occ.atom_index].relation == relation) {
      bound += occ.fetch_bound;
    }
  }
  return bound;
}

Result<AnswerSet> IncrementalMaintainer::InitialAnswers(
    Database* db, const Binding& params) const {
  obs::ScopedSpan span(obs::Tracer::Global(), "incremental.initial_answers",
                       "incremental");
  CqEvaluator eval(db);
  return eval.EvaluateFull(query_, params);
}

std::optional<Binding> IncrementalMaintainer::UnifyAtom(
    size_t atom_index, TupleView t, const Binding& params) const {
  const CqAtom& atom = query_.atoms()[atom_index];
  if (atom.args.size() != t.size()) return std::nullopt;
  Binding env = params;
  for (size_t p = 0; p < atom.args.size(); ++p) {
    const Term& term = atom.args[p];
    if (term.is_const()) {
      if (!(term.constant() == t[p])) return std::nullopt;
      continue;
    }
    auto it = env.find(term.var());
    if (it != env.end()) {
      if (!(it->second == t[p])) return std::nullopt;
    } else {
      env.emplace(term.var(), t[p]);
    }
  }
  return env;
}

Status IncrementalMaintainer::CollectAnswers(
    const Occurrence& occ, Database* db, const Binding& env, AnswerSet* out,
    BoundedEvalStats* stats, const exec::GovernorLimits& limits) const {
  SI_ASSIGN_OR_RETURN(AnswerSet partial,
                      EvaluateCompiled(occ.programs.get(), occ.residual,
                                       occ.analysis, db, env, limits, stats));
  // Residual answers cover the head variables not bound by env, in the
  // residual's head order.
  std::vector<Variable> open;
  for (const Variable& v : occ.residual.head) {
    if (!env.count(v)) open.push_back(v);
  }
  for (const Tuple& row : partial) {
    Binding full = env;
    for (size_t i = 0; i < open.size(); ++i) full.emplace(open[i], row[i]);
    Tuple head;
    head.reserve(query_.head().size());
    bool ok = true;
    for (const Term& h : query_.head()) {
      if (h.is_const()) {
        head.push_back(h.constant());
        continue;
      }
      auto it = full.find(h.var());
      if (it == full.end()) {
        ok = false;
        break;
      }
      head.push_back(it->second);
    }
    SI_CHECK_MSG(ok, "residual did not bind every head variable");
    out->insert(std::move(head));
  }
  return Status::OK();
}

Status IncrementalMaintainer::CollectDeletionCandidates(
    Database* db, const Update& u, const Binding& params,
    AnswerSet* candidates, BoundedEvalStats* stats) const {
  return CollectDeletionCandidatesImpl(db, u, params, candidates, stats,
                                       limits_.Pinned());
}

Status IncrementalMaintainer::CollectDeletionCandidatesImpl(
    Database* db, const Update& u, const Binding& params,
    AnswerSet* candidates, BoundedEvalStats* stats,
    const exec::GovernorLimits& limits) const {
  obs::ScopedSpan span(obs::Tracer::Global(),
                       "incremental.collect_candidates", "incremental");
  size_t total_deletions = 0;
  for (const auto& [rel, rows] : u.deletions) total_deletions += rows.size();
  if (total_deletions == 0) return Status::OK();
  if (!deletions_supported_) {
    return Status::FailedPrecondition(
        "query '" + query_.name() +
        "' does not support bounded maintenance under deletions");
  }
  for (const Occurrence& occ : occurrences_) {
    const std::string& rel = query_.atoms()[occ.atom_index].relation;
    auto it = u.deletions.find(rel);
    if (it == u.deletions.end()) continue;
    for (const Tuple& t : it->second) {
      std::optional<Binding> env = UnifyAtom(occ.atom_index, t, params);
      if (!env.has_value()) continue;
      SI_RETURN_IF_ERROR(
          CollectAnswers(occ, db, *env, candidates, stats, limits));
    }
  }
  return Status::OK();
}

Status IncrementalMaintainer::IntegrateInsertions(Database* db, const Update& u,
                                                  const Binding& params,
                                                  AnswerSet* answers,
                                                  BoundedEvalStats* stats) const {
  return IntegrateInsertionsImpl(db, u, params, answers, stats,
                                 limits_.Pinned());
}

Status IncrementalMaintainer::IntegrateInsertionsImpl(
    Database* db, const Update& u, const Binding& params, AnswerSet* answers,
    BoundedEvalStats* stats, const exec::GovernorLimits& limits) const {
  obs::ScopedSpan span(obs::Tracer::Global(),
                       "incremental.integrate_insertions", "incremental");
  // Evaluated on D ⊕ ∆D so joins among several inserted tuples are covered.
  for (const Occurrence& occ : occurrences_) {
    const std::string& rel = query_.atoms()[occ.atom_index].relation;
    auto it = u.insertions.find(rel);
    if (it == u.insertions.end()) continue;
    if (!occ.controlled) {
      return Status::FailedPrecondition(
          "insertions into '" + rel + "' are not boundedly maintainable: " +
          "residual of atom " + std::to_string(occ.atom_index) +
          " is not controlled");
    }
    for (const Tuple& t : it->second) {
      std::optional<Binding> env = UnifyAtom(occ.atom_index, t, params);
      if (!env.has_value()) continue;
      SI_RETURN_IF_ERROR(
          CollectAnswers(occ, db, *env, answers, stats, limits));
    }
  }
  return Status::OK();
}

Status IncrementalMaintainer::RecheckCandidates(Database* db,
                                                const AnswerSet& candidates,
                                                const Binding& params,
                                                AnswerSet* answers,
                                                BoundedEvalStats* stats) const {
  return RecheckCandidatesImpl(db, candidates, params, answers, stats,
                               limits_.Pinned());
}

Status IncrementalMaintainer::RecheckCandidatesImpl(
    Database* db, const AnswerSet& candidates, const Binding& params,
    AnswerSet* answers, BoundedEvalStats* stats,
    const exec::GovernorLimits& limits) const {
  obs::ScopedSpan span(obs::Tracer::Global(),
                       "incremental.recheck_candidates", "incremental");
  for (const Tuple& candidate : candidates) {
    if (!answers->count(candidate)) continue;
    // Bind head variables to the candidate's values.
    Binding env = params;
    bool consistent = true;
    for (size_t i = 0; i < query_.head().size() && consistent; ++i) {
      const Term& h = query_.head()[i];
      if (h.is_const()) {
        consistent = h.constant() == candidate[i];
        continue;
      }
      auto it = env.find(h.var());
      if (it != env.end()) {
        consistent = it->second == candidate[i];
      } else {
        env.emplace(h.var(), candidate[i]);
      }
    }
    if (!consistent) continue;
    SI_ASSIGN_OR_RETURN(
        AnswerSet still,
        EvaluateCompiled(membership_programs_.get(), membership_query_,
                         membership_analysis_, db, env, limits, stats));
    if (still.empty()) answers->erase(candidate);
  }
  return Status::OK();
}

Status IncrementalMaintainer::Maintain(Database* db, const Update& u,
                                       const Binding& params,
                                       AnswerSet* answers,
                                       BoundedEvalStats* stats) const {
  obs::ScopedSpan span(obs::Tracer::Global(), "incremental.maintain",
                       "incremental");
  if (span.enabled()) {
    uint64_t ins = 0, del = 0;
    for (const auto& [name, rows] : u.insertions) ins += rows.size();
    for (const auto& [name, rows] : u.deletions) del += rows.size();
    span.Arg("insertions", ins);
    span.Arg("deletions", del);
  }
  if (obs::FlightRecorderEnabled()) {
    uint64_t ins = 0, del = 0;
    for (const auto& [name, rows] : u.insertions) ins += rows.size();
    for (const auto& [name, rows] : u.deletions) del += rows.size();
    obs::RecordFlightEvent(
        obs::EventKind::kMaintenanceStep, "incremental.maintain",
        {obs::EventArg("insertions", ins), obs::EventArg("deletions", del)});
  }
  SI_RETURN_IF_ERROR(u.Validate(*db));
  // One pinned deadline for the whole batch: all three phases (and every
  // per-tuple bounded evaluation inside them) share the same wall clock.
  const exec::GovernorLimits pinned = limits_.Pinned();
  AnswerSet deletion_candidates;
  SI_RETURN_IF_ERROR(CollectDeletionCandidatesImpl(
      db, u, params, &deletion_candidates, stats, pinned));
  // Failing here (before ApplyUpdate) leaves both the database and the
  // maintained answer set untouched — the chaos harness relies on that.
  if (Status s = SCALEIN_FAILPOINT("delta_apply"); !s.ok()) return s;
  ApplyUpdate(db, u);
  SI_RETURN_IF_ERROR(
      IntegrateInsertionsImpl(db, u, params, answers, stats, pinned));
  return RecheckCandidatesImpl(db, deletion_candidates, params, answers, stats,
                               pinned);
}

}  // namespace scalein
