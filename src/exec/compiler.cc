#include "exec/compiler.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "relational/relation.h"

namespace scalein::exec {
namespace {

uint16_t InternConst(CompiledProgram* p, const Value& v) {
  for (size_t i = 0; i < p->consts.size(); ++i) {
    if (p->consts[i] == v) return static_cast<uint16_t>(i);
  }
  p->consts.push_back(v);
  return static_cast<uint16_t>(p->consts.size() - 1);
}

uint32_t InternRelation(CompiledProgram* p, const std::string& name) {
  for (size_t i = 0; i < p->relations.size(); ++i) {
    if (p->relations[i] == name) return static_cast<uint32_t>(i);
  }
  p->relations.push_back(name);
  return static_cast<uint32_t>(p->relations.size() - 1);
}

Result<Reg> AllocReg(CompiledProgram* p, const Variable& v,
                     std::map<Variable, Reg>* var_regs) {
  if (p->num_regs >= kNoReg) {
    return Status::InvalidArgument(
        "register file exhausted: the plan binds more than 65534 variables");
  }
  Reg r = p->num_regs++;
  var_regs->emplace(v, r);
  return r;
}

std::string OpLabel(const NodeAnalysis& node, const ControlOption& opt) {
  return opt.rule == "atom" ? "atom(" + node.formula.relation() + ")"
                            : opt.rule;
}

/// Lowers one plain derivation. Every variable gets one frontier register on
/// first sight; `scope` arguments are the variables bound at a node (its
/// environment), which is all a node's code may read.
class PlainLowering {
 public:
  explicit PlainLowering(CompiledProgram* p) : p_(p) {}

  Result<Reg> RegFor(const Variable& v) {
    auto it = regs_.find(v);
    if (it != regs_.end()) return it->second;
    return AllocReg(p_, v, &regs_);
  }

  std::vector<Reg> Layout(const VarSet& vars) const {
    std::vector<Reg> layout;
    layout.reserve(vars.size());
    for (const Variable& v : vars) layout.push_back(regs_.at(v));
    return layout;
  }

  /// Registers one op prototype per derivation node in pre-order, children
  /// in evaluation order (conjuncts in derivation order, then negations).
  void AddOps(const NodeAnalysis& node, const ControlOption& opt,
              int32_t parent) {
    p_->ops.push_back({OpLabel(node, opt), parent, opt.fetch_bound});
    const int32_t id = static_cast<int32_t>(p_->ops.size()) - 1;
    ops_[&node] = id;
    if (opt.rule == "and") {
      const size_t n_pos = opt.conjunct_order.size();
      for (size_t step = 0; step < n_pos; ++step) {
        AddOps(*node.subs[opt.conjunct_order[step]], *opt.child_options[step],
               id);
      }
      for (size_t ni = 0; ni + node.n_positives < node.subs.size(); ++ni) {
        AddOps(*node.subs[node.n_positives + ni],
               *opt.child_options[n_pos + ni], id);
      }
    } else if (opt.rule == "or" || opt.rule == "exists" ||
               opt.rule == "forall") {
      for (size_t i = 0; i < opt.child_options.size(); ++i) {
        AddOps(*node.subs[i], *opt.child_options[i], id);
      }
    }
  }

  int32_t OpOf(const NodeAnalysis& node) const { return ops_.at(&node); }

  /// Lowers the stages of a conjunction under `scope`: one kExpand per
  /// positive conjunct (each widening the scope), then one kNegations.
  /// Adds the conjunction's extension variables to `*domain`.
  Status AndStages(const NodeAnalysis& node, const ControlOption& opt,
                   VarSet scope, std::vector<PlainStage>* stages,
                   VarSet* domain) {
    const size_t n_pos = opt.conjunct_order.size();
    for (size_t step = 0; step < n_pos; ++step) {
      PlainStage stage;
      stage.kind = PlainStage::Kind::kExpand;
      VarSet ext;
      SI_RETURN_IF_ERROR(Conj(*node.subs[opt.conjunct_order[step]],
                              *opt.child_options[step], /*bind=*/true, scope,
                              &stage.leaf, &ext));
      scope.insert(ext.begin(), ext.end());
      domain->insert(ext.begin(), ext.end());
      stages->push_back(std::move(stage));
    }
    if (node.subs.size() > node.n_positives) {
      PlainStage stage;
      stage.kind = PlainStage::Kind::kNegations;
      for (size_t ni = 0; ni + node.n_positives < node.subs.size(); ++ni) {
        LeafCode leaf;
        VarSet ext;
        SI_RETURN_IF_ERROR(Conj(*node.subs[node.n_positives + ni],
                                *opt.child_options[n_pos + ni],
                                /*bind=*/false, scope, &leaf, &ext));
        stage.negs.push_back(std::move(leaf));
      }
      stages->push_back(std::move(stage));
    }
    return Status::OK();
  }

  /// Lowers one derivation node visited as a conjunct under `scope`. Its
  /// extension variables (the node's free variables outside the scope) go
  /// to `*ext`; with `bind` they also get frontier registers in
  /// `out->ext_regs`, so visits can merge their extensions into rows.
  Status Conj(const NodeAnalysis& node, const ControlOption& opt, bool bind,
              const VarSet& scope, LeafCode* out, VarSet* ext) {
    out->op_idx = OpOf(node);
    if (opt.rule == "atom") {
      SI_RETURN_IF_ERROR(AtomLeaf(node, opt, scope, out, ext));
    } else if (opt.rule == "condition") {
      SI_RETURN_IF_ERROR(ConditionLeaf(node, opt, scope, out, ext));
    } else {
      BlockCode block;
      SI_RETURN_IF_ERROR(Block(node, opt, bind, scope, &block, ext));
      out->block = static_cast<int32_t>(p_->blocks.size());
      p_->blocks.push_back(std::move(block));
    }
    out->ext_width = static_cast<uint16_t>(ext->size());
    if (bind) {
      for (const Variable& v : *ext) {
        SI_ASSIGN_OR_RETURN(Reg r, RegFor(v));
        out->ext_regs.push_back(r);
      }
    }
    return Status::OK();
  }

 private:
  Status Block(const NodeAnalysis& node, const ControlOption& opt, bool bind,
               const VarSet& scope, BlockCode* b, VarSet* ext) {
    if (opt.rule == "and") {
      b->kind = BlockCode::Kind::kAnd;
      SI_RETURN_IF_ERROR(AndStages(node, opt, scope, &b->stages, ext));
      b->layout = Layout(*ext);
      return Status::OK();
    }
    if (opt.rule == "or") {
      b->kind = BlockCode::Kind::kOr;
      for (size_t i = 0; i < node.subs.size(); ++i) {
        LeafCode kid;
        VarSet kid_ext;
        SI_RETURN_IF_ERROR(Conj(*node.subs[i], *opt.child_options[i], bind,
                                scope, &kid, &kid_ext));
        // The disjunction rule requires operands with identical free
        // variables, so every operand extends the same domain.
        if (i > 0 && !(kid_ext == *ext)) {
          return Status::Internal("disjuncts extend different variables");
        }
        *ext = std::move(kid_ext);
        b->kids.push_back(std::move(kid));
      }
      return Status::OK();
    }
    if (opt.rule == "exists") {
      b->kind = BlockCode::Kind::kExists;
      LeafCode body;
      VarSet body_ext;
      SI_RETURN_IF_ERROR(Conj(*node.subs[0], *opt.child_options[0], bind,
                              scope, &body, &body_ext));
      const std::vector<Variable>& quantified = node.formula.quantified();
      uint16_t col = 0;
      for (const Variable& v : body_ext) {
        if (std::find(quantified.begin(), quantified.end(), v) ==
            quantified.end()) {
          b->project.push_back(col);
          ext->insert(v);
        }
        ++col;
      }
      b->kids.push_back(std::move(body));
      return Status::OK();
    }
    if (opt.rule == "forall") {
      b->kind = BlockCode::Kind::kForall;
      LeafCode premise, conclusion;
      VarSet premise_ext, conclusion_ext;
      SI_RETURN_IF_ERROR(Conj(*node.subs[0], *opt.child_options[0],
                              /*bind=*/true, scope, &premise, &premise_ext));
      VarSet conclusion_scope = scope;
      conclusion_scope.insert(premise_ext.begin(), premise_ext.end());
      SI_RETURN_IF_ERROR(Conj(*node.subs[1], *opt.child_options[1],
                              /*bind=*/false, conclusion_scope, &conclusion,
                              &conclusion_ext));
      b->kids.push_back(std::move(premise));
      b->kids.push_back(std::move(conclusion));
      return Status::OK();  // a Boolean check: the empty extension
    }
    return Status::Internal("unknown derivation rule '" + opt.rule + "'");
  }

  Result<Slot> Source(const Term& t, const VarSet& scope) {
    Slot s;
    if (t.is_const()) {
      s.kind = Slot::Kind::kConst;
      s.index = InternConst(p_, t.constant());
      return s;
    }
    if (!scope.count(t.var())) {
      return Status::Internal("variable '" + t.var().name() +
                              "' is not bound by the environment");
    }
    s.kind = Slot::Kind::kReg;
    s.reg = regs_.at(t.var());
    return s;
  }

  /// One atom probe. New variables live in the visit's local slots (in
  /// variable-id order, the order extensions sort in).
  Status AtomLeaf(const NodeAnalysis& node, const ControlOption& opt,
                  const VarSet& scope, LeafCode* out, VarSet* ext) {
    const Formula& atom = node.formula;
    out->relation = InternRelation(p_, atom.relation());
    out->access = opt.access;
    out->key_positions = Relation::CanonicalPositions(opt.key_positions);
    out->full_scan = out->key_positions.empty();
    for (size_t pos : out->key_positions) {
      SI_ASSIGN_OR_RETURN(Slot s, Source(atom.args()[pos], scope));
      out->key.push_back(s);
    }
    if (!out->key_positions.empty()) {
      p_->prebuilds.push_back({out->relation, out->key_positions});
    }
    for (const Term& t : atom.args()) {
      if (t.is_var() && !scope.count(t.var())) ext->insert(t.var());
    }
    std::map<Variable, uint16_t> local;
    for (const Variable& v : *ext) {
      local.emplace(v, static_cast<uint16_t>(local.size()));
    }
    std::set<Variable> seen;
    for (const Term& t : atom.args()) {
      UnifyStep s;
      if (t.is_const()) {
        s.kind = UnifyStep::Kind::kCheckConst;
        s.index = InternConst(p_, t.constant());
      } else if (scope.count(t.var())) {
        s.kind = UnifyStep::Kind::kCheckReg;
        s.reg = regs_.at(t.var());
      } else {
        s.kind = seen.insert(t.var()).second ? UnifyStep::Kind::kBindLocal
                                             : UnifyStep::Kind::kCheckLocal;
        s.index = local.at(t.var());
      }
      out->unify.push_back(s);
    }
    return Status::OK();
  }

  /// One condition (the §4 "condition" rule: a Boolean combination of
  /// equalities whose unbound variables are determined by condition_resolve
  /// pins/representatives).
  Status ConditionLeaf(const NodeAnalysis& node, const ControlOption& opt,
                       const VarSet& scope, LeafCode* out, VarSet* ext) {
    out->is_condition = true;
    out->cond = node.formula;
    std::map<Variable, uint16_t> local;
    for (const auto& [v, t] : opt.condition_resolve) {
      if (scope.count(v)) continue;
      SI_ASSIGN_OR_RETURN(Slot s, Source(t, scope));
      local.emplace(v, static_cast<uint16_t>(out->cond_sources.size()));
      out->cond_sources.push_back(s);
      ext->insert(v);
    }
    for (const Variable& v : node.formula.FreeVariables()) {
      CondVar cv;
      cv.var_id = v.id();
      if (scope.count(v)) {
        cv.reg = regs_.at(v);
      } else {
        auto loc = local.find(v);
        if (loc == local.end()) {
          return Status::Internal("condition variable '" + v.name() +
                                  "' is neither bound nor determined");
        }
        cv.local = true;
        cv.index = loc->second;
      }
      out->cond_vars.push_back(cv);
    }
    return Status::OK();
  }

  CompiledProgram* p_;
  std::map<Variable, Reg> regs_;
  std::unordered_map<const NodeAnalysis*, int32_t> ops_;
};

}  // namespace

Result<std::shared_ptr<const CompiledProgram>> CompilePlain(
    const FoQuery& q, std::shared_ptr<const ControllabilityAnalysis> analysis,
    const VarSet& param_vars) {
  const ControlOption* opt = analysis->BestOptionFor(param_vars);
  if (opt == nullptr) {
    return Status::FailedPrecondition(
        "query is not controlled by the given parameters " +
        VarSetToString(param_vars));
  }
  auto prog = std::make_shared<CompiledProgram>();
  CompiledProgram* p = prog.get();
  p->kind = CompiledProgram::Kind::kPlain;
  p->params = param_vars;
  p->static_bound = opt->fetch_bound;
  p->keepalive = analysis;

  PlainLowering lower(p);
  for (const Variable& v : param_vars) {
    SI_ASSIGN_OR_RETURN(Reg r, lower.RegFor(v));
    p->param_regs.emplace_back(v, r);
  }
  lower.AddOps(analysis->root(), *opt, /*parent=*/-1);

  // Straight-line top level: the ∃-wrapper chain, then one conjunction (or
  // one conjunct), then the ∃-projections innermost first.
  std::vector<const NodeAnalysis*> exists_chain;
  const NodeAnalysis* node = &analysis->root();
  const ControlOption* cur = opt;
  while (cur->rule == "exists") {
    exists_chain.push_back(node);
    node = node->subs[0].get();
    cur = cur->child_options[0];
  }
  VarSet domain;  // the frontier's binding domain (excludes parameters)
  if (cur->rule == "and") {
    SI_RETURN_IF_ERROR(
        lower.AndStages(*node, *cur, param_vars, &p->stages, &domain));
    PlainStage fin;
    fin.kind = PlainStage::Kind::kFinalize;
    fin.op_idx = lower.OpOf(*node);
    fin.layout = lower.Layout(domain);
    p->stages.push_back(std::move(fin));
  } else {
    PlainStage stage;
    stage.kind = PlainStage::Kind::kExpand;
    SI_RETURN_IF_ERROR(lower.Conj(*node, *cur, /*bind=*/true, param_vars,
                                  &stage.leaf, &domain));
    p->stages.push_back(std::move(stage));
  }
  for (auto it = exists_chain.rbegin(); it != exists_chain.rend(); ++it) {
    for (const Variable& v : (*it)->formula.quantified()) domain.erase(v);
    PlainStage stage;
    stage.kind = PlainStage::Kind::kExistsFinalize;
    stage.op_idx = lower.OpOf(**it);
    stage.layout = lower.Layout(domain);
    p->stages.push_back(std::move(stage));
  }

  for (const Variable& v : q.head) {
    if (param_vars.count(v)) continue;
    if (!domain.count(v)) {
      return Status::Internal("head variable '" + v.name() +
                              "' is not bound by the derivation");
    }
    SI_ASSIGN_OR_RETURN(Reg r, lower.RegFor(v));
    p->head_regs.push_back(r);
  }
  // The VM's flat frontier needs a row width of at least one Value even for
  // variable-free programs (a zero width would make every row buffer empty).
  if (p->num_regs == 0) p->num_regs = 1;
  return std::shared_ptr<const CompiledProgram>(std::move(prog));
}

Result<std::shared_ptr<const CompiledProgram>> CompileEmbedded(
    std::shared_ptr<const EmbeddedCqAnalysis> analysis,
    const VarSet& param_vars) {
  if (!analysis->IsScaleIndependent()) {
    return Status::FailedPrecondition(
        "query has no embedded-controllability plan");
  }
  for (const Variable& v : analysis->params()) {
    if (!param_vars.count(v)) {
      return Status::InvalidArgument("missing value for parameter '" +
                                     v.name() + "'");
    }
  }
  const Cq& q = analysis->query();
  const EmbeddedPlan& plan = analysis->plan();
  auto prog = std::make_shared<CompiledProgram>();
  CompiledProgram* p = prog.get();
  p->kind = CompiledProgram::Kind::kEmbedded;
  p->params = param_vars;
  p->static_bound = plan.fetch_bound;
  p->keepalive = analysis;
  p->embed_query = q;

  std::map<Variable, Reg> var_regs;
  for (const Variable& v : p->params) {
    SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p, v, &var_regs));
    p->param_regs.emplace_back(v, r);
  }

  p->ops.push_back({"embedded-cq", -1, plan.fetch_bound});
  for (const AtomPlan& ap : plan.atom_plans) {
    p->ops.push_back({"chase(" + q.atoms()[ap.atom_index].relation + ")", 0,
                      ap.fetch_bound});
  }

  for (size_t ai = 0; ai < plan.atom_plans.size(); ++ai) {
    const AtomPlan& ap = plan.atom_plans[ai];
    const CqAtom& atom = q.atoms()[ap.atom_index];
    AtomCode ac;
    ac.relation = InternRelation(p, atom.relation);
    ac.op_idx = static_cast<int32_t>(ai) + 1;
    ac.arity = atom.args.size();

    std::vector<bool> pos_bound(ac.arity, false);
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      const Term& t = atom.args[pos];
      Slot s;
      if (t.is_const()) {
        s.kind = Slot::Kind::kConst;
        s.index = InternConst(p, t.constant());
        pos_bound[pos] = true;
      } else if (var_regs.count(t.var())) {
        s.kind = Slot::Kind::kReg;
        s.reg = var_regs.at(t.var());
        pos_bound[pos] = true;
      }
      ac.seed.push_back(s);
    }
    for (const AtomChaseStep& step : ap.steps) {
      ChaseStepCode sc;
      sc.statement = step.statement;
      sc.key_positions = step.key_positions;
      sc.value_positions = step.value_positions;
      sc.key_layout = Relation::CanonicalPositions(step.key_positions);
      sc.value_layout = Relation::CanonicalPositions(step.value_positions);
      for (size_t pos : sc.key_layout) {
        if (pos >= ac.arity || !pos_bound[pos]) {
          return Status::Internal("chase step key position is not yet bound");
        }
      }
      for (size_t pos : sc.value_layout) {
        if (pos >= ac.arity) {
          return Status::Internal("chase step value position out of range");
        }
        sc.value_bound.push_back(pos_bound[pos] ? 1 : 0);
        pos_bound[pos] = true;
      }
      ac.steps.push_back(std::move(sc));
    }
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      if (!pos_bound[pos]) {
        return Status::Internal("chase leaves an atom position unbound");
      }
    }
    if (ap.needs_verification) {
      ac.needs_verification = true;
      ac.verify_statement = ap.verify_statement;
      ac.verify_positions = Relation::CanonicalPositions(ap.verify_key_positions);
    }

    // Variables bound before this atom are checked; the atom's new
    // variables bind (a repeated one is checked against its first binding).
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      const Term& t = atom.args[pos];
      UnifyStep s;
      if (t.is_const()) {
        s.kind = UnifyStep::Kind::kSkip;
      } else if (var_regs.count(t.var())) {
        s.kind = UnifyStep::Kind::kCheckReg;
        s.reg = var_regs.at(t.var());
      } else {
        SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p, t.var(), &var_regs));
        s.kind = UnifyStep::Kind::kBindReg;
        s.reg = r;
      }
      ac.unify.push_back(s);
    }
    p->atoms.push_back(std::move(ac));
  }

  for (size_t i = 0; i < q.head().size(); ++i) {
    const Term& h = q.head()[i];
    if (h.is_const()) continue;
    if (analysis->params().count(h.var())) continue;
    auto it = var_regs.find(h.var());
    if (it == var_regs.end()) {
      return Status::Internal("head variable '" + h.var().name() +
                              "' is not bound by the chase");
    }
    p->embed_head_regs.push_back(it->second);
    p->embed_head_positions.push_back(i);
  }
  if (p->num_regs == 0) p->num_regs = 1;
  return std::shared_ptr<const CompiledProgram>(std::move(prog));
}

Result<std::shared_ptr<const CompiledProgram>> CompiledPlanSet::Plain(
    const FoQuery& q,
    const std::shared_ptr<const ControllabilityAnalysis>& analysis,
    const VarSet& param_vars) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const CompiledProgram>& slot = programs_[param_vars];
  if (slot == nullptr) {
    Result<std::shared_ptr<const CompiledProgram>> compiled =
        CompilePlain(q, analysis, param_vars);
    if (!compiled.ok()) {
      programs_.erase(param_vars);
      return compiled.status();
    }
    slot = std::move(compiled).ValueOrDie();
    ++compiles_;
  }
  return slot;
}

std::shared_ptr<const CompiledProgram> CompiledPlanSet::GetOrCompilePlain(
    Mode /*mode*/, const FoQuery& q,
    const std::shared_ptr<const ControllabilityAnalysis>& analysis,
    const VarSet& param_vars, std::string* why) {
  Result<std::shared_ptr<const CompiledProgram>> program =
      Plain(q, analysis, param_vars);
  if (why != nullptr) why->clear();
  if (program.ok()) return *program;
  if (why != nullptr) *why = program.status().message();
  return nullptr;
}

uint64_t CompiledPlanSet::compiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compiles_;
}

}  // namespace scalein::exec
