#include "exec/vm.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>

#include "core/approx.h"
#include "exec/governed_parallel.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "par/worker_pool.h"
#include "relational/relation.h"
#include "util/failpoint.h"

namespace scalein::exec {
namespace {

/// Minimum frontier size before a stage's per-row loop is worth fanning out
/// as governed morsels; below it the submit/merge overhead dominates. The
/// morsel splits never change observables (exec/governed_parallel.h).
constexpr size_t kParallelFrontierThreshold = 16;

/// Per-evaluation immutable view of a program: relation pointers resolved
/// once, the op table registered once (table index == prototype index).
struct Shared {
  const CompiledProgram& p;
  const Database* db;
  bool enforce = false;
  std::vector<const Relation*> rels;
  std::vector<OpCounters*> ops;  ///< empty when ops are not captured
};

Shared MakeShared(const CompiledProgram& p, const Database* db, bool enforce) {
  Shared sh{p, db, enforce, {}, {}};
  sh.rels.reserve(p.relations.size());
  for (const std::string& name : p.relations) {
    sh.rels.push_back(db->FindRelation(name));
  }
  return sh;
}

/// Registers the program's op prototypes into `ctx` in table order, so op
/// ids, labels, parents and static bounds follow the derivation's pre-order.
void RegisterProgramOps(const CompiledProgram& p, ExecContext* ctx,
                        Shared* sh) {
  sh->ops.reserve(p.ops.size());
  for (const OpProto& proto : p.ops) {
    const int32_t parent =
        proto.parent < 0 ? -1 : sh->ops[proto.parent]->id;
    OpCounters* op = ctx->NewOp(proto.label, parent);
    op->static_bound = proto.static_bound;
    sh->ops.push_back(op);
  }
}

/// Per-lane scratch buffers; worker lanes construct their own, so no state
/// is shared across a fan-out.
struct LaneScratch {
  std::vector<Value> ext;     ///< distinct extensions, ext_width-wide chunks
  std::vector<Value> locals;  ///< one visit's local extension slots
  std::vector<Value> tmp;
  std::vector<uint32_t> idx;
  Tuple key;
  std::unique_ptr<LaneScratch> inner;  ///< a nested block visit's scratch

  LaneScratch& Inner() {
    if (inner == nullptr) inner = std::make_unique<LaneScratch>();
    return *inner;
  }
};

/// Runs a leaf's per-position unify steps against a fetched row. Dispatch is
/// one indirect branch per position through a computed goto (a GCC/Clang
/// extension; the build supports only those two compilers).
bool UnifyLocal(const std::vector<UnifyStep>& steps,
                const std::vector<Value>& consts, const Value* row,
                TupleView r, Value* locals) {
  static const void* kJump[] = {&&lCheckConst, &&lCheckReg, &&lBindLocal,
                                &&lCheckLocal, &&lSkip,     &&lBindReg};
  const size_t n = steps.size();
  if (n == 0) return true;
  size_t p = 0;
#define SCALEIN_VM_NEXT()                                  \
  do {                                                     \
    if (++p == n) return true;                             \
    goto* kJump[static_cast<uint8_t>(steps[p].kind)];      \
  } while (0)
  goto* kJump[static_cast<uint8_t>(steps[0].kind)];
lCheckConst:
  if (!(consts[steps[p].index] == r[p])) return false;
  SCALEIN_VM_NEXT();
lCheckReg:
  if (!(row[steps[p].reg] == r[p])) return false;
  SCALEIN_VM_NEXT();
lBindLocal:
  locals[steps[p].index] = r[p];
  SCALEIN_VM_NEXT();
lCheckLocal:
  if (!(locals[steps[p].index] == r[p])) return false;
  SCALEIN_VM_NEXT();
lSkip:
  SCALEIN_VM_NEXT();
lBindReg:
  SI_CHECK_MSG(false, "embedded unify step in a plain leaf");
  return false;
#undef SCALEIN_VM_NEXT
}

/// Sorts `buf`'s w-wide chunks lexicographically and drops duplicates —
/// replicating std::set<Binding> order (locals are laid out in variable-id
/// order) and dedup over the leaf's extension domain. Returns the distinct
/// count, with `buf` rebuilt in sorted order.
size_t SortUniqueChunks(std::vector<Value>* buf, size_t w,
                        std::vector<uint32_t>* idx, std::vector<Value>* tmp) {
  const size_t m = w == 0 ? 0 : buf->size() / w;
  if (m <= 1) return m;
  idx->resize(m);
  for (size_t i = 0; i < m; ++i) (*idx)[i] = static_cast<uint32_t>(i);
  const Value* base = buf->data();
  std::sort(idx->begin(), idx->end(), [&](uint32_t a, uint32_t b) {
    const Value* ra = base + static_cast<size_t>(a) * w;
    const Value* rb = base + static_cast<size_t>(b) * w;
    for (size_t j = 0; j < w; ++j) {
      if (ra[j] < rb[j]) return true;
      if (rb[j] < ra[j]) return false;
    }
    return false;
  });
  tmp->clear();
  tmp->reserve(buf->size());
  size_t kept = 0;
  for (size_t i = 0; i < m; ++i) {
    if (i > 0) {
      const Value* a = base + static_cast<size_t>((*idx)[i]) * w;
      const Value* b = base + static_cast<size_t>((*idx)[i - 1]) * w;
      bool eq = true;
      for (size_t j = 0; j < w && eq; ++j) eq = a[j] == b[j];
      if (eq) continue;
    }
    const Value* src = base + static_cast<size_t>((*idx)[i]) * w;
    tmp->insert(tmp->end(), src, src + w);
    ++kept;
  }
  buf->swap(*tmp);
  return kept;
}

Value CondTermValue(const Term& t, const LeafCode& leaf, const Value* row,
                    const Value* locals) {
  if (t.is_const()) return t.constant();
  for (const CondVar& cv : leaf.cond_vars) {
    if (cv.var_id == t.var().id()) {
      return cv.local ? locals[cv.index] : row[cv.reg];
    }
  }
  SI_CHECK_MSG(false, "unbound variable in bounded evaluation");
  return Value();
}

/// Evaluates a condition formula with its variables read from registers
/// and the visit's locals.
bool EvalCondFormula(const Formula& f, const LeafCode& leaf, const Value* row,
                     const Value* locals) {
  switch (f.kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kEq:
      return CondTermValue(f.eq_lhs(), leaf, row, locals) ==
             CondTermValue(f.eq_rhs(), leaf, row, locals);
    case FormulaKind::kNot:
      return !EvalCondFormula(f.child(), leaf, row, locals);
    case FormulaKind::kAnd:
      for (const Formula& c : f.operands()) {
        if (!EvalCondFormula(c, leaf, row, locals)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const Formula& c : f.operands()) {
        if (EvalCondFormula(c, leaf, row, locals)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !EvalCondFormula(f.premise(), leaf, row, locals) ||
             EvalCondFormula(f.conclusion(), leaf, row, locals);
    default:
      SI_CHECK_MSG(false, "non-condition node in condition evaluation");
      return false;
  }
}

uint64_t VisitBlock(const Shared& sh, const LeafCode& leaf, ExecContext* ctx,
                    const Value* row, LaneScratch* s);

/// One conjunct visit for one frontier row: issues the node's metered
/// charges in evaluation order and leaves the distinct extensions (sorted,
/// ext_width-wide) in `s->ext`. Returns the distinct extension count — the
/// visit's rows charge. A failed context yields no extensions.
uint64_t VisitLeafImpl(const Shared& sh, const LeafCode& leaf,
                       ExecContext* ctx, const Value* row, OpCounters* op,
                       LaneScratch* s) {
  s->ext.clear();
  if (!ctx->ok()) return 0;
  if (leaf.block >= 0) return VisitBlock(sh, leaf, ctx, row, s);
  const size_t w = leaf.ext_width;
  if (leaf.is_condition) {
    s->locals.resize(w);
    for (size_t i = 0; i < w; ++i) {
      const Slot& src = leaf.cond_sources[i];
      s->locals[i] = src.kind == Slot::Kind::kConst ? sh.p.consts[src.index]
                                                    : row[src.reg];
    }
    if (!EvalCondFormula(leaf.cond, leaf, row, s->locals.data())) return 0;
    s->ext.insert(s->ext.end(), s->locals.begin(), s->locals.end());
    return 1;
  }
  const Relation* rel = sh.rels[leaf.relation];
  if (rel == nullptr) return 0;
  const std::string& name = sh.p.relations[leaf.relation];
  s->locals.resize(w);
  uint64_t matched = 0;
  auto consume = [&](TupleView r) {
    if (!UnifyLocal(leaf.unify, sh.p.consts, row, r, s->locals.data())) return;
    ++matched;
    if (w > 0) s->ext.insert(s->ext.end(), s->locals.begin(), s->locals.end());
  };
  if (leaf.full_scan) {
    // (R, ∅, N, T): the whole relation is the access unit.
    ChargeFullAccess(ctx, name, *rel, op);
    if (!ctx->ok()) {
      s->ext.clear();
      return 0;
    }
    if (sh.enforce && rel->size() > leaf.access->max_tuples) {
      ctx->SetError(Status::ResourceExhausted("relation " + name +
                                              " exceeds declared N of " +
                                              leaf.access->ToString()));
      s->ext.clear();
      return 0;
    }
    for (size_t i = 0; i < rel->size(); ++i) consume(rel->TupleAt(i));
  } else {
    s->key.clear();
    for (const Slot& slot : leaf.key) {
      s->key.push_back(slot.kind == Slot::Kind::kConst
                           ? sh.p.consts[slot.index]
                           : row[slot.reg]);
    }
    const std::vector<uint32_t>* rows =
        MeteredIndexLookup(ctx, name, *rel, leaf.key_positions, s->key, op);
    if (!ctx->ok()) {
      s->ext.clear();
      return 0;
    }
    if (rows == nullptr) return 0;
    if (sh.enforce && rows->size() > leaf.access->max_tuples) {
      ctx->SetError(Status::ResourceExhausted("σ on " + name +
                                              " exceeds declared N of " +
                                              leaf.access->ToString()));
      s->ext.clear();
      return 0;
    }
    for (uint32_t r : *rows) consume(rel->TupleAt(r));
  }
  if (w == 0) return matched > 0 ? 1 : 0;
  return SortUniqueChunks(&s->ext, w, &s->idx, &s->tmp);
}

/// Rows-charge (or timed direct bump) of the visited node's op on top of
/// the visit itself.
uint64_t VisitLeaf(const Shared& sh, const LeafCode& leaf, ExecContext* ctx,
                   const Value* row, LaneScratch* s) {
  OpCounters* op =
      (leaf.op_idx >= 0 && !sh.ops.empty()) ? sh.ops[leaf.op_idx] : nullptr;
#if SCALEIN_OBS_ENABLE_TIMING
  if (op != nullptr && ctx->timing_enabled()) {
    const uint64_t start = obs::MonotonicNowNs();
    const uint64_t d = VisitLeafImpl(sh, leaf, ctx, row, op, s);
    op->next_ns += obs::MonotonicNowNs() - start;
    ++op->next_calls;
    op->rows_out += d;
    return d;
  }
#endif
  const uint64_t d = VisitLeafImpl(sh, leaf, ctx, row, op, s);
  ctx->ChargeOpRows(op, d);
  return d;
}

/// Flat frontier of `width`-wide register rows.
struct Frontier {
  std::vector<Value> buf;
  size_t width = 0;
  size_t size() const { return width == 0 ? 0 : buf.size() / width; }
  const Value* row(size_t i) const { return buf.data() + i * width; }
};

/// Appends one output row per distinct extension: a copy of `row` with the
/// leaf's ext registers overwritten, in sorted extension order.
void MergeExtensions(const LeafCode& leaf, const Value* row, size_t w,
                     const LaneScratch& s, uint64_t d,
                     std::vector<Value>* out) {
  const size_t ew = leaf.ext_width;
  if (ew == 0) {
    if (d > 0) out->insert(out->end(), row, row + w);
    return;
  }
  for (uint64_t k = 0; k < d; ++k) {
    const size_t base = out->size();
    out->insert(out->end(), row, row + w);
    const Value* chunk = s.ext.data() + k * ew;
    for (size_t j = 0; j < ew; ++j) {
      (*out)[base + leaf.ext_regs[j]] = chunk[j];
    }
  }
}

/// True when a frontier of `items` independent visits is worth fanning out:
/// wide enough, a pool to run on, not already inside a parallel region
/// (batch lanes and morsel workers run inline), and the context still clean.
bool ShouldFanOut(ExecContext* ctx, size_t items) {
  return items >= kParallelFrontierThreshold && par::CurrentLane() < 0 &&
         par::WorkerPool::Global().threads() > 1 && ctx->ok();
}

/// Builds the indexes a conjunct can probe before a parallel section
/// (Ensure* is a const-but-mutating cache fill and must not race). A block
/// builds every index of the program.
void PrebuildLeaf(const Database& db, const CompiledProgram& p,
                  const LeafCode& leaf) {
  if (leaf.block >= 0) return PrebuildCompiledIndexes(db, p);
  if (leaf.is_condition || leaf.full_scan) return;
  const Relation* rel = db.FindRelation(p.relations[leaf.relation]);
  if (rel == nullptr) return;
  if (rel->num_shards() > 1) {
    rel->EnsureShardedIndex(leaf.key_positions);
  } else {
    rel->EnsureIndex(leaf.key_positions);
  }
}

/// Expands every frontier row through one positive conjunct, fanning out
/// wide frontiers as governed morsels. Returns false when the context
/// failed: the conjunction then yields nothing.
bool ExpandStage(const Shared& sh, const PlainStage& stage, ExecContext* ctx,
                 Frontier* rows, LaneScratch* s) {
  const size_t w = rows->width;
  const size_t n = rows->size();
  std::vector<Value> next;
  if (ShouldFanOut(ctx, n)) {
    PrebuildLeaf(*sh.db, sh.p, stage.leaf);
    par::WorkerPool& pool = par::WorkerPool::Global();
    const std::vector<std::pair<size_t, size_t>> ranges =
        par::SplitRanges(n, pool.threads() * 4);
    std::vector<std::vector<Value>> bufs(ranges.size());
    (void)GovernedParallelMorsels(
        ctx, ranges.size(),
        [&](size_t ri, ExecContext* wctx) {
          LaneScratch ws;
          for (size_t i = ranges[ri].first; i < ranges[ri].second && wctx->ok();
               ++i) {
            const Value* row = rows->row(i);
            const uint64_t d = VisitLeaf(sh, stage.leaf, wctx, row, &ws);
            MergeExtensions(stage.leaf, row, w, ws, d, &bufs[ri]);
          }
        },
        [&](size_t ri) {
          for (size_t i = ranges[ri].first; i < ranges[ri].second && ctx->ok();
               ++i) {
            const Value* row = rows->row(i);
            const uint64_t d = VisitLeaf(sh, stage.leaf, ctx, row, s);
            MergeExtensions(stage.leaf, row, w, *s, d, &next);
          }
        },
        [&](size_t ri) {
          next.insert(next.end(), std::make_move_iterator(bufs[ri].begin()),
                      std::make_move_iterator(bufs[ri].end()));
        });
    if (!ctx->ok()) return false;
  } else {
    for (size_t i = 0; i < n; ++i) {
      const Value* row = rows->row(i);
      const uint64_t d = VisitLeaf(sh, stage.leaf, ctx, row, s);
      MergeExtensions(stage.leaf, row, w, *s, d, &next);
      if (!ctx->ok()) return false;
    }
  }
  rows->buf = std::move(next);
  return true;
}

/// Filters the frontier through the safe negation conjuncts — sequential
/// loop, or governed morsels over a keep mask (worker lanes write disjoint
/// ranges; a discarded morsel is re-executed or irrelevant, because the
/// conjunction yields nothing once the context fails).
bool NegationStage(const Shared& sh, const PlainStage& stage, ExecContext* ctx,
                   Frontier* rows, LaneScratch* s) {
  const size_t w = rows->width;
  const size_t n = rows->size();
  if (ShouldFanOut(ctx, n)) {
    for (const LeafCode& neg : stage.negs) PrebuildLeaf(*sh.db, sh.p, neg);
    std::vector<uint8_t> keep(n, 0);
    par::WorkerPool& pool = par::WorkerPool::Global();
    const std::vector<std::pair<size_t, size_t>> ranges =
        par::SplitRanges(n, pool.threads() * 4);
    auto filter_one = [&](const Value* row, ExecContext* actx,
                          LaneScratch* as) -> uint8_t {
      for (const LeafCode& neg : stage.negs) {
        if (VisitLeaf(sh, neg, actx, row, as) > 0) return 0;
        if (!actx->ok()) return 0;
      }
      return 1;
    };
    (void)GovernedParallelMorsels(
        ctx, ranges.size(),
        [&](size_t ri, ExecContext* wctx) {
          LaneScratch ws;
          for (size_t i = ranges[ri].first; i < ranges[ri].second && wctx->ok();
               ++i) {
            keep[i] = filter_one(rows->row(i), wctx, &ws);
          }
        },
        [&](size_t ri) {
          for (size_t i = ranges[ri].first; i < ranges[ri].second && ctx->ok();
               ++i) {
            keep[i] = filter_one(rows->row(i), ctx, s);
          }
        },
        [](size_t) {});
    if (!ctx->ok()) return false;
    std::vector<Value> next;
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) next.insert(next.end(), rows->row(i), rows->row(i) + w);
    }
    rows->buf = std::move(next);
    return true;
  }
  std::vector<Value> next;
  for (size_t i = 0; i < n; ++i) {
    const Value* row = rows->row(i);
    bool keep = true;
    for (const LeafCode& neg : stage.negs) {
      if (VisitLeaf(sh, neg, ctx, row, s) > 0) {
        keep = false;
        break;
      }
      if (!ctx->ok()) return false;
    }
    if (keep) next.insert(next.end(), row, row + w);
  }
  rows->buf = std::move(next);
  return true;
}

/// One visit of a non-leaf conjunct (BlockCode) from `row`: its children
/// are visited with the nested scratch, and the block's own extensions
/// land sorted and distinct in `s->ext`. Returns their count; a failed
/// context yields none.
uint64_t VisitBlock(const Shared& sh, const LeafCode& leaf, ExecContext* ctx,
                    const Value* row, LaneScratch* s) {
  const BlockCode& b = sh.p.blocks[leaf.block];
  const size_t w = sh.p.num_regs;
  LaneScratch& in = s->Inner();
  uint64_t n = 0;  // extensions appended to s->ext, duplicates included
  switch (b.kind) {
    case BlockCode::Kind::kAnd: {
      Frontier rows;
      rows.width = w;
      rows.buf.assign(row, row + w);
      for (const PlainStage& stage : b.stages) {
        const bool ok = stage.kind == PlainStage::Kind::kExpand
                            ? ExpandStage(sh, stage, ctx, &rows, &in)
                            : NegationStage(sh, stage, ctx, &rows, &in);
        if (!ok) return 0;
      }
      n = rows.size();
      for (size_t i = 0; i < n; ++i) {
        for (Reg r : b.layout) s->ext.push_back(rows.row(i)[r]);
      }
      break;
    }
    case BlockCode::Kind::kOr:
      for (const LeafCode& kid : b.kids) {
        const uint64_t d = VisitLeaf(sh, kid, ctx, row, &in);
        if (!ctx->ok()) {
          s->ext.clear();
          return 0;
        }
        s->ext.insert(s->ext.end(), in.ext.begin(),
                      in.ext.begin() + d * kid.ext_width);
        n += d;
      }
      break;
    case BlockCode::Kind::kExists: {
      const LeafCode& body = b.kids[0];
      n = VisitLeaf(sh, body, ctx, row, &in);
      for (uint64_t k = 0; k < n; ++k) {
        for (uint16_t c : b.project) {
          s->ext.push_back(in.ext[k * body.ext_width + c]);
        }
      }
      break;
    }
    case BlockCode::Kind::kForall: {
      const LeafCode& premise = b.kids[0];
      const uint64_t d = VisitLeaf(sh, premise, ctx, row, &in);
      if (!ctx->ok()) return 0;
      std::vector<Value> premise_rows;
      MergeExtensions(premise, row, w, in, d, &premise_rows);
      for (uint64_t k = 0; k < d; ++k) {
        if (VisitLeaf(sh, b.kids[1], ctx, premise_rows.data() + k * w, &in) ==
                0 ||
            !ctx->ok()) {
          return 0;
        }
      }
      return 1;
    }
  }
  if (leaf.ext_width == 0) return n > 0 ? 1 : 0;
  return SortUniqueChunks(&s->ext, leaf.ext_width, &s->idx, &s->tmp);
}

/// Sorts + dedups the frontier on the stage's binding-domain layout
/// (variable-id order) and charges the owning "and"/"exists" op with the
/// distinct count. Rows equal on the layout are duplicates over every
/// register read downstream, so the unstable sort is observation-free.
void FinalizeStage(const Shared& sh, const PlainStage& stage, ExecContext* ctx,
                   Frontier* rows, LaneScratch* s, uint64_t eval_start) {
  (void)eval_start;
  const size_t w = rows->width;
  const size_t n = rows->size();
  const std::vector<Reg>& layout = stage.layout;
  uint64_t d = n;
  if (n > 1) {
    s->idx.resize(n);
    for (size_t i = 0; i < n; ++i) s->idx[i] = static_cast<uint32_t>(i);
    const Value* base = rows->buf.data();
    std::sort(s->idx.begin(), s->idx.end(), [&](uint32_t a, uint32_t b) {
      const Value* ra = base + static_cast<size_t>(a) * w;
      const Value* rb = base + static_cast<size_t>(b) * w;
      for (Reg rg : layout) {
        if (ra[rg] < rb[rg]) return true;
        if (rb[rg] < ra[rg]) return false;
      }
      return false;
    });
    s->tmp.clear();
    s->tmp.reserve(rows->buf.size());
    d = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) {
        const Value* a = base + static_cast<size_t>(s->idx[i]) * w;
        const Value* b = base + static_cast<size_t>(s->idx[i - 1]) * w;
        bool eq = true;
        for (size_t j = 0; j < layout.size() && eq; ++j) {
          eq = a[layout[j]] == b[layout[j]];
        }
        if (eq) continue;
      }
      const Value* src = base + static_cast<size_t>(s->idx[i]) * w;
      s->tmp.insert(s->tmp.end(), src, src + w);
      ++d;
    }
    rows->buf.swap(s->tmp);
  }
  OpCounters* op =
      (stage.op_idx >= 0 && !sh.ops.empty()) ? sh.ops[stage.op_idx] : nullptr;
#if SCALEIN_OBS_ENABLE_TIMING
  if (op != nullptr && ctx->timing_enabled()) {
    // Approximate: wrapper ops share the evaluation's start clock (vm.h).
    op->next_ns += obs::MonotonicNowNs() - eval_start;
    ++op->next_calls;
    op->rows_out += d;
    return;
  }
#endif
  ctx->ChargeOpRows(op, d);
}

/// Straight-line stage loop over one frontier buffer. On a context failure
/// the remaining expand/negation stages are skipped entirely (no further
/// charges), but the finalize/project stages still run, charging zero rows
/// to the and/exists ops.
void RunPlainProgram(const Shared& sh, ExecContext* ctx, const Binding& params,
                     Frontier* rows, LaneScratch* s) {
  const CompiledProgram& p = sh.p;
  rows->width = p.num_regs;
  rows->buf.assign(p.num_regs, Value());
  for (const auto& [v, r] : p.param_regs) rows->buf[r] = params.at(v);
  uint64_t eval_start = 0;
#if SCALEIN_OBS_ENABLE_TIMING
  if (ctx->timing_enabled()) eval_start = obs::MonotonicNowNs();
#endif
  bool aborted = false;
  for (const PlainStage& stage : p.stages) {
    switch (stage.kind) {
      case PlainStage::Kind::kExpand:
        if (!aborted && !ExpandStage(sh, stage, ctx, rows, s)) {
          aborted = true;
          rows->buf.clear();
        }
        break;
      case PlainStage::Kind::kNegations:
        if (!aborted && !NegationStage(sh, stage, ctx, rows, s)) {
          aborted = true;
          rows->buf.clear();
        }
        break;
      case PlainStage::Kind::kFinalize:
      case PlainStage::Kind::kExistsFinalize:
        FinalizeStage(sh, stage, ctx, rows, s, eval_start);
        break;
    }
  }
}

Status CheckParams(const CompiledProgram& p, const Binding& params) {
  const VarSet vars = BoundVars(params);
  if (vars != p.params) {
    return Status::InvalidArgument(
        "compiled program was built for parameters " +
        VarSetToString(p.params) + ", got " + VarSetToString(vars));
  }
  return Status::OK();
}

/// Per-lane scratch of the embedded chase: flat arity-wide candidate
/// buffers. Which positions a candidate has bound is the same for every
/// candidate of a step, so it is compiled in (ChaseStepCode::value_bound).
struct EmbScratch {
  std::vector<Value> cand;
  std::vector<Value> ext;
  Tuple key;
};

/// One frontier row through one compiled atom's chase: seed a candidate
/// from constants and bound registers, extend it through each chase step's
/// projection lookups, verify it if the plan requires, then unify it into
/// a copy of the row.
Status ProcessRow(const Shared& sh, const AtomCode& ac, const Relation* rel,
                  const Value* row, ExecContext* actx, OpCounters* aop,
                  std::vector<Value>* out, size_t w, EmbScratch* s) {
  const CompiledProgram& p = sh.p;
  const std::string& name = p.relations[ac.relation];
  const size_t arity = ac.arity;
  s->cand.assign(arity, Value());
  for (size_t pos = 0; pos < arity; ++pos) {
    const Slot& slot = ac.seed[pos];
    if (slot.kind == Slot::Kind::kConst) {
      s->cand[pos] = p.consts[slot.index];
    } else if (slot.kind == Slot::Kind::kReg) {
      s->cand[pos] = row[slot.reg];
    }
  }
  size_t m = 1;  // candidates (arity may be 0)
  for (const ChaseStepCode& step : ac.steps) {
    s->ext.clear();
    size_t next_m = 0;
    for (size_t ci = 0; ci < m; ++ci) {
      const Value* cand = s->cand.data() + ci * arity;
      s->key.clear();
      for (size_t pos : step.key_layout) s->key.push_back(cand[pos]);
      std::vector<Tuple> projections =
          MeteredProjectionLookup(actx, name, *rel, step.key_positions,
                                  step.value_positions, s->key, aop);
      SI_RETURN_IF_ERROR(actx->status());
      if (sh.enforce && projections.size() > step.statement->max_tuples) {
        return Status::ResourceExhausted(
            "embedded access exceeds declared N of " +
            step.statement->ToString());
      }
      for (const Tuple& proj : projections) {
        const size_t base = s->ext.size();
        s->ext.insert(s->ext.end(), cand, cand + arity);
        bool ok = true;
        for (size_t i = 0; i < step.value_layout.size() && ok; ++i) {
          Value& slot = s->ext[base + step.value_layout[i]];
          if (step.value_bound[i]) {
            ok = slot == proj[i];
          } else {
            slot = proj[i];
          }
        }
        if (ok) {
          ++next_m;
        } else {
          s->ext.resize(base);
        }
      }
    }
    s->cand.swap(s->ext);
    m = next_m;
  }
  // All positions are now bound; verify if required, then unify.
  for (size_t ci = 0; ci < m; ++ci) {
    const Value* cand = s->cand.data() + ci * arity;
    if (ac.needs_verification) {
      s->key.clear();
      for (size_t pos : ac.verify_positions) s->key.push_back(cand[pos]);
      const std::vector<uint32_t>* row_ids = MeteredIndexLookup(
          actx, name, *rel, ac.verify_positions, s->key, aop);
      SI_RETURN_IF_ERROR(actx->status());
      bool found = false;
      if (row_ids != nullptr) {
        if (sh.enforce && row_ids->size() > ac.verify_statement->max_tuples) {
          return Status::ResourceExhausted(
              "verification access exceeds declared N of " +
              ac.verify_statement->ToString());
        }
        for (uint32_t r : *row_ids) {
          if (TupleEquals(rel->TupleAt(r), TupleView(cand, arity))) {
            found = true;
            break;
          }
        }
      }
      if (!found) continue;
    }
    // Extend the frontier row with the atom's variables; kCheckReg reads
    // the mutable output row so same-atom kBindReg bindings are visible to
    // later repeated positions.
    const size_t base = out->size();
    out->insert(out->end(), row, row + w);
    Value* dst = out->data() + base;
    bool ok = true;
    for (size_t pos = 0; pos < arity && ok; ++pos) {
      const UnifyStep& u = ac.unify[pos];
      switch (u.kind) {
        case UnifyStep::Kind::kSkip:
          break;
        case UnifyStep::Kind::kCheckReg:
          ok = dst[u.reg] == cand[pos];
          break;
        case UnifyStep::Kind::kBindReg:
          dst[u.reg] = cand[pos];
          break;
        default:
          SI_CHECK_MSG(false, "plain unify step in an embedded atom");
      }
    }
    if (!ok) out->resize(base);
  }
  return Status::OK();
}

}  // namespace

Result<AnswerSet> CompiledEvaluator::Evaluate(const CompiledProgram& program,
                                              const Binding& params,
                                              BoundedEvalStats* stats) const {
  if (program.kind != CompiledProgram::Kind::kPlain) {
    return Status::InvalidArgument(
        "Evaluate requires a plain compiled program");
  }
  SI_RETURN_IF_ERROR(CheckParams(program, params));
  ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  Shared sh = MakeShared(program, db_, enforce_bounds_);
  if (collect_timing_ || (stats != nullptr && stats->capture_ops)) {
    RegisterProgramOps(program, &ctx, &sh);
  }
  Frontier rows;
  LaneScratch scratch;
  RunPlainProgram(sh, &ctx, params, &rows, &scratch);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", program.static_bound);
  }
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightNums(
        obs::EventKind::kQueryFinish, "bounded.eval",
        {{"fetched", static_cast<double>(ctx.base_tuples_fetched())},
         {"static_bound", program.static_bound},
         {"tripped", ctx.trip().tripped() ? 1.0 : 0.0}});
  }
  SI_RETURN_IF_ERROR(ctx.status());

  AnswerSet answers;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* row = rows.row(i);
    Tuple t;
    t.reserve(program.head_regs.size());
    for (Reg r : program.head_regs) t.push_back(row[r]);
    auto [pos, inserted] = answers.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      answers.erase(pos);
      break;
    }
  }
  SI_RETURN_IF_ERROR(ctx.status());
  return answers;
}

Result<Degraded<AnswerSet>> CompiledEvaluator::EvaluateDegraded(
    const CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  if (program.kind != CompiledProgram::Kind::kPlain) {
    return Status::InvalidArgument(
        "EvaluateDegraded requires a plain compiled program");
  }
  SI_RETURN_IF_ERROR(CheckParams(program, params));
  ExecContext ctx(db_);
  ctx.set_limits(limits_);
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_degraded", "core");
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryStart, "bounded.evaluate_degraded",
        {obs::EventArg("static_bound", program.static_bound)});
  }
  Shared sh = MakeShared(program, db_, enforce_bounds_);
  // Ops are always registered here so that a trip's snapshot can name the
  // derivation node that was executing when the limit fired.
  RegisterProgramOps(program, &ctx, &sh);
  Frontier rows;
  LaneScratch scratch;
  RunPlainProgram(sh, &ctx, params, &rows, &scratch);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", program.static_bound);
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_degraded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("static_bound", program.static_bound),
         obs::EventArg("tripped", ctx.trip().tripped())});
  }

  Degraded<AnswerSet> out;
  // Rows that survived the full program are sound answers even when the
  // walk was cut short (abandoned subtrees yield no rows rather than
  // unchecked ones). Projection runs before the trip check because the
  // output-row cap trips *here*: the first cap distinct answers are kept and
  // the tripping answer is withdrawn, so a row-capped degraded result is
  // identical at any thread count.
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* row = rows.row(i);
    Tuple t;
    t.reserve(program.head_regs.size());
    for (Reg r : program.head_regs) t.push_back(row[r]);
    auto [pos, inserted] = out.value.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      out.value.erase(pos);
      break;
    }
  }
  out.base_tuples_fetched = ctx.base_tuples_fetched();
  out.index_lookups = ctx.index_lookups();
  if (!ctx.ok()) {
    // Only governor trips degrade; other failures stay errors.
    if (!ctx.trip().tripped()) return ctx.status();
    out.complete = false;
    out.trip = ctx.trip();
    out.ops = ctx.SnapshotOps();
  }
  return out;
}

Result<AnswerSet> CompiledEvaluator::EvaluateEmbedded(
    const CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats) const {
  if (program.kind != CompiledProgram::Kind::kEmbedded) {
    return Status::InvalidArgument(
        "EvaluateEmbedded requires an embedded compiled program");
  }
  ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_embedded", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  const bool capture_ops =
      collect_timing_ || (stats != nullptr && stats->capture_ops);
  Result<AnswerSet> result =
      RunEmbedded(program, params, &ctx, capture_ops);
  if (span.enabled()) span.Arg("fetched", ctx.base_tuples_fetched());
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_embedded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("ok", result.ok())});
  }
  return result;
}

Result<AnswerSet> CompiledEvaluator::RunEmbedded(
    const CompiledProgram& program, const Binding& params, ExecContext* ctx,
    bool capture_ops) const {
  SI_RETURN_IF_ERROR(CheckParams(program, params));
  Shared sh = MakeShared(program, db_, enforce_bounds_);
  if (capture_ops) RegisterProgramOps(program, ctx, &sh);
  OpCounters* root_op = capture_ops ? sh.ops[0] : nullptr;

  const size_t w = program.num_regs;
  std::vector<Value> rows(w, Value());
  for (const auto& [v, r] : program.param_regs) rows[r] = params.at(v);
  size_t n_rows = 1;

  EmbScratch scratch;
  for (size_t ai = 0; ai < program.atoms.size(); ++ai) {
    const AtomCode& ac = program.atoms[ai];
    OpCounters* op = capture_ops ? sh.ops[ac.op_idx] : nullptr;
#if SCALEIN_OBS_ENABLE_TIMING
    const bool timed = op != nullptr && ctx->timing_enabled();
    const uint64_t atom_start = timed ? obs::MonotonicNowNs() : 0;
#endif
    // One chase step of the Proposition 4.5 plan: extend every frontier
    // row through this atom's access statements.
    if (Status s = SCALEIN_FAILPOINT("chase_step"); !s.ok()) return s;
    obs::ScopedSpan chase_span(ctx->tracer(), "bounded.chase_step", "core");
    if (chase_span.enabled()) {
      chase_span.Arg("relation", program.relations[ac.relation]);
      chase_span.Arg("step", static_cast<uint64_t>(ai));
      chase_span.Arg("frontier", static_cast<uint64_t>(n_rows));
    }
    if (obs::FlightRecorderEnabled()) {
      obs::RecordFlightEvent(
          obs::EventKind::kChaseStep, program.relations[ac.relation],
          {obs::EventArg("step", static_cast<uint64_t>(ai)),
           obs::EventArg("frontier", static_cast<uint64_t>(n_rows))});
    }
    const Relation* rel = sh.rels[ac.relation];
    // Prebuild this atom's indexes (Ensure* is const-but-mutating on first
    // use) so the morsel fan-out below only ever reads.
    if (rel != nullptr) {
      for (const ChaseStepCode& step : ac.steps) {
        rel->EnsureProjectionIndex(step.key_positions, step.value_positions);
      }
      if (ac.needs_verification) {
        if (rel->num_shards() > 1) {
          rel->EnsureShardedIndex(ac.verify_positions);
        } else {
          rel->EnsureIndex(ac.verify_positions);
        }
      }
    }
    std::vector<Value> next;
    par::WorkerPool& pool = par::WorkerPool::Global();
    const bool fan_out = rel != nullptr && pool.threads() > 1 &&
                         n_rows >= kParallelFrontierThreshold && ctx->ok();
    if (rel == nullptr) {
      // Unknown relation: the frontier dies here, matching a lookup miss.
    } else if (!fan_out) {
      for (size_t i = 0; i < n_rows; ++i) {
        SI_RETURN_IF_ERROR(ProcessRow(sh, ac, rel, rows.data() + i * w, ctx,
                                      op, &next, w, &scratch));
      }
    } else {
      // Governed morsel fan-out over the frontier (the sub-budget lease /
      // charge-log replay protocol, exec/governed_parallel.h): answers,
      // accounting and trip verdicts are byte-identical to the sequential
      // walk at any thread count — armed or not.
      const std::vector<std::pair<size_t, size_t>> ranges =
          par::SplitRanges(n_rows, pool.threads() * 4);
      std::vector<std::vector<Value>> worker_out(ranges.size());
      Status frontier_error = Status::OK();
      (void)GovernedParallelMorsels(
          ctx, ranges.size(),
          [&](size_t ri, ExecContext* wctx) {
            EmbScratch ws;
            for (size_t i = ranges[ri].first; i < ranges[ri].second; ++i) {
              Status s = ProcessRow(sh, ac, rel, rows.data() + i * w, wctx,
                                    op, &worker_out[ri], w, &ws);
              if (!s.ok()) {
                wctx->SetError(std::move(s));
                break;
              }
              if (!wctx->ok()) break;
            }
          },
          [&](size_t ri) {
            for (size_t i = ranges[ri].first; i < ranges[ri].second; ++i) {
              if (!ctx->ok() || !frontier_error.ok()) break;
              frontier_error = ProcessRow(sh, ac, rel, rows.data() + i * w,
                                          ctx, op, &next, w, &scratch);
            }
          },
          [&](size_t ri) {
            next.insert(next.end(),
                        std::make_move_iterator(worker_out[ri].begin()),
                        std::make_move_iterator(worker_out[ri].end()));
          });
      SI_RETURN_IF_ERROR(frontier_error);
      SI_RETURN_IF_ERROR(ctx->status());
    }
    const size_t next_n = w == 0 ? 0 : next.size() / w;
    if (op != nullptr) {
      op->rows_out += next_n;
#if SCALEIN_OBS_ENABLE_TIMING
      if (timed) {
        op->next_ns += obs::MonotonicNowNs() - atom_start;
        ++op->next_calls;
      }
#endif
    }
    rows = std::move(next);
    n_rows = next_n;
  }

  // Project to the open head positions; distinct answers charge the
  // output-row cap.
  AnswerSet answers;
  for (size_t i = 0; i < n_rows; ++i) {
    const Value* row = rows.data() + i * w;
    Tuple t;
    t.reserve(program.embed_head_regs.size());
    for (Reg r : program.embed_head_regs) t.push_back(row[r]);
    auto [pos, inserted] = answers.insert(std::move(t));
    if (inserted && !ctx->ChargeOutput(1, root_op)) {
      answers.erase(pos);
      break;
    }
  }
  SI_RETURN_IF_ERROR(ctx->status());
  if (root_op != nullptr) root_op->rows_out += answers.size();
  return answers;
}

Result<Degraded<AnswerSet>> CompiledEvaluator::EvaluateEmbeddedDegraded(
    const CompiledProgram& program, const Binding& params,
    BoundedEvalStats* stats, bool fallback_to_approx) const {
  if (program.kind != CompiledProgram::Kind::kEmbedded) {
    return Status::InvalidArgument(
        "EvaluateEmbeddedDegraded requires an embedded compiled program");
  }
  ExecContext ctx(db_);
  ctx.set_limits(limits_);
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_embedded_degraded",
                       "core");
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(obs::EventKind::kQueryStart,
                           "bounded.evaluate_embedded_degraded");
  }
  // Capture ops unconditionally so a trip names the chase step it hit.
  Result<AnswerSet> result =
      RunEmbedded(program, params, &ctx, /*capture_ops=*/true);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    stats->static_bound = program.static_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_embedded_degraded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("tripped", ctx.trip().tripped())});
  }

  Degraded<AnswerSet> out;
  out.base_tuples_fetched = ctx.base_tuples_fetched();
  out.index_lookups = ctx.index_lookups();
  if (result.ok() && ctx.ok()) {
    out.value = std::move(result).ValueOrDie();
    return out;
  }
  if (!ctx.trip().tripped()) {
    // Genuine failure (failpoint, bound violation, bad arguments).
    return result.ok() ? ctx.status() : result.status();
  }
  out.complete = false;
  out.trip = ctx.trip();
  out.ops = ctx.SnapshotOps();
  if (fallback_to_approx && limits_.fetch_budget > 0) {
    // PIQL-style success tolerance: re-answer the parameter-substituted CQ
    // with the greedy budgeted engine under the same budget M. Every answer
    // it reports is a genuine answer of Q(D); project its full-head tuples
    // onto the open head positions.
    std::map<Variable, Term> subst;
    for (const auto& [v, val] : params) subst.emplace(v, Term::Const(val));
    ApproxResult approx = ApproximateCqAnswers(
        program.embed_query.Substitute(subst), *db_, limits_.fetch_budget);
    for (const Tuple& full : approx.answers) {
      Tuple t;
      t.reserve(program.embed_head_positions.size());
      for (size_t i : program.embed_head_positions) t.push_back(full[i]);
      out.value.insert(std::move(t));
    }
    out.fallback = "approx";
  }
  return out;
}

void PrebuildCompiledIndexes(const Database& db,
                             const CompiledProgram& program) {
  if (program.kind == CompiledProgram::Kind::kPlain) {
    for (const PrebuildIndex& pb : program.prebuilds) {
      const Relation* rel = db.FindRelation(program.relations[pb.relation]);
      if (rel == nullptr || pb.positions.empty()) continue;
      if (rel->num_shards() > 1) {
        rel->EnsureShardedIndex(pb.positions);
      } else {
        rel->EnsureIndex(pb.positions);
      }
    }
    return;
  }
  for (const AtomCode& ac : program.atoms) {
    const Relation* rel = db.FindRelation(program.relations[ac.relation]);
    if (rel == nullptr) continue;
    for (const ChaseStepCode& step : ac.steps) {
      rel->EnsureProjectionIndex(step.key_positions, step.value_positions);
    }
    if (ac.needs_verification) {
      if (rel->num_shards() > 1) {
        rel->EnsureShardedIndex(ac.verify_positions);
      } else {
        rel->EnsureIndex(ac.verify_positions);
      }
    }
  }
}

}  // namespace scalein::exec
