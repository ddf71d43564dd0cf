#ifndef SCALEIN_EXEC_BYTECODE_H_
#define SCALEIN_EXEC_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/access_schema.h"
#include "query/cq.h"
#include "query/formula.h"
#include "query/term.h"
#include "relational/value.h"

namespace scalein::exec {

/// Register index into a compiled plan's frontier row. The frontier of a
/// compiled bounded evaluation is a flat array of rows, each `num_regs`
/// Values wide, with one register per query variable the plan can bind.
using Reg = uint16_t;
constexpr Reg kNoReg = 0xFFFF;

/// Where a compiled slot's value comes from at run time.
struct Slot {
  enum class Kind : uint8_t {
    kConst,  ///< CompiledProgram::consts[index]
    kReg,    ///< frontier register `reg`
    kUnset,  ///< embedded chase seed: position starts unbound
  };
  Kind kind = Kind::kUnset;
  uint16_t index = 0;  ///< constant-pool slot (kConst)
  Reg reg = kNoReg;    ///< frontier register (kReg)
};

/// One per-argument-position action while consuming a fetched row (a plain
/// atom probe, or an embedded chase candidate extending its row). Executed
/// in position order; any failed check rejects the row.
struct UnifyStep {
  enum class Kind : uint8_t {
    kCheckConst,  ///< row[pos] must equal consts[index]
    kCheckReg,    ///< row[pos] must equal frontier register `reg`
    kBindLocal,   ///< first occurrence of a new variable: local[index] = row[pos]
    kCheckLocal,  ///< repeated new variable: row[pos] must equal local[index]
    kSkip,        ///< embedded unify: constant position, no comparison
    kBindReg,     ///< embedded unify: bind row[pos] into register `reg`
  };
  Kind kind = Kind::kSkip;
  uint16_t index = 0;  ///< constant-pool / local-extension slot
  Reg reg = kNoReg;    ///< frontier register
};

/// Resolution of one free variable of a compiled condition formula: read
/// from a frontier register or from the visit's local extension buffer.
struct CondVar {
  uint32_t var_id = 0;  ///< Variable::id()
  bool local = false;   ///< false: frontier register; true: local ext slot
  uint16_t index = 0;   ///< local slot (local)
  Reg reg = kNoReg;     ///< frontier register (!local)
};

/// One compiled conjunct of a plain §4 derivation: a metered atom probe, a
/// condition evaluation, or a non-leaf block (`block` ≥ 0). One visit
/// replicates one Eval(node, opt, env) call of the derivation on that
/// node — same metered charges in the same order, same distinct-extension
/// count charged to the same op — and leaves the distinct extensions,
/// sorted, as ext_width-wide chunks in variable-id order.
struct LeafCode {
  bool is_condition = false;
  int32_t op_idx = -1;  ///< index into CompiledProgram::ops; -1 when unregistered
  /// Rules "and"/"or"/"exists"/"forall": index into CompiledProgram::blocks.
  int32_t block = -1;

  // --- rule "atom" ---
  uint32_t relation = 0;  ///< index into CompiledProgram::relations
  /// Access statement backing the probe (enforce-bounds N and message text).
  const AccessStatement* access = nullptr;
  bool full_scan = false;  ///< key positions empty: the (R, ∅, N, T) unit
  std::vector<size_t> key_positions;  ///< canonical (sorted, deduplicated)
  std::vector<Slot> key;              ///< value source per key position
  std::vector<UnifyStep> unify;       ///< one per atom argument position

  // --- rule "condition" ---
  Formula cond = Formula::True();
  /// Sources for the condition's determined extension variables (the
  /// condition_resolve entries not bound by the environment), in variable-id
  /// order — one per local extension slot.
  std::vector<Slot> cond_sources;
  /// Free-variable resolution for evaluating `cond` over registers/locals.
  std::vector<CondVar> cond_vars;

  // --- common ---
  uint16_t ext_width = 0;     ///< number of new variables this leaf binds
  std::vector<Reg> ext_regs;  ///< frontier destination per local slot
                              ///< (variable-id order); empty for negations
};

/// One stage of a compiled plain program. A program is a straight-line
/// sequence of stages over one frontier row buffer:
///   kExpand*  [kNegations]  kFinalize  kExistsFinalize*
/// lowered from the option-tree shape
///   exists* ( and(conj+; conj*) | conj ),
/// where a conj is a leaf (atom | condition) or a block (or | forall |
/// exists | and, nested to any depth).
struct PlainStage {
  enum class Kind : uint8_t {
    kExpand,          ///< expand every frontier row through one positive conj
    kNegations,       ///< filter rows through the safe negation conjs
    kFinalize,        ///< sort + dedup on `layout`, charge the "and" op
    kExistsFinalize,  ///< project to `layout`, dedup, charge the "exists" op
  };
  Kind kind = Kind::kExpand;
  LeafCode leaf;               ///< kExpand
  std::vector<LeafCode> negs;  ///< kNegations
  int32_t op_idx = -1;         ///< kFinalize / kExistsFinalize owner op
  /// Registers of the stage's binding domain in variable-id order — the
  /// comparison layout replicating std::set<Binding> order and dedup.
  std::vector<Reg> layout;
};

/// A non-leaf subderivation visited as one conjunct. A visit starts from
/// one frontier row and yields the node's distinct extensions, sorted:
///   kAnd:    `stages` (kExpand* [kNegations]) over a one-row frontier,
///            extensions read from `layout`;
///   kOr:     each operand in `kids` order, union of their extensions;
///   kExists: `kids[0]`, extension columns `project` kept;
///   kForall: `kids[0]` (premise), then one `kids[1]` (conclusion) check
///            per premise extension, stopping at the first failure; yields
///            the empty extension when every check holds.
struct BlockCode {
  enum class Kind : uint8_t { kAnd, kOr, kExists, kForall };
  Kind kind = Kind::kAnd;
  std::vector<PlainStage> stages;  ///< kAnd
  std::vector<LeafCode> kids;      ///< kOr / kExists / kForall
  std::vector<uint16_t> project;   ///< kExists: body chunk columns kept
  std::vector<Reg> layout;         ///< kAnd: extension registers, id order
};

/// One embedded chase step inside a compiled atom (Proposition 4.5).
struct ChaseStepCode {
  const AccessStatement* statement = nullptr;
  std::vector<size_t> key_positions;    ///< original order, as the plan names them
  std::vector<size_t> value_positions;  ///< original order
  std::vector<size_t> key_layout;       ///< canonical (the projection index's)
  std::vector<size_t> value_layout;     ///< canonical
  /// Per value_layout entry: 1 when the position is already bound (the
  /// projection must agree with it), 0 when the projection binds it. Which
  /// positions are bound is the same for every candidate, so it is fixed
  /// at compile time.
  std::vector<uint8_t> value_bound;
};

/// One compiled atom of an embedded chase plan.
struct AtomCode {
  uint32_t relation = 0;  ///< index into CompiledProgram::relations
  int32_t op_idx = -1;    ///< "chase(R)" op prototype index
  size_t arity = 0;
  std::vector<Slot> seed;  ///< per position: constant / register / unset
  std::vector<ChaseStepCode> steps;
  bool needs_verification = false;
  const AccessStatement* verify_statement = nullptr;
  std::vector<size_t> verify_positions;  ///< canonical verification key
  std::vector<UnifyStep> unify;          ///< kSkip / kCheckReg / kBindReg
};

/// Prototype of one per-op counter slot, registered into a fresh ExecContext
/// in table order: the derivation's nodes in pre-order (each node before
/// its children, children in evaluation order), so op ids, labels, parents
/// and static bounds name the derivation the certificate reports.
struct OpProto {
  std::string label;
  int32_t parent = -1;  ///< index into the prototype table; -1 for the root
  double static_bound = -1.0;
};

/// An index the plan can probe, prebuilt before any parallel section
/// (Ensure* is a const-but-mutating cache fill).
struct PrebuildIndex {
  uint32_t relation = 0;
  std::vector<size_t> positions;  ///< canonical hash-index key; empty = none
};

/// A bounded plan lowered to register bytecode: everything the VM
/// (exec/vm.h) needs to execute the derivation's metered-access sequence.
/// Immutable once built; shared across sessions via the AnalysisCache entry
/// it is attached to. Pointers into the access schema / analysis stay valid
/// through `keepalive`.
struct CompiledProgram {
  enum class Kind : uint8_t { kPlain, kEmbedded };
  Kind kind = Kind::kPlain;

  // --- common ---
  uint16_t num_regs = 0;
  std::vector<Value> consts;
  std::vector<std::string> relations;
  std::vector<OpProto> ops;
  VarSet params;  ///< the binding's variables the program was compiled for
  std::vector<std::pair<Variable, Reg>> param_regs;  ///< seed from the binding
  double static_bound = 0;  ///< the derivation's Theorem 4.2 / Prop 4.5 M
  std::vector<PrebuildIndex> prebuilds;  ///< hash indexes (plain leaves)

  // --- plain ---
  std::vector<PlainStage> stages;
  std::vector<BlockCode> blocks;  ///< non-leaf conjuncts (LeafCode::block)
  std::vector<Reg> head_regs;     ///< open head variables in head order

  // --- embedded ---
  std::vector<AtomCode> atoms;
  Cq embed_query;                  ///< for the approx fallback
  std::vector<Reg> embed_head_regs;  ///< open head positions in head order
  std::vector<size_t> embed_head_positions;  ///< their indices into the head

  /// Keeps the analysis (and through it the access schema entries the
  /// compiled statement pointers reference) alive as long as the program.
  std::shared_ptr<const void> keepalive;

  /// Human-readable listing (EXPLAIN's `compiled:` section, docs/bytecode.md
  /// format): one line per stage/opcode with registers and charge targets.
  std::string Disassemble() const;
};

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_BYTECODE_H_
