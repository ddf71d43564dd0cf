#include "exec/bytecode.h"

#include <string>

namespace scalein::exec {
namespace {

std::string RegName(Reg r) {
  return r == kNoReg ? std::string("r?") : "r" + std::to_string(r);
}

std::string SlotText(const Slot& s, const CompiledProgram& p) {
  switch (s.kind) {
    case Slot::Kind::kConst:
      return p.consts[s.index].ToString();
    case Slot::Kind::kReg:
      return RegName(s.reg);
    case Slot::Kind::kUnset:
      return "_";
  }
  return "?";
}

std::string PositionsText(const std::vector<size_t>& positions) {
  std::string out = "[";
  for (size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(positions[i]);
  }
  return out + "]";
}

std::string RegListText(const std::vector<Reg>& regs) {
  std::string out = "[";
  for (size_t i = 0; i < regs.size(); ++i) {
    if (i > 0) out += ",";
    out += RegName(regs[i]);
  }
  return out + "]";
}

std::string UnifyText(const std::vector<UnifyStep>& steps,
                      const CompiledProgram& p) {
  std::string out = "(";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += " ";
    const UnifyStep& s = steps[i];
    out += std::to_string(i) + ":";
    switch (s.kind) {
      case UnifyStep::Kind::kCheckConst:
        out += "ck=" + p.consts[s.index].ToString();
        break;
      case UnifyStep::Kind::kCheckReg:
        out += "ck=" + RegName(s.reg);
        break;
      case UnifyStep::Kind::kBindLocal:
        out += "bind>l" + std::to_string(s.index);
        break;
      case UnifyStep::Kind::kCheckLocal:
        out += "ck=l" + std::to_string(s.index);
        break;
      case UnifyStep::Kind::kSkip:
        out += "skip";
        break;
      case UnifyStep::Kind::kBindReg:
        out += "bind>" + RegName(s.reg);
        break;
    }
  }
  return out + ")";
}

std::string OpRef(int32_t op_idx, const CompiledProgram& p) {
  if (op_idx < 0) return "op=-";
  return "op=" + std::to_string(op_idx) + ":" + p.ops[op_idx].label;
}

std::string LeafText(const LeafCode& leaf, const CompiledProgram& p) {
  if (leaf.block >= 0) {
    std::string out = "BLOCK b" + std::to_string(leaf.block) + " " +
                      OpRef(leaf.op_idx, p);
    if (!leaf.ext_regs.empty()) out += " ext>" + RegListText(leaf.ext_regs);
    return out + " CHARGE";
  }
  if (leaf.is_condition) {
    std::string out = "COND " + OpRef(leaf.op_idx, p);
    out += " resolve{";
    for (size_t i = 0; i < leaf.cond_sources.size(); ++i) {
      if (i > 0) out += ",";
      out += "l" + std::to_string(i) + "=" + SlotText(leaf.cond_sources[i], p);
    }
    out += "} " + leaf.cond.ToString();
    if (!leaf.ext_regs.empty()) out += " ext>" + RegListText(leaf.ext_regs);
    return out;
  }
  std::string out =
      (leaf.full_scan ? "SCAN " : "PROBE ") + p.relations[leaf.relation];
  out += " " + OpRef(leaf.op_idx, p);
  if (!leaf.full_scan) {
    out += " key" + PositionsText(leaf.key_positions) + "=(";
    for (size_t i = 0; i < leaf.key.size(); ++i) {
      if (i > 0) out += ",";
      out += SlotText(leaf.key[i], p);
    }
    out += ")";
  }
  out += " unify" + UnifyText(leaf.unify, p);
  if (!leaf.ext_regs.empty()) out += " ext>" + RegListText(leaf.ext_regs);
  out += " CHARGE";  // probe + distinct-extension rows fold into this leaf
  return out;
}

std::string DoubleText(double d) {
  // Bounds are integral in practice; render without trailing zeros.
  if (d == static_cast<double>(static_cast<long long>(d))) {
    return std::to_string(static_cast<long long>(d));
  }
  return std::to_string(d);
}

}  // namespace

std::string CompiledProgram::Disassemble() const {
  std::string out;
  out += (kind == Kind::kPlain ? "plain" : "embedded");
  out += " bytecode: regs=" + std::to_string(num_regs) +
         " consts=" + std::to_string(consts.size()) +
         " ops=" + std::to_string(ops.size()) +
         " static_bound=" + DoubleText(static_bound) + "\n";
  std::string params_line = "  params:";
  for (const auto& [v, r] : param_regs) {
    params_line += " " + v.name() + ">" + RegName(r);
  }
  out += params_line + "\n";

  size_t pc = 0;
  auto line = [&](const std::string& text) {
    std::string num = std::to_string(pc++);
    while (num.size() < 2) num = "0" + num;
    out += "  " + num + "  " + text + "\n";
  };

  if (kind == Kind::kPlain) {
    for (const PlainStage& stage : stages) {
      switch (stage.kind) {
        case PlainStage::Kind::kExpand:
          line("EXPAND    " + LeafText(stage.leaf, *this));
          break;
        case PlainStage::Kind::kNegations: {
          line("NEGFILTER " + std::to_string(stage.negs.size()) + " checks");
          for (const LeafCode& neg : stage.negs) {
            out += "        ! " + LeafText(neg, *this) + "\n";
          }
          break;
        }
        case PlainStage::Kind::kFinalize:
          line("FINALIZE  " + OpRef(stage.op_idx, *this) + " layout=" +
               RegListText(stage.layout) + " CHARGE");
          break;
        case PlainStage::Kind::kExistsFinalize:
          line("PROJECT   " + OpRef(stage.op_idx, *this) + " layout=" +
               RegListText(stage.layout) + " CHARGE");
          break;
      }
    }
    line("EMIT      head=" + RegListText(head_regs) + " CHARGE output-cap");
    static const char* kBlockKinds[] = {"AND", "OR", "EXISTS", "FORALL"};
    for (size_t b = 0; b < blocks.size(); ++b) {
      const BlockCode& block = blocks[b];
      out += "  b" + std::to_string(b) + "  " +
             kBlockKinds[static_cast<uint8_t>(block.kind)];
      if (block.kind == BlockCode::Kind::kAnd) {
        out += " layout=" + RegListText(block.layout);
      }
      if (block.kind == BlockCode::Kind::kExists) {
        out += " keep=" + PositionsText(std::vector<size_t>(
                              block.project.begin(), block.project.end()));
      }
      out += "\n";
      for (const PlainStage& stage : block.stages) {
        if (stage.kind == PlainStage::Kind::kExpand) {
          out += "        . EXPAND " + LeafText(stage.leaf, *this) + "\n";
        }
        for (const LeafCode& neg : stage.negs) {
          out += "        ! " + LeafText(neg, *this) + "\n";
        }
      }
      for (const LeafCode& kid : block.kids) {
        out += "        . " + LeafText(kid, *this) + "\n";
      }
    }
    return out;
  }

  for (const AtomCode& atom : atoms) {
    std::string text = "CHASE     " + relations[atom.relation] + " " +
                       OpRef(atom.op_idx, *this) + " seed(";
    for (size_t i = 0; i < atom.seed.size(); ++i) {
      if (i > 0) text += ",";
      text += SlotText(atom.seed[i], *this);
    }
    text += ")";
    line(text);
    for (const ChaseStepCode& step : atom.steps) {
      out += "        . STEP key" + PositionsText(step.key_layout) + " val" +
             PositionsText(step.value_layout) + " CHARGE\n";
    }
    if (atom.needs_verification) {
      out += "        . VERIFY key" + PositionsText(atom.verify_positions) +
             " CHARGE\n";
    }
    out += "        . UNIFY " + UnifyText(atom.unify, *this) + "\n";
  }
  line("EMIT      head=" + RegListText(embed_head_regs) + " CHARGE output-cap");
  return out;
}

}  // namespace scalein::exec
