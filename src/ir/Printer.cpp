//===- Printer.cpp - Textual IR emission ------------------------------------//

#include "ir/Printer.h"

#include "ir/Function.h"
#include "trace/Metrics.h"

#include <unordered_map>

namespace veriopt {

namespace {

/// Per-function printing context: assigns stable names to values and blocks
/// and appends the text of one function to a caller's buffer.
class FunctionPrinter {
public:
  FunctionPrinter(const Function &F, std::string &Out, PrintNames Mode)
      : F(F), Out(Out) {
    number(Mode == PrintNames::Kept);
  }

  void print() {
    Out += F.isDeclaration() ? "declare " : "define ";
    Out += F.getReturnType()->getName();
    Out += " @";
    Out += F.getName();
    Out += '(';
    for (unsigned I = 0; I < F.getNumParams(); ++I) {
      if (I)
        Out += ", ";
      Out += F.getParamType(I)->getName();
      if (!F.isDeclaration()) {
        Out += " %";
        Out += valueName(F.getArg(I));
      }
    }
    Out += ')';
    if (F.isDeclaration()) {
      Out += '\n';
      return;
    }
    Out += " {\n";
    bool First = true;
    for (const auto &BB : F) {
      if (!First)
        Out += '\n';
      Out += blockName(BB.get());
      Out += ":\n";
      for (const auto &I : *BB) {
        Out += "  ";
        renderInst(*I);
        Out += '\n';
      }
      First = false;
    }
    Out += "}\n";
  }

private:
  void number(bool KeepNames) {
    unsigned Counter = 0;
    auto assign = [&](const Value *V) {
      if (KeepNames && V->hasName())
        Names[V] = V->getName();
      else
        Names[V] = std::to_string(Counter++);
    };
    for (unsigned I = 0; I < F.getNumParams(); ++I)
      assign(F.getArg(I));
    if (F.isDeclaration())
      return;
    for (const auto &BB : F) {
      if (!KeepNames || BB->getName().empty())
        BlockNames[BB.get()] = std::to_string(Counter++);
      else
        BlockNames[BB.get()] = BB->getName();
      for (const auto &I : *BB)
        if (!I->getType()->isVoid())
          assign(I.get());
    }
  }

  const std::string &valueName(const Value *V) const {
    auto It = Names.find(V);
    assert(It != Names.end() && "value was not numbered");
    return It->second;
  }

  const std::string &blockName(const BasicBlock *BB) const {
    auto It = BlockNames.find(BB);
    assert(It != BlockNames.end() && "block was not numbered");
    return It->second;
  }

  /// "i32 %x" or "i32 7" or "i1 true".
  void typedOperand(const Value *V) {
    Out += V->getType()->getName();
    Out += ' ';
    operand(V);
  }

  void operand(const Value *V) {
    if (const auto *C = dyn_cast<ConstantInt>(V)) {
      if (C->getType()->isBool())
        Out += C->isZero() ? "false" : "true";
      else
        Out += C->getValue().toString(/*Signed=*/true);
      return;
    }
    Out += '%';
    Out += valueName(V);
  }

  void label(const BasicBlock *BB) {
    Out += "label %";
    Out += blockName(BB);
  }

  void renderInst(const Instruction &I) {
    if (!I.getType()->isVoid()) {
      Out += '%';
      Out += valueName(&I);
      Out += " = ";
    }
    switch (I.getOpcode()) {
    case Opcode::ICmp: {
      const auto &C = *cast<ICmpInst>(&I);
      Out += "icmp ";
      Out += predName(C.getPredicate());
      Out += ' ';
      typedOperand(C.getLHS());
      Out += ", ";
      operand(C.getRHS());
      break;
    }
    case Opcode::Select: {
      const auto &S = *cast<SelectInst>(&I);
      Out += "select ";
      typedOperand(S.getCondition());
      Out += ", ";
      typedOperand(S.getTrueValue());
      Out += ", ";
      typedOperand(S.getFalseValue());
      break;
    }
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc: {
      const auto &C = *cast<CastInst>(&I);
      Out += I.getOpcodeName();
      Out += ' ';
      typedOperand(C.getSrc());
      Out += " to ";
      Out += I.getType()->getName();
      break;
    }
    case Opcode::Alloca:
      Out += "alloca ";
      Out += cast<AllocaInst>(&I)->getAllocatedType()->getName();
      break;
    case Opcode::Load: {
      const auto &L = *cast<LoadInst>(&I);
      Out += "load ";
      Out += I.getType()->getName();
      Out += ", ";
      typedOperand(L.getPointer());
      break;
    }
    case Opcode::Store: {
      const auto &S = *cast<StoreInst>(&I);
      Out += "store ";
      typedOperand(S.getValueOperand());
      Out += ", ";
      typedOperand(S.getPointer());
      break;
    }
    case Opcode::GEP: {
      const auto &G = *cast<GEPInst>(&I);
      Out += "getelementptr i8, ";
      typedOperand(G.getPointer());
      Out += ", ";
      typedOperand(G.getOffset());
      break;
    }
    case Opcode::Phi: {
      const auto &P = *cast<PhiInst>(&I);
      Out += "phi ";
      Out += I.getType()->getName();
      Out += ' ';
      for (unsigned J = 0; J < P.getNumIncoming(); ++J) {
        if (J)
          Out += ", ";
        Out += "[ ";
        operand(P.getIncomingValue(J));
        Out += ", %";
        Out += blockName(P.getIncomingBlock(J));
        Out += " ]";
      }
      break;
    }
    case Opcode::Br: {
      const auto &B = *cast<BrInst>(&I);
      Out += "br ";
      if (B.isConditional()) {
        typedOperand(B.getCondition());
        Out += ", ";
        label(B.getTrueSuccessor());
        Out += ", ";
        label(B.getFalseSuccessor());
      } else {
        label(B.getSuccessor(0));
      }
      break;
    }
    case Opcode::Ret: {
      const auto &R = *cast<RetInst>(&I);
      Out += "ret ";
      if (R.hasReturnValue())
        typedOperand(R.getReturnValue());
      else
        Out += "void";
      break;
    }
    case Opcode::Call: {
      const auto &C = *cast<CallInst>(&I);
      Out += "call ";
      Out += I.getType()->getName();
      Out += " @";
      Out += C.getCallee()->getName();
      Out += '(';
      for (unsigned A = 0; A < C.getNumArgs(); ++A) {
        if (A)
          Out += ", ";
        typedOperand(C.getArg(A));
      }
      Out += ')';
      break;
    }
    default: {
      assert(I.isBinaryOp() && "unhandled opcode in printer");
      const auto &B = *cast<BinaryInst>(&I);
      Out += I.getOpcodeName();
      if (I.hasNUW())
        Out += " nuw";
      if (I.hasNSW())
        Out += " nsw";
      if (I.isExact())
        Out += " exact";
      Out += ' ';
      typedOperand(B.getLHS());
      Out += ", ";
      operand(B.getRHS());
      break;
    }
    }
  }

  const Function &F;
  std::string &Out;
  std::unordered_map<const Value *, std::string> Names;
  std::unordered_map<const BasicBlock *, std::string> BlockNames;
};

/// Append \p F's text to \p Out; every function printed counts once in
/// ir.print, whether alone or as part of a module.
void appendFunction(const Function &F, std::string &Out, PrintNames Mode) {
  static Counter &Prints = MetricsRegistry::global().counter("ir.print");
  Prints.inc();
  FunctionPrinter(F, Out, Mode).print();
}

} // namespace

std::string printFunction(const Function &F) {
  std::string Out;
  appendFunction(F, Out, PrintNames::Kept);
  // Callers keep prints (a sample's texts live as long as its dataset):
  // return the text at its length, not with the capacity appending grew.
  Out.shrink_to_fit();
  return Out;
}

std::string printModule(const Module &M, PrintNames Names) {
  std::string Out;
  for (const auto &F : M.functions())
    if (F->isDeclaration())
      appendFunction(*F, Out, Names);
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    if (!Out.empty())
      Out += '\n';
    appendFunction(*F, Out, Names);
  }
  return Out;
}

} // namespace veriopt
