//===- Interpreter.cpp - Concrete IR interpreter ------------------------------//

#include "interp/Interpreter.h"

#include "cost/CostModel.h"

#include <unordered_map>

namespace veriopt {

namespace {

/// Deterministic synthetic return value for an external call: a SplitMix64
/// mix of the callee name, the per-callee occurrence index, and arguments.
uint64_t syntheticCallReturn(const std::string &Callee, unsigned Index,
                             const std::vector<uint64_t> &Args) {
  uint64_t H = 0x9e3779b97f4a7c15ULL * (Index + 1);
  for (char C : Callee)
    H = (H ^ static_cast<uint64_t>(C)) * 0x100000001b3ULL;
  for (uint64_t A : Args)
    H = (H ^ A) * 0xbf58476d1ce4e5b9ULL;
  H ^= H >> 31;
  H *= 0x94d049bb133111ebULL;
  H ^= H >> 29;
  return H;
}

struct Allocation {
  std::vector<uint8_t> Bytes;
  std::vector<uint8_t> PoisonBytes; // 1 = byte holds poison
};

class Machine {
public:
  Machine(const Function &F, const std::vector<APInt64> &Args,
          const InterpOptions &Opts)
      : F(F), Opts(Opts) {
    R.IsVoid = F.getReturnType()->isVoid();
    for (unsigned I = 0; I < F.getNumParams(); ++I) {
      if (!F.getParamType(I)->isInteger()) {
        fail(ExecResult::Unsupported, "pointer-typed parameter");
        return;
      }
      if (I >= Args.size() ||
          Args[I].width() != F.getParamType(I)->getBitWidth()) {
        fail(ExecResult::Unsupported, "argument count/width mismatch");
        return;
      }
      Env[F.getArg(I)] = IValue::makeInt(Args[I]);
    }
  }

  ExecResult run() {
    if (R.St != ExecResult::Ok)
      return R;
    const BasicBlock *Prev = nullptr;
    const BasicBlock *BB = F.getEntryBlock();
    while (BB) {
      const BasicBlock *Next = nullptr;
      if (!execBlock(BB, Prev, Next))
        return R;
      Prev = BB;
      BB = Next;
    }
    return R;
  }

private:
  void fail(ExecResult::Status St, const std::string &Why) {
    if (R.St == ExecResult::Ok && St != ExecResult::Ok) {
      R.St = St;
      R.Reason = Why;
    }
  }

  IValue &get(Value *V) {
    if (auto *C = dyn_cast<ConstantInt>(V)) {
      auto It = Env.find(V);
      if (It == Env.end())
        It = Env.emplace(V, IValue::makeInt(C->getValue())).first;
      return It->second;
    }
    auto It = Env.find(V);
    assert(It != Env.end() && "use of unevaluated value (verifier bypassed?)");
    return It->second;
  }

  /// Execute one block; sets \p Next for branches, nullptr for ret.
  /// Returns false when execution stopped (UB/timeout/ret recorded).
  bool execBlock(const BasicBlock *BB, const BasicBlock *Prev,
                 const BasicBlock *&Next) {
    // Phi nodes evaluate in parallel against the incoming edge.
    std::vector<std::pair<Value *, IValue>> PhiVals;
    for (PhiInst *P : BB->phis()) {
      Value *In = P->getIncomingValueFor(Prev);
      assert(In && "phi has no entry for executed predecessor");
      PhiVals.emplace_back(P, get(In));
      ++R.OpcodeCounts[static_cast<unsigned>(Opcode::Phi)];
    }
    for (auto &[P, V] : PhiVals)
      Env[P] = V;

    for (const auto &IPtr : *BB) {
      Instruction *I = IPtr.get();
      if (isa<PhiInst>(I))
        continue;
      if (++R.Steps > Opts.MaxSteps) {
        fail(ExecResult::Timeout, "step budget exhausted");
        return false;
      }
      if (Opts.FuelTok && !Opts.FuelTok->consume(fuel::InterpStep)) {
        fail(ExecResult::Timeout, "verification fuel exhausted");
        return false;
      }
      ++R.OpcodeCounts[static_cast<unsigned>(I->getOpcode())];
      if (!execInst(I, Next))
        return false;
      if (I->isTerminator())
        return true;
    }
    fail(ExecResult::UndefinedBehavior, "block fell off the end");
    return false;
  }

  bool execInst(Instruction *I, const BasicBlock *&Next) {
    switch (I->getOpcode()) {
    case Opcode::ICmp: {
      auto *C = cast<ICmpInst>(I);
      IValue L = get(C->getLHS()), Rv = get(C->getRHS());
      if (L.Poison || Rv.Poison) {
        Env[I] = IValue::makePoison(1);
        return true;
      }
      bool B = evalPred(C->getPredicate(), L.Bits, Rv.Bits);
      Env[I] = IValue::makeInt(APInt64(1, B ? 1 : 0));
      return true;
    }
    case Opcode::Select: {
      auto *S = cast<SelectInst>(I);
      IValue C = get(S->getCondition());
      if (C.Poison) {
        Env[I] = IValue::makePoison(I->getType()->getBitWidth());
        return true;
      }
      Env[I] = C.Bits.isOne() ? get(S->getTrueValue())
                              : get(S->getFalseValue());
      return true;
    }
    case Opcode::ZExt:
    case Opcode::SExt:
    case Opcode::Trunc: {
      auto *Cst = cast<CastInst>(I);
      IValue S = get(Cst->getSrc());
      unsigned DW = I->getType()->getBitWidth();
      if (S.Poison) {
        Env[I] = IValue::makePoison(DW);
        return true;
      }
      APInt64 Out = I->getOpcode() == Opcode::ZExt   ? S.Bits.zextTo(DW)
                    : I->getOpcode() == Opcode::SExt ? S.Bits.sextTo(DW)
                                                     : S.Bits.truncTo(DW);
      Env[I] = IValue::makeInt(Out);
      return true;
    }
    case Opcode::Alloca: {
      auto *A = cast<AllocaInst>(I);
      unsigned Id = static_cast<unsigned>(Allocs.size());
      Allocation Al;
      Al.Bytes.assign(A->getAllocatedBytes(), 0);
      Al.PoisonBytes.assign(A->getAllocatedBytes(), 0);
      Allocs.push_back(std::move(Al));
      // Re-executing an alloca (loop) re-binds to a fresh allocation.
      Env[I] = IValue::makePtr(Id, 0);
      return true;
    }
    case Opcode::GEP: {
      auto *G = cast<GEPInst>(I);
      IValue P = get(G->getPointer());
      IValue Off = get(G->getOffset());
      if (P.Poison || Off.Poison) {
        IValue Out = IValue::makePtr(0, 0);
        Out.Poison = true;
        Env[I] = Out;
        return true;
      }
      Env[I] = IValue::makePtr(P.AllocaId, P.Offset + Off.Bits.sext());
      return true;
    }
    case Opcode::Load: {
      auto *L = cast<LoadInst>(I);
      IValue P = get(L->getPointer());
      if (P.Poison || P.K != IValue::Ptr) {
        fail(ExecResult::UndefinedBehavior, "load through poison pointer");
        return false;
      }
      unsigned N = L->getAccessBytes();
      Allocation *Al = access(P, N);
      if (!Al)
        return false;
      uint64_t Bits = 0;
      bool AnyPoison = false;
      for (unsigned B = 0; B < N; ++B) {
        Bits |= static_cast<uint64_t>(
                    Al->Bytes[static_cast<size_t>(P.Offset) + B])
                << (8 * B);
        AnyPoison |= Al->PoisonBytes[static_cast<size_t>(P.Offset) + B];
      }
      unsigned W = L->getType()->getBitWidth();
      IValue Out = IValue::makeInt(APInt64(W, Bits));
      Out.Poison = AnyPoison;
      Env[I] = Out;
      return true;
    }
    case Opcode::Store: {
      auto *S = cast<StoreInst>(I);
      IValue P = get(S->getPointer());
      if (P.Poison || P.K != IValue::Ptr) {
        fail(ExecResult::UndefinedBehavior, "store through poison pointer");
        return false;
      }
      unsigned N = S->getAccessBytes();
      Allocation *Al = access(P, N);
      if (!Al)
        return false;
      IValue V = get(S->getValueOperand());
      for (unsigned B = 0; B < N; ++B) {
        Al->Bytes[static_cast<size_t>(P.Offset) + B] =
            static_cast<uint8_t>(V.Bits.zext() >> (8 * B));
        Al->PoisonBytes[static_cast<size_t>(P.Offset) + B] = V.Poison;
      }
      return true;
    }
    case Opcode::Br: {
      auto *B = cast<BrInst>(I);
      if (!B->isConditional()) {
        Next = B->getSuccessor(0);
        return true;
      }
      IValue C = get(B->getCondition());
      if (C.Poison) {
        fail(ExecResult::UndefinedBehavior, "branch on poison");
        return false;
      }
      Next = C.Bits.isOne() ? B->getTrueSuccessor() : B->getFalseSuccessor();
      return true;
    }
    case Opcode::Ret: {
      auto *Ret = cast<RetInst>(I);
      if (Ret->hasReturnValue()) {
        IValue V = get(Ret->getReturnValue());
        if (V.K != IValue::Int) {
          fail(ExecResult::Unsupported, "returning a pointer");
          return false;
        }
        R.RetVal = V.Bits;
        R.RetPoison = V.Poison;
      }
      Next = nullptr;
      return true;
    }
    case Opcode::Call: {
      auto *C = cast<CallInst>(I);
      CallEvent Ev;
      Ev.Callee = C->getCallee()->getName();
      for (unsigned A = 0; A < C->getNumArgs(); ++A) {
        IValue V = get(C->getArg(A));
        if (V.Poison) {
          fail(ExecResult::UndefinedBehavior, "poison passed to call");
          return false;
        }
        if (V.K != IValue::Int) {
          fail(ExecResult::Unsupported, "pointer passed to call");
          return false;
        }
        Ev.Args.push_back(V.Bits.zext());
      }
      unsigned Index = CallCounts[Ev.Callee]++;
      Ev.ReturnBits = syntheticCallReturn(Ev.Callee, Index, Ev.Args);
      if (!I->getType()->isVoid()) {
        unsigned W = I->getType()->getBitWidth();
        Env[I] = IValue::makeInt(APInt64(W, Ev.ReturnBits));
      }
      R.Calls.push_back(std::move(Ev));
      return true;
    }
    default:
      break;
    }
    assert(I->isBinaryOp() && "unhandled opcode in interpreter");
    return execBinary(cast<BinaryInst>(I));
  }

  Allocation *access(const IValue &P, unsigned N) {
    if (P.AllocaId >= Allocs.size()) {
      fail(ExecResult::UndefinedBehavior, "access to invalid allocation");
      return nullptr;
    }
    Allocation &Al = Allocs[P.AllocaId];
    if (P.Offset < 0 ||
        static_cast<uint64_t>(P.Offset) + N > Al.Bytes.size()) {
      fail(ExecResult::UndefinedBehavior, "out-of-bounds memory access");
      return nullptr;
    }
    return &Al;
  }

  bool execBinary(BinaryInst *I) {
    IValue L = get(I->getLHS()), Rv = get(I->getRHS());
    unsigned W = I->getType()->getBitWidth();
    Opcode Op = I->getOpcode();

    if (I->isDivRem()) {
      // Division UB is immediate, and div/rem *by* poison is UB too.
      if (L.Poison || Rv.Poison) {
        fail(ExecResult::UndefinedBehavior, "division on poison");
        return false;
      }
      if (Rv.Bits.isZero()) {
        fail(ExecResult::UndefinedBehavior, "division by zero");
        return false;
      }
      if ((Op == Opcode::SDiv || Op == Opcode::SRem) &&
          L.Bits.isSignedMin() && Rv.Bits.isAllOnes()) {
        fail(ExecResult::UndefinedBehavior, "signed division overflow");
        return false;
      }
    } else if (L.Poison || Rv.Poison) {
      Env[I] = IValue::makePoison(W);
      return true;
    }

    APInt64 Out;
    bool Poison = false;
    switch (Op) {
    case Opcode::Add:
      Out = L.Bits.add(Rv.Bits);
      Poison = (I->hasNSW() && L.Bits.addOverflowsSigned(Rv.Bits)) ||
               (I->hasNUW() && L.Bits.addOverflowsUnsigned(Rv.Bits));
      break;
    case Opcode::Sub:
      Out = L.Bits.sub(Rv.Bits);
      Poison = (I->hasNSW() && L.Bits.subOverflowsSigned(Rv.Bits)) ||
               (I->hasNUW() && L.Bits.subOverflowsUnsigned(Rv.Bits));
      break;
    case Opcode::Mul:
      Out = L.Bits.mul(Rv.Bits);
      Poison = (I->hasNSW() && L.Bits.mulOverflowsSigned(Rv.Bits)) ||
               (I->hasNUW() && L.Bits.mulOverflowsUnsigned(Rv.Bits));
      break;
    case Opcode::UDiv:
      Out = L.Bits.udiv(Rv.Bits);
      Poison = I->isExact() && !L.Bits.urem(Rv.Bits).isZero();
      break;
    case Opcode::SDiv:
      Out = L.Bits.sdiv(Rv.Bits);
      Poison = I->isExact() && !L.Bits.srem(Rv.Bits).isZero();
      break;
    case Opcode::URem:
      Out = L.Bits.urem(Rv.Bits);
      break;
    case Opcode::SRem:
      Out = L.Bits.srem(Rv.Bits);
      break;
    case Opcode::Shl:
      Out = L.Bits.shl(Rv.Bits);
      Poison = Rv.Bits.zext() >= W ||
               (I->hasNUW() && L.Bits.shlOverflowsUnsigned(Rv.Bits)) ||
               (I->hasNSW() && L.Bits.shlOverflowsSigned(Rv.Bits));
      break;
    case Opcode::LShr:
      Out = L.Bits.lshr(Rv.Bits);
      // exact: poison iff any shifted-out bit was set.
      Poison = Rv.Bits.zext() >= W ||
               (I->isExact() &&
                !L.Bits.lshr(Rv.Bits).shl(Rv.Bits).eq(L.Bits));
      break;
    case Opcode::AShr:
      Out = L.Bits.ashr(Rv.Bits);
      Poison = Rv.Bits.zext() >= W ||
               (I->isExact() &&
                !L.Bits.ashr(Rv.Bits).shl(Rv.Bits).eq(L.Bits));
      break;
    case Opcode::And:
      Out = L.Bits.andOp(Rv.Bits);
      break;
    case Opcode::Or:
      Out = L.Bits.orOp(Rv.Bits);
      break;
    case Opcode::Xor:
      Out = L.Bits.xorOp(Rv.Bits);
      break;
    default:
      assert(false && "not a binary opcode");
    }
    IValue OutV = IValue::makeInt(Out);
    OutV.Poison = Poison;
    Env[I] = OutV;
    return true;
  }

  const Function &F;
  InterpOptions Opts;
  ExecResult R;
  std::unordered_map<const Value *, IValue> Env;
  std::vector<Allocation> Allocs;
  std::unordered_map<std::string, unsigned> CallCounts;
};

} // namespace

ExecResult interpret(const Function &F, const std::vector<APInt64> &Args,
                     const InterpOptions &Opts) {
  Machine M(F, Args, Opts);
  return M.run();
}

double dynamicLatency(const ExecResult &R) {
  double Sum = 0;
  for (unsigned Op = 0; Op < R.OpcodeCounts.size(); ++Op)
    Sum += static_cast<double>(R.OpcodeCounts[Op]) *
           opcodeLatency(static_cast<Opcode>(Op));
  return Sum;
}

} // namespace veriopt
