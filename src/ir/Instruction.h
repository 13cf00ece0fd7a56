//===- Instruction.h - IR instruction classes --------------------*- C++ -*-=//
//
// The instruction set of the dialect. Every LLVM construct the paper's
// examples and the -O0 lowering need is covered: integer binary ops with
// nuw/nsw/exact flags, icmp, select, casts, alloca/load/store and byte-offset
// GEPs, phi, branches, ret, and calls to declared externals.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_IR_INSTRUCTION_H
#define VERIOPT_IR_INSTRUCTION_H

#include "ir/Value.h"

#include <vector>

namespace veriopt {

class BasicBlock;
class Function;

/// Instruction opcodes. Order matters: contiguous ranges back the classof()
/// range tests below.
enum class Opcode : unsigned {
  // Integer binary operators [BinaryFirst, BinaryLast].
  Add,
  Sub,
  Mul,
  UDiv,
  SDiv,
  URem,
  SRem,
  Shl,
  LShr,
  AShr,
  And,
  Or,
  Xor,
  // Comparisons and selection.
  ICmp,
  Select,
  // Casts [CastFirst, CastLast].
  ZExt,
  SExt,
  Trunc,
  // Memory.
  Alloca,
  Load,
  Store,
  GEP,
  // Control / SSA.
  Phi,
  Br,
  Ret,
  Call,
};

inline constexpr Opcode BinaryFirst = Opcode::Add;
inline constexpr Opcode BinaryLast = Opcode::Xor;
inline constexpr Opcode CastFirst = Opcode::ZExt;
inline constexpr Opcode CastLast = Opcode::Trunc;

/// Keyword used in textual IR ("add", "icmp", ...).
const char *opcodeName(Opcode Op);

/// Integer comparison predicates, matching LLVM's icmp.
enum class ICmpPred : unsigned { EQ, NE, UGT, UGE, ULT, ULE, SGT, SGE, SLT, SLE };

const char *predName(ICmpPred P);
/// The predicate with operands swapped (e.g. ULT -> UGT).
ICmpPred swappedPred(ICmpPred P);
/// \p P applied to two integers of one width: what icmp computes. The
/// interpreter and InstCombine's constant fold both call it.
bool evalPred(ICmpPred P, const APInt64 &L, const APInt64 &R);
/// The logically negated predicate (e.g. ULT -> UGE).
ICmpPred invertedPred(ICmpPred P);
bool isSignedPred(ICmpPred P);
bool isUnsignedPred(ICmpPred P);

/// Base instruction: owns operand slots (use-tracked) and lives inside a
/// BasicBlock. Successor blocks and phi incoming blocks are held in subclass
/// fields, not operand slots, since BasicBlocks are not Values here.
class Instruction : public Value {
public:
  ~Instruction() override { dropAllReferences(); }

  Opcode getOpcode() const {
    return static_cast<Opcode>(getValueID() - FirstInstruction);
  }
  const char *getOpcodeName() const { return opcodeName(getOpcode()); }

  BasicBlock *getParent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  unsigned getNumOperands() const {
    return static_cast<unsigned>(Operands.size());
  }
  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V);
  const std::vector<Value *> &operands() const { return Operands; }

  /// Replace every occurrence of \p From in the operand list with \p To.
  void replaceUsesOfWith(Value *From, Value *To);

  /// Detach from all operands (removes this from their user lists).
  void dropAllReferences();

  bool isBinaryOp() const {
    return getOpcode() >= BinaryFirst && getOpcode() <= BinaryLast;
  }
  bool isCast() const {
    return getOpcode() >= CastFirst && getOpcode() <= CastLast;
  }
  bool isTerminator() const {
    return getOpcode() == Opcode::Br || getOpcode() == Opcode::Ret;
  }
  bool isShift() const {
    Opcode O = getOpcode();
    return O == Opcode::Shl || O == Opcode::LShr || O == Opcode::AShr;
  }
  bool isDivRem() const {
    Opcode O = getOpcode();
    return O == Opcode::UDiv || O == Opcode::SDiv || O == Opcode::URem ||
           O == Opcode::SRem;
  }
  /// Commutative binary operators.
  bool isCommutative() const {
    switch (getOpcode()) {
    case Opcode::Add:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
      return true;
    default:
      return false;
    }
  }
  /// True if removing this instruction can change observable behaviour even
  /// when its result is unused.
  bool mayHaveSideEffects() const {
    Opcode O = getOpcode();
    return O == Opcode::Store || O == Opcode::Call || isTerminator();
  }
  bool mayReadMemory() const {
    Opcode O = getOpcode();
    return O == Opcode::Load || O == Opcode::Call;
  }
  bool mayWriteMemory() const {
    Opcode O = getOpcode();
    return O == Opcode::Store || O == Opcode::Call;
  }

  // Poison-generating flags.
  bool hasNUW() const { return NUW; }
  bool hasNSW() const { return NSW; }
  bool isExact() const { return Exact; }
  void setNUW(bool B) { NUW = B; }
  void setNSW(bool B) { NSW = B; }
  void setExact(bool B) { Exact = B; }
  void clearPoisonFlags() { NUW = NSW = Exact = false; }

  static bool classof(const Value *V) {
    return V->getValueID() >= FirstInstruction;
  }

protected:
  Instruction(Opcode Op, Type *Ty)
      : Value(FirstInstruction + static_cast<unsigned>(Op), Ty) {}

  void addOperand(Value *V);

private:
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Operands;
  bool NUW = false, NSW = false, Exact = false;
};

/// Integer two-operand arithmetic/bitwise instruction.
class BinaryInst : public Instruction {
public:
  BinaryInst(Opcode Op, Value *LHS, Value *RHS)
      : Instruction(Op, LHS->getType()) {
    assert(Op >= BinaryFirst && Op <= BinaryLast && "not a binary opcode");
    assert(LHS->getType() == RHS->getType() && "operand type mismatch");
    addOperand(LHS);
    addOperand(RHS);
  }

  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->isBinaryOp();
    return false;
  }
};

/// Integer comparison producing i1.
class ICmpInst : public Instruction {
public:
  ICmpInst(ICmpPred Pred, Value *LHS, Value *RHS)
      : Instruction(Opcode::ICmp, Type::getInt1()), Pred(Pred) {
    assert(LHS->getType() == RHS->getType() && "operand type mismatch");
    addOperand(LHS);
    addOperand(RHS);
  }

  ICmpPred getPredicate() const { return Pred; }
  void setPredicate(ICmpPred P) { Pred = P; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::ICmp;
    return false;
  }

private:
  ICmpPred Pred;
};

/// select i1 %c, T %a, T %b
class SelectInst : public Instruction {
public:
  SelectInst(Value *Cond, Value *TrueV, Value *FalseV)
      : Instruction(Opcode::Select, TrueV->getType()) {
    assert(Cond->getType()->isBool() && "select condition must be i1");
    assert(TrueV->getType() == FalseV->getType() && "arm type mismatch");
    addOperand(Cond);
    addOperand(TrueV);
    addOperand(FalseV);
  }

  Value *getCondition() const { return getOperand(0); }
  Value *getTrueValue() const { return getOperand(1); }
  Value *getFalseValue() const { return getOperand(2); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Select;
    return false;
  }
};

/// zext/sext/trunc between integer types.
class CastInst : public Instruction {
public:
  CastInst(Opcode Op, Value *Src, Type *DestTy) : Instruction(Op, DestTy) {
    assert(Op >= CastFirst && Op <= CastLast && "not a cast opcode");
    assert(Src->getType()->isInteger() && DestTy->isInteger() &&
           "casts are integer-only");
    assert((Op == Opcode::Trunc
                ? DestTy->getBitWidth() < Src->getType()->getBitWidth()
                : DestTy->getBitWidth() > Src->getType()->getBitWidth()) &&
           "cast width direction mismatch");
    addOperand(Src);
  }

  Value *getSrc() const { return getOperand(0); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->isCast();
    return false;
  }
};

/// Stack allocation of a fixed-size slot; yields a ptr.
class AllocaInst : public Instruction {
public:
  explicit AllocaInst(Type *AllocatedTy)
      : Instruction(Opcode::Alloca, Type::getPtr()), AllocatedTy(AllocatedTy) {
    assert(!AllocatedTy->isVoid() && "cannot allocate void");
  }

  Type *getAllocatedType() const { return AllocatedTy; }
  unsigned getAllocatedBytes() const { return AllocatedTy->getStoreSize(); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Alloca;
    return false;
  }

private:
  Type *AllocatedTy;
};

/// Typed load from a pointer.
class LoadInst : public Instruction {
public:
  LoadInst(Type *Ty, Value *Ptr) : Instruction(Opcode::Load, Ty) {
    assert(Ptr->getType()->isPointer() && "load pointer operand must be ptr");
    assert(Ty->isInteger() && "only integer loads are supported");
    addOperand(Ptr);
  }

  Value *getPointer() const { return getOperand(0); }
  unsigned getAccessBytes() const { return getType()->getStoreSize(); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Load;
    return false;
  }
};

/// Typed store to a pointer.
class StoreInst : public Instruction {
public:
  StoreInst(Value *Val, Value *Ptr) : Instruction(Opcode::Store, Type::getVoid()) {
    assert(Ptr->getType()->isPointer() && "store pointer operand must be ptr");
    assert(Val->getType()->isInteger() && "only integer stores are supported");
    addOperand(Val);
    addOperand(Ptr);
  }

  Value *getValueOperand() const { return getOperand(0); }
  Value *getPointer() const { return getOperand(1); }
  unsigned getAccessBytes() const {
    return getValueOperand()->getType()->getStoreSize();
  }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Store;
    return false;
  }
};

/// Byte-offset pointer arithmetic: gep ptr %p, i64 %off == %p + %off bytes.
/// The textual parser lowers typed/struct GEPs to this canonical form.
class GEPInst : public Instruction {
public:
  GEPInst(Value *Ptr, Value *ByteOffset)
      : Instruction(Opcode::GEP, Type::getPtr()) {
    assert(Ptr->getType()->isPointer() && "gep base must be ptr");
    assert(ByteOffset->getType()->isInteger(64) && "gep offset must be i64");
    addOperand(Ptr);
    addOperand(ByteOffset);
  }

  Value *getPointer() const { return getOperand(0); }
  Value *getOffset() const { return getOperand(1); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::GEP;
    return false;
  }
};

/// SSA phi node. Incoming blocks are parallel to the operand list.
class PhiInst : public Instruction {
public:
  explicit PhiInst(Type *Ty) : Instruction(Opcode::Phi, Ty) {}

  void addIncoming(Value *V, BasicBlock *BB) {
    assert(V->getType() == getType() && "phi incoming type mismatch");
    addOperand(V);
    IncomingBlocks.push_back(BB);
  }

  unsigned getNumIncoming() const { return getNumOperands(); }
  Value *getIncomingValue(unsigned I) const { return getOperand(I); }
  BasicBlock *getIncomingBlock(unsigned I) const {
    assert(I < IncomingBlocks.size() && "incoming index out of range");
    return IncomingBlocks[I];
  }
  void setIncomingValue(unsigned I, Value *V) { setOperand(I, V); }
  void setIncomingBlock(unsigned I, BasicBlock *BB) { IncomingBlocks[I] = BB; }

  /// Incoming value for \p BB, or nullptr if BB is not an incoming block.
  Value *getIncomingValueFor(const BasicBlock *BB) const;
  /// Remove the entry for incoming index \p I.
  void removeIncoming(unsigned I);

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Phi;
    return false;
  }

private:
  std::vector<BasicBlock *> IncomingBlocks;
};

/// Conditional or unconditional branch.
class BrInst : public Instruction {
public:
  /// Unconditional.
  explicit BrInst(BasicBlock *Dest) : Instruction(Opcode::Br, Type::getVoid()) {
    Succs.push_back(Dest);
  }
  /// Conditional.
  BrInst(Value *Cond, BasicBlock *IfTrue, BasicBlock *IfFalse)
      : Instruction(Opcode::Br, Type::getVoid()) {
    assert(Cond->getType()->isBool() && "branch condition must be i1");
    addOperand(Cond);
    Succs.push_back(IfTrue);
    Succs.push_back(IfFalse);
  }

  bool isConditional() const { return getNumOperands() == 1; }
  Value *getCondition() const {
    assert(isConditional() && "no condition on unconditional branch");
    return getOperand(0);
  }
  unsigned getNumSuccessors() const {
    return static_cast<unsigned>(Succs.size());
  }
  BasicBlock *getSuccessor(unsigned I) const {
    assert(I < Succs.size() && "successor index out of range");
    return Succs[I];
  }
  void setSuccessor(unsigned I, BasicBlock *BB) {
    assert(I < Succs.size() && "successor index out of range");
    Succs[I] = BB;
  }
  BasicBlock *getTrueSuccessor() const { return getSuccessor(0); }
  BasicBlock *getFalseSuccessor() const {
    assert(isConditional() && "no false successor");
    return getSuccessor(1);
  }
  /// Demote a conditional branch to an unconditional one to \p Dest.
  void makeUnconditional(BasicBlock *Dest);

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Br;
    return false;
  }

private:
  std::vector<BasicBlock *> Succs;
};

/// Function return (with or without a value).
class RetInst : public Instruction {
public:
  RetInst() : Instruction(Opcode::Ret, Type::getVoid()) {}
  explicit RetInst(Value *V) : Instruction(Opcode::Ret, Type::getVoid()) {
    addOperand(V);
  }

  bool hasReturnValue() const { return getNumOperands() == 1; }
  Value *getReturnValue() const {
    assert(hasReturnValue() && "ret void has no value");
    return getOperand(0);
  }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Ret;
    return false;
  }
};

/// Call to a declared function. The callee is held out-of-line (it is a
/// Function, not an operand slot) and arguments are the operands.
class CallInst : public Instruction {
public:
  CallInst(Function *Callee, Type *RetTy, const std::vector<Value *> &Args);

  Function *getCallee() const { return Callee; }
  unsigned getNumArgs() const { return getNumOperands(); }
  Value *getArg(unsigned I) const { return getOperand(I); }

  static bool classof(const Value *V) {
    if (const auto *I = dyn_cast<Instruction>(V))
      return I->getOpcode() == Opcode::Call;
    return false;
  }

private:
  Function *Callee;
};

} // namespace veriopt

#endif // VERIOPT_IR_INSTRUCTION_H
