//===- IR.cpp - Value/Instruction/BasicBlock/Function implementation ------===//

#include "ir/Function.h"

#include <algorithm>
#include <unordered_map>

namespace veriopt {

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void Value::removeUser(Instruction *I) {
  auto It = std::find(Users.begin(), Users.end(), I);
  assert(It != Users.end() && "removing a non-user");
  Users.erase(It);
}

void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "RAUW with itself");
  assert(New->getType() == getType() && "RAUW type mismatch");
  // replaceUsesOfWith mutates the user list; iterate over a snapshot.
  std::vector<Instruction *> Snapshot = Users;
  for (Instruction *U : Snapshot)
    U->replaceUsesOfWith(this, New);
  assert(Users.empty() && "stale users after RAUW");
}

//===----------------------------------------------------------------------===//
// Instruction
//===----------------------------------------------------------------------===//

void Instruction::addOperand(Value *V) {
  assert(V && "null operand");
  Operands.push_back(V);
  V->addUser(this);
}

void Instruction::setOperand(unsigned I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  assert(V && "null operand");
  Operands[I]->removeUser(this);
  Operands[I] = V;
  V->addUser(this);
}

void Instruction::replaceUsesOfWith(Value *From, Value *To) {
  for (unsigned I = 0, E = getNumOperands(); I != E; ++I)
    if (Operands[I] == From)
      setOperand(I, To);
}

void Instruction::dropAllReferences() {
  for (Value *Op : Operands)
    Op->removeUser(this);
  Operands.clear();
}

const char *opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::UDiv:
    return "udiv";
  case Opcode::SDiv:
    return "sdiv";
  case Opcode::URem:
    return "urem";
  case Opcode::SRem:
    return "srem";
  case Opcode::Shl:
    return "shl";
  case Opcode::LShr:
    return "lshr";
  case Opcode::AShr:
    return "ashr";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::ICmp:
    return "icmp";
  case Opcode::Select:
    return "select";
  case Opcode::ZExt:
    return "zext";
  case Opcode::SExt:
    return "sext";
  case Opcode::Trunc:
    return "trunc";
  case Opcode::Alloca:
    return "alloca";
  case Opcode::Load:
    return "load";
  case Opcode::Store:
    return "store";
  case Opcode::GEP:
    return "getelementptr";
  case Opcode::Phi:
    return "phi";
  case Opcode::Br:
    return "br";
  case Opcode::Ret:
    return "ret";
  case Opcode::Call:
    return "call";
  }
  return "<invalid>";
}

const char *predName(ICmpPred P) {
  switch (P) {
  case ICmpPred::EQ:
    return "eq";
  case ICmpPred::NE:
    return "ne";
  case ICmpPred::UGT:
    return "ugt";
  case ICmpPred::UGE:
    return "uge";
  case ICmpPred::ULT:
    return "ult";
  case ICmpPred::ULE:
    return "ule";
  case ICmpPred::SGT:
    return "sgt";
  case ICmpPred::SGE:
    return "sge";
  case ICmpPred::SLT:
    return "slt";
  case ICmpPred::SLE:
    return "sle";
  }
  return "<invalid>";
}

ICmpPred swappedPred(ICmpPred P) {
  switch (P) {
  case ICmpPred::EQ:
  case ICmpPred::NE:
    return P;
  case ICmpPred::UGT:
    return ICmpPred::ULT;
  case ICmpPred::UGE:
    return ICmpPred::ULE;
  case ICmpPred::ULT:
    return ICmpPred::UGT;
  case ICmpPred::ULE:
    return ICmpPred::UGE;
  case ICmpPred::SGT:
    return ICmpPred::SLT;
  case ICmpPred::SGE:
    return ICmpPred::SLE;
  case ICmpPred::SLT:
    return ICmpPred::SGT;
  case ICmpPred::SLE:
    return ICmpPred::SGE;
  }
  return P;
}

bool evalPred(ICmpPred P, const APInt64 &L, const APInt64 &R) {
  switch (P) {
  case ICmpPred::EQ:
    return L.eq(R);
  case ICmpPred::NE:
    return L.ne(R);
  case ICmpPred::UGT:
    return L.ugt(R);
  case ICmpPred::UGE:
    return L.uge(R);
  case ICmpPred::ULT:
    return L.ult(R);
  case ICmpPred::ULE:
    return L.ule(R);
  case ICmpPred::SGT:
    return L.sgt(R);
  case ICmpPred::SGE:
    return L.sge(R);
  case ICmpPred::SLT:
    return L.slt(R);
  case ICmpPred::SLE:
    return L.sle(R);
  }
  return false;
}

ICmpPred invertedPred(ICmpPred P) {
  switch (P) {
  case ICmpPred::EQ:
    return ICmpPred::NE;
  case ICmpPred::NE:
    return ICmpPred::EQ;
  case ICmpPred::UGT:
    return ICmpPred::ULE;
  case ICmpPred::UGE:
    return ICmpPred::ULT;
  case ICmpPred::ULT:
    return ICmpPred::UGE;
  case ICmpPred::ULE:
    return ICmpPred::UGT;
  case ICmpPred::SGT:
    return ICmpPred::SLE;
  case ICmpPred::SGE:
    return ICmpPred::SLT;
  case ICmpPred::SLT:
    return ICmpPred::SGE;
  case ICmpPred::SLE:
    return ICmpPred::SGT;
  }
  return P;
}

bool isSignedPred(ICmpPred P) {
  return P == ICmpPred::SGT || P == ICmpPred::SGE || P == ICmpPred::SLT ||
         P == ICmpPred::SLE;
}

bool isUnsignedPred(ICmpPred P) {
  return P == ICmpPred::UGT || P == ICmpPred::UGE || P == ICmpPred::ULT ||
         P == ICmpPred::ULE;
}

Value *PhiInst::getIncomingValueFor(const BasicBlock *BB) const {
  for (unsigned I = 0, E = getNumIncoming(); I != E; ++I)
    if (getIncomingBlock(I) == BB)
      return getIncomingValue(I);
  return nullptr;
}

void PhiInst::removeIncoming(unsigned I) {
  assert(I < getNumIncoming() && "incoming index out of range");
  // Shift the remaining entries down, then drop the last operand slot.
  for (unsigned J = I; J + 1 < getNumIncoming(); ++J) {
    setIncomingValue(J, getIncomingValue(J + 1));
    IncomingBlocks[J] = IncomingBlocks[J + 1];
  }
  // Remove the final operand manually (no pop interface on the base).
  getIncomingValue(getNumIncoming() - 1); // bounds check in debug builds
  // Re-add all but last.
  std::vector<Value *> Vals;
  std::vector<BasicBlock *> BBs;
  for (unsigned J = 0; J + 1 < getNumIncoming(); ++J) {
    Vals.push_back(getIncomingValue(J));
    BBs.push_back(IncomingBlocks[J]);
  }
  dropAllReferences();
  IncomingBlocks.clear();
  for (unsigned J = 0; J < Vals.size(); ++J)
    addIncoming(Vals[J], BBs[J]);
}

void BrInst::makeUnconditional(BasicBlock *Dest) {
  assert(isConditional() && "already unconditional");
  dropAllReferences();
  Succs.clear();
  Succs.push_back(Dest);
}

CallInst::CallInst(Function *Callee, Type *RetTy,
                   const std::vector<Value *> &Args)
    : Instruction(Opcode::Call, RetTy), Callee(Callee) {
  for (Value *A : Args)
    addOperand(A);
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

BasicBlock::iterator BasicBlock::find(Instruction *I) {
  for (auto It = Insts.begin(); It != Insts.end(); ++It)
    if (It->get() == I)
      return It;
  return Insts.end();
}

Instruction *BasicBlock::insertBefore(Instruction *Pos,
                                      std::unique_ptr<Instruction> I) {
  auto It = find(Pos);
  assert(It != Insts.end() && "insertion point not in this block");
  I->setParent(this);
  return Insts.insert(It, std::move(I))->get();
}

void BasicBlock::erase(Instruction *I) {
  assert(!I->hasUses() && "erasing an instruction that still has uses");
  auto It = find(I);
  assert(It != Insts.end() && "erasing an instruction not in this block");
  Insts.erase(It);
}

std::unique_ptr<Instruction> BasicBlock::remove(Instruction *I) {
  auto It = find(I);
  assert(It != Insts.end() && "removing an instruction not in this block");
  std::unique_ptr<Instruction> Out = std::move(*It);
  Insts.erase(It);
  Out->setParent(nullptr);
  return Out;
}

std::vector<PhiInst *> BasicBlock::phis() const {
  std::vector<PhiInst *> Out;
  for (const auto &I : Insts) {
    auto *P = dyn_cast<PhiInst>(I.get());
    if (!P)
      break;
    Out.push_back(P);
  }
  return Out;
}

Instruction *BasicBlock::getFirstNonPhi() const {
  for (const auto &I : Insts)
    if (!isa<PhiInst>(I.get()))
      return I.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Function::Function(std::string Name, Type *ReturnTy,
                   std::vector<Type *> ParamTys, bool IsDeclaration)
    : Value(FunctionVal, Type::getPtr()), ReturnTy(ReturnTy),
      Declaration(IsDeclaration) {
  setName(std::move(Name));
  for (unsigned I = 0; I < ParamTys.size(); ++I)
    Args.push_back(std::make_unique<Argument>(ParamTys[I], "", I));
}

BasicBlock *Function::createBlock(std::string Name) {
  Blocks.push_back(std::make_unique<BasicBlock>(std::move(Name)));
  Blocks.back()->setParent(this);
  return Blocks.back().get();
}

void Function::eraseBlock(BasicBlock *BB) {
  // Drop dataflow references first so ordering of destruction is irrelevant.
  for (auto &I : *BB)
    I->dropAllReferences();
  for (auto It = Blocks.begin(); It != Blocks.end(); ++It) {
    if (It->get() == BB) {
      // Destroy instructions in reverse to respect the no-users invariant.
      Blocks.erase(It);
      return;
    }
  }
  assert(false && "block not in this function");
}

void Function::reorderBlocks(const std::vector<BasicBlock *> &Order) {
  assert(Order.size() == Blocks.size() && "order is not a permutation");
  std::unordered_map<BasicBlock *, std::unique_ptr<BasicBlock>> Pool;
  for (auto &BB : Blocks)
    Pool[BB.get()] = std::move(BB);
  Blocks.clear();
  for (BasicBlock *BB : Order) {
    auto It = Pool.find(BB);
    assert(It != Pool.end() && "order references a foreign block");
    Blocks.push_back(std::move(It->second));
    Pool.erase(It);
  }
  assert(Pool.empty() && "order dropped blocks");
}

std::vector<BasicBlock *> Function::blockPtrs() const {
  std::vector<BasicBlock *> Out;
  Out.reserve(Blocks.size());
  for (const auto &BB : Blocks)
    Out.push_back(BB.get());
  return Out;
}

BasicBlock *Function::findBlock(const std::string &Name) const {
  for (const auto &BB : Blocks)
    if (BB->getName() == Name)
      return BB.get();
  return nullptr;
}

unsigned Function::instructionCount() const {
  unsigned N = 0;
  for (const auto &BB : Blocks)
    N += static_cast<unsigned>(BB->size());
  return N;
}

ConstantInt *Function::getConstant(Type *Ty, APInt64 V) {
  assert(Ty->isInteger() && "constants are integer-only");
  uint64_t Key = (static_cast<uint64_t>(Ty->getBitWidth()) << 58) ^ V.zext();
  auto It = Constants.find(Key);
  if (It != Constants.end()) {
    // Key collisions are impossible: the width tag occupies bits a 64-bit
    // value of width < 64 cannot set, and width 64 uses the full value.
    if (It->second->getType() == Ty && It->second->getValue() == V)
      return It->second.get();
  }
  auto C = std::make_unique<ConstantInt>(Ty, V);
  ConstantInt *Out = C.get();
  Constants[Key] = std::move(C);
  return Out;
}

std::unique_ptr<Function> Function::clone() const {
  std::vector<Type *> ParamTys;
  for (const auto &A : Args)
    ParamTys.push_back(A->getType());
  auto NewF =
      std::make_unique<Function>(getName(), ReturnTy, ParamTys, Declaration);
  for (unsigned I = 0; I < Args.size(); ++I)
    NewF->getArg(I)->setName(Args[I]->getName());
  if (Declaration)
    return NewF;

  std::unordered_map<const Value *, Value *> VMap;
  std::unordered_map<const BasicBlock *, BasicBlock *> BMap;
  for (unsigned I = 0; I < Args.size(); ++I)
    VMap[Args[I].get()] = NewF->getArg(I);

  for (const auto &BB : Blocks)
    BMap[BB.get()] = NewF->createBlock(BB->getName());

  auto MapValue = [&](Value *V) -> Value * {
    if (auto *C = dyn_cast<ConstantInt>(V))
      return NewF->getConstant(C->getType(), C->getValue());
    if (isa<Function>(V))
      return V; // callee declarations are shared
    auto It = VMap.find(V);
    assert(It != VMap.end() && "operand not yet mapped (def after use?)");
    return It->second;
  };

  // First pass: create instructions; phi operands are patched afterwards
  // since they may reference values defined later.
  std::vector<std::pair<const PhiInst *, PhiInst *>> Phis;
  for (const auto &BB : Blocks) {
    BasicBlock *NewBB = BMap[BB.get()];
    for (const auto &IPtr : *BB) {
      const Instruction *I = IPtr.get();
      std::unique_ptr<Instruction> NewI;
      switch (I->getOpcode()) {
      case Opcode::ICmp: {
        const auto *C = cast<ICmpInst>(I);
        NewI = std::make_unique<ICmpInst>(C->getPredicate(),
                                          MapValue(C->getLHS()),
                                          MapValue(C->getRHS()));
        break;
      }
      case Opcode::Select: {
        const auto *S = cast<SelectInst>(I);
        NewI = std::make_unique<SelectInst>(MapValue(S->getCondition()),
                                            MapValue(S->getTrueValue()),
                                            MapValue(S->getFalseValue()));
        break;
      }
      case Opcode::ZExt:
      case Opcode::SExt:
      case Opcode::Trunc: {
        const auto *C = cast<CastInst>(I);
        NewI = std::make_unique<CastInst>(I->getOpcode(),
                                          MapValue(C->getSrc()), I->getType());
        break;
      }
      case Opcode::Alloca:
        NewI = std::make_unique<AllocaInst>(
            cast<AllocaInst>(I)->getAllocatedType());
        break;
      case Opcode::Load: {
        const auto *L = cast<LoadInst>(I);
        NewI = std::make_unique<LoadInst>(L->getType(),
                                          MapValue(L->getPointer()));
        break;
      }
      case Opcode::Store: {
        const auto *S = cast<StoreInst>(I);
        NewI = std::make_unique<StoreInst>(MapValue(S->getValueOperand()),
                                           MapValue(S->getPointer()));
        break;
      }
      case Opcode::GEP: {
        const auto *G = cast<GEPInst>(I);
        NewI = std::make_unique<GEPInst>(MapValue(G->getPointer()),
                                         MapValue(G->getOffset()));
        break;
      }
      case Opcode::Phi: {
        auto P = std::make_unique<PhiInst>(I->getType());
        Phis.push_back({cast<PhiInst>(I), P.get()});
        NewI = std::move(P);
        break;
      }
      case Opcode::Br: {
        const auto *B = cast<BrInst>(I);
        if (B->isConditional())
          NewI = std::make_unique<BrInst>(MapValue(B->getCondition()),
                                          BMap[B->getTrueSuccessor()],
                                          BMap[B->getFalseSuccessor()]);
        else
          NewI = std::make_unique<BrInst>(BMap[B->getSuccessor(0)]);
        break;
      }
      case Opcode::Ret: {
        const auto *R = cast<RetInst>(I);
        if (R->hasReturnValue())
          NewI = std::make_unique<RetInst>(MapValue(R->getReturnValue()));
        else
          NewI = std::make_unique<RetInst>();
        break;
      }
      case Opcode::Call: {
        const auto *C = cast<CallInst>(I);
        std::vector<Value *> NewArgs;
        for (unsigned A = 0; A < C->getNumArgs(); ++A)
          NewArgs.push_back(MapValue(C->getArg(A)));
        NewI = std::make_unique<CallInst>(C->getCallee(), C->getType(),
                                          NewArgs);
        break;
      }
      default: {
        assert(I->isBinaryOp() && "unhandled opcode in clone");
        const auto *B = cast<BinaryInst>(I);
        NewI = std::make_unique<BinaryInst>(I->getOpcode(),
                                            MapValue(B->getLHS()),
                                            MapValue(B->getRHS()));
        break;
      }
      }
      NewI->setNUW(I->hasNUW());
      NewI->setNSW(I->hasNSW());
      NewI->setExact(I->isExact());
      NewI->setName(I->getName());
      Instruction *Placed = NewBB->push_back(std::move(NewI));
      VMap[I] = Placed;
    }
  }

  // Second pass: wire up phi incoming edges.
  for (auto &[OldPhi, NewPhi] : Phis)
    for (unsigned I = 0; I < OldPhi->getNumIncoming(); ++I)
      NewPhi->addIncoming(MapValue(OldPhi->getIncomingValue(I)),
                          BMap[OldPhi->getIncomingBlock(I)]);

  return NewF;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

Function *Module::getFunction(const std::string &Name) const {
  for (const auto &F : Functions)
    if (F->getName() == Name)
      return F.get();
  return nullptr;
}

Function *Module::getMainFunction() const {
  for (const auto &F : Functions)
    if (!F->isDeclaration())
      return F.get();
  return nullptr;
}

} // namespace veriopt
