//===- ValueTest.cpp - Use tracking, RAUW, instruction invariants ---------===//

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

std::unique_ptr<Function> makeFn() {
  auto F = std::make_unique<Function>(
      "f", Type::getInt32(), std::vector<Type *>{Type::getInt32()}, false);
  F->getArg(0)->setName("x");
  F->createBlock("entry");
  return F;
}

TEST(Value, UseTracking) {
  auto F = makeFn();
  IRBuilder B(F->getEntryBlock());
  Value *X = F->getArg(0);
  EXPECT_EQ(X->getNumUses(), 0u);
  Value *Add = B.createAdd(X, X);
  EXPECT_EQ(X->getNumUses(), 2u); // two operand slots
  EXPECT_FALSE(X->hasOneUse());
  Value *Mul = B.createMul(Add, X);
  EXPECT_EQ(X->getNumUses(), 3u);
  EXPECT_TRUE(Add->hasOneUse());
  B.createRet(Mul);
  EXPECT_TRUE(Mul->hasOneUse());
}

TEST(Value, ReplaceAllUsesWith) {
  auto F = makeFn();
  IRBuilder B(F->getEntryBlock());
  Value *X = F->getArg(0);
  Value *C = F->getConstant(32, 7);
  Value *Add = B.createAdd(X, C);
  Value *Mul = B.createMul(Add, Add);
  B.createRet(Mul);

  Add->replaceAllUsesWith(C);
  EXPECT_EQ(Add->getNumUses(), 0u);
  auto *MulI = cast<Instruction>(Mul);
  EXPECT_EQ(MulI->getOperand(0), C);
  EXPECT_EQ(MulI->getOperand(1), C);
}

TEST(Value, EraseRemovesUses) {
  auto F = makeFn();
  IRBuilder B(F->getEntryBlock());
  Value *X = F->getArg(0);
  Value *Add = B.createAdd(X, X);
  EXPECT_EQ(X->getNumUses(), 2u);
  F->getEntryBlock()->erase(cast<Instruction>(Add));
  EXPECT_EQ(X->getNumUses(), 0u);
}

TEST(Value, ConstantUniquing) {
  auto F = makeFn();
  EXPECT_EQ(F->getConstant(32, 5), F->getConstant(32, 5));
  EXPECT_NE(F->getConstant(32, 5), F->getConstant(64, 5));
  EXPECT_NE(F->getConstant(32, 5), F->getConstant(32, 6));
  // Negative values normalize through the width mask.
  EXPECT_EQ(F->getConstant(Type::getInt8(), APInt64::fromSigned(8, -1)),
            F->getConstant(8, 0xFF));
}

TEST(Value, CastingIdiom) {
  auto F = makeFn();
  IRBuilder B(F->getEntryBlock());
  Value *X = F->getArg(0);
  Value *Add = B.createAdd(X, X);
  Value *Cmp = B.createICmp(ICmpPred::EQ, Add, X);

  EXPECT_TRUE(isa<Instruction>(Add));
  EXPECT_TRUE(isa<BinaryInst>(Add));
  EXPECT_FALSE(isa<ICmpInst>(Add));
  EXPECT_TRUE(isa<ICmpInst>(Cmp));
  EXPECT_EQ(dyn_cast<BinaryInst>(Cmp), nullptr);
  EXPECT_NE(dyn_cast<BinaryInst>(Add), nullptr);
  EXPECT_TRUE(isa<Argument>(X));
  EXPECT_FALSE(isa<Instruction>(X));
}

TEST(Value, PredicateHelpers) {
  EXPECT_EQ(swappedPred(ICmpPred::ULT), ICmpPred::UGT);
  EXPECT_EQ(swappedPred(ICmpPred::EQ), ICmpPred::EQ);
  EXPECT_EQ(invertedPred(ICmpPred::ULT), ICmpPred::UGE);
  EXPECT_EQ(invertedPred(ICmpPred::EQ), ICmpPred::NE);
  EXPECT_TRUE(isSignedPred(ICmpPred::SLE));
  EXPECT_TRUE(isUnsignedPred(ICmpPred::UGT));
  EXPECT_FALSE(isSignedPred(ICmpPred::EQ));
  EXPECT_FALSE(isUnsignedPred(ICmpPred::EQ));
  // Inverting twice is the identity for every predicate.
  for (unsigned P = 0; P <= static_cast<unsigned>(ICmpPred::SLE); ++P) {
    auto Pred = static_cast<ICmpPred>(P);
    EXPECT_EQ(invertedPred(invertedPred(Pred)), Pred);
    EXPECT_EQ(swappedPred(swappedPred(Pred)), Pred);
  }
}

TEST(Value, EvalPredMatchesIntegerComparisonAtI4) {
  // Every predicate on every pair of i4 values, against plain comparison of
  // the unsigned bits and of their sign extensions.
  for (uint64_t A = 0; A < 16; ++A)
    for (uint64_t B = 0; B < 16; ++B) {
      const APInt64 L(4, A), R(4, B);
      const int64_t SA = A >= 8 ? int64_t(A) - 16 : int64_t(A);
      const int64_t SB = B >= 8 ? int64_t(B) - 16 : int64_t(B);
      const std::pair<ICmpPred, bool> Want[] = {
          {ICmpPred::EQ, A == B},   {ICmpPred::NE, A != B},
          {ICmpPred::UGT, A > B},   {ICmpPred::UGE, A >= B},
          {ICmpPred::ULT, A < B},   {ICmpPred::ULE, A <= B},
          {ICmpPred::SGT, SA > SB}, {ICmpPred::SGE, SA >= SB},
          {ICmpPred::SLT, SA < SB}, {ICmpPred::SLE, SA <= SB},
      };
      for (const auto &[Pred, Expected] : Want)
        EXPECT_EQ(evalPred(Pred, L, R), Expected)
            << predName(Pred) << " " << A << ", " << B;
    }
}

TEST(Value, InstructionClassification) {
  auto F = makeFn();
  IRBuilder B(F->getEntryBlock());
  Value *X = F->getArg(0);
  auto *Add = cast<Instruction>(B.createAdd(X, X));
  auto *Shl = cast<Instruction>(B.createShl(X, X));
  auto *Udiv = cast<Instruction>(B.createBinary(Opcode::UDiv, X, X));
  auto *Store =
      cast<Instruction>(F->getEntryBlock()->push_back(
          std::make_unique<StoreInst>(X, B.createAlloca(Type::getInt32()))));

  EXPECT_TRUE(Add->isCommutative());
  EXPECT_FALSE(Shl->isCommutative());
  EXPECT_TRUE(Shl->isShift());
  EXPECT_TRUE(Udiv->isDivRem());
  EXPECT_FALSE(Add->mayHaveSideEffects());
  EXPECT_TRUE(Store->mayHaveSideEffects());
}

TEST(Value, PhiIncomingManagement) {
  auto F = std::make_unique<Function>("g", Type::getInt32(),
                                      std::vector<Type *>{}, false);
  BasicBlock *A = F->createBlock("a");
  BasicBlock *BB = F->createBlock("b");
  BasicBlock *C = F->createBlock("c");
  IRBuilder B(C);
  auto *Phi = B.createPhi(Type::getInt32());
  Phi->addIncoming(F->getConstant(32, 1), A);
  Phi->addIncoming(F->getConstant(32, 2), BB);
  EXPECT_EQ(Phi->getNumIncoming(), 2u);
  EXPECT_EQ(cast<ConstantInt>(Phi->getIncomingValueFor(A))->getValue().zext(),
            1u);
  Phi->removeIncoming(0);
  EXPECT_EQ(Phi->getNumIncoming(), 1u);
  EXPECT_EQ(Phi->getIncomingBlock(0), BB);
  EXPECT_EQ(Phi->getIncomingValueFor(A), nullptr);
}

TEST(Value, BranchMutation) {
  auto F = std::make_unique<Function>("g", Type::getVoid(),
                                      std::vector<Type *>{Type::getInt1()},
                                      false);
  BasicBlock *E = F->createBlock("e");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *FB = F->createBlock("f");
  IRBuilder B(E);
  B.createCondBr(F->getArg(0), T, FB);
  auto *Br = cast<BrInst>(E->getTerminator());
  EXPECT_TRUE(Br->isConditional());
  EXPECT_EQ(F->getArg(0)->getNumUses(), 1u);
  Br->makeUnconditional(T);
  EXPECT_FALSE(Br->isConditional());
  EXPECT_EQ(Br->getNumSuccessors(), 1u);
  EXPECT_EQ(F->getArg(0)->getNumUses(), 0u);
}

} // namespace
} // namespace veriopt
