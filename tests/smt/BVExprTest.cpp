//===- BVExprTest.cpp - Term construction, folding, evaluation ------------===//

#include "smt/BVExpr.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

TEST(BVExpr, HashConsing) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  EXPECT_EQ(C.add(X, Y), C.add(X, Y));
  EXPECT_NE(C.add(X, Y), C.add(Y, X)); // add is not canonicalized over vars
  EXPECT_EQ(C.constant(32, 5), C.constant(32, 5));
}

TEST(BVExpr, ConstantFolding) {
  BVContext C;
  EXPECT_TRUE(C.add(C.constant(32, 2), C.constant(32, 3))->isConst(5));
  EXPECT_TRUE(C.mul(C.constant(8, 16), C.constant(8, 16))->isConst(0));
  EXPECT_TRUE(C.eq(C.constant(16, 7), C.constant(16, 7))->isTrue());
  EXPECT_TRUE(C.ult(C.constant(8, 200), C.constant(8, 100))->isFalse());
  EXPECT_TRUE(
      C.slt(C.constant(8, 200), C.constant(8, 100))->isTrue()); // -56 < 100
}

TEST(BVExpr, IdentitySimplifications) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Zero = C.constant(32, 0);
  EXPECT_EQ(C.add(X, Zero), X);
  EXPECT_EQ(C.sub(X, Zero), X);
  EXPECT_TRUE(C.sub(X, X)->isConst(0));
  EXPECT_TRUE(C.mul(X, Zero)->isConst(0));
  EXPECT_EQ(C.mul(X, C.constant(32, 1)), X);
  EXPECT_TRUE(C.bvxor(X, X)->isConst(0));
  EXPECT_EQ(C.bvand(X, X), X);
  EXPECT_EQ(C.bvnot(C.bvnot(X)), X);
  EXPECT_EQ(C.neg(C.neg(X)), X);
  EXPECT_TRUE(C.eq(X, X)->isTrue());
  EXPECT_TRUE(C.ult(X, X)->isFalse());
  EXPECT_TRUE(C.ult(X, Zero)->isFalse());
  EXPECT_EQ(C.shl(X, Zero), X);
}

TEST(BVExpr, BooleanIteSimplifications) {
  BVContext C;
  const BVExpr *P = C.var(1, "p");
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  EXPECT_EQ(C.ite(C.trueVal(), X, Y), X);
  EXPECT_EQ(C.ite(C.falseVal(), X, Y), Y);
  EXPECT_EQ(C.ite(P, X, X), X);
  EXPECT_EQ(C.ite(P, C.trueVal(), C.falseVal()), P);
  EXPECT_EQ(C.ite(P, C.falseVal(), C.trueVal()), C.bvnot(P));
}

TEST(BVExpr, ExtractConcatCollapse) {
  BVContext C;
  const BVExpr *X = C.var(64, "x");
  // Store-then-load shape: split a 64-bit value into bytes, reconcatenate.
  std::vector<const BVExpr *> Bytes;
  for (unsigned B = 0; B < 8; ++B)
    Bytes.push_back(C.extract(X, B * 8, 8));
  const BVExpr *Whole = Bytes[7];
  for (int B = 6; B >= 0; --B)
    Whole = C.concat(Whole, Bytes[B]);
  EXPECT_EQ(Whole, X) << "byte split+merge must collapse to the source";
}

TEST(BVExpr, ExtractThroughZext) {
  BVContext C;
  const BVExpr *X = C.var(16, "x");
  const BVExpr *Wide = C.zext(X, 64);
  EXPECT_EQ(C.extract(Wide, 0, 16), X);
  EXPECT_EQ(C.trunc(Wide, 16), X);
}

TEST(BVExpr, EvaluateMatchesAPIntSemantics) {
  BVContext C;
  RNG R(77);
  const BVExpr *X = C.var(32, "x");
  const BVExpr *Y = C.var(32, "y");
  for (int Trial = 0; Trial < 200; ++Trial) {
    APInt64 XV(32, R.next()), YV(32, R.next());
    std::unordered_map<unsigned, APInt64> M = {{X->VarId, XV},
                                               {Y->VarId, YV}};
    EXPECT_EQ(C.evaluate(C.add(X, Y), M), XV.add(YV));
    EXPECT_EQ(C.evaluate(C.bvxor(X, Y), M), XV.xorOp(YV));
    EXPECT_EQ(C.evaluate(C.shl(X, Y), M), XV.shl(YV));
    EXPECT_EQ(C.evaluate(C.ashr(X, Y), M), XV.ashr(YV));
    if (!YV.isZero()) {
      EXPECT_EQ(C.evaluate(C.udiv(X, Y), M), XV.udiv(YV));
      if (!(XV.isSignedMin() && YV.isAllOnes())) {
        EXPECT_EQ(C.evaluate(C.sdiv(X, Y), M), XV.sdiv(YV));
      }
    }
    EXPECT_EQ(C.evaluate(C.slt(X, Y), M).isOne(), XV.slt(YV));
  }
}

TEST(BVExpr, SdivByZeroMatchesSMTLib) {
  BVContext C;
  std::unordered_map<unsigned, APInt64> M;
  const BVExpr *X = C.var(8, "x");
  M[X->VarId] = APInt64(8, 10);
  // bvudiv by 0 = all ones; bvurem by 0 = dividend.
  EXPECT_TRUE(C.evaluate(C.udiv(X, C.constant(8, 0)), M).isAllOnes());
  EXPECT_EQ(C.evaluate(C.urem(X, C.constant(8, 0)), M).zext(), 10u);
}

TEST(BVExpr, NodeCountReflectsSharing) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  size_t Before = C.numNodes();
  const BVExpr *S1 = C.add(X, C.constant(32, 1));
  const BVExpr *S2 = C.add(X, C.constant(32, 1));
  EXPECT_EQ(S1, S2);
  EXPECT_EQ(C.numNodes(), Before + 2); // the constant + one add node
}

} // namespace
} // namespace veriopt
