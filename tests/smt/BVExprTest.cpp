//===- BVExprTest.cpp - Term construction, folding, evaluation ------------===//

#include "smt/BVExpr.h"

#include "support/RNG.h"
#include "trace/Metrics.h"

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

TEST(BVExpr, RollbackRestoresFreshState) {
  BVContext C;
  const BVExpr *X = C.var(32, "x");
  const BVExpr *One = C.constant(32, 1);
  const BVExpr *XP1 = C.add(X, One);
  const BVExpr *Cond = C.ult(X, XP1);
  const BVContext::Mark M = C.mark();
  EXPECT_EQ(M.Nodes, C.numNodes());
  EXPECT_EQ(M.Vars, C.numVars());

  // What a group adds on top: a fresh variable, terms over it, and a
  // three-operand ite.
  auto addGroupTerms = [&] {
    const BVExpr *Y = C.var(32, "call:g#0");
    const BVExpr *Sum = C.add(XP1, Y);
    return std::vector<const BVExpr *>{Y, Sum,
                                       C.ite(Cond, Sum, C.constant(32, 7))};
  };
  const std::vector<const BVExpr *> First = addGroupTerms();
  ASSERT_EQ(First[2]->Op, BVOp::ITE);
  const size_t NodesAfterFirst = C.numNodes();
  EXPECT_GT(NodesAfterFirst, M.Nodes);
  const unsigned FirstVarId = First[0]->VarId;

  C.rollback(M);
  EXPECT_EQ(C.numNodes(), M.Nodes);
  EXPECT_EQ(C.numVars(), M.Vars);
  EXPECT_EQ(C.mark(), M);

  // Every term from before the mark re-interns to its old node.
  const uint64_t Hits = C.cseHits();
  EXPECT_EQ(C.constant(32, 1), One);
  EXPECT_EQ(C.add(X, One), XP1);
  EXPECT_EQ(C.ult(X, XP1), Cond);
  EXPECT_EQ(C.cseHits(), Hits + 3);
  EXPECT_EQ(C.numNodes(), M.Nodes);

  // Rebuilding the terms from after the mark allocates them again, with
  // the variable ids and names of the first build.
  const std::vector<const BVExpr *> Second = addGroupTerms();
  EXPECT_EQ(C.numNodes(), NodesAfterFirst);
  EXPECT_EQ(Second[0]->VarId, FirstVarId);
  EXPECT_EQ(C.varName(Second[0]->VarId), "call:g#0");
  ASSERT_EQ(Second[2]->Op, BVOp::ITE);
  ASSERT_EQ(Second[2]->Ops.size(), 3u);
  EXPECT_EQ(Second[2]->Ops[0], Cond);
  EXPECT_EQ(Second[2]->Ops[1], Second[1]);
  EXPECT_TRUE(Second[2]->Ops[2]->isConst(7));
}

TEST(BVExpr, InternKeysEveryField) {
  BVContext C;
  MetricsRegistry &Reg = MetricsRegistry::global();
  const uint64_t RegHits = Reg.counter("encode.cse_hits").value();
  const uint64_t RegMisses = Reg.counter("encode.cse_misses").value();

  // Each call below makes exactly one interning request: its operands are
  // variables, so no constructor folds or rewrites.
  uint64_t Requests = 0;
  auto req = [&Requests](const BVExpr *E) {
    ++Requests;
    return E;
  };
  const BVExpr *X = req(C.var(32, "x"));
  const BVExpr *Y = req(C.var(32, "y"));
  const BVExpr *Z = req(C.var(32, "z"));
  const BVExpr *B = req(C.var(1, "b"));

  // Structurally equal requests return one node.
  EXPECT_EQ(req(C.add(X, Y)), req(C.add(X, Y)));
  EXPECT_EQ(req(C.extract(X, 8, 8)), req(C.extract(X, 8, 8)));
  EXPECT_EQ(req(C.constant(32, 5)), req(C.constant(32, 5)));
  EXPECT_EQ(req(C.ite(B, X, Y)), req(C.ite(B, X, Y)));

  // Requests that differ in one field return different nodes.
  EXPECT_NE(req(C.extract(X, 0, 8)), req(C.extract(X, 8, 8))); // Lo
  EXPECT_NE(req(C.extract(X, 8, 8)), req(C.extract(X, 8, 16))); // width
  EXPECT_NE(req(C.zext(X, 48)), req(C.zext(X, 64)));            // width
  EXPECT_NE(req(C.constant(32, 5)), req(C.constant(32, 6)));    // bits
  EXPECT_NE(req(C.constant(8, 5)), req(C.constant(16, 5)));     // width
  EXPECT_NE(req(C.var(32, "x")), X);                            // var id
  EXPECT_NE(req(C.add(X, Y)), req(C.add(X, Z)));                // operand 2
  EXPECT_NE(req(C.add(X, Y)), req(C.add(Z, Y)));                // operand 1
  EXPECT_NE(req(C.ite(B, X, Y)), req(C.ite(B, X, Z)));          // operand 3
  EXPECT_NE(req(C.add(X, Y)), req(C.sub(X, Y)));                // op

  // Every request counts once, as a hit or a miss, in the context and in
  // the registry; the misses are the distinct nodes.
  EXPECT_EQ(C.cseHits() + C.cseMisses(), Requests);
  EXPECT_EQ(C.cseMisses(), C.numNodes());
  EXPECT_EQ(Reg.counter("encode.cse_hits").value() - RegHits, C.cseHits());
  EXPECT_EQ(Reg.counter("encode.cse_misses").value() - RegMisses,
            C.cseMisses());
}

} // namespace
} // namespace veriopt
