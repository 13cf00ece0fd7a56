//===- SatTest.cpp - CDCL solver unit + property tests --------------------===//

#include "smt/Sat.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>

namespace veriopt {
namespace {

/// PHP(N,H): N pigeons into H holes, unsatisfiable whenever N > H. With a
/// \p Guard, every clause only binds while the guard is true.
void addPigeonhole(SatSolver &S, int N, int H,
                   std::optional<Lit> Guard = std::nullopt) {
  auto add = [&](std::vector<Lit> Cl) {
    if (Guard)
      Cl.push_back(~*Guard);
    S.addClause(Cl);
  };
  std::vector<std::vector<unsigned>> P(N, std::vector<unsigned>(H));
  for (auto &Row : P)
    for (unsigned &V : Row)
      V = S.newVar();
  for (int I = 0; I < N; ++I) {
    std::vector<Lit> Cl;
    for (int K = 0; K < H; ++K)
      Cl.push_back(Lit(P[I][K], false));
    add(Cl);
  }
  for (int K = 0; K < H; ++K)
    for (int I = 0; I < N; ++I)
      for (int J = I + 1; J < N; ++J)
        add({Lit(P[I][K], true), Lit(P[J][K], true)});
}

TEST(Sat, TrivialSat) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, false), Lit(B, false));
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(Lit(A, false)) || S.modelValue(Lit(B, false)));
}

TEST(Sat, TrivialUnsat) {
  SatSolver S;
  unsigned A = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, EmptyClauseUnsat) {
  SatSolver S;
  EXPECT_FALSE(S.addClause(std::vector<Lit>{}));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, TautologyIgnored) {
  SatSolver S;
  unsigned A = S.newVar();
  EXPECT_TRUE(S.addClause(Lit(A, false), Lit(A, true)));
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
}

TEST(Sat, UnitPropagationChain) {
  SatSolver S;
  // a; a->b; b->c; c->~a is unsat.
  unsigned A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true), Lit(B, false));
  S.addClause(Lit(B, true), Lit(C, false));
  S.addClause(Lit(C, true), Lit(A, true));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, XorChainSat) {
  // x1 ^ x2 = 1, x2 ^ x3 = 1, ..., satisfiable for any chain length.
  SatSolver S;
  std::vector<unsigned> Vars;
  for (int I = 0; I < 20; ++I)
    Vars.push_back(S.newVar());
  for (int I = 0; I + 1 < 20; ++I) {
    Lit A(Vars[I], false), B(Vars[I + 1], false);
    S.addClause(A, B);
    S.addClause(~A, ~B);
  }
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  for (int I = 0; I + 1 < 20; ++I)
    EXPECT_NE(S.modelValue(Vars[I]), S.modelValue(Vars[I + 1]));
}

TEST(Sat, PigeonHole3Into2) {
  // PHP(3,2): 3 pigeons, 2 holes — classic small UNSAT instance that
  // requires real conflict analysis.
  SatSolver S;
  unsigned P[3][2];
  for (auto &Row : P)
    for (unsigned &V : Row)
      V = S.newVar();
  for (int I = 0; I < 3; ++I)
    S.addClause(Lit(P[I][0], false), Lit(P[I][1], false));
  for (int H = 0; H < 2; ++H)
    for (int I = 0; I < 3; ++I)
      for (int J = I + 1; J < 3; ++J)
        S.addClause(Lit(P[I][H], true), Lit(P[J][H], true));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(Sat, ConflictBudgetReportsUnknown) {
  // PHP(7,6) is hard enough that a budget of 1 conflict cannot finish.
  SatSolver S;
  addPigeonhole(S, 7, 6);
  EXPECT_EQ(S.solve(1), SatSolver::Result::Unknown);
  // And with no budget it proves unsatisfiability.
  EXPECT_EQ(S.solve(0), SatSolver::Result::Unsat);
}

/// Brute-force reference: try all assignments over <= 16 vars.
bool bruteForceSat(unsigned NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Mask = 0; Mask < (1ULL << NumVars); ++Mask) {
    bool All = true;
    for (const auto &C : Clauses) {
      bool Any = false;
      for (Lit L : C) {
        bool V = (Mask >> (L.var() - 1)) & 1;
        if (V != L.negated()) {
          Any = true;
          break;
        }
      }
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

/// Random 3-SAT instances cross-checked against brute force, over a sweep of
/// clause/variable ratios spanning the SAT/UNSAT phase transition.
class RandomSat : public ::testing::TestWithParam<int> {};

TEST_P(RandomSat, AgreesWithBruteForce) {
  int ClauseCount = GetParam();
  RNG R(1000 + ClauseCount);
  const unsigned NumVars = 10;
  for (int Trial = 0; Trial < 30; ++Trial) {
    std::vector<std::vector<Lit>> Clauses;
    SatSolver S;
    for (unsigned V = 0; V < NumVars; ++V)
      S.newVar();
    bool AddedOk = true;
    for (int C = 0; C < ClauseCount; ++C) {
      std::vector<Lit> Cl;
      for (int K = 0; K < 3; ++K)
        Cl.push_back(Lit(1 + static_cast<unsigned>(R.below(NumVars)),
                         R.chance(0.5)));
      Clauses.push_back(Cl);
      AddedOk = S.addClause(Cl) && AddedOk;
    }
    bool Ref = bruteForceSat(NumVars, Clauses);
    auto Got = AddedOk ? S.solve() : SatSolver::Result::Unsat;
    EXPECT_EQ(Got == SatSolver::Result::Sat, Ref) << "trial " << Trial;
    // On SAT, the model must actually satisfy every clause.
    if (Got == SatSolver::Result::Sat) {
      for (const auto &C : Clauses) {
        bool Any = false;
        for (Lit L : C)
          Any |= S.modelValue(L);
        EXPECT_TRUE(Any);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, RandomSat,
                         ::testing::Values(20, 35, 42, 50, 70));

//===--- Assumptions and incrementality --------------------------------------//

TEST(SatAssume, UnsatUnderAssumptionsDoesNotLatch) {
  // a -> b, assume {a, ~b}: Unsat together with the assumptions, but the
  // clauses alone are satisfiable — the next call must still say Sat.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, true), Lit(B, false));
  EXPECT_EQ(S.solve({Lit(A, false), Lit(B, true)}), SatSolver::Result::Unsat);
  EXPECT_FALSE(S.conflictCore().empty());
  EXPECT_EQ(S.solve(), SatSolver::Result::Sat);
  // And retrying with compatible assumptions succeeds on the same solver.
  EXPECT_EQ(S.solve({Lit(A, false), Lit(B, false)}), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatAssume, GloballyUnsatHasEmptyCore) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true));
  EXPECT_EQ(S.solve({Lit(B, false)}), SatSolver::Result::Unsat);
  // The refutation owes nothing to the assumption.
  EXPECT_TRUE(S.conflictCore().empty());
  // Globally unsat does latch: no assumptions can revive the instance.
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_EQ(S.solve({Lit(B, true)}), SatSolver::Result::Unsat);
}

TEST(SatAssume, ConflictCoreIsRefutedSubsetOfAssumptions) {
  // x1..x4 free; clause (~x2 | ~x3). Assume all four true: the core must
  // name only assumptions, and must itself be refutable.
  SatSolver S;
  std::vector<Lit> Assumps;
  for (int I = 0; I < 4; ++I)
    Assumps.push_back(Lit(S.newVar(), false));
  S.addClause(~Assumps[1], ~Assumps[2]);
  ASSERT_EQ(S.solve(Assumps), SatSolver::Result::Unsat);
  // Copy: conflictCore() aliases solver state the next solve() overwrites.
  const std::vector<Lit> Core = S.conflictCore();
  ASSERT_FALSE(Core.empty());
  for (Lit L : Core) {
    bool IsAssumption = false;
    for (Lit A : Assumps)
      IsAssumption |= (L == A);
    EXPECT_TRUE(IsAssumption);
  }
  // The named subset alone is already inconsistent with the clauses.
  EXPECT_EQ(S.solve(Core), SatSolver::Result::Unsat);
  // Dropping one core member restores satisfiability (the clause is binary,
  // so the core is minimal here).
  std::vector<Lit> AllButOne(Core.begin(), Core.end() - 1);
  EXPECT_EQ(S.solve(AllButOne), SatSolver::Result::Sat);
}

TEST(SatAssume, AssumptionAlreadyImpliedIsSat) {
  // Unit clause forces a; assuming a (and a again) must not confuse the
  // placement loop that handles already-true assumptions.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addClause(Lit(A, false));
  S.addClause(Lit(A, true), Lit(B, false)); // a -> b
  EXPECT_EQ(S.solve({Lit(A, false), Lit(A, false), Lit(B, false)}),
            SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  // Assuming against the forced unit is Unsat with that assumption cored.
  ASSERT_EQ(S.solve({Lit(A, true)}), SatSolver::Result::Unsat);
  ASSERT_EQ(S.conflictCore().size(), 1u);
  EXPECT_EQ(S.conflictCore()[0], Lit(A, true));
}

TEST(SatAssume, FrozenSelectorsActivateGroups) {
  // Two "groups" guarded by frozen selectors: sel_i -> (x == i's phase).
  // Activating either one alone is Sat; activating both is Unsat, and only
  // selector assumptions appear in the core.
  SatSolver S;
  unsigned X = S.newVar();
  unsigned S1 = S.newVar(), S2 = S.newVar();
  S.setFrozen(S1, true);
  S.setFrozen(S2, true);
  S.addClause(Lit(S1, true), Lit(X, false)); // s1 -> x
  S.addClause(Lit(S2, true), Lit(X, true));  // s2 -> ~x
  EXPECT_EQ(S.solve({Lit(S1, false)}), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(X));
  EXPECT_EQ(S.solve({Lit(S2, false)}), SatSolver::Result::Sat);
  EXPECT_FALSE(S.modelValue(X));
  ASSERT_EQ(S.solve({Lit(S1, false), Lit(S2, false)}),
            SatSolver::Result::Unsat);
  for (Lit L : S.conflictCore())
    EXPECT_TRUE(L == Lit(S1, false) || L == Lit(S2, false));
  // The solver is still reusable afterwards.
  EXPECT_EQ(S.solve({Lit(S1, false)}), SatSolver::Result::Sat);
}

TEST(SatAssume, FuelExhaustionMidAssumptionSolveIsUnknown) {
  // Assumption placement charges decision fuel; a tank too small to place
  // the prefix must stop with Unknown and latch the token, not crash or
  // mis-report Unsat.
  SatSolver S;
  std::vector<Lit> Assumps;
  for (int I = 0; I < 8; ++I)
    Assumps.push_back(Lit(S.newVar(), false));
  S.addClause(~Assumps[0], Assumps[1]); // give propagation something to do
  Fuel F(2);
  EXPECT_EQ(S.solve(Assumps, /*ConflictBudget=*/0, &F),
            SatSolver::Result::Unknown);
  EXPECT_TRUE(F.exhausted());
  // Refueled, the same solver finishes the same query.
  Fuel Full(1 << 20);
  EXPECT_EQ(S.solve(Assumps, 0, &Full), SatSolver::Result::Sat);
}

//===--- Back-to-back solves vs fresh solvers --------------------------------//

/// Regression net for incremental-state bugs: a solver carried across
/// solve() calls (learned clauses, saved phases, activities and all) must
/// return the same verdict a fresh solver does on every query of a sequence.
TEST(SatIncremental, BackToBackSolvesMatchFreshSolvers) {
  RNG R(777);
  const unsigned NumVars = 10;
  for (int Round = 0; Round < 20; ++Round) {
    // One clause set, queried under several assumption sets in sequence.
    std::vector<std::vector<Lit>> Clauses;
    SatSolver Inc;
    for (unsigned V = 0; V < NumVars; ++V)
      Inc.newVar();
    bool AddedOk = true;
    for (int C = 0; C < 38; ++C) {
      std::vector<Lit> Cl;
      for (int K = 0; K < 3; ++K)
        Cl.push_back(Lit(1 + static_cast<unsigned>(R.below(NumVars)),
                         R.chance(0.5)));
      Clauses.push_back(Cl);
      AddedOk = Inc.addClause(Cl) && AddedOk;
    }
    for (int Q = 0; Q < 6; ++Q) {
      std::vector<Lit> Assumps;
      for (int K = 0; K < 3; ++K)
        Assumps.push_back(Lit(1 + static_cast<unsigned>(R.below(NumVars)),
                              R.chance(0.5)));
      SatSolver Fresh;
      for (unsigned V = 0; V < NumVars; ++V)
        Fresh.newVar();
      bool FreshOk = true;
      for (const auto &Cl : Clauses)
        FreshOk = Fresh.addClause(Cl) && FreshOk;
      ASSERT_EQ(AddedOk, FreshOk);
      auto Got = AddedOk ? Inc.solve(Assumps) : SatSolver::Result::Unsat;
      auto Want = FreshOk ? Fresh.solve(Assumps) : SatSolver::Result::Unsat;
      EXPECT_EQ(Got, Want) << "round " << Round << " query " << Q;
      if (Got == SatSolver::Result::Sat) {
        // Models may differ, but the incremental model must satisfy the
        // clauses and the assumptions.
        for (Lit A : Assumps)
          EXPECT_TRUE(Inc.modelValue(A));
        for (const auto &Cl : Clauses) {
          bool Any = false;
          for (Lit L : Cl)
            Any |= Inc.modelValue(L);
          EXPECT_TRUE(Any);
        }
      }
    }
  }
}

TEST(SatIncremental, SolveAfterBudgetUnknownMatchesFresh) {
  // A budget-starved Unknown in between must not perturb later verdicts
  // (the historic stale-state failure mode).
  SatSolver Inc;
  addPigeonhole(Inc, 6, 5);
  EXPECT_EQ(Inc.solve(2), SatSolver::Result::Unknown);
  EXPECT_EQ(Inc.solve(3), SatSolver::Result::Unknown);
  SatSolver Fresh;
  addPigeonhole(Fresh, 6, 5);
  EXPECT_EQ(Inc.solve(0), Fresh.solve(0));
  EXPECT_EQ(Inc.solve(0), SatSolver::Result::Unsat);
}

TEST(SatIncremental, LearnedClausesRetainedAcrossCalls) {
  // numClauses() counts learnt clauses too: after a search that conflicts,
  // the clause database must have grown, and per-call stats must reset.
  SatSolver S;
  unsigned P[4][3];
  for (auto &Row : P)
    for (unsigned &V : Row)
      V = S.newVar();
  for (int I = 0; I < 4; ++I)
    S.addClause(std::vector<Lit>{Lit(P[I][0], false), Lit(P[I][1], false),
                                 Lit(P[I][2], false)});
  for (int H = 0; H < 3; ++H)
    for (int I = 0; I < 4; ++I)
      for (int J = I + 1; J < 4; ++J)
        S.addClause(Lit(P[I][H], true), Lit(P[J][H], true));
  uint64_t Before = S.numClauses();
  ASSERT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_GT(S.lastConflicts(), 0u);
  EXPECT_GT(S.numClauses(), Before);
  // A second solve on the latched instance is immediate: no new conflicts.
  ASSERT_EQ(S.solve(), SatSolver::Result::Unsat);
  EXPECT_EQ(S.lastConflicts(), 0u);
}

//===--- Search trajectory ---------------------------------------------------//
//
// These cases pin what the search does, not only what it answers: any change
// to the branching order (activity ties included), to propagation order or to
// clause learning moves a count, the core or the model. The expected values
// were recorded from the solver that picked decisions by a linear scan over
// the variables; the decision heap must reproduce them exactly.

using Result = SatSolver::Result;

struct Trajectory {
  Result R = Result::Unknown;
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Conflicts = 0;
  std::vector<unsigned> Core; // conflictCore() literal codes, in order
  uint64_t Model = 0;         // FNV-1a digest of the model; 0 unless Sat
  bool operator==(const Trajectory &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const Trajectory &T) {
  static const char *const Names[] = {"Sat", "Unsat", "Unknown"};
  OS << "{Result::" << Names[static_cast<int>(T.R)] << ", " << T.Decisions
     << ", " << T.Propagations << ", " << T.Conflicts << ", {";
  for (size_t I = 0; I < T.Core.size(); ++I)
    OS << (I ? ", " : "") << T.Core[I];
  return OS << "}, 0x" << std::hex << T.Model << std::dec << "}";
}

/// Solve and record the trajectory. The counters are the solver's running
/// totals, so a sequence of calls on one solver pins every call before it.
Trajectory solveRecorded(SatSolver &S, const std::vector<Lit> &Assumps = {},
                         uint64_t ConflictBudget = 0) {
  Trajectory T;
  T.R = S.solve(Assumps, ConflictBudget);
  T.Decisions = S.decisions();
  T.Propagations = S.propagations();
  T.Conflicts = S.conflicts();
  for (Lit L : S.conflictCore())
    T.Core.push_back(L.Code);
  if (T.R == Result::Sat) {
    T.Model = 0xcbf29ce484222325ULL;
    for (unsigned V = 1; V <= S.numVars(); ++V)
      T.Model = (T.Model ^ (S.modelValue(V) ? 1 : 0)) * 0x100000001b3ULL;
  }
  return T;
}

/// A random 3-literal clause over three distinct variables of 1..NumVars.
std::vector<Lit> random3Clause(RNG &R, unsigned NumVars) {
  unsigned A = 1 + static_cast<unsigned>(R.below(NumVars)), B, C;
  do
    B = 1 + static_cast<unsigned>(R.below(NumVars));
  while (B == A);
  do
    C = 1 + static_cast<unsigned>(R.below(NumVars));
  while (C == A || C == B);
  return {Lit(A, R.chance(0.5)), Lit(B, R.chance(0.5)), Lit(C, R.chance(0.5))};
}

/// Uniform random 3-SAT with NumClauses clauses over NumVars variables.
void addRandom3Sat(SatSolver &S, unsigned NumVars, unsigned NumClauses,
                   uint64_t Seed) {
  RNG R(Seed);
  while (S.numVars() < NumVars)
    S.newVar();
  for (unsigned I = 0; I < NumClauses; ++I)
    S.addClause(random3Clause(R, NumVars));
}

TEST(SatTrajectory, Random3SatAtThreshold) {
  // Clause/variable ratio 4.26, where random 3-SAT is hardest. The 200-var
  // instance is solved (Sat after 13,988 conflicts, past three activity
  // rescales); the larger ones stop at their conflict budget.
  struct Case {
    unsigned Vars;
    uint64_t Seed;
    uint64_t ConflictBudget;
    Trajectory Want;
  };
  const Case Cases[] = {
      {200, 4, 0, {Result::Sat, 16783, 551989, 13988, {}, 0xee6c6e390fe0189}},
      {1000, 1, 3000, {Result::Unknown, 4442, 334557, 3000, {}, 0}},
      {3000, 1, 1000, {Result::Unknown, 2679, 235266, 1000, {}, 0}},
  };
  for (const Case &C : Cases) {
    SatSolver S;
    addRandom3Sat(S, C.Vars, C.Vars * 426 / 100, C.Seed);
    EXPECT_EQ(solveRecorded(S, {}, C.ConflictBudget), C.Want)
        << C.Vars << " variables";
  }
}

TEST(SatTrajectory, Pigeonhole7Into6) {
  SatSolver S;
  addPigeonhole(S, 7, 6);
  EXPECT_EQ(solveRecorded(S),
            (Trajectory{Result::Unsat, 1067, 11024, 886, {}, 0}));
}

TEST(SatTrajectory, AssumptionsOverFrozenSelectors) {
  // A satisfiable base plus four groups of clauses, each guarded by a frozen
  // selector, queried on one solver under growing selector sets. Without
  // assumptions the selectors are decided last, at their saved phases.
  const unsigned NumVars = 150;
  SatSolver S;
  addRandom3Sat(S, NumVars, 450, 11);
  RNG R(12);
  std::vector<Lit> Sel;
  for (int G = 0; G < 4; ++G) {
    Sel.push_back(Lit(S.newVar(), false));
    S.setFrozen(Sel.back().var(), true);
    for (int I = 0; I < 60; ++I) {
      std::vector<Lit> Cl = random3Clause(R, NumVars);
      Cl.push_back(~Sel.back());
      S.addClause(Cl);
    }
  }
  EXPECT_EQ(solveRecorded(S, {Sel[0]}),
            (Trajectory{Result::Sat, 44, 197, 1, {}, 0xcb288804c8c8db91}));
  EXPECT_EQ(solveRecorded(S, {Sel[0], Sel[1]}),
            (Trajectory{Result::Sat, 91, 392, 2, {}, 0x8b0e7f7e6ab553b}));
  EXPECT_EQ(solveRecorded(S, {Sel[1], Sel[2], Sel[3]}),
            (Trajectory{Result::Sat, 939, 20847, 668, {},
                        0x1a693c3933831e26}));
  EXPECT_EQ(solveRecorded(S, Sel),
            (Trajectory{Result::Unsat, 1923, 45197, 1490,
                        {308, 306, 304, 302}, 0}));
  EXPECT_EQ(solveRecorded(S),
            (Trajectory{Result::Sat, 1978, 45351, 1490, {},
                        0x39502f189a51fe75}));
}

TEST(SatTrajectory, ActivityRescales) {
  // Plant rising activities on a chain x1 -> x2 -> ... -> x300: one guarded
  // conflict per link, so later links are bumped harder. A pigeonhole
  // instance behind a second selector then runs 20,000 conflicts without
  // touching the chain; activities are rescaled by 1e-100 about every 4,500
  // conflicts, and the fourth rescale underflows every planted activity to
  // 0. With the pigeonhole switched off, the final Sat search reaches the
  // chain last and, all links tied, must decide x1 first (lowest index),
  // then each link on its own. A heap not rebuilt after the rescales still
  // holds the planted order and decides a high link first, whose saved
  // phase (false) implies every link below it.
  const unsigned K = 300;
  SatSolver S;
  std::vector<unsigned> X, D;
  for (unsigned I = 0; I < K; ++I)
    X.push_back(S.newVar());
  for (unsigned I = 0; I < K; ++I)
    D.push_back(S.newVar());
  Lit G(S.newVar(), false);
  S.setFrozen(G.var(), true);
  for (unsigned I = 0; I < K; ++I) {
    // Under G, x_i forces both d_i and ~d_i.
    S.addClause(~G, Lit(X[I], true), Lit(D[I], false));
    S.addClause(~G, Lit(X[I], true), Lit(D[I], true));
  }
  for (unsigned I = 0; I < K; ++I)
    ASSERT_EQ(S.solve({G, Lit(X[I], false)}), Result::Unsat);
  ASSERT_EQ(S.conflicts(), K);
  S.addClause(~G);
  for (unsigned I = 0; I + 1 < K; ++I)
    S.addClause(Lit(X[I], true), Lit(X[I + 1], false));

  Lit H(S.newVar(), false);
  S.setFrozen(H.var(), true);
  addPigeonhole(S, 10, 9, H);
  EXPECT_EQ(solveRecorded(S, {H}, 20000),
            (Trajectory{Result::Unknown, 24669, 283806, 20300, {}, 0}));
  S.addClause(~H);
  EXPECT_EQ(solveRecorded(S),
            (Trajectory{Result::Sat, 25359, 284497, 20300, {},
                        0xc074c16196117e4b}));
}

} // namespace
} // namespace veriopt
