//===- Solver.cpp - Bit-vector satisfiability queries -------------------------//

#include "smt/Solver.h"

#include "trace/Metrics.h"

namespace veriopt {

SmtCheck checkSat(BVContext &Ctx, const BVExpr *Constraint,
                  const std::vector<const BVExpr *> &ModelTerms,
                  uint64_t ConflictBudget, Fuel *F) {
  assert(Constraint->Width == 1 && "constraint must be width 1");
  SmtCheck Out;

  // Trivial cases survive construction-time folding.
  if (Constraint->isFalse()) {
    Out.St = SmtCheck::Unsat;
    return Out;
  }

  SatSolver S;
  BitBlaster BB(Ctx, S);
  // Blast model terms first so their literals exist even if simplification
  // removed them from the constraint.
  for (const BVExpr *T : ModelTerms)
    BB.blast(T);
  BB.assertTrue(Constraint);

  switch (S.solve(ConflictBudget, F)) {
  case SatSolver::Result::Sat:
    Out.St = SmtCheck::Sat;
    for (const BVExpr *T : ModelTerms) {
      assert(T->Op == BVOp::Var && "model terms must be variables");
      Out.Model[T->VarId] = BB.read(T);
    }
    break;
  case SatSolver::Result::Unsat:
    Out.St = SmtCheck::Unsat;
    break;
  case SatSolver::Result::Unknown:
    Out.St = SmtCheck::Unknown;
    break;
  }
  Out.Conflicts = S.conflicts();

  MetricsRegistry &M = MetricsRegistry::global();
  static Counter &Queries = M.counter("smt.queries");
  static Counter &Conflicts = M.counter("smt.conflicts");
  static Counter &Propagations = M.counter("smt.propagations");
  static Counter &Decisions = M.counter("smt.decisions");
  Queries.inc();
  Conflicts.inc(S.conflicts());
  Propagations.inc(S.propagations());
  Decisions.inc(S.decisions());
  return Out;
}

QueryPrefix::QueryPrefix(BVContext &Ctx,
                         const std::vector<const BVExpr *> &PrefixTerms)
    : Ctx(Ctx) {
  Proto = std::make_unique<BitBlaster>(Ctx, Master);
  for (const BVExpr *T : PrefixTerms)
    Proto->blast(T);
}

SmtCheck QueryPrefix::solveOn(SatSolver &S, BitBlaster &BB,
                              const BVExpr *Constraint,
                              const std::vector<const BVExpr *> &ModelTerms,
                              uint64_t ConflictBudget, Fuel *F,
                              uint64_t RetainedClauses) {
  assert(Constraint->Width == 1 && "constraint must be width 1");
  SmtCheck Out;

  // Trivial cases survive construction-time folding: no solver run, no
  // metrics — exactly checkSat's short-circuit.
  if (Constraint->isFalse()) {
    Out.St = SmtCheck::Unsat;
    return Out;
  }

  // Model terms first so their literals exist even if simplification
  // removed them from the constraint (same discipline as checkSat).
  for (const BVExpr *T : ModelTerms)
    BB.blast(T);
  Lit CexLit = BB.blastBool(Constraint);

  // Guarded activation: the constraint only binds while the selector is
  // assumed, so the CNF stays satisfiable on its own and an Unsat answer
  // never latches the solver. Freezing keeps the search from branching the
  // selector true on its own.
  unsigned SelVar = S.newVar();
  S.setFrozen(SelVar, true);
  Lit Sel(SelVar, false);
  S.addClause(~Sel, CexLit);

  switch (S.solve({Sel}, ConflictBudget, F)) {
  case SatSolver::Result::Sat:
    Out.St = SmtCheck::Sat;
    for (const BVExpr *T : ModelTerms) {
      assert(T->Op == BVOp::Var && "model terms must be variables");
      Out.Model[T->VarId] = BB.read(T);
    }
    break;
  case SatSolver::Result::Unsat:
    Out.St = SmtCheck::Unsat;
    break;
  case SatSolver::Result::Unknown:
    Out.St = SmtCheck::Unknown;
    break;
  }
  Out.Conflicts = S.lastConflicts();

  MetricsRegistry &M = MetricsRegistry::global();
  static Counter &Queries = M.counter("smt.queries");
  static Counter &Conflicts = M.counter("smt.conflicts");
  static Counter &Propagations = M.counter("smt.propagations");
  static Counter &Decisions = M.counter("smt.decisions");
  static Counter &AssumptionSolves = M.counter("smt.assumption_solves");
  static Counter &ClausesRetained = M.counter("smt.clauses_retained");
  Queries.inc();
  Conflicts.inc(S.lastConflicts());
  Propagations.inc(S.lastPropagations());
  Decisions.inc(S.lastDecisions());
  AssumptionSolves.inc();
  if (RetainedClauses)
    ClausesRetained.inc(RetainedClauses);
  return Out;
}

SmtCheck QueryPrefix::activate(const BVExpr *Constraint,
                               const std::vector<const BVExpr *> &ModelTerms,
                               uint64_t ConflictBudget, Fuel *F) const {
  if (Constraint->isFalse()) {
    SmtCheck Out;
    Out.St = SmtCheck::Unsat;
    return Out;
  }
  // An exact copy of the master (never solved, so its search state is
  // pristine) plus the inherited term-to-literal cache: continuing to blast
  // on the copy is the same state trajectory as one solver doing the whole
  // query from scratch.
  SatSolver S = Master;
  BitBlaster BB(Ctx, S, *Proto);
  return solveOn(S, BB, Constraint, ModelTerms, ConflictBudget, F,
                 Master.numClauses());
}

SmtCheck QueryPrefix::activateInPlace(const BVExpr *Constraint,
                                      const std::vector<const BVExpr *> &ModelTerms,
                                      uint64_t ConflictBudget, Fuel *F) {
  return solveOn(Master, *Proto, Constraint, ModelTerms, ConflictBudget, F, 0);
}

} // namespace veriopt
