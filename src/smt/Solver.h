//===- Solver.h - Bit-vector satisfiability queries --------------*- C++ -*-=//
//
// Two front doors over the CDCL core:
//  - checkSat(): the classic one-shot query (fresh solver per call).
//  - QueryPrefix: an incremental query template for group verification. A
//    fixed, candidate-independent list of terms (the source half of a
//    refinement query) is bit-blasted once into a master solver; each
//    candidate then activates the prefix — blasting only its own terms on
//    top and asserting the query behind a frozen selector assumption.
//    Activations never solve on the master, so every activation starts from
//    the same search state and the answer is a pure function of
//    (prefix, candidate, budget): bit-identical to building the same CNF
//    from scratch, in any activation order.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SMT_SOLVER_H
#define VERIOPT_SMT_SOLVER_H

#include "smt/BitBlaster.h"
#include "smt/BVExpr.h"
#include "support/Fuel.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace veriopt {

/// Result of a checkSat query.
struct SmtCheck {
  enum Status { Sat, Unsat, Unknown } St = Unknown;
  /// Satisfying assignment (VarId -> value) for the requested terms.
  std::unordered_map<unsigned, APInt64> Model;
  uint64_t Conflicts = 0; ///< SAT search effort actually spent
};

/// Decide satisfiability of a width-1 constraint. \p ModelTerms lists the
/// Var terms whose values should be reported on Sat. \p ConflictBudget
/// bounds the search (0 = unlimited); exhaustion reports Unknown, which the
/// verifier maps to the paper's Inconclusive outcome. A non-null \p F is
/// the shared verification fuel token: the search also stops (Unknown) when
/// it runs dry, with the exhaustion latched on the token.
SmtCheck checkSat(BVContext &Ctx, const BVExpr *Constraint,
                  const std::vector<const BVExpr *> &ModelTerms = {},
                  uint64_t ConflictBudget = DefaultSolverConflictBudget,
                  Fuel *F = nullptr);

/// A retained CNF prefix shared by a group of related queries. Construction
/// blasts \p PrefixTerms into the master solver; activate() stamps out a
/// copy per candidate, extends it with the candidate's terms, and solves
/// the constraint under a selector assumption. The context is only *read*
/// during activation (every constraint term must already be interned).
class QueryPrefix {
public:
  QueryPrefix(BVContext &Ctx, const std::vector<const BVExpr *> &PrefixTerms);

  /// Clauses a clone inherits instead of re-emitting (the reuse the
  /// smt.clauses_retained metric counts).
  unsigned numClauses() const { return Master.numClauses(); }

  /// Copy the master solver, blast \p ModelTerms then \p Constraint on top,
  /// add (Sel -> Constraint) with a fresh frozen selector Sel, and solve
  /// under the assumption Sel. Emits the same smt.* metrics as checkSat
  /// plus smt.assumption_solves, and credits the inherited prefix clauses
  /// to smt.clauses_retained.
  SmtCheck activate(const BVExpr *Constraint,
                    const std::vector<const BVExpr *> &ModelTerms,
                    uint64_t ConflictBudget, Fuel *F) const;

  /// One-shot variant for sequential callers that build a fresh prefix per
  /// query: solves directly on the master (skipping the copy). The prefix
  /// must not be activated again afterwards. Results are bit-identical to
  /// activate() — the copy there is exact, so both run the same search.
  SmtCheck activateInPlace(const BVExpr *Constraint,
                           const std::vector<const BVExpr *> &ModelTerms,
                           uint64_t ConflictBudget, Fuel *F);

private:
  static SmtCheck solveOn(SatSolver &S, BitBlaster &BB,
                          const BVExpr *Constraint,
                          const std::vector<const BVExpr *> &ModelTerms,
                          uint64_t ConflictBudget, Fuel *F,
                          uint64_t RetainedClauses);

  BVContext &Ctx;
  SatSolver Master;
  std::unique_ptr<BitBlaster> Proto;
};

} // namespace veriopt

#endif // VERIOPT_SMT_SOLVER_H
