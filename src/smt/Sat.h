//===- Sat.h - CDCL SAT solver -----------------------------------*- C++ -*-=//
//
// A compact conflict-driven clause-learning SAT solver: two-watched-literal
// propagation, VSIDS-style decaying activities with phase saving, first-UIP
// clause learning, and geometric restarts. It is the decision procedure
// underneath the bit-vector layer that stands in for Z3 in the Alive-lite
// translation validator.
//
// The solver is *incremental* in the MiniSat sense: clauses (including
// learned clauses) are retained across solve() calls, and a call may pass a
// list of assumption literals that are treated as pseudo-decisions below
// every real decision. An UNSAT answer under assumptions does not poison
// the solver — conflictCore() names the failed assumption subset and the
// next call may retry with different assumptions. Only a conflict at
// decision level 0 (no assumptions involved) latches the instance as
// globally unsatisfiable.
//
// Every solve() call returns with the trail backtracked to decision level 0
// (models are snapshotted first), so addClause()/solve() may be freely
// interleaved. Selector variables guarding group-local encodings should be
// marked with setFrozen(): frozen variables are branched on only after
// every unfrozen variable is assigned, so dormant groups stay deactivated
// (phase saving defaults selectors to false) instead of being speculatively
// activated mid-search.
//
// A conflict budget bounds each query; exhausting it returns Unknown, which
// the verifier surfaces as the paper's "Inconclusive" outcome.
//
// Data layout. Every clause lives in one literal arena: a header slot whose
// Code holds the clause size, then the literals. A clause is named by the
// arena offset of its header, so watches and reasons are plain integers and
// copying a solver (QueryPrefix clones its master per query) copies one
// array instead of one heap block per clause.
//
// Decision order. The next decision is the unassigned unfrozen variable with
// the highest activity, the lowest index breaking ties; once every unfrozen
// variable is assigned, the frozen ones follow in the same order. Unfrozen
// variables sit in a binary heap under (activity desc, index asc). A
// variable enters the heap when it is created, unfrozen, or unassigned by
// backtracking; assigned and frozen ones are dropped lazily when they reach
// the top. A bump sifts its variable up; the 1e-100 activity rescale can
// round distinct activities into ties (or to 0), so it re-heapifies.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SMT_SAT_H
#define VERIOPT_SMT_SAT_H

#include "support/Fuel.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace veriopt {

/// A literal: variable index (1-based) with a sign. Encoded as
/// 2*var + (negated ? 1 : 0) for dense array indexing.
struct Lit {
  unsigned Code = 0;

  Lit() = default;
  Lit(unsigned Var, bool Negated) : Code(2 * Var + (Negated ? 1 : 0)) {}

  unsigned var() const { return Code >> 1; }
  bool negated() const { return Code & 1; }
  Lit operator~() const {
    Lit L;
    L.Code = Code ^ 1;
    return L;
  }
  bool operator==(const Lit &O) const { return Code == O.Code; }
  bool operator!=(const Lit &O) const { return Code != O.Code; }
};

/// Three-valued assignment.
enum class LBool : uint8_t { False = 0, True = 1, Undef = 2 };

class SatSolver {
public:
  enum class Result { Sat, Unsat, Unknown };

  SatSolver();

  /// Allocate a fresh variable; returns its index (>= 1).
  unsigned newVar();

  unsigned numVars() const {
    return static_cast<unsigned>(Activity.size()) - 1; // var 0 is a dummy
  }
  unsigned numClauses() const { return NumClauses; }
  uint64_t conflicts() const { return Conflicts; }
  uint64_t propagations() const { return Propagations; }
  uint64_t decisions() const { return Decisions; }

  /// Per-call accounting: deltas accumulated by the most recent solve().
  uint64_t lastConflicts() const { return LastConflicts; }
  uint64_t lastPropagations() const { return LastPropagations; }
  uint64_t lastDecisions() const { return LastDecisions; }
  /// Assumption placements performed by the most recent solve() (counts
  /// re-placements after restarts and backjumps, so it measures how often
  /// the assumption prefix was rebuilt).
  uint64_t lastAssumptions() const { return LastAssumptions; }

  /// Exclude \p Var from normal branching: frozen variables (selector
  /// literals guarding a group-local encoding) are decided only once every
  /// unfrozen variable is assigned, so inactive groups stay deactivated
  /// (saved phase defaults to false) instead of being branched true
  /// mid-search. Assumptions may still assert frozen variables directly.
  void setFrozen(unsigned Var, bool B);

  /// Add a clause (disjunction of literals). Returns false if the formula
  /// became trivially unsatisfiable (empty clause / conflicting units).
  bool addClause(std::vector<Lit> Ls) { return addLits(Ls.data(), Ls.size()); }
  bool addClause(Lit A) { return addLits(&A, 1); }
  bool addClause(Lit A, Lit B) {
    Lit Ls[] = {A, B};
    return addLits(Ls, 2);
  }
  bool addClause(Lit A, Lit B, Lit C) {
    Lit Ls[] = {A, B, C};
    return addLits(Ls, 3);
  }

  /// Solve with a conflict budget (0 = unlimited). A non-null \p F is
  /// charged per decision and per conflict; when it runs dry the search
  /// stops with Unknown (the token latches the exhaustion, so callers can
  /// distinguish fuel-out from conflict-budget-out).
  Result solve(uint64_t ConflictBudget = 0, Fuel *F = nullptr);

  /// Solve under \p Assumptions: each literal is asserted as a
  /// pseudo-decision below all real decisions (and re-placed after every
  /// restart or backjump). Unsat means "unsatisfiable together with the
  /// assumptions"; conflictCore() then holds the failed subset. Clauses
  /// learned during the call are retained for later calls.
  Result solve(const std::vector<Lit> &Assumptions,
               uint64_t ConflictBudget = 0, Fuel *F = nullptr);

  /// After an Unsat answer: the subset of the assumptions that was refuted
  /// (their conjunction is inconsistent with the clauses). Empty when the
  /// instance is globally unsatisfiable independent of any assumption.
  const std::vector<Lit> &conflictCore() const { return Core; }

  /// Model access after Sat. The model is snapshotted before the solver
  /// backtracks, so it stays valid across later addClause()/solve() calls.
  bool modelValue(unsigned Var) const;
  bool modelValue(Lit L) const {
    return modelValue(L.var()) != L.negated();
  }

private:
  /// Arena offset of a clause's header slot.
  using ClauseRef = uint32_t;

  struct Watch {
    ClauseRef CR;
    Lit Blocker;
  };

  LBool value(Lit L) const {
    LBool V = Assign[L.var()];
    if (V == LBool::Undef)
      return V;
    return (V == LBool::True) != L.negated() ? LBool::True : LBool::False;
  }

  /// The literals of clause \p CR. Valid until the next clause is stored.
  std::span<Lit> clause(ClauseRef CR) {
    return {Arena.data() + CR + 1, Arena[CR].Code};
  }

  /// Normalize Ls[0..N) in place and add it (the addClause() contract).
  bool addLits(Lit *Ls, size_t N);
  /// Store a clause of two or more literals and watch its first two.
  ClauseRef attachClause(std::span<const Lit> Ls);
  void enqueue(Lit L, ClauseRef Reason);
  ClauseRef propagate();
  unsigned analyze(ClauseRef Confl);
  void analyzeFinal(Lit FailedAssump);
  void backtrack(unsigned Level);
  Lit pickBranchLit();
  void bumpVar(unsigned V);
  void decayActivities();
  Result search(const std::vector<Lit> &Assumptions, uint64_t ConflictBudget,
                Fuel *F);

  /// Decision heap: Heap[0] comes first under before().
  bool before(unsigned A, unsigned B) const {
    return Activity[A] > Activity[B] || (Activity[A] == Activity[B] && A < B);
  }
  void heapInsert(unsigned V);
  void heapSiftUp(size_t I);
  void heapSiftDown(size_t I);
  void heapPop();
  void heapRebuild();

  std::vector<Lit> Arena; // clause headers and literals
  unsigned NumClauses = 0;
  std::vector<std::vector<Watch>> Watches; // indexed by Lit code
  std::vector<LBool> Assign;               // per var
  std::vector<LBool> SavedPhase;           // per var
  std::vector<unsigned> LevelOf;           // per var
  std::vector<ClauseRef> ReasonOf;         // per var
  std::vector<uint8_t> Frozen;             // per var: deprioritized branching
  std::vector<Lit> Trail;
  std::vector<unsigned> TrailLim; // decision-level boundaries
  size_t QHead = 0;

  std::vector<double> Activity; // per var
  double ActivityInc = 1.0;
  std::vector<unsigned> Heap;    // all unassigned unfrozen vars (+ stale)
  std::vector<unsigned> HeapPos; // per var: slot in Heap, or NotInHeap
  std::vector<uint8_t> Seen;     // scratch for analyze()
  std::vector<Lit> Learnt;       // analyze()'s output, reused per conflict

  std::vector<LBool> Model; // snapshot of the last Sat assignment
  std::vector<Lit> Core;    // failed assumptions of the last Unsat

  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t Decisions = 0;
  uint64_t LastConflicts = 0;
  uint64_t LastPropagations = 0;
  uint64_t LastDecisions = 0;
  uint64_t LastAssumptions = 0;
  bool Unsatisfiable = false;
};

} // namespace veriopt

#endif // VERIOPT_SMT_SAT_H
