//===- Sat.cpp - CDCL SAT solver ----------------------------------------------//

#include "smt/Sat.h"

#include <algorithm>
#include <cassert>

namespace veriopt {

// Reason sentinel: "decision / no reason". Never a valid arena offset.
static constexpr uint32_t NoReason = UINT32_MAX;
// HeapPos value of a variable that is not in the decision heap.
static constexpr unsigned NotInHeap = UINT32_MAX;

SatSolver::SatSolver() {
  // Var 0 is a dummy so variables are 1-based.
  Assign.push_back(LBool::Undef);
  SavedPhase.push_back(LBool::False);
  LevelOf.push_back(0);
  ReasonOf.push_back(NoReason);
  Frozen.push_back(0);
  Activity.push_back(0);
  HeapPos.push_back(NotInHeap);
  Seen.push_back(0);
  Watches.resize(2);
}

unsigned SatSolver::newVar() {
  unsigned V = static_cast<unsigned>(Assign.size());
  Assign.push_back(LBool::Undef);
  SavedPhase.push_back(LBool::False);
  LevelOf.push_back(0);
  ReasonOf.push_back(NoReason);
  Frozen.push_back(0);
  Activity.push_back(0);
  HeapPos.push_back(NotInHeap);
  Seen.push_back(0);
  Watches.resize(Watches.size() + 2);
  heapInsert(V);
  return V;
}

void SatSolver::setFrozen(unsigned Var, bool B) {
  assert(Var < Frozen.size() && "freezing an unallocated variable");
  Frozen[Var] = B ? 1 : 0;
  // Freezing leaves Var in the heap until it surfaces; thawing must put an
  // unassigned variable back.
  if (!B && Assign[Var] == LBool::Undef && HeapPos[Var] == NotInHeap)
    heapInsert(Var);
}

bool SatSolver::addLits(Lit *Ls, size_t N) {
  if (Unsatisfiable)
    return false;
  assert(TrailLim.empty() && "clauses must be added at decision level 0");

  // Normalize in place: drop duplicates and false literals; detect
  // tautologies and already-satisfied clauses. Ls[0..Out) is the result;
  // Out <= I, so no literal is overwritten before it is read.
  std::sort(Ls, Ls + N, [](Lit A, Lit B) { return A.Code < B.Code; });
  size_t Out = 0;
  for (size_t I = 0; I < N; ++I) {
    if (I + 1 < N && Ls[I] == Ls[I + 1])
      continue; // duplicate
    if (I + 1 < N && Ls[I].var() == Ls[I + 1].var())
      return true; // l and ~l: tautology
    LBool V = value(Ls[I]);
    if (V == LBool::True)
      return true; // satisfied at level 0
    if (V == LBool::False)
      continue; // falsified at level 0: drop
    Ls[Out++] = Ls[I];
  }

  if (Out == 0) {
    Unsatisfiable = true;
    return false;
  }
  if (Out == 1) {
    enqueue(Ls[0], NoReason);
    if (propagate() != NoReason) {
      Unsatisfiable = true;
      return false;
    }
    return true;
  }

  attachClause({Ls, Out});
  return true;
}

SatSolver::ClauseRef SatSolver::attachClause(std::span<const Lit> Ls) {
  assert(Ls.size() >= 2 && "attaching a short clause");
  assert(Arena.size() + 1 + Ls.size() < NoReason && "clause arena overflow");
  ClauseRef CR = static_cast<ClauseRef>(Arena.size());
  Lit Header;
  Header.Code = static_cast<unsigned>(Ls.size());
  Arena.push_back(Header);
  Arena.insert(Arena.end(), Ls.begin(), Ls.end());
  ++NumClauses;
  Watches[(~Ls[0]).Code].push_back({CR, Ls[1]});
  Watches[(~Ls[1]).Code].push_back({CR, Ls[0]});
  return CR;
}

void SatSolver::enqueue(Lit L, ClauseRef Reason) {
  assert(value(L) == LBool::Undef && "enqueueing an assigned literal");
  Assign[L.var()] = L.negated() ? LBool::False : LBool::True;
  LevelOf[L.var()] = static_cast<unsigned>(TrailLim.size());
  ReasonOf[L.var()] = Reason;
  Trail.push_back(L);
}

SatSolver::ClauseRef SatSolver::propagate() {
  while (QHead < Trail.size()) {
    Lit P = Trail[QHead++]; // P is true; visit watchers of ~P... (see below)
    ++Propagations;
    // Watches[P.Code] holds clauses watching ~P (attached via (~lit).Code),
    // i.e. clauses that may become unit now that P is true. Kept watches
    // are compacted to the front of the list in their original order.
    std::vector<Watch> &WList = Watches[P.Code];
    Watch *I = WList.data(), *Keep = I, *End = I + WList.size();
    while (I != End) {
      Watch W = *I++;
      // Blocker check: clause already satisfied.
      if (value(W.Blocker) == LBool::True) {
        *Keep++ = W;
        continue;
      }
      std::span<Lit> C = clause(W.CR);
      // Ensure the falsified literal is at slot 1.
      Lit FalseLit = ~P;
      if (C[0] == FalseLit)
        std::swap(C[0], C[1]);
      assert(C[1] == FalseLit && "watch list out of sync");
      // First watch true? Keep with updated blocker.
      if (value(C[0]) == LBool::True) {
        *Keep++ = {W.CR, C[0]};
        continue;
      }
      // Find a new literal to watch. Its list is never WList: the clause
      // holds no duplicate of the false literal ~P.
      bool Moved = false;
      for (size_t K = 2; K < C.size(); ++K) {
        if (value(C[K]) != LBool::False) {
          std::swap(C[1], C[K]);
          Watches[(~C[1]).Code].push_back({W.CR, C[0]});
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue; // watch moved elsewhere; drop from this list
      // Clause is unit or conflicting.
      *Keep++ = W;
      if (value(C[0]) == LBool::False) {
        // Conflict: restore remaining watches and report.
        Keep = std::copy(I, End, Keep);
        WList.resize(Keep - WList.data());
        QHead = Trail.size();
        return W.CR;
      }
      enqueue(C[0], W.CR);
    }
    WList.resize(Keep - WList.data());
  }
  return NoReason;
}

void SatSolver::heapInsert(unsigned V) {
  HeapPos[V] = static_cast<unsigned>(Heap.size());
  Heap.push_back(V);
  heapSiftUp(Heap.size() - 1);
}

void SatSolver::heapSiftUp(size_t I) {
  unsigned V = Heap[I];
  while (I > 0) {
    size_t Parent = (I - 1) / 2;
    if (!before(V, Heap[Parent]))
      break;
    Heap[I] = Heap[Parent];
    HeapPos[Heap[I]] = static_cast<unsigned>(I);
    I = Parent;
  }
  Heap[I] = V;
  HeapPos[V] = static_cast<unsigned>(I);
}

void SatSolver::heapSiftDown(size_t I) {
  unsigned V = Heap[I];
  size_t N = Heap.size();
  while (2 * I + 1 < N) {
    size_t Child = 2 * I + 1;
    if (Child + 1 < N && before(Heap[Child + 1], Heap[Child]))
      ++Child;
    if (!before(Heap[Child], V))
      break;
    Heap[I] = Heap[Child];
    HeapPos[Heap[I]] = static_cast<unsigned>(I);
    I = Child;
  }
  Heap[I] = V;
  HeapPos[V] = static_cast<unsigned>(I);
}

void SatSolver::heapPop() {
  HeapPos[Heap[0]] = NotInHeap;
  unsigned Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    heapSiftDown(0);
  }
}

void SatSolver::heapRebuild() {
  for (size_t I = Heap.size() / 2; I-- > 0;)
    heapSiftDown(I);
}

void SatSolver::bumpVar(unsigned V) {
  Activity[V] += ActivityInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    ActivityInc *= 1e-100;
    // Scaling may round distinct activities into ties (small ones all the
    // way to 0), which the index tie-break then orders differently than the
    // heap does: re-heapify rather than trust the old shape.
    heapRebuild();
  } else if (HeapPos[V] != NotInHeap) {
    heapSiftUp(HeapPos[V]);
  }
}

void SatSolver::decayActivities() { ActivityInc *= (1.0 / 0.95); }

unsigned SatSolver::analyze(ClauseRef Confl) {
  Learnt.clear();
  Learnt.push_back(Lit()); // slot for the asserting literal
  unsigned CurLevel = static_cast<unsigned>(TrailLim.size());
  int Counter = 0;
  Lit P;
  bool PValid = false;
  size_t Index = Trail.size();

  ClauseRef Reason = Confl;
  while (true) {
    assert(Reason != NoReason && "conflict analysis lost its reason");
    for (Lit Q : clause(Reason)) {
      if (PValid && Q == P)
        continue;
      unsigned V = Q.var();
      if (Seen[V] || LevelOf[V] == 0)
        continue;
      Seen[V] = 1;
      bumpVar(V);
      if (LevelOf[V] >= CurLevel)
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Walk the trail backwards to the next marked literal.
    while (!Seen[Trail[Index - 1].var()])
      --Index;
    --Index;
    P = Trail[Index];
    PValid = true;
    Reason = ReasonOf[P.var()];
    Seen[P.var()] = 0;
    if (--Counter == 0)
      break;
  }
  Learnt[0] = ~P;

  // Compute backtrack level (second-highest level in the clause).
  unsigned BtLevel = 0;
  if (Learnt.size() > 1) {
    size_t MaxI = 1;
    for (size_t I = 2; I < Learnt.size(); ++I)
      if (LevelOf[Learnt[I].var()] > LevelOf[Learnt[MaxI].var()])
        MaxI = I;
    std::swap(Learnt[1], Learnt[MaxI]);
    BtLevel = LevelOf[Learnt[1].var()];
  }
  for (Lit L : Learnt)
    Seen[L.var()] = 0;
  return BtLevel;
}

void SatSolver::analyzeFinal(Lit FailedAssump) {
  // The trail implies ~FailedAssump; collect the placed assumptions that
  // participate in that derivation (MiniSat's analyzeFinal). Every
  // reason-free trail literal above level 0 is an assumption placement:
  // analyzeFinal only runs from the placement loop, where all open decision
  // levels belong to assumptions.
  Core.clear();
  Core.push_back(FailedAssump);
  if (TrailLim.empty())
    return;
  Seen[FailedAssump.var()] = 1;
  for (size_t I = Trail.size(); I > TrailLim[0]; --I) {
    unsigned V = Trail[I - 1].var();
    if (!Seen[V])
      continue;
    if (ReasonOf[V] == NoReason) {
      Core.push_back(Trail[I - 1]);
    } else {
      for (Lit L : clause(ReasonOf[V]))
        if (L.var() != V && LevelOf[L.var()] > 0)
          Seen[L.var()] = 1;
    }
    Seen[V] = 0;
  }
  Seen[FailedAssump.var()] = 0;
}

void SatSolver::backtrack(unsigned Level) {
  if (TrailLim.size() <= Level)
    return;
  size_t Bound = TrailLim[Level];
  for (size_t I = Trail.size(); I > Bound; --I) {
    unsigned V = Trail[I - 1].var();
    SavedPhase[V] = Assign[V];
    Assign[V] = LBool::Undef;
    ReasonOf[V] = NoReason;
    if (HeapPos[V] == NotInHeap && !Frozen[V])
      heapInsert(V);
  }
  Trail.resize(Bound);
  TrailLim.resize(Level);
  QHead = Trail.size();
}

Lit SatSolver::pickBranchLit() {
  // Every unassigned unfrozen variable is in the heap, so the first such
  // variable to surface is the highest-activity one (lowest index on ties).
  unsigned Best = 0;
  while (!Heap.empty()) {
    unsigned V = Heap[0];
    if (Assign[V] == LBool::Undef && !Frozen[V]) {
      Best = V;
      break;
    }
    heapPop();
  }
  if (Best == 0) {
    // Only frozen variables (dormant group selectors) remain: decide them
    // last, so saved phases — false by default — deactivate their groups.
    // This scan runs once per frozen decision and once per complete
    // assignment, not per decision.
    double BestAct = -1;
    for (unsigned V = 1; V < Assign.size(); ++V)
      if (Assign[V] == LBool::Undef && Activity[V] > BestAct) {
        Best = V;
        BestAct = Activity[V];
      }
  }
  if (Best == 0)
    return Lit(); // everything assigned
  bool Neg = SavedPhase[Best] != LBool::True; // phase saving, default false
  return Lit(Best, Neg);
}

SatSolver::Result SatSolver::solve(uint64_t ConflictBudget, Fuel *F) {
  return solve(std::vector<Lit>(), ConflictBudget, F);
}

SatSolver::Result SatSolver::solve(const std::vector<Lit> &Assumptions,
                                   uint64_t ConflictBudget, Fuel *F) {
  uint64_t StartConflicts = Conflicts;
  uint64_t StartPropagations = Propagations;
  uint64_t StartDecisions = Decisions;
  LastAssumptions = 0;
  Core.clear();

  Result R;
  if (Unsatisfiable) {
    R = Result::Unsat;
  } else if (propagate() != NoReason) {
    // Pending top-level units conflicted: the trail is at level 0, so this
    // is a global contradiction independent of any assumption.
    Unsatisfiable = true;
    R = Result::Unsat;
  } else {
    R = search(Assumptions, ConflictBudget, F);
  }

  LastConflicts = Conflicts - StartConflicts;
  LastPropagations = Propagations - StartPropagations;
  LastDecisions = Decisions - StartDecisions;
  return R;
}

SatSolver::Result SatSolver::search(const std::vector<Lit> &Assumptions,
                                    uint64_t ConflictBudget, Fuel *F) {
  uint64_t RestartLimit = 100;
  uint64_t ConflictsSinceRestart = 0;
  uint64_t StartConflicts = Conflicts;

  while (true) {
    ClauseRef Confl = propagate();
    if (Confl != NoReason) {
      ++Conflicts;
      ++ConflictsSinceRestart;
      if (TrailLim.empty()) {
        // Conflict at level 0: no assumption is on the trail, so the
        // instance is unsatisfiable outright. Latch it so later calls
        // answer immediately instead of re-searching stale state.
        Unsatisfiable = true;
        return Result::Unsat;
      }
      if (ConflictBudget && Conflicts - StartConflicts >= ConflictBudget) {
        // Leave the solver reusable: a later solve() must not see a stale
        // conflicting trail.
        backtrack(0);
        return Result::Unknown;
      }
      if (F && !F->consume(fuel::SatConflict)) {
        backtrack(0);
        return Result::Unknown;
      }

      backtrack(analyze(Confl));
      if (Learnt.size() == 1)
        enqueue(Learnt[0], NoReason);
      else
        enqueue(Learnt[0], attachClause(Learnt));
      decayActivities();

      if (ConflictsSinceRestart >= RestartLimit) {
        ConflictsSinceRestart = 0;
        RestartLimit = RestartLimit + RestartLimit / 2; // geometric
        backtrack(0);
      }
      continue;
    }

    // No conflict. Re-place any assumptions not currently on the trail as
    // pseudo-decisions (they sit below every real decision and are
    // re-established here after each restart or backjump).
    Lit Next;
    while (TrailLim.size() < Assumptions.size()) {
      Lit A = Assumptions[TrailLim.size()];
      LBool V = value(A);
      if (V == LBool::True) {
        // Already implied: open a dummy level so decision-level indices
        // keep matching assumption indices.
        TrailLim.push_back(static_cast<unsigned>(Trail.size()));
        continue;
      }
      if (V == LBool::False) {
        // The trail refutes this assumption: unsat *under assumptions*.
        // Do not latch Unsatisfiable — other assumptions may succeed.
        analyzeFinal(A);
        backtrack(0);
        return Result::Unsat;
      }
      Next = A;
      break;
    }
    if (Next.Code == 0) {
      Next = pickBranchLit();
      if (Next.Code == 0) {
        // Complete assignment, no conflict: snapshot the model, then
        // release the trail so the solver stays reusable.
        Model = Assign;
        backtrack(0);
        return Result::Sat;
      }
    } else {
      ++LastAssumptions;
    }
    if (F && !F->consume(fuel::SatDecision)) {
      backtrack(0);
      return Result::Unknown;
    }
    ++Decisions;
    TrailLim.push_back(static_cast<unsigned>(Trail.size()));
    enqueue(Next, NoReason);
  }
}

bool SatSolver::modelValue(unsigned Var) const {
  assert(Var < Model.size() && "model query out of range");
  return Model[Var] == LBool::True;
}

} // namespace veriopt
