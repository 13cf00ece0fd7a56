//===- RefinementQuery.h - Shared-source refinement queries ------*- C++ -*-=//
//
// The incremental core under both verification front doors. A refinement
// query splits into a candidate-independent half (falsification runs of the
// source, its symbolic encoding, the list of source terms its CNF needs)
// and a per-candidate half; SourceEncoding captures the former so a group
// of candidates against one source — a GRPO group — pays for it once.
//
// Lifetimes. A source half lives for one call on the text paths and in
// evaluation, and for a whole training stage in the GRPO trainer, which
// keeps one per prompt and lends it to each group verified against that
// prompt. When a group ends, endGroup() rolls the half's context back to
// the mark its build left and drops the CNF prefix, so the next group
// starts from exactly the state a fresh build produces. The CNF prefix is
// blasted on demand: by the first candidate of a group whose constraint is
// not constant false, once per group, and never by a group that every
// candidate settles by falsification or folding.
//
// Bit-identity contract: for a fixed (source, candidate, options) triple,
// the verdict, DiagKind, diagnostic text, counterexample, SolverConflicts
// and FuelSpent are identical whether the encoding is built fresh per call
// (the sequential oracle, verifyRefinement / verifyCandidateText), shared
// across a group (BatchVerifier), or kept across groups (GRPOTrainer).
// A half is single-threaded: one group uses it at a time, on the calling
// thread; parallelism lives above it, in eval shards and rollout scoring.
// Four mechanisms make that hold:
//  - Fuel replay: the shared source-side work records its fuel charges
//    once; each candidate replays them against its own budget, so budget
//    exhaustion happens at exactly the point a fresh run would hit.
//  - Clone activation: the shared CNF prefix is never solved on directly by
//    group members; each candidate solves on an exact copy (QueryPrefix),
//    so SAT search trajectories — and conflict counts — match a fresh run.
//    The prefix charges no fuel, so when it is blasted does not matter.
//  - Structural interning: the shared BVContext hash-conses terms purely
//    structurally, so the terms a candidate builds are independent of which
//    other candidates built terms before it.
//  - Rollback: a kept half's context returns to its post-build mark after
//    every group (BVContext::rollback), so later groups see the nodes, keys
//    and variable ids of a fresh build.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_REFINEMENTQUERY_H
#define VERIOPT_VERIFY_REFINEMENTQUERY_H

#include "interp/Interpreter.h"
#include "smt/Solver.h"
#include "verify/AliveLite.h"
#include "verify/Candidate.h"
#include "verify/Encoder.h"

#include <memory>
#include <vector>

namespace veriopt {

/// Everything about a refinement query that does not depend on the
/// candidate: built once per (source, structural options) and shared by
/// every candidate in a group, or kept across groups. Budget knobs
/// (SolverConflictBudget, FuelBudget) are *not* baked in — the retry ladder
/// re-asks the same encoding under scaled budgets — but the structural
/// knobs (MaxPaths, unroll bound, FalsifyTrials, ...) are, and must match
/// at use sites.
struct SourceEncoding {
  const Function *Src = nullptr;
  VerifyOptions Opts; ///< options the encoding was built under

  BVContext Ctx;
  std::vector<const BVExpr *> ArgVars;
  ExternalWorld SrcWorld;
  FnEncoding SE;
  bool PointerParams = false; ///< any non-integer parameter

  /// One falsification trial's source half: the sampled arguments, the
  /// source execution under unlimited fuel, and the slice of FalsifyTrace
  /// holding its fuel charges.
  struct FalsifyTrial {
    std::vector<APInt64> Args;
    ExecResult SrcRes;
    size_t TraceBegin = 0, TraceEnd = 0;
  };
  std::vector<FalsifyTrial> Trials;
  std::vector<uint64_t> FalsifyTrace; ///< source interp charges, all trials
  std::vector<uint64_t> EncodeTrace;  ///< source symbolic-encode charges

  /// The source terms the CNF prefix blasts, in a fixed order: argument
  /// variables, world variables in map order, then the encoding's terms.
  /// Empty when the source encoding is unusable (pointer params,
  /// unsupported construct, no complete path) — every candidate resolves
  /// before reaching SAT in those cases.
  std::vector<const BVExpr *> PrefixTerms;
  /// The context as the build left it; endGroup() rolls back to here.
  BVContext::Mark Built;

  /// CNF of PrefixTerms, blasted on demand by the first candidate that
  /// reaches SAT and dropped by endGroup(); null until then.
  std::unique_ptr<QueryPrefix> Prefix;
};

/// Build the shared half for \p Src. Source-side fuel charges are recorded
/// under an unlimited token for later replay; structural limits still bound
/// the work. Emits the verify.source span and counts verify.source_builds.
std::unique_ptr<SourceEncoding> buildSourceEncoding(const Function &Src,
                                                    const VerifyOptions &Opts);

/// End a group's use of \p SC: forget the terms its candidates interned and
/// drop the CNF prefix, so the next group sees a freshly built half. Call it
/// once every group member has finished.
void endGroup(SourceEncoding &SC);

/// verifyCandidateText over a parsed Candidate and the group's source half:
/// the same guard chain in the same order (size, parse, no function,
/// instruction count, well-formedness) with the same diagnostic bytes,
/// verify.candidate span, and verify.* metrics, run on the Candidate's parse
/// instead of a fresh one. \p SC is the caller's slot for the half; an
/// empty slot is filled only after the guard chain passes, so candidates
/// rejected at the parse/screen stage never pay source-side work. The
/// candidate solves on a copy of the half's CNF prefix, which stays usable
/// for the rest of the group.
VerifyResult verifyCandidateOn(std::unique_ptr<SourceEncoding> &SC,
                               const Function &Src, const Candidate &Tgt,
                               const VerifyOptions &Opts);

} // namespace veriopt

#endif // VERIOPT_VERIFY_REFINEMENTQUERY_H
