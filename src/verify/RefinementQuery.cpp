//===- RefinementQuery.cpp - Shared-source refinement queries -----------------//

#include "verify/RefinementQuery.h"

#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "support/RNG.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <map>
#include <sstream>

namespace veriopt {

namespace {

std::string header(const Function &Src) {
  std::ostringstream OS;
  OS << "----------------------------------------\n"
     << "define " << Src.getReturnType()->getName() << " @" << Src.getName()
     << "\n";
  return OS.str();
}

std::string renderBindings(const std::vector<CexBinding> &Bs) {
  std::ostringstream OS;
  OS << "\nExample:\n";
  for (const CexBinding &B : Bs)
    OS << B.Name << " = " << B.Value.toString() << "\n";
  return OS.str();
}

/// Argument names as the diagnostics print them: "i32 %x".
std::string argLabel(const Function &F, unsigned I) {
  std::string Name = F.getArg(I)->hasName()
                         ? "%" + F.getArg(I)->getName()
                         : "%" + std::to_string(I);
  return F.getParamType(I)->getName() + " " + Name;
}

/// Sequence-compare two interpreter call logs (per-callee order and args).
bool callLogsMatch(const std::vector<CallEvent> &A,
                   const std::vector<CallEvent> &B) {
  if (A.size() != B.size())
    return false;
  std::map<std::string, std::vector<const CallEvent *>> ByCalleeA, ByCalleeB;
  for (const auto &E : A)
    ByCalleeA[E.Callee].push_back(&E);
  for (const auto &E : B)
    ByCalleeB[E.Callee].push_back(&E);
  if (ByCalleeA.size() != ByCalleeB.size())
    return false;
  for (auto &[Name, ListA] : ByCalleeA) {
    auto It = ByCalleeB.find(Name);
    if (It == ByCalleeB.end() || It->second.size() != ListA.size())
      return false;
    for (size_t I = 0; I < ListA.size(); ++I)
      if (ListA[I]->Args != It->second[I]->Args)
        return false;
  }
  return true;
}

/// Random + adversarial inputs for the falsification pre-pass. The first
/// six sweeps are corner sweeps with a *per-argument* corner index
/// (staggered by argument position, so mixed patterns like (0, 1) or
/// (INT_MAX, all-ones) get tried, not just all-same-corner tuples); every
/// later sweep is fully random.
std::vector<APInt64> sampleArgs(const Function &F, RNG &R, unsigned Trial) {
  std::vector<APInt64> Args;
  for (unsigned I = 0; I < F.getNumParams(); ++I) {
    unsigned W = F.getParamType(I)->getBitWidth();
    if (Trial >= 6) {
      Args.push_back(APInt64(W, R.next()));
      continue;
    }
    switch ((Trial + I) % 6) {
    case 0:
      Args.push_back(APInt64::zero(W));
      break;
    case 1:
      Args.push_back(APInt64::one(W));
      break;
    case 2:
      Args.push_back(APInt64::allOnes(W));
      break;
    case 3:
      Args.push_back(APInt64::signedMin(W));
      break;
    case 4:
      Args.push_back(APInt64::signedMax(W));
      break;
    default:
      Args.push_back(APInt64(W, R.next()));
      break;
    }
  }
  return Args;
}

/// Try to refute equivalence with concrete executions before any SMT work.
/// The source halves were executed at build time under a recording token;
/// here each trial *replays* its source charges against the candidate's own
/// budget (so exhaustion lands exactly where a fresh run's source interp
/// would have stopped) and runs only the target for real.
bool falsify(const SourceEncoding &SC, const Function &Tgt,
             const VerifyOptions &Opts, Fuel &F, VerifyResult &Out) {
  const Function &Src = *SC.Src;
  if (SC.PointerParams)
    return false;
  assert(SC.Trials.size() >= Opts.FalsifyTrials &&
         "encoding built with fewer falsification trials than requested");
  InterpOptions IOpts;
  IOpts.FuelTok = &F;
  for (unsigned Trial = 0; Trial < Opts.FalsifyTrials; ++Trial) {
    if (F.exhausted())
      return false;
    const SourceEncoding::FalsifyTrial &T = SC.Trials[Trial];
    if (!F.replay(SC.FalsifyTrace, T.TraceBegin, T.TraceEnd))
      continue; // source would have timed out under this budget
    const ExecResult &SR = T.SrcRes;
    if (SR.St != ExecResult::Ok || SR.RetPoison)
      continue; // source undefined/poison: target is unconstrained
    ExecResult TR = interpret(Tgt, T.Args, IOpts);
    if (TR.St == ExecResult::Timeout || TR.St == ExecResult::Unsupported)
      continue;

    DiagKind Kind = DiagKind::None;
    std::string Detail;
    if (TR.St == ExecResult::UndefinedBehavior) {
      Kind = DiagKind::UBIntroduced;
      Detail = "Target has undefined behavior where source is defined (" +
               TR.Reason + ")";
    } else if (!callLogsMatch(SR.Calls, TR.Calls)) {
      Kind = DiagKind::CallMismatch;
      Detail = "Mismatch in external calls";
    } else if (TR.RetPoison) {
      Kind = DiagKind::PoisonMismatch;
      Detail = "Target returns poison where source is well-defined";
    } else if (!SR.IsVoid && SR.RetVal != TR.RetVal) {
      Kind = DiagKind::ValueMismatch;
      Detail = "Value mismatch";
    }
    if (Kind == DiagKind::None)
      continue;

    Out.Status = VerifyStatus::NotEquivalent;
    Out.Kind = Kind;
    Out.FoundByFalsification = true;
    for (unsigned I = 0; I < Src.getNumParams(); ++I)
      Out.Counterexample.push_back({argLabel(Src, I), T.Args[I]});
    std::ostringstream OS;
    OS << header(Src) << "Transformation doesn't verify!\nERROR: " << Detail
       << "\n"
       << renderBindings(Out.Counterexample);
    if (Kind == DiagKind::ValueMismatch) {
      OS << "Source value: " << SR.RetVal.toString() << "\n"
         << "Target value: " << TR.RetVal.toString() << "\n";
    }
    Out.Diagnostic = OS.str();
    return true;
  }
  return false;
}

VerifyResult exhaustedResult(const Function &Src) {
  VerifyResult Out;
  Out.Status = VerifyStatus::Inconclusive;
  Out.Kind = DiagKind::ResourceExhausted;
  Out.Diagnostic =
      header(Src) + "Inconclusive: verification fuel budget exhausted\n";
  return Out;
}

/// The source half's CNF, blasted by the first caller — in a group, the
/// first member whose constraint is not constant false — and reused by the
/// rest of the group.
QueryPrefix &prefixOf(SourceEncoding &SC) {
  if (!SC.Prefix) {
    TRACE_SPAN("verify.prefix");
    static Counter &Builds =
        MetricsRegistry::global().counter("smt.prefix_builds");
    Builds.inc();
    assert(!SC.PrefixTerms.empty() &&
           "usable source encoding must list its prefix terms");
    SC.Prefix = std::make_unique<QueryPrefix>(SC.Ctx, SC.PrefixTerms);
  }
  return *SC.Prefix;
}

/// \p Shared: the half serves a group, so the candidate solves on a copy of
/// the prefix (crediting smt.clauses_retained) and leaves the master for
/// the next member; otherwise the half is private and consumed in place.
VerifyResult verifyAgainstEncodingImpl(SourceEncoding &SC, const Function &Tgt,
                                       const VerifyOptions &Opts, Fuel &F,
                                       bool Shared) {
  const Function &Src = *SC.Src;
  VerifyResult Out;

  // Signatures must match exactly.
  bool SigOk = Src.getReturnType() == Tgt.getReturnType() &&
               Src.getNumParams() == Tgt.getNumParams();
  if (SigOk)
    for (unsigned I = 0; I < Src.getNumParams(); ++I)
      SigOk = SigOk && Src.getParamType(I) == Tgt.getParamType(I);
  if (!SigOk) {
    Out.Status = VerifyStatus::NotEquivalent;
    Out.Kind = DiagKind::SignatureMismatch;
    Out.Diagnostic = header(Src) +
                     "Transformation doesn't verify!\n"
                     "ERROR: Source and target signatures differ\n";
    return Out;
  }

  // Cheap refutation first (ablation: micro_components measures the win).
  if (Opts.FalsifyTrials > 0) {
    TRACE_SPAN("verify.falsify");
    if (falsify(SC, Tgt, Opts, F, Out))
      return Out;
  }
  if (F.exhausted())
    return exhaustedResult(Src);

  if (SC.PointerParams) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::Unsupported;
    Out.Diagnostic = "Inconclusive: pointer-typed parameters are outside "
                     "the symbolic model\n";
    return Out;
  }

  // Replay the source encode's charges, then encode the target into the
  // shared context.
  FnEncoding TE;
  ExternalWorld World; // per-candidate copy of the source world
  bool SrcFuelOut = false;
  {
    TRACE_SPAN("verify.encode");
    if (!F.replay(SC.EncodeTrace, 0, SC.EncodeTrace.size())) {
      // A fresh run encodes the source first; once its tank runs dry the
      // target encoder still charges its first block visit before
      // noticing. Reproduce that one charge so FuelSpent matches.
      F.consume(fuel::EncodeBlockVisit);
      SrcFuelOut = true;
    } else {
      World = SC.SrcWorld;
      EncodeLimits Limits;
      Limits.MaxPaths = Opts.MaxPaths;
      Limits.MaxBlockVisitsPerPath = Opts.MaxBlockVisitsPerPath;
      Limits.MaxStepsPerPath = Opts.MaxStepsPerPath;
      Limits.FuelTok = &F;
      TE = encodeFunction(Tgt, SC.Ctx, SC.ArgVars, World, Limits);
    }
  }

  if (SrcFuelOut || TE.FuelOut)
    return exhaustedResult(Src);
  const FnEncoding &SE = SC.SE;
  if (SE.Unsupported || TE.Unsupported) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::Unsupported;
    Out.Diagnostic =
        "Inconclusive: " +
        (SE.Unsupported ? SE.UnsupportedWhy : TE.UnsupportedWhy) + "\n";
    return Out;
  }

  // No execution completed within the bound (e.g. the candidate loops
  // forever): nothing can be claimed, even in bounded mode.
  if (SE.Paths.empty() || TE.Paths.empty()) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::LoopBound;
    Out.Diagnostic =
        "Inconclusive: no execution path completes within the unroll "
        "bound\n";
    return Out;
  }

  BVContext &Ctx = SC.Ctx;
  const bool Truncated = !SE.Truncated->isFalse() || !TE.Truncated->isFalse();
  if (Truncated && Opts.StrictLoops) {
    Out.Status = VerifyStatus::Inconclusive;
    Out.Kind = DiagKind::LoopBound;
    Out.Diagnostic = "Inconclusive: loop unroll bound reached\n";
    return Out;
  }

  // Assumption region: inputs where both sides stayed within the unroll
  // bound (bounded translation validation, as in Alive2).
  const BVExpr *InBound =
      Ctx.and1(Ctx.not1(SE.Truncated), Ctx.not1(TE.Truncated));

  // Call-trace matching per (callee, occurrence).
  const BVExpr *CallMismatch = Ctx.falseVal();
  {
    std::map<std::pair<std::string, unsigned>,
             std::pair<std::vector<const CallRecord *>,
                       std::vector<const CallRecord *>>>
        ByKey;
    for (const CallRecord &Rec : SE.Calls)
      ByKey[{Rec.Callee, Rec.Index}].first.push_back(&Rec);
    for (const CallRecord &Rec : TE.Calls)
      ByKey[{Rec.Callee, Rec.Index}].second.push_back(&Rec);
    for (auto &[Key, Lists] : ByKey) {
      const BVExpr *SrcExec = Ctx.falseVal();
      for (const CallRecord *Rec : Lists.first)
        SrcExec = Ctx.or1(SrcExec, Rec->Guard);
      const BVExpr *TgtExec = Ctx.falseVal();
      for (const CallRecord *Rec : Lists.second)
        TgtExec = Ctx.or1(TgtExec, Rec->Guard);
      CallMismatch = Ctx.or1(CallMismatch, Ctx.ne(SrcExec, TgtExec));
      // Where both execute, arguments must agree.
      for (const CallRecord *SRec : Lists.first)
        for (const CallRecord *TRec : Lists.second) {
          const BVExpr *Both = Ctx.and1(SRec->Guard, TRec->Guard);
          if (Both->isFalse())
            continue;
          const BVExpr *ArgsDiffer = Ctx.falseVal();
          if (SRec->Args.size() != TRec->Args.size()) {
            ArgsDiffer = Ctx.trueVal();
          } else {
            for (size_t I = 0; I < SRec->Args.size(); ++I)
              ArgsDiffer =
                  Ctx.or1(ArgsDiffer, Ctx.ne(SRec->Args[I], TRec->Args[I]));
          }
          CallMismatch = Ctx.or1(CallMismatch, Ctx.and1(Both, ArgsDiffer));
        }
    }
  }

  // Refinement violation condition.
  const BVExpr *SrcDefined = Ctx.not1(SE.UB);
  const BVExpr *Violation = TE.UB;
  Violation = Ctx.or1(Violation, CallMismatch);
  const BVExpr *ValueViol = Ctx.falseVal();
  const BVExpr *PoisonViol = Ctx.falseVal();
  const BVExpr *RetS = nullptr, *RetT = nullptr; // null for void
  if (!Src.getReturnType()->isVoid()) {
    RetS = SE.returnTerm(Ctx);
    RetT = TE.returnTerm(Ctx);
    const BVExpr *PoisS = SE.returnPoison(Ctx);
    const BVExpr *PoisT = TE.returnPoison(Ctx);
    assert(RetS && RetT && "non-void function without return paths");
    // When the source's return is non-poison, the target must return the
    // same non-poison value; a poison source return refines to anything.
    PoisonViol = Ctx.and1(Ctx.not1(PoisS), PoisT);
    ValueViol = Ctx.and1(Ctx.not1(PoisS),
                         Ctx.and1(Ctx.not1(PoisT), Ctx.ne(RetS, RetT)));
    Violation = Ctx.or1(Violation, Ctx.or1(PoisonViol, ValueViol));
  }
  const BVExpr *Cex = Ctx.and1(InBound, Ctx.and1(SrcDefined, Violation));

  // Extract a model over the arguments AND the external world so the
  // counterexample classification/rendering evaluates under the same
  // assignment the SAT solver found.
  std::vector<const BVExpr *> ModelTerms = SC.ArgVars;
  for (const BVExpr *WV : World.vars())
    ModelTerms.push_back(WV);

  // The prefix is blasted outside the verify.sat span, which times the
  // search alone.
  QueryPrefix *Prefix = Cex->isFalse() ? nullptr : &prefixOf(SC);
  SmtCheck Res;
  {
    TraceSpan SatSpan("verify.sat");
    if (!Prefix)
      Res.St = SmtCheck::Unsat; // checkSat's trivial short-circuit
    else
      Res = Shared ? Prefix->activate(Cex, ModelTerms,
                                      Opts.SolverConflictBudget, &F)
                   : Prefix->activateInPlace(Cex, ModelTerms,
                                             Opts.SolverConflictBudget, &F);
    SatSpan.arg(TraceArg::ofStr("result", Res.St == SmtCheck::Sat ? "sat"
                                          : Res.St == SmtCheck::Unsat
                                              ? "unsat"
                                              : "unknown"));
    SatSpan.arg(TraceArg::ofInt("conflicts",
                                static_cast<int64_t>(Res.Conflicts)));
  }
  Out.SolverConflicts = Res.Conflicts;

  if (Res.St == SmtCheck::Unknown) {
    Out.Status = VerifyStatus::Inconclusive;
    if (F.exhausted()) {
      Out.Kind = DiagKind::ResourceExhausted;
      Out.Diagnostic =
          header(Src) + "Inconclusive: verification fuel budget exhausted\n";
    } else {
      Out.Kind = DiagKind::SolverTimeout;
      Out.Diagnostic = "Inconclusive: SMT solver budget exhausted\n";
    }
    return Out;
  }

  if (Res.St == SmtCheck::Unsat) {
    Out.Status = VerifyStatus::Equivalent;
    Out.Kind = DiagKind::None;
    Out.BoundedOnly = Truncated;
    std::ostringstream OS;
    OS << header(Src) << "Transformation seems to be correct!";
    if (Truncated)
      OS << " (within unroll bound " << Opts.MaxBlockVisitsPerPath << ")";
    OS << "\n";
    Out.Diagnostic = OS.str();
    return Out;
  }

  // SAT: counterexample. Classify by evaluating the sub-conditions.
  Out.Status = VerifyStatus::NotEquivalent;
  auto evalTrue = [&](const BVExpr *E) {
    return Ctx.evaluate(E, Res.Model).isOne();
  };
  if (evalTrue(TE.UB))
    Out.Kind = DiagKind::UBIntroduced;
  else if (evalTrue(CallMismatch))
    Out.Kind = DiagKind::CallMismatch;
  else if (evalTrue(PoisonViol))
    Out.Kind = DiagKind::PoisonMismatch;
  else
    Out.Kind = DiagKind::ValueMismatch;

  for (unsigned I = 0; I < Src.getNumParams(); ++I) {
    APInt64 V = Res.Model.count(SC.ArgVars[I]->VarId)
                    ? Res.Model[SC.ArgVars[I]->VarId]
                    : APInt64::zero(SC.ArgVars[I]->Width);
    Out.Counterexample.push_back({argLabel(Src, I), V});
  }

  std::ostringstream OS;
  OS << header(Src) << "Transformation doesn't verify!\nERROR: ";
  switch (Out.Kind) {
  case DiagKind::UBIntroduced:
    OS << "Target is more poisonous/undefined than source";
    break;
  case DiagKind::CallMismatch:
    OS << "Mismatch in external calls";
    break;
  case DiagKind::PoisonMismatch:
    OS << "Target returns poison where source is well-defined";
    break;
  default:
    OS << "Value mismatch";
    break;
  }
  OS << "\n" << renderBindings(Out.Counterexample);
  if (Out.Kind == DiagKind::ValueMismatch &&
      !Src.getReturnType()->isVoid()) {
    OS << "Source value: " << Ctx.evaluate(RetS, Res.Model).toString()
       << "\n"
       << "Target value: " << Ctx.evaluate(RetT, Res.Model).toString()
       << "\n";
  }
  Out.Diagnostic = OS.str();
  return Out;
}

/// Verify \p Tgt against the prebuilt encoding: the same verdicts,
/// diagnostics, conflict counts and FuelSpent as a fresh verifyRefinement,
/// whichever way the prefix is activated (see \p Shared above).
VerifyResult verifyAgainstEncoding(SourceEncoding &SC, const Function &Tgt,
                                   const VerifyOptions &Opts, bool Shared) {
  assert(SC.Opts.MaxPaths == Opts.MaxPaths &&
         SC.Opts.MaxBlockVisitsPerPath == Opts.MaxBlockVisitsPerPath &&
         SC.Opts.MaxStepsPerPath == Opts.MaxStepsPerPath &&
         SC.Opts.StrictLoops == Opts.StrictLoops &&
         SC.Opts.FalsifyTrials == Opts.FalsifyTrials &&
         "structural options must match the encoding; only budgets may vary");
  // One fuel token per verification: a deterministic total-work bound that
  // is independent of thread count and wall clock, so identical queries
  // yield bit-identical results everywhere.
  Fuel F(Opts.FuelBudget);
  VerifyResult Out = verifyAgainstEncodingImpl(SC, Tgt, Opts, F, Shared);
  Out.FuelSpent = F.spent();
  return Out;
}
} // namespace

std::unique_ptr<SourceEncoding> buildSourceEncoding(const Function &Src,
                                                    const VerifyOptions &Opts) {
  TRACE_SPAN("verify.source");
  static Counter &Builds =
      MetricsRegistry::global().counter("verify.source_builds");
  Builds.inc();
  auto SC = std::make_unique<SourceEncoding>();
  SC->Src = &Src;
  SC->Opts = Opts;

  for (unsigned I = 0; I < Src.getNumParams(); ++I)
    if (!Src.getParamType(I)->isInteger())
      SC->PointerParams = true;

  // Falsification source halves: run every trial once under an unlimited
  // recording token. The per-candidate pass replays each trial's charges
  // against its own budget, so sharing these runs never moves the point
  // where a given budget exhausts. Argument sampling consumes the RNG only
  // inside sampleArgs, so trial k's arguments are what a fresh run draws.
  if (Opts.FalsifyTrials > 0 && !SC->PointerParams) {
    RNG R(0xA11CE + Src.getNumParams());
    Fuel Rec;
    Rec.setTrace(&SC->FalsifyTrace);
    InterpOptions IOpts;
    IOpts.FuelTok = &Rec;
    for (unsigned Trial = 0; Trial < Opts.FalsifyTrials; ++Trial) {
      SourceEncoding::FalsifyTrial T;
      T.Args = sampleArgs(Src, R, Trial);
      T.TraceBegin = SC->FalsifyTrace.size();
      T.SrcRes = interpret(Src, T.Args, IOpts);
      T.TraceEnd = SC->FalsifyTrace.size();
      SC->Trials.push_back(std::move(T));
    }
  }
  if (SC->PointerParams)
    return SC; // every candidate resolves before needing the terms

  for (unsigned I = 0; I < Src.getNumParams(); ++I)
    SC->ArgVars.push_back(
        SC->Ctx.var(Src.getParamType(I)->getBitWidth(), argLabel(Src, I)));

  Fuel Rec;
  Rec.setTrace(&SC->EncodeTrace);
  EncodeLimits Limits;
  Limits.MaxPaths = Opts.MaxPaths;
  Limits.MaxBlockVisitsPerPath = Opts.MaxBlockVisitsPerPath;
  Limits.MaxStepsPerPath = Opts.MaxStepsPerPath;
  Limits.FuelTok = &Rec;
  SC->SE = encodeFunction(Src, SC->Ctx, SC->ArgVars, SC->SrcWorld, Limits);

  // List the source terms of the CNF prefix when candidates can actually
  // reach SAT with it; prefixOf() blasts them on first need. Interning the
  // return terms here keeps them below the mark.
  if (!SC->SE.Unsupported && !SC->SE.Paths.empty()) {
    std::vector<const BVExpr *> &Terms = SC->PrefixTerms;
    Terms = SC->ArgVars;
    for (const BVExpr *WV : SC->SrcWorld.vars())
      Terms.push_back(WV);
    Terms.push_back(SC->SE.Truncated);
    Terms.push_back(SC->SE.UB);
    if (!Src.getReturnType()->isVoid()) {
      Terms.push_back(SC->SE.returnTerm(SC->Ctx));
      Terms.push_back(SC->SE.returnPoison(SC->Ctx));
    }
    for (const CallRecord &Rec2 : SC->SE.Calls) {
      Terms.push_back(Rec2.Guard);
      for (const BVExpr *A : Rec2.Args)
        Terms.push_back(A);
    }
  }
  SC->Built = SC->Ctx.mark();
  return SC;
}

void endGroup(SourceEncoding &SC) {
  SC.Prefix.reset();
  SC.Ctx.rollback(SC.Built);
}

/// The guard chain's first rung, which needs only the text's size: refuse a
/// pathologically large candidate before it is parsed.
static bool rejectOversized(const Function &Src, size_t Bytes,
                            const VerifyOptions &Opts, VerifyResult &Out) {
  if (Opts.MaxCandidateBytes == 0 || Bytes <= Opts.MaxCandidateBytes)
    return false;
  Out.Status = VerifyStatus::SyntaxError;
  Out.Kind = DiagKind::ParseError;
  Out.Diagnostic = header(Src) + "ERROR: Candidate exceeds maximum size (" +
                   std::to_string(Bytes) + " > " +
                   std::to_string(Opts.MaxCandidateBytes) + " bytes)\n";
  return true;
}

/// The rest of the guard chain over a parse (\p M null when the text did not
/// parse, with \p ParseError rendered). Returns the function to verify, or
/// null with the rejection in \p Out.
static const Function *screenParsed(const Function &Src, const Module *M,
                                    const std::string &ParseError,
                                    const VerifyOptions &Opts,
                                    VerifyResult &Out) {
  if (!M) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::ParseError;
    Out.Diagnostic = header(Src) + "ERROR: Could not parse transformed IR (" +
                     ParseError + ")\n";
    return nullptr;
  }
  const Function *Tgt = M->getMainFunction();
  if (!Tgt) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::ParseError;
    Out.Diagnostic =
        header(Src) + "ERROR: Transformed IR contains no function\n";
    return nullptr;
  }
  if (Opts.MaxCandidateInsts > 0 &&
      Tgt->instructionCount() > Opts.MaxCandidateInsts) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::StructureError;
    Out.Diagnostic = header(Src) +
                     "ERROR: Candidate exceeds maximum function size (" +
                     std::to_string(Tgt->instructionCount()) + " > " +
                     std::to_string(Opts.MaxCandidateInsts) +
                     " instructions)\n";
    return nullptr;
  }
  std::string Err;
  if (!isWellFormed(*Tgt, &Err)) {
    Out.Status = VerifyStatus::SyntaxError;
    Out.Kind = DiagKind::StructureError;
    Out.Diagnostic =
        header(Src) + "ERROR: Transformed IR is ill-formed (" + Err + ")\n";
    return nullptr;
  }
  return Tgt;
}

/// The verify.candidate span and the verify.* metrics around \p Verify.
template <typename VerifyFn>
static VerifyResult recordCandidateVerdict(VerifyFn &&Verify) {
  TraceSpan Span("verify.candidate");
  VerifyResult Out = Verify();
  if (Span.active()) {
    Span.arg(TraceArg::ofStr("status", verifyStatusName(Out.Status)));
    Span.arg(TraceArg::ofStr("diag", diagKindName(Out.Kind)));
    Span.arg(TraceArg::ofInt("conflicts",
                             static_cast<int64_t>(Out.SolverConflicts)));
    Span.arg(TraceArg::ofInt("fuel", static_cast<int64_t>(Out.FuelSpent)));
    Span.arg(TraceArg::ofBool("falsified", Out.FoundByFalsification));
    Span.arg(TraceArg::ofBool("bounded_only", Out.BoundedOnly));
  }

  // The ad-hoc aggregates previously scattered over TrainLogEntry /
  // PipelineArtifacts now also land in the process-wide registry.
  MetricsRegistry &M = MetricsRegistry::global();
  static Counter &Queries = M.counter("verify.queries");
  static Histogram &Conflicts =
      M.histogram("verify.conflicts", workUnitBounds());
  static Histogram &FuelSpent = M.histogram("verify.fuel", workUnitBounds());
  Queries.inc();
  Conflicts.observe(static_cast<double>(Out.SolverConflicts));
  FuelSpent.observe(static_cast<double>(Out.FuelSpent));
  M.counter(std::string("verify.verdict.") + verifyStatusName(Out.Status))
      .inc();
  M.counter(std::string("verify.diag.") + diagKindName(Out.Kind)).inc();
  if (Out.FoundByFalsification)
    M.counter("verify.falsify_wins").inc();

  return Out;
}

// The reference path: verifyRefinement and verifyCandidateText build a
// private source half per call and solve on its master prefix in place.
// The group path (verifyCandidateOn) solves on copies of a shared prefix;
// the two are bit-identical by construction, and the differential gates
// compare them.

VerifyResult verifyRefinement(const Function &Src, const Function &Tgt,
                              const VerifyOptions &Opts) {
  auto SC = buildSourceEncoding(Src, Opts);
  return verifyAgainstEncoding(*SC, Tgt, Opts, /*Shared=*/false);
}

VerifyResult verifyCandidateText(const Function &Src,
                                 const std::string &TgtText,
                                 const VerifyOptions &Opts) {
  return recordCandidateVerdict([&] {
    VerifyResult Out;
    if (rejectOversized(Src, TgtText.size(), Opts, Out))
      return Out;
    auto M = parseModule(TgtText);
    const Function *Tgt =
        M ? screenParsed(Src, M.value().get(), "", Opts, Out)
          : screenParsed(Src, nullptr, M.error().render(), Opts, Out);
    return Tgt ? verifyRefinement(Src, *Tgt, Opts) : Out;
  });
}

VerifyResult verifyCandidateOn(std::unique_ptr<SourceEncoding> &SC,
                               const Function &Src, const Candidate &Tgt,
                               const VerifyOptions &Opts) {
  return recordCandidateVerdict([&] {
    VerifyResult Out;
    if (rejectOversized(Src, Tgt.text().size(), Opts, Out))
      return Out;
    const Function *T =
        screenParsed(Src, Tgt.module(), Tgt.parseError(), Opts, Out);
    if (!T)
      return Out;
    // Only now is source-side work unavoidable; guard failures above never
    // pay it.
    if (!SC)
      SC = buildSourceEncoding(Src, Opts);
    return verifyAgainstEncoding(*SC, *T, Opts, /*Shared=*/true);
  });
}

} // namespace veriopt
