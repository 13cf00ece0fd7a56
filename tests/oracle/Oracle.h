//===- Oracle.h - Independent verification and evaluation oracles -*- C++ -*-=//
//
// The plain implementations the production paths are differentially
// checked against. The tests, the differential benches and
// `veriopt-drive --tiny` share them; no production code calls them.
//
//  - verifyLadder: the retry ladder written out over plain
//    verifyCandidateText at each rung's tierOptions — no shared source
//    encoding, no cache, no dedupe. The OracleBudget / VerdictFlip fault
//    sites fire on the candidate's canonical tier-0 cache key, as
//    BatchVerifier documents.
//  - evaluateSerially: the serial greedy-eval loop over plain
//    verifyCandidateText.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TESTS_ORACLE_ORACLE_H
#define VERIOPT_TESTS_ORACLE_ORACLE_H

#include "pipeline/Evaluation.h"
#include "verify/BatchVerifier.h"

#include <algorithm>
#include <string>
#include <vector>

namespace veriopt {
namespace oracle {

inline VerifyResult verifyLadder(const std::string &SrcText,
                                 const Function &Src, const std::string &Text,
                                 const RobustVerifyOptions &O,
                                 FaultInjector *Faults = nullptr) {
  const std::string Key =
      VerifyCache::makeKey(SrcText, Text, tierOptions(O, 0));
  uint64_t Conflicts = 0, Fuel = 0;
  VerifyResult Final;
  for (unsigned Tier = 0; Tier < std::max(1u, O.MaxTiers); ++Tier) {
    VerifyResult R;
    if (Tier == 0 && Faults &&
        Faults->shouldInject(FaultSite::OracleBudget, Key)) {
      R.Status = VerifyStatus::Inconclusive;
      R.Kind = DiagKind::ResourceExhausted;
      R.Diagnostic = "Inconclusive: injected oracle budget exhaustion\n";
    } else {
      R = verifyCandidateText(Src, Text, tierOptions(O, Tier));
    }
    Conflicts += R.SolverConflicts;
    Fuel += R.FuelSpent;
    Final = std::move(R);
    Final.RetryTier = Tier;
    if (!retryable(Final))
      break;
  }
  const bool Definitive = Final.Status == VerifyStatus::Equivalent ||
                          Final.Status == VerifyStatus::NotEquivalent;
  if (Definitive && Faults &&
      Faults->shouldInject(FaultSite::VerdictFlip, Key)) {
    const bool WasEquivalent = Final.equivalent();
    Final.Status = WasEquivalent ? VerifyStatus::NotEquivalent
                                 : VerifyStatus::Equivalent;
    Final.Kind = WasEquivalent ? DiagKind::ValueMismatch : DiagKind::None;
    if (!WasEquivalent)
      Final.Counterexample.clear();
    Final.Diagnostic += "(injected verdict flip)\n";
  }
  Final.SolverConflicts = Conflicts;
  Final.FuelSpent = Fuel;
  return Final;
}

inline EvalResult
evaluateSerially(const RewritePolicyModel &Model,
                 const std::vector<Sample> &Valid, PromptMode Mode,
                 const VerifyOptions &VOpts = VerifyOptions()) {
  EvalResult R;
  R.ModelName = Model.config().Name;
  RNG Rng(0xE7A1); // greedy decoding ignores the stream
  for (const Sample &S : Valid) {
    Completion C = Model.generate(*S.source(), Mode, Rng, /*Greedy=*/true);
    VerifyResult Verdict;
    if (C.FormatOk)
      Verdict = verifyCandidateText(*S.source(), C.AnswerIR, VOpts);
    R.PerSample.push_back(
        evaluateCandidate(S, C, Candidate(C.AnswerIR), Verdict, R.Taxonomy));
  }
  recomputeAggregates(R);
  return R;
}

} // namespace oracle
} // namespace veriopt

#endif // VERIOPT_TESTS_ORACLE_ORACLE_H
