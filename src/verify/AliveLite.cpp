//===- AliveLite.cpp - Bounded translation validation -------------------------//

#include "verify/AliveLite.h"

#include "verify/RefinementQuery.h"

namespace veriopt {

const char *diagKindName(DiagKind K) {
  switch (K) {
  case DiagKind::None:
    return "none";
  case DiagKind::ParseError:
    return "parse-error";
  case DiagKind::StructureError:
    return "structure-error";
  case DiagKind::SignatureMismatch:
    return "signature-mismatch";
  case DiagKind::ValueMismatch:
    return "value-mismatch";
  case DiagKind::PoisonMismatch:
    return "poison-mismatch";
  case DiagKind::UBIntroduced:
    return "ub-introduced";
  case DiagKind::CallMismatch:
    return "call-mismatch";
  case DiagKind::SolverTimeout:
    return "solver-timeout";
  case DiagKind::Unsupported:
    return "unsupported";
  case DiagKind::LoopBound:
    return "loop-bound";
  case DiagKind::ResourceExhausted:
    return "resource-exhausted";
  }
  return "unknown";
}

const char *verifyStatusName(VerifyStatus S) {
  switch (S) {
  case VerifyStatus::Equivalent:
    return "equivalent";
  case VerifyStatus::NotEquivalent:
    return "not-equivalent";
  case VerifyStatus::SyntaxError:
    return "syntax-error";
  case VerifyStatus::Inconclusive:
    return "inconclusive";
  }
  return "unknown";
}

/// The implementation lives in RefinementQuery.cpp: both public entry
/// points build a fresh, exclusively-owned source encoding per call
/// (verifyCandidateText is defined there, beside the guard chain it shares
/// with verifyCandidateOn). BatchVerifier reuses the same machinery with one
/// shared encoding per group; the results are bit-identical by construction
/// (see RefinementQuery.h).

VerifyResult verifyRefinement(const Function &Src, const Function &Tgt,
                              const VerifyOptions &Opts) {
  auto SC = buildSourceEncoding(Src, Opts);
  return verifyAgainstEncoding(*SC, Tgt, Opts, /*Shared=*/false);
}

} // namespace veriopt
