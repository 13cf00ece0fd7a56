//===- AliveLite.cpp - Bounded translation validation -------------------------//

#include "verify/AliveLite.h"

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

// verifyRefinement and verifyCandidateText live in RefinementQuery.cpp,
// beside the group path they are differentially checked against.

} // namespace veriopt
