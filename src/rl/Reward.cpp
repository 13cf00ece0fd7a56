//===- Reward.cpp - Verifier-guided reward functions ---------------------------//

#include "rl/Reward.h"

#include "cost/CostModel.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include "textgen/Bleu.h"
#include "trace/Metrics.h"

#include <algorithm>
#include <cmath>

namespace veriopt {

/// A copy that has been re-wrapped in whitespace or renumbered values must
/// still count as a copy, or the copy penalty / CopyRate stat is evaded by
/// cosmetic edits. Compare the re-printed parse (names kept) with the
/// sample's printed source; an answer that does not parse is a copy only
/// byte for byte.
bool AnswerTerms::isCopy(const Sample &S, const Candidate &Answer) const {
  std::call_once(CopyOnce, [&] {
    const Function *F = Answer.function();
    Copy = Answer.text() == S.SrcText ||
           (F && printFunction(*F) == S.SrcText);
  });
  return Copy;
}

double AnswerTerms::bleu(const Sample &S, const Candidate &Answer) const {
  std::call_once(BleuOnce, [&] {
    static Counter &Scorings =
        MetricsRegistry::global().counter("reward.bleu");
    Scorings.inc();
    Bleu = S.refBleu().score(Answer.text());
  });
  return Bleu;
}

RewardBreakdown answerChecks(const Sample &S, const Completion &C,
                             const RolloutAnswer &Answer,
                             const VerifyResult &Verdict) {
  RewardBreakdown Out;
  Out.FormatOk = C.FormatOk;
  Out.IsCopy = Answer.Terms.isCopy(S, Answer.Parse);

  if (Out.FormatOk) {
    Out.Verify = Verdict;
    Out.Equivalent = Out.Verify.equivalent();
  } else {
    Out.Verify.Status = VerifyStatus::SyntaxError;
    Out.Verify.Kind = DiagKind::ParseError;
    Out.Verify.Diagnostic = "ERROR: completion violates the answer format";
  }
  Out.ExactMatch = Out.Equivalent && Answer.Parse.text() == S.RefText;
  return Out;
}

RewardBreakdown answerReward(const Sample &S, const Completion &C,
                             const RolloutAnswer &Answer,
                             const VerifyResult &Verdict) {
  RewardBreakdown Out = answerChecks(S, C, Answer, Verdict);
  Out.Bleu = Answer.Terms.bleu(S, Answer.Parse);

  double T = Out.FormatOk ? 1.0 : 0.0;
  double A = Out.Equivalent ? 1.0 : 0.0;
  double M = Out.ExactMatch ? 1.0 : 0.0;
  Out.Total = T * (1.0 + A * (1.0 + M)) + Out.Bleu; // Eq. (1)
  return Out;
}

double cotReward(const Completion &C, const VerifyResult &AttemptVerify) {
  bool ModelSaysOk = C.PredictedDiagClass == 0;
  bool AliveSaysOk = AttemptVerify.equivalent();
  if (ModelSaysOk && AliveSaysOk)
    return 1.0; // agreement on OK
  if (!ModelSaysOk && !AliveSaysOk)
    return 0.5 + 0.5 * bleuText(AttemptVerify.Diagnostic,
                                C.PredictedMessage); // agreement on ERR
  return 0.0; // disagreement
}

double latencyReward(const Sample &S, const Candidate &Answer,
                     bool Equivalent, const LatencyRewardParams &P) {
  if (!Equivalent)
    return 0.0; // S = 0
  if (P.UMax <= 1.0)
    return 0.0; // saturation band is empty: Eq. (4) would divide by zero
  const Function *F = Answer.function();
  if (!F)
    return 0.0;
  double T0 = estimateLatency(*S.source());
  if (T0 <= 0)
    return 0.0; // zero-latency source: no speedup is expressible
  double T1 = estimateLatency(*F);
  if (T1 <= 0)
    T1 = 0.5; // fully-folded function: credit the maximum
  double U = T0 / T1;
  if (U <= 1.0)
    return 0.0;
  double Norm = std::min(1.0, (U - 1.0) / (P.UMax - 1.0));
  return std::pow(Norm, P.Gamma); // Eq. (4)
}

double computeUMax(const std::vector<Sample> &Train) {
  std::vector<double> Speedups;
  for (const Sample &S : Train) {
    double T0 = estimateLatency(*S.source());
    double T1 = estimateLatency(*S.Reference);
    if (T1 > 0)
      Speedups.push_back(T0 / T1);
  }
  return std::max(1.5, percentile(Speedups, 80.0));
}

} // namespace veriopt
