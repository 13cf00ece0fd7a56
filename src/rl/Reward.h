//===- Reward.h - Verifier-guided reward functions ---------------*- C++ -*-=//
//
// The paper's reward signals:
//  - Eq. (1): hierarchical answer reward r = t(1 + a(1 + m)) + b over
//    format compliance t, Alive-verified equivalence a, exact reference
//    match m, and BLEU similarity b.
//  - Eq. (2): chain-of-thought reward comparing the model's self-diagnosis
//    of its <think> attempt against the actual Alive verdict.
//  - Eq. (3)/(4): latency reward — normalized, gamma-shaped speedup over
//    the -O0 baseline, gated on semantic equivalence, with U_max set to the
//    80th percentile of the reference pass's speedups on the training set.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_RL_REWARD_H
#define VERIOPT_RL_REWARD_H

#include "data/Dataset.h"
#include "model/Policy.h"
#include "verify/AliveLite.h"
#include "verify/Candidate.h"

#include <mutex>

namespace veriopt {

/// Everything one evaluation of a completion yields. Carries the verify
/// result so stage 1 can harvest diagnostics from the same pass.
struct RewardBreakdown {
  bool FormatOk = false;   // t
  bool Equivalent = false; // a
  bool ExactMatch = false; // m
  double Bleu = 0;         // b
  double Total = 0;        // Eq. (1)
  bool IsCopy = false;     ///< answer textually equals the input
  VerifyResult Verify;     ///< verdict on the *answer*
};

/// The terms of Eq. (1) that depend on nothing but the prompt and the
/// answer text: the copy flag and the BLEU score. Each is computed on first
/// use, once even when scorers ask concurrently (the lazy pattern of
/// Sample::refBleu), so one AnswerTerms serves every rollout that gives its
/// prompt the same answer. The trainer keeps one per (prompt, answer text)
/// for its lifetime.
class AnswerTerms {
public:
  /// \p Answer is a Candidate of the text these terms are for.
  bool isCopy(const Sample &S, const Candidate &Answer) const;
  double bleu(const Sample &S, const Candidate &Answer) const;

private:
  mutable std::once_flag CopyOnce, BleuOnce;
  mutable bool Copy = false;
  mutable double Bleu = 0;
};

/// A completion's answer as the reward reads it: the Candidate of
/// C.AnswerIR (its parse) and the terms kept for it.
struct RolloutAnswer {
  const Candidate &Parse;
  const AnswerTerms &Terms;
};

/// Evaluate Eq. (1) for a completion's answer against the sample's source
/// and reference, given \p Answer and the verifier's \p Verdict on it (the
/// trainer computes both: the Candidate once per distinct answer of a step,
/// the verdict through BatchVerifier). A completion that fails the format
/// gate scores as a syntax error and \p Verdict is ignored.
RewardBreakdown answerReward(const Sample &S, const Completion &C,
                             const RolloutAnswer &Answer,
                             const VerifyResult &Verdict);

/// answerReward's format, equivalence, exact-match and copy checks without
/// the BLEU term: every field but Bleu and Total (left 0) is what
/// answerReward returns. For rewards that read only those checks (the
/// latency stage), so they do not pay for BLEU.
RewardBreakdown answerChecks(const Sample &S, const Completion &C,
                             const RolloutAnswer &Answer,
                             const VerifyResult &Verdict);

/// Eq. (2): 1 when model and Alive agree the think-attempt verifies;
/// 0.5 + 0.5*BLEU(model message, alive message) when both agree it fails;
/// 0 on disagreement. \p AttemptVerify is Alive's verdict on the attempt.
double cotReward(const Completion &C, const VerifyResult &AttemptVerify);

struct LatencyRewardParams {
  double UMax = 3.0;   ///< saturation threshold (80th pct of reference)
  double Gamma = 2.0;  ///< convex shaping (> 1 emphasizes larger speedups)
};

/// Eq. (3)/(4): 0 unless the answer is equivalent and strictly faster than
/// the -O0 source; otherwise the shaped, saturated speedup of \p Answer's
/// parse. Degenerate parameterizations (UMax <= 1, a zero-latency source)
/// score 0 instead of dividing by zero.
double latencyReward(const Sample &S, const Candidate &Answer,
                     bool Equivalent, const LatencyRewardParams &P);

/// Compute U_max from the reference pass's speedups over a training set
/// (80th percentile, floored at 1.5 to keep the reward well-defined).
double computeUMax(const std::vector<Sample> &Train);

} // namespace veriopt

#endif // VERIOPT_RL_REWARD_H
