//===- RewardTest.cpp - Eq. (1)/(2)/(4) reward function tests --------------===//

#include "rl/Reward.h"

#include "verify/BatchVerifier.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

/// One deterministic sample shared across tests.
const Sample &sample() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 6;
    O.ValidCount = 0;
    O.Seed = 31;
    return buildDataset(O);
  }();
  return DS.Train.front();
}

Completion completionWithAnswer(std::string IR, bool FormatOk = true) {
  Completion C;
  C.AnswerIR = std::move(IR);
  C.FormatOk = FormatOk;
  C.Actions = {Action::Stop};
  C.TokenCount = 10;
  return C;
}

/// Eq. (1) given the plain verifier's verdict on the answer.
RewardBreakdown scored(const Sample &S, const Completion &C) {
  return answerReward(S, C, verifyCandidateText(*S.source(), C.AnswerIR));
}

TEST(Reward, ExactReferenceMatchScoresHighest) {
  const Sample &S = sample();
  auto C = completionWithAnswer(S.RefText);
  auto B = scored(S, C);
  EXPECT_TRUE(B.FormatOk);
  EXPECT_TRUE(B.Equivalent);
  EXPECT_TRUE(B.ExactMatch);
  EXPECT_DOUBLE_EQ(B.Bleu, 1.0);
  EXPECT_DOUBLE_EQ(B.Total, 4.0); // 1*(1+1*(1+1)) + 1
}

TEST(Reward, CopyScoresBetweenGarbageAndOptimized) {
  const Sample &S = sample();
  auto Copy = scored(S, completionWithAnswer(S.SrcText));
  auto Exact = scored(S, completionWithAnswer(S.RefText));
  auto Garbage = scored(S, completionWithAnswer("not ir at all"));
  EXPECT_TRUE(Copy.IsCopy);
  EXPECT_TRUE(Copy.Equivalent);
  EXPECT_FALSE(Copy.ExactMatch);
  EXPECT_GT(Exact.Total, Copy.Total);
  EXPECT_GT(Copy.Total, Garbage.Total);
}

TEST(Reward, FormatFailureZeroesTheHierarchy) {
  const Sample &S = sample();
  auto C = completionWithAnswer(S.RefText, /*FormatOk=*/false);
  auto B = scored(S, C);
  EXPECT_FALSE(B.FormatOk);
  // Only the BLEU shaping term remains: t = 0.
  EXPECT_LE(B.Total, 1.0);
  EXPECT_GT(B.Total, 0.0); // BLEU still rewards partial overlap
}

TEST(Reward, SyntaxErrorGetsOnlyBleu) {
  const Sample &S = sample();
  // Take the reference and break it.
  std::string Broken = S.RefText.substr(0, S.RefText.size() * 2 / 3);
  auto B = scored(S, completionWithAnswer(Broken));
  EXPECT_FALSE(B.Equivalent);
  EXPECT_EQ(B.Verify.Status, VerifyStatus::SyntaxError);
  EXPECT_LT(B.Total, 2.0);
}

TEST(Reward, CoTAgreementOnOk) {
  Completion C;
  C.PredictedDiagClass = 0;
  VerifyResult V;
  V.Status = VerifyStatus::Equivalent;
  EXPECT_DOUBLE_EQ(cotReward(C, V), 1.0);
}

TEST(Reward, CoTDisagreementScoresZero) {
  Completion C;
  C.PredictedDiagClass = 0; // model claims OK
  VerifyResult V;
  V.Status = VerifyStatus::NotEquivalent; // alive says ERR
  V.Diagnostic = "ERROR: Value mismatch";
  EXPECT_DOUBLE_EQ(cotReward(C, V), 0.0);
  // And the other direction.
  Completion C2;
  C2.PredictedDiagClass = 3;
  C2.PredictedMessage = "ERROR: Value mismatch";
  VerifyResult V2;
  V2.Status = VerifyStatus::Equivalent;
  EXPECT_DOUBLE_EQ(cotReward(C2, V2), 0.0);
}

TEST(Reward, CoTAgreementOnErrorScalesWithMessageSimilarity) {
  VerifyResult V;
  V.Status = VerifyStatus::NotEquivalent;
  V.Diagnostic = "Transformation doesn't verify!\nERROR: Value mismatch\n";
  Completion Good;
  Good.PredictedDiagClass = 3;
  Good.PredictedMessage = diagClassMessage(3, "f");
  Completion Bad;
  Bad.PredictedDiagClass = 6;
  Bad.PredictedMessage = diagClassMessage(6, "f");
  double GoodR = cotReward(Good, V);
  double BadR = cotReward(Bad, V);
  EXPECT_GE(GoodR, 0.5);
  EXPECT_GE(BadR, 0.5); // both agree "ERR": at least the base credit
  EXPECT_GT(GoodR, BadR); // the right message text earns more
}

TEST(Reward, LatencyRewardGatesOnEquivalence) {
  const Sample &S = sample();
  LatencyRewardParams P;
  P.UMax = 3.0;
  auto Fast = completionWithAnswer(S.RefText);
  EXPECT_GT(latencyReward(S, Fast, /*Equivalent=*/true, P), 0.0);
  EXPECT_DOUBLE_EQ(latencyReward(S, Fast, /*Equivalent=*/false, P), 0.0);
  // A copy has u == 1: no reward even though it is equivalent.
  auto Copy = completionWithAnswer(S.SrcText);
  EXPECT_DOUBLE_EQ(latencyReward(S, Copy, true, P), 0.0);
}

TEST(Reward, LatencyRewardSaturatesAndShapes) {
  const Sample &S = sample();
  LatencyRewardParams P;
  P.UMax = 2.0;
  P.Gamma = 2.0;
  auto Fast = completionWithAnswer(S.RefText);
  double R1 = latencyReward(S, Fast, true, P);
  P.UMax = 10.0; // same speedup, further from saturation
  double R2 = latencyReward(S, Fast, true, P);
  EXPECT_GE(R1, R2);
  EXPECT_LE(R1, 1.0);
}

TEST(Reward, CopyDetectionSeesThroughCosmeticEdits) {
  // Regression: IsCopy used to be a raw byte compare, so re-wrapping the
  // input in whitespace (or renumbering its values) evaded the copy
  // penalty. Canonical re-print must catch it.
  const Sample &S = sample();
  std::string Cosmetic = S.SrcText;
  // Double every space: same IR after parse + print, different bytes.
  for (size_t I = 0; I < Cosmetic.size(); ++I)
    if (Cosmetic[I] == ' ') {
      Cosmetic.insert(I, " ");
      I += 1;
    }
  ASSERT_NE(Cosmetic, S.SrcText);
  auto B = scored(S, completionWithAnswer(Cosmetic));
  EXPECT_TRUE(B.IsCopy) << "whitespace-edited copy evaded detection";
  EXPECT_TRUE(B.Equivalent);
  // Unparseable answers still fall back to the textual compare.
  auto Garbage = scored(S, completionWithAnswer("not ir at all"));
  EXPECT_FALSE(Garbage.IsCopy);
  // The reference output is not a copy.
  EXPECT_FALSE(scored(S, completionWithAnswer(S.RefText)).IsCopy);
}

TEST(Reward, ChecksAgreeWithAnswerReward) {
  // The latency stage scores with answerChecks, which skips BLEU; every
  // other field must be what answerReward computes.
  const Sample &S = sample();
  auto doubleSpaces = [](std::string T) {
    for (size_t I = 0; I < T.size(); ++I)
      if (T[I] == ' ')
        T.insert(I++, " ");
    return T;
  };
  std::vector<Completion> Cases = {
      completionWithAnswer(S.SrcText),                    // copy
      completionWithAnswer(doubleSpaces(S.SrcText)),      // whitespace copy
      completionWithAnswer(S.RefText),                    // exact match
      completionWithAnswer(doubleSpaces(S.RefText)),      // equivalent
      completionWithAnswer(S.SrcText.substr(0, 40)),      // syntax error
      completionWithAnswer("not ir at all"),              // syntax error
      completionWithAnswer(S.RefText, /*FormatOk=*/false) // format failure
  };
  unsigned Copies = 0, Exact = 0, Unparsed = 0, Unformatted = 0;
  for (const Completion &C : Cases) {
    VerifyResult V = verifyCandidateText(*S.source(), C.AnswerIR);
    RewardBreakdown Full = answerReward(S, C, V);
    RewardBreakdown Checks = answerChecks(S, C, V);
    EXPECT_EQ(Checks.FormatOk, Full.FormatOk) << C.AnswerIR;
    EXPECT_EQ(Checks.Equivalent, Full.Equivalent) << C.AnswerIR;
    EXPECT_EQ(Checks.ExactMatch, Full.ExactMatch) << C.AnswerIR;
    EXPECT_EQ(Checks.IsCopy, Full.IsCopy) << C.AnswerIR;
    EXPECT_EQ(Checks.Verify.Status, Full.Verify.Status) << C.AnswerIR;
    EXPECT_EQ(Checks.Verify.Kind, Full.Verify.Kind) << C.AnswerIR;
    EXPECT_EQ(Checks.Verify.Diagnostic, Full.Verify.Diagnostic) << C.AnswerIR;
    EXPECT_EQ(Checks.Bleu, 0.0);
    EXPECT_EQ(Checks.Total, 0.0);
    Copies += Checks.IsCopy;
    Exact += Checks.ExactMatch;
    Unparsed += Checks.FormatOk &&
                Checks.Verify.Status == VerifyStatus::SyntaxError;
    Unformatted += !Checks.FormatOk;
  }
  // The cases reach every branch of the checks.
  EXPECT_EQ(Copies, 2u);
  EXPECT_EQ(Exact, 1u);
  EXPECT_EQ(Unparsed, 2u);
  EXPECT_EQ(Unformatted, 1u);
}

TEST(Reward, CachedAnswerRewardMatchesUncached) {
  // A verdict the verifier serves from its cache scores exactly like a
  // freshly computed one.
  const Sample &S = sample();
  VerifyCache Cache;
  BatchVerifier::Options BO;
  BO.Robust.MaxTiers = 1;
  BatchVerifier BV(BO, &Cache);
  for (const std::string &IR :
       {S.RefText, S.SrcText, S.RefText.substr(0, S.RefText.size() / 2)}) {
    Completion C = completionWithAnswer(IR);
    auto Plain = scored(S, C);
    auto Cached = answerReward(S, C, BV.verifyOne(S.SrcText, *S.source(), IR));
    auto Hit = answerReward(S, C, BV.verifyOne(S.SrcText, *S.source(), IR));
    for (const auto *B : {&Cached, &Hit}) {
      EXPECT_EQ(Plain.Total, B->Total);
      EXPECT_EQ(Plain.Equivalent, B->Equivalent);
      EXPECT_EQ(Plain.ExactMatch, B->ExactMatch);
      EXPECT_EQ(Plain.IsCopy, B->IsCopy);
      EXPECT_EQ(Plain.Verify.Status, B->Verify.Status);
      EXPECT_EQ(Plain.Verify.Diagnostic, B->Verify.Diagnostic);
    }
  }
  EXPECT_GT(Cache.counters().Hits, 0u);
}

TEST(Reward, LatencyRewardDegenerateParamsScoreZero) {
  // Regression: UMax <= 1.0 used to divide by zero in the Eq. (4)
  // normalizer (UMax - 1.0); a degenerate saturation band must gate to 0.
  const Sample &S = sample();
  auto Fast = completionWithAnswer(S.RefText);
  LatencyRewardParams P;
  P.UMax = 1.0;
  EXPECT_DOUBLE_EQ(latencyReward(S, Fast, /*Equivalent=*/true, P), 0.0);
  P.UMax = 0.5;
  EXPECT_DOUBLE_EQ(latencyReward(S, Fast, true, P), 0.0);
  // And a sane parameterization still rewards the speedup.
  P.UMax = 3.0;
  EXPECT_GT(latencyReward(S, Fast, true, P), 0.0);
}

TEST(Reward, LatencyRewardUnparseableAnswerScoresZero) {
  // Equivalent=true with an answer that no longer parses (callers can pass
  // stale flags) must not crash or reward anything.
  const Sample &S = sample();
  LatencyRewardParams P;
  auto C = completionWithAnswer("definitely not ir");
  EXPECT_DOUBLE_EQ(latencyReward(S, C, /*Equivalent=*/true, P), 0.0);
}

TEST(Reward, UMaxFromTrainingSet) {
  DatasetOptions O;
  O.TrainCount = 20;
  O.ValidCount = 0;
  O.Seed = 9;
  auto DS = buildDataset(O);
  double U = computeUMax(DS.Train);
  EXPECT_GE(U, 1.5);
  EXPECT_LT(U, 20.0);
}

} // namespace
} // namespace veriopt
