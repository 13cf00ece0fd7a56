//===- RewardTest.cpp - Eq. (1)/(2)/(4) reward function tests --------------===//

#include "rl/Reward.h"

#include "cost/CostModel.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "verify/BatchVerifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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
  const Candidate Answer(C.AnswerIR);
  AnswerTerms Terms;
  return answerReward(S, C, {Answer, Terms},
                      verifyCandidateText(*S.source(), C.AnswerIR));
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
  const Candidate Fast(S.RefText);
  EXPECT_GT(latencyReward(S, Fast, /*Equivalent=*/true, P), 0.0);
  EXPECT_DOUBLE_EQ(latencyReward(S, Fast, /*Equivalent=*/false, P), 0.0);
  // A copy has u == 1: no reward even though it is equivalent.
  const Candidate Copy(S.SrcText);
  EXPECT_DOUBLE_EQ(latencyReward(S, Copy, true, P), 0.0);
}

TEST(Reward, LatencyRewardSaturatesAndShapes) {
  const Sample &S = sample();
  LatencyRewardParams P;
  P.UMax = 2.0;
  P.Gamma = 2.0;
  const Candidate Fast(S.RefText);
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
    const Candidate Answer(C.AnswerIR);
    AnswerTerms FullTerms, CheckTerms;
    RewardBreakdown Full = answerReward(S, C, {Answer, FullTerms}, V);
    RewardBreakdown Checks = answerChecks(S, C, {Answer, CheckTerms}, V);
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
    const Candidate Answer(IR);
    AnswerTerms Terms;
    auto Plain = scored(S, C);
    auto Cached = answerReward(S, C, {Answer, Terms},
                               BV.verifyOne(S.SrcText, *S.source(), IR));
    auto Hit = answerReward(S, C, {Answer, Terms},
                            BV.verifyOne(S.SrcText, *S.source(), Answer));
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
  const Candidate Fast(S.RefText);
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
  const Candidate Answer("definitely not ir");
  EXPECT_DOUBLE_EQ(latencyReward(S, Answer, /*Equivalent=*/true, P), 0.0);
}

//===--- The Candidate path against the text path --------------------------===//

/// The reward as it is computed from the answer text alone: the copy check
/// and the latency reward parse the answer afresh, and BLEU tokenizes the
/// reference on every call.
namespace textpath {

bool isCopy(const Sample &S, const std::string &IR) {
  if (IR == S.SrcText)
    return true;
  auto M = parseModule(IR);
  return M && M.value()->getMainFunction() &&
         printFunction(*M.value()->getMainFunction()) == S.SrcText;
}

RewardBreakdown answerChecks(const Sample &S, const Completion &C,
                             const VerifyResult &Verdict) {
  RewardBreakdown Out;
  Out.FormatOk = C.FormatOk;
  Out.IsCopy = isCopy(S, C.AnswerIR);
  if (Out.FormatOk) {
    Out.Verify = Verdict;
    Out.Equivalent = Verdict.equivalent();
  } else {
    Out.Verify.Status = VerifyStatus::SyntaxError;
    Out.Verify.Kind = DiagKind::ParseError;
    Out.Verify.Diagnostic = "ERROR: completion violates the answer format";
  }
  Out.ExactMatch = Out.Equivalent && C.AnswerIR == S.RefText;
  return Out;
}

RewardBreakdown answerReward(const Sample &S, const Completion &C,
                             const VerifyResult &Verdict) {
  RewardBreakdown Out = answerChecks(S, C, Verdict);
  Out.Bleu = bleuText(S.RefText, C.AnswerIR);
  Out.Total = (Out.FormatOk ? 1.0 : 0.0) *
                  (1.0 + (Out.Equivalent ? 1.0 : 0.0) *
                             (1.0 + (Out.ExactMatch ? 1.0 : 0.0))) +
              Out.Bleu;
  return Out;
}

double latencyReward(const Sample &S, const std::string &IR, bool Equivalent,
                     const LatencyRewardParams &P) {
  if (!Equivalent || P.UMax <= 1.0)
    return 0.0;
  auto M = parseModule(IR);
  if (!M || !M.value()->getMainFunction())
    return 0.0;
  double T0 = estimateLatency(*S.source());
  if (T0 <= 0)
    return 0.0;
  double T1 = estimateLatency(*M.value()->getMainFunction());
  if (T1 <= 0)
    T1 = 0.5;
  double U = T0 / T1;
  if (U <= 1.0)
    return 0.0;
  return std::pow(std::min(1.0, (U - 1.0) / (P.UMax - 1.0)), P.Gamma);
}

} // namespace textpath

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

void expectSameBreakdown(const RewardBreakdown &A, const RewardBreakdown &B,
                         const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.FormatOk, B.FormatOk);
  EXPECT_EQ(A.Equivalent, B.Equivalent);
  EXPECT_EQ(A.ExactMatch, B.ExactMatch);
  EXPECT_EQ(A.IsCopy, B.IsCopy);
  EXPECT_EQ(bitsOf(A.Bleu), bitsOf(B.Bleu));
  EXPECT_EQ(bitsOf(A.Total), bitsOf(B.Total));
  EXPECT_EQ(A.Verify.Status, B.Verify.Status);
  EXPECT_EQ(A.Verify.Kind, B.Verify.Kind);
  EXPECT_EQ(A.Verify.Diagnostic, B.Verify.Diagnostic);
}

TEST(Reward, CandidatePathMatchesTextPath) {
  // answerReward, answerChecks and latencyReward over a Candidate (its
  // parse, the sample's cached BLEU reference, the batch verifier's
  // verdict) give bit-identical results to the same rewards computed from
  // the answer text (fresh parses, plain BLEU, verifyCandidateText);
  // answerChecks reads the copy flag answerReward left in the shared terms.
  const Sample &S = sample();
  auto doubleSpaces = [](std::string T) {
    for (size_t I = 0; I < T.size(); ++I)
      if (T[I] == ' ')
        T.insert(I++, " ");
    return T;
  };
  // Every value and block of the source renamed: same IR, other names.
  std::string Renamed = [&] {
    auto M = parseModule(S.SrcText);
    EXPECT_TRUE(M.hasValue());
    Function *F = M.value()->getMainFunction();
    unsigned N = 0;
    for (unsigned I = 0; I < F->getNumParams(); ++I)
      F->getArg(I)->setName("arg" + std::to_string(N++));
    for (auto &BB : *F) {
      BB->setName("bb" + std::to_string(N++));
      for (auto &Inst : *BB)
        if (!Inst->getType()->isVoid())
          Inst->setName("v" + std::to_string(N++));
    }
    return printFunction(*F);
  }();
  ASSERT_NE(Renamed, S.SrcText);
  const VerifyOptions VOpts;
  // Past the size guard: a whitespace copy and a reference padded beyond
  // MaxCandidateBytes, which verify as SyntaxError without being parsed.
  const std::string Padding(VOpts.MaxCandidateBytes, ' ');
  struct Case {
    const char *What;
    Completion C;
  };
  std::vector<Case> Cases = {
      {"copy", completionWithAnswer(S.SrcText)},
      {"whitespace copy", completionWithAnswer(doubleSpaces(S.SrcText))},
      {"renamed copy", completionWithAnswer(Renamed)},
      {"exact match", completionWithAnswer(S.RefText)},
      {"whitespace reference", completionWithAnswer(doubleSpaces(S.RefText))},
      {"truncated", completionWithAnswer(S.SrcText.substr(0, 40))},
      {"unparseable", completionWithAnswer("not ir at all")},
      {"empty", completionWithAnswer("")},
      {"format failure", completionWithAnswer(S.RefText, false)},
      {"unformatted copy", completionWithAnswer(S.SrcText, false)},
      {"oversized copy", completionWithAnswer(S.SrcText + Padding)},
      {"oversized reference", completionWithAnswer(S.RefText + Padding)},
  };
  BatchVerifier::Options BO;
  BO.Robust.Base = VOpts;
  BO.Robust.MaxTiers = 1;
  const BatchVerifier BV(BO, nullptr);
  LatencyRewardParams P;
  P.UMax = 2.5;
  unsigned Copies = 0, Equivalent = 0, Oversized = 0;
  for (const Case &K : Cases) {
    const Candidate Answer(K.C.AnswerIR);
    AnswerTerms Terms;
    VerifyResult ByCandidate = BV.verifyOne(S.SrcText, *S.source(), Answer);
    VerifyResult ByText = verifyCandidateText(*S.source(), K.C.AnswerIR, VOpts);
    expectSameBreakdown(answerReward(S, K.C, {Answer, Terms}, ByCandidate),
                        textpath::answerReward(S, K.C, ByText), K.What);
    expectSameBreakdown(answerChecks(S, K.C, {Answer, Terms}, ByCandidate),
                        textpath::answerChecks(S, K.C, ByText), K.What);
    for (bool Eq : {false, true})
      EXPECT_EQ(bitsOf(latencyReward(S, Answer, Eq, P)),
                bitsOf(textpath::latencyReward(S, K.C.AnswerIR, Eq, P)))
          << K.What;
    Copies += textpath::isCopy(S, K.C.AnswerIR);
    Equivalent += ByText.equivalent();
    Oversized += ByText.Diagnostic.find("exceeds maximum size") !=
                 std::string::npos;
  }
  // The cases reach copies of every kind, equivalent answers and the size
  // guard.
  EXPECT_GE(Copies, 4u);
  EXPECT_GE(Equivalent, 4u);
  EXPECT_EQ(Oversized, 2u);
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
