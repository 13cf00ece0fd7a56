//===- PolicyTest.cpp - Simulated-LLM policy tests -------------------------===//

#include "model/Policy.h"

#include "data/Dataset.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "oracle/Pins.h"
#include "trace/Metrics.h"
#include "verify/AliveLite.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

std::unique_ptr<Module> parseOk(const char *Src) {
  auto M = parseModule(Src);
  EXPECT_TRUE(M.hasValue()) << M.error().render();
  return M.takeValue();
}

const char *SimpleSrc = R"(
define i32 @f(i32 %x) {
  %s = alloca i32
  store i32 %x, ptr %s
  %v = load i32, ptr %s
  %m = mul i32 %v, 8
  ret i32 %m
}
)";

TEST(Policy, GreedyIsDeterministic) {
  auto M = parseOk(SimpleSrc);
  RewritePolicyModel Model(presetQwen3B());
  RNG R1(1), R2(99);
  auto C1 = Model.generate(*M->getMainFunction(), PromptMode::Generic, R1,
                           /*Greedy=*/true);
  auto C2 = Model.generate(*M->getMainFunction(), PromptMode::Generic, R2,
                           /*Greedy=*/true);
  EXPECT_EQ(C1.Text, C2.Text);
  EXPECT_EQ(C1.Actions, C2.Actions);
}

TEST(Policy, SamplingIsStochasticButSeeded) {
  auto M = parseOk(SimpleSrc);
  RewritePolicyModel Model(presetQwen3B());
  RNG RA(5), RB(5), RC(6);
  auto A = Model.generate(*M->getMainFunction(), PromptMode::Generic, RA,
                          false);
  auto B = Model.generate(*M->getMainFunction(), PromptMode::Generic, RB,
                          false);
  EXPECT_EQ(A.Text, B.Text);
  // Over several draws, different seeds must diverge somewhere.
  bool Diverged = false;
  for (int I = 0; I < 16 && !Diverged; ++I) {
    auto C = Model.generate(*M->getMainFunction(), PromptMode::Generic, RC,
                            false);
    Diverged = C.Text != A.Text;
  }
  EXPECT_TRUE(Diverged);
}

TEST(Policy, BaseModelFailureTaxonomy) {
  // Sampled outputs of the base preset must show all Table-I categories:
  // copies, syntax errors, semantic errors, and correct transforms.
  DatasetOptions DOpts;
  DOpts.TrainCount = 12;
  DOpts.ValidCount = 0;
  auto DS = buildDataset(DOpts);
  ASSERT_FALSE(DS.Train.empty());

  RewritePolicyModel Model(presetQwen3B());
  RNG R(42);
  unsigned Copies = 0, Syntax = 0, Semantic = 0, CorrectDifferent = 0,
           Total = 0;
  for (const auto &S : DS.Train) {
    for (int Draw = 0; Draw < 16; ++Draw) {
      auto C = Model.generate(*S.source(), PromptMode::Generic, R, false);
      ++Total;
      if (!C.FormatOk) {
        ++Syntax; // broken envelope counts as unusable output
        continue;
      }
      if (C.AnswerIR == S.SrcText) {
        ++Copies;
        continue;
      }
      auto VR = verifyCandidateText(*S.source(), C.AnswerIR);
      switch (VR.Status) {
      case VerifyStatus::Equivalent:
        ++CorrectDifferent;
        break;
      case VerifyStatus::SyntaxError:
        ++Syntax;
        break;
      case VerifyStatus::NotEquivalent:
        ++Semantic;
        break;
      case VerifyStatus::Inconclusive:
        break;
      }
    }
  }
  EXPECT_GT(Copies, 0u);
  EXPECT_GT(Syntax, 0u);
  EXPECT_GT(Semantic, 0u);
  EXPECT_GT(CorrectDifferent, 0u);
  // The base model mostly copies (Table I: 56.8%).
  EXPECT_GT(Copies, Total / 4);
}

TEST(Policy, OptActionsProduceVerifiedRewrites) {
  auto M = parseOk(SimpleSrc);
  Function *Src = M->getMainFunction();
  // Force a pure-optimization completion by zeroing corruption/copy biases.
  ModelConfig Cfg = presetQwen3B();
  Cfg.CopyBias = -10;
  Cfg.SyntaxCorruptBias = -10;
  Cfg.SemanticCorruptBias = -10;
  Cfg.OptBias = 3.0;
  Cfg.StopBias = -2.0;
  Cfg.ResidualSyntaxPct = 0; // this test wants the policy channel only
  Cfg.ResidualSemanticPct = 0;
  RewritePolicyModel Model(Cfg);
  RNG R(3);
  for (int Draw = 0; Draw < 10; ++Draw) {
    auto C = Model.generate(*Src, PromptMode::Generic, R, false);
    ASSERT_TRUE(C.FormatOk);
    auto VR = verifyCandidateText(*Src, C.AnswerIR);
    EXPECT_EQ(VR.Status, VerifyStatus::Equivalent)
        << VR.Diagnostic << "\n"
        << C.AnswerIR;
  }
}

TEST(Policy, KnowledgeMaskLimitsActions) {
  ModelConfig Cfg = presetQwen15B(); // knows only a few families
  RewritePolicyModel Model(Cfg);
  EXPECT_TRUE(Model.actionAvailable(Action::OptAlgebraic));
  EXPECT_FALSE(Model.actionAvailable(Action::OptMem2Reg));
  EXPECT_FALSE(Model.actionAvailable(Action::OptSimplifyCFG));
  EXPECT_TRUE(Model.actionAvailable(Action::Copy));
  EXPECT_TRUE(Model.actionAvailable(Action::CorruptTruncate));

  auto M = parseOk(SimpleSrc);
  RNG R(1);
  for (int Draw = 0; Draw < 30; ++Draw) {
    auto C = Model.generate(*M->getMainFunction(), PromptMode::Generic, R,
                            false);
    for (Action A : C.Actions)
      EXPECT_TRUE(Model.actionAvailable(A)) << actionName(A);
  }
}

TEST(Policy, SequenceLogProbMatchesGeneration) {
  auto M = parseOk(SimpleSrc);
  RewritePolicyModel Model(presetQwen3B());
  RNG R(17);
  auto C = Model.generate(*M->getMainFunction(), PromptMode::Generic, R,
                          false);
  double LP = Model.sequenceLogProb(*M->getMainFunction(), C.Actions);
  // Generic completions have only action log-probs.
  EXPECT_NEAR(LP, C.LogProb, 1e-9);
}

TEST(Policy, GradChecksSequenceHead) {
  // Finite-difference check of d logProb / d theta on a random coordinate.
  auto M = parseOk(SimpleSrc);
  Function *F = M->getMainFunction();
  RewritePolicyModel Model(presetQwen3B());
  std::vector<Action> Seq = {Action::OptMemory, Action::OptAlgebraic,
                             Action::Stop};
  std::vector<double> Grad(Model.numParams(), 0.0);
  const std::string Text = printFunction(*F);
  Model.accumulateSequenceGrad(PromptRecord(Model, *F, Text), Seq, 1.0, Grad);
  RNG R(8);
  for (int Trial = 0; Trial < 10; ++Trial) {
    unsigned K = static_cast<unsigned>(R.below(NumActions * NumFeatures));
    double Eps = 1e-5;
    double Orig = Model.params()[K];
    Model.params()[K] = Orig + Eps;
    double Up = Model.sequenceLogProb(*F, Seq);
    Model.params()[K] = Orig - Eps;
    double Down = Model.sequenceLogProb(*F, Seq);
    Model.params()[K] = Orig;
    EXPECT_NEAR(Grad[K], (Up - Down) / (2 * Eps), 1e-4) << "coord " << K;
  }
}

TEST(Policy, GradChecksDiagHead) {
  RewritePolicyModel Model(presetQwen3B());
  std::vector<Action> Attempt = {Action::CorruptConstant, Action::Stop};
  std::vector<double> Grad(Model.numParams(), 0.0);
  Model.accumulateDiagGrad(Attempt, 3, 1.0, Grad);
  // Finite-difference a few diagnosis weights.
  unsigned Base = NumActions * NumFeatures;
  for (unsigned K = Base; K < Base + 20; K += 7) {
    double Eps = 1e-5;
    double Orig = Model.params()[K];
    Model.params()[K] = Orig + Eps;
    double Up = Model.diagLogProb(Attempt, 3);
    Model.params()[K] = Orig - Eps;
    double Down = Model.diagLogProb(Attempt, 3);
    Model.params()[K] = Orig;
    EXPECT_NEAR(Grad[K], (Up - Down) / (2 * Eps), 1e-4);
  }
}

TEST(Policy, AugmentedModeEmitsThinkSection) {
  auto M = parseOk(SimpleSrc);
  RewritePolicyModel Model(presetQwen3B());
  RNG R(12);
  auto C = Model.generate(*M->getMainFunction(), PromptMode::Augmented, R,
                          true);
  EXPECT_NE(C.Text.find("<think>"), std::string::npos);
  EXPECT_NE(C.Text.find("</think>"), std::string::npos);
  EXPECT_FALSE(C.ThinkAttemptIR.empty());
  EXPECT_FALSE(C.PredictedMessage.empty());
}

TEST(Policy, PromptEnvelopeRoundTrip) {
  std::string Full = renderCompletion(PromptMode::Augmented, true,
                                      "attempt ir", "diag text", "final ir");
  bool Ok = false;
  EXPECT_EQ(extractAnswer(Full, Ok), "final ir");
  EXPECT_TRUE(Ok);
  std::string Broken = renderCompletion(PromptMode::Generic, false, "", "",
                                        "final ir");
  extractAnswer(Broken, Ok);
  EXPECT_FALSE(Ok);
}

TEST(Policy, OracleActionsRespectCapacity) {
  PassTrace T;
  T.Applied = {"store-to-load-forward", "mul-pow2-to-shl", "dce",
               "mem2reg-promote", "diamond-to-select"};
  RewritePolicyModel Big(presetQwen32B());
  auto SeqBig = oracleActions(T, Big);
  EXPECT_EQ(SeqBig.back(), Action::Stop);
  bool HasMem2Reg = false;
  for (Action A : SeqBig)
    HasMem2Reg |= A == Action::OptMem2Reg;
  EXPECT_TRUE(HasMem2Reg);

  RewritePolicyModel Small(presetQwen15B());
  auto SeqSmall = oracleActions(T, Small);
  for (Action A : SeqSmall)
    EXPECT_TRUE(Small.actionAvailable(A)) << actionName(A);
}

TEST(Policy, PresetOrderingMakesSense) {
  // Larger models start with weaker corruption priors.
  EXPECT_GT(presetQwen15B().SyntaxCorruptBias,
            presetQwen7B().SyntaxCorruptBias);
  EXPECT_GT(presetQwen7B().SyntaxCorruptBias,
            presetQwen32B().SyntaxCorruptBias);
  EXPECT_LT(presetQwen15B().ParamsB, presetQwen3B().ParamsB);
}

/// Bit-identity pin over every field a decode yields: the features, the
/// capacity gate and the residual roll all hash the printed source, so a
/// change to what they hash moves the actions or the answers. Decoding with
/// the prompt's text passed in (Sample::SrcText) must give the same digest
/// as printing it.
TEST(Policy, DecodesArePinned) {
  Counter &Rewrites = MetricsRegistry::global().counter("policy.rewrites");
  std::vector<uint64_t> RewriteRuns;
  for (pins::DecodePath Path :
       {pins::DecodePath::Printed, pins::DecodePath::GivenText,
        pins::DecodePath::KeptRecord}) {
    SCOPED_TRACE("decode path " + std::to_string(static_cast<int>(Path)));
    pins::Fnv1a D;
    unsigned OptSelected = 0, Copies = 0, SelfCorrected = 0, Thinks = 0;
    const uint64_t Runs0 = Rewrites.value();
    for (const pins::Decode &X : pins::decodes(Path)) {
      const Completion &C = X.C;
      D.addU64(C.Actions.size());
      for (Action A : C.Actions) {
        D.addU64(static_cast<unsigned>(A));
        OptSelected += isOptAction(A);
        Copies += A == Action::Copy;
      }
      D.addStr(C.AnswerIR);
      D.addStr(C.ThinkAttemptIR);
      D.addStr(C.Text);
      D.addU64(C.FormatOk);
      D.addU64(C.TokenCount);
      D.addDoubleBits(C.LogProb);
      D.addU64(C.PredictedDiagClass);
      D.addU64(C.SelfCorrected);
      SelfCorrected += C.SelfCorrected;
      Thinks += !C.ThinkAttemptIR.empty();
    }
    RewriteRuns.push_back(Rewrites.value() - Runs0);
    // The set reaches the capacity gate, the Copy answer and the augmented
    // self-correction, the paths that reuse the printed source.
    EXPECT_GT(OptSelected, 0u);
    EXPECT_GT(Copies, 0u);
    EXPECT_GT(SelfCorrected, 0u);
    EXPECT_GT(Thinks, 0u);
    EXPECT_EQ(D.H, 0x752f6a10fc99a34bULL);
  }
  // A fresh record per decode rewrites every non-copy decode; a kept
  // record serves the repeated decisions of its prompt.
  EXPECT_EQ(RewriteRuns[0], RewriteRuns[1]);
  EXPECT_GT(RewriteRuns[2], 0u);
  EXPECT_LT(RewriteRuns[2], RewriteRuns[0]);
}

TEST(Policy, DiagClassRoundTrip) {
  for (unsigned C = 0; C < NumDiagClasses; ++C)
    EXPECT_EQ(diagKindClass(diagClassKind(C)), C);
}

} // namespace
} // namespace veriopt
