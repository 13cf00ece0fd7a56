//===- TrainerTest.cpp - GRPO and SFT trainer tests ------------------------===//

#include "rl/Trainer.h"

#include "oracle/Oracle.h"
#include "oracle/Pins.h"
#include "pipeline/Pipeline.h"
#include "trace/Metrics.h"
#include "verify/BatchVerifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <tuple>

namespace veriopt {
namespace {

const Dataset &tinyDataset() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 16;
    O.ValidCount = 0;
    O.Seed = 21;
    return buildDataset(O);
  }();
  return DS;
}

TEST(Trainer, ClipGradientScalesDown) {
  std::vector<double> G = {3.0, 4.0}; // norm 5
  double Norm = clipGradient(G, 1.0);
  EXPECT_DOUBLE_EQ(Norm, 5.0);
  EXPECT_NEAR(std::sqrt(G[0] * G[0] + G[1] * G[1]), 1.0, 1e-12);
  std::vector<double> Small = {0.1, 0.1};
  clipGradient(Small, 1.0);
  EXPECT_DOUBLE_EQ(Small[0], 0.1); // untouched below the cap
}

/// The stage-1 reward: Eq. (1) on the verdict the trainer hands over.
RolloutScore answerScore(const Sample &S, const Completion &C,
                         const RolloutAnswer &Answer, const VerifyResult &V) {
  RewardBreakdown B = answerReward(S, C, Answer, V);
  RolloutScore Sc;
  Sc.Reward = B.Total;
  Sc.Equivalent = B.Equivalent;
  Sc.IsCopy = B.IsCopy;
  Sc.AnswerVerify = B.Verify;
  return Sc;
}

const RewardFn AnswerReward = [](const Sample &S, const Completion &C,
                                 const RolloutAnswer &Answer,
                                 const RolloutVerdicts &V) {
  return answerScore(S, C, Answer, V.Answer);
};

const RewardFn FlatReward = [](const Sample &, const Completion &,
                               const RolloutAnswer &,
                               const RolloutVerdicts &) {
  RolloutScore Sc;
  Sc.Reward = 1.0;
  return Sc;
};

RobustVerifyOptions trainLadder() {
  RobustVerifyOptions O;
  O.Base.FalsifyTrials = 8;
  O.Base.SolverConflictBudget = 20000;
  O.MaxTiers = 2;
  return O;
}

GRPOOptions smallGRPO(ThreadPool *Pool = nullptr) {
  GRPOOptions G;
  G.GroupSize = 6;
  G.PromptsPerStep = 3;
  G.Seed = 7;
  G.Pool = Pool;
  return G;
}

/// A verifier for the trainer: the given ladder.
BatchVerifier makeVerifier(const RobustVerifyOptions &O, VerifyCache *Cache) {
  BatchVerifier::Options BO;
  BO.Robust = O;
  return BatchVerifier(BO, Cache);
}

/// \p Got carries the plain ladder's verdict \p Want on \p Text.
void expectLadderVerdict(const VerifyResult &Got, const VerifyResult &Want,
                         const std::string &Text) {
  EXPECT_EQ(Got.Status, Want.Status) << Text;
  EXPECT_EQ(Got.Kind, Want.Kind) << Text;
  EXPECT_EQ(Got.Diagnostic, Want.Diagnostic) << Text;
  EXPECT_EQ(Got.SolverConflicts, Want.SolverConflicts) << Text;
  EXPECT_EQ(Got.FuelSpent, Want.FuelSpent) << Text;
  EXPECT_EQ(Got.RetryTier, Want.RetryTier) << Text;
  EXPECT_EQ(Got.FoundByFalsification, Want.FoundByFalsification) << Text;
  EXPECT_EQ(Got.Counterexample.size(), Want.Counterexample.size()) << Text;
}

void expectSameTrajectory(const std::vector<TrainLogEntry> &A,
                          const std::vector<TrainLogEntry> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Step, B[I].Step);
    EXPECT_EQ(A[I].MeanReward, B[I].MeanReward) << "step " << I;
    EXPECT_EQ(A[I].EMAReward, B[I].EMAReward) << "step " << I;
    EXPECT_EQ(A[I].EquivalentRate, B[I].EquivalentRate) << "step " << I;
    EXPECT_EQ(A[I].CopyRate, B[I].CopyRate) << "step " << I;
    EXPECT_EQ(A[I].GradNorm, B[I].GradNorm) << "step " << I;
    EXPECT_EQ(A[I].SolverConflicts, B[I].SolverConflicts) << "step " << I;
    EXPECT_EQ(A[I].RetryEscalations, B[I].RetryEscalations) << "step " << I;
  }
}

TEST(Trainer, GRPOImprovesRewardAndKillsCorruption) {
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  RobustVerifyOptions O = trainLadder();
  O.MaxTiers = 1;
  BatchVerifier Verifier = makeVerifier(O, nullptr);
  GRPOTrainer Trainer(Model, Verifier, AnswerReward, smallGRPO());
  auto Logs = Trainer.train(DS.Train, 40);
  ASSERT_EQ(Logs.size(), 40u);
  // Early vs late mean rewards (coarse but robust).
  double Early = 0, Late = 0, EarlyEq = 0, LateEq = 0;
  for (int I = 0; I < 8; ++I) {
    Early += Logs[I].MeanReward;
    Late += Logs[Logs.size() - 1 - I].MeanReward;
    EarlyEq += Logs[I].EquivalentRate;
    LateEq += Logs[Logs.size() - 1 - I].EquivalentRate;
  }
  EXPECT_GT(Late, Early) << "GRPO failed to improve the answer reward";
  // Equivalence must at least hold its ground (copies start equivalent, so
  // it does not have to rise while the policy learns to optimize instead).
  EXPECT_GT(LateEq, EarlyEq - 1.0);
  // EMA is a smoothed version of the raw series.
  EXPECT_NE(Logs.back().EMAReward, 0.0);
}

TEST(Trainer, GroupRelativeAdvantageNeedsVariation) {
  // A constant reward yields zero advantage and must not move parameters.
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  auto Before = Model.params();
  BatchVerifier Verifier = makeVerifier(RobustVerifyOptions(), nullptr);
  GRPOOptions G;
  G.GroupSize = 4;
  G.PromptsPerStep = 2;
  GRPOTrainer Trainer(Model, Verifier, FlatReward, G);
  Trainer.train(DS.Train, 5);
  EXPECT_EQ(Model.params(), Before);
}

TEST(Trainer, ParallelScoringIsBitIdenticalToSerial) {
  // The determinism guarantee of step(): generation is sequential with
  // per-rollout RNGs, verification and scoring write only per-rollout
  // slots, so every reward/equivalence value in the log — and the trained
  // parameters — must be bit-identical at any thread count, with or
  // without the verification memo.
  const Dataset &DS = tinyDataset();
  RobustVerifyOptions O = trainLadder();
  O.MaxTiers = 1;

  auto runConfig = [&](unsigned Threads, bool UseCache,
                       std::vector<double> &ParamsOut) {
    RewritePolicyModel Model(presetQwen3B());
    auto Cache = UseCache ? std::make_unique<VerifyCache>(512) : nullptr;
    ThreadPool Pool(Threads);
    BatchVerifier Verifier = makeVerifier(O, Cache.get());
    GRPOTrainer Trainer(Model, Verifier, AnswerReward,
                        smallGRPO(&Pool));
    auto Logs = Trainer.train(DS.Train, 12);
    ParamsOut = Model.params();
    return Logs;
  };

  std::vector<double> SerialParams, ParallelParams, CachedParams;
  auto Serial = runConfig(1, /*UseCache=*/false, SerialParams);
  auto Parallel = runConfig(4, /*UseCache=*/true, ParallelParams);
  auto CacheOnly = runConfig(1, /*UseCache=*/true, CachedParams);

  expectSameTrajectory(Serial, Parallel);
  expectSameTrajectory(Serial, CacheOnly);
  EXPECT_EQ(SerialParams, ParallelParams);
  EXPECT_EQ(SerialParams, CachedParams);
  // The memo must actually have been exercised on GRPO's repetitive groups.
  double HitRate = 0;
  for (const TrainLogEntry &E : Parallel)
    HitRate += E.CacheHitRate;
  EXPECT_GT(HitRate, 0.0) << "verify cache never hit during training";
}

TEST(Trainer, BatchVerificationIsBitIdenticalToSequential) {
  // Rewards from the verdicts the trainer batch-verifies (one verifyGroup
  // per prompt group, deduped, through a shared solver context) must give
  // exactly the trajectory of a reward that ignores them and runs the
  // plain ladder on every rollout itself — at any thread count.
  const Dataset &DS = tinyDataset();
  RobustVerifyOptions O = trainLadder();
  const RewardFn Sequential = [O](const Sample &S, const Completion &C,
                                  const RolloutAnswer &,
                                  const RolloutVerdicts &) {
    VerifyResult V;
    if (C.FormatOk)
      V = oracle::verifyLadder(S.SrcText, *S.source(), C.AnswerIR, O);
    Candidate Answer(C.AnswerIR);
    AnswerTerms Terms;
    return answerScore(S, C, {Answer, Terms}, V);
  };

  auto runConfig = [&](const RewardFn &Reward, unsigned Threads,
                       std::vector<double> &ParamsOut) {
    RewritePolicyModel Model(presetQwen3B());
    VerifyCache Cache(512);
    ThreadPool Pool(Threads);
    BatchVerifier Verifier = makeVerifier(O, &Cache);
    GRPOTrainer Trainer(Model, Verifier, Reward, smallGRPO(&Pool));
    auto Logs = Trainer.train(DS.Train, 10);
    ParamsOut = Model.params();
    return Logs;
  };

  std::vector<double> SeqParams, OnParams, OnThreadedParams;
  auto Seq = runConfig(Sequential, 1, SeqParams);
  auto On = runConfig(AnswerReward, 1, OnParams);
  auto OnThreaded = runConfig(AnswerReward, 4, OnThreadedParams);

  expectSameTrajectory(Seq, On);
  expectSameTrajectory(Seq, OnThreaded);
  EXPECT_EQ(SeqParams, OnParams);
  EXPECT_EQ(SeqParams, OnThreadedParams);
}

TEST(Trainer, VerdictsHandedToRewardMatchOracle) {
  // Every verdict the reward receives — answer and think-attempt — is the
  // plain ladder's verdict for that exact text, at 1 and 4 threads, with
  // and without a cache.
  const Dataset &DS = tinyDataset();
  RobustVerifyOptions O = trainLadder();
  std::map<std::string, VerifyResult> OracleMemo;
  auto oracleFor = [&](const Sample &S, const std::string &Text) {
    auto It = OracleMemo.find(S.SrcText + '\x1f' + Text);
    if (It == OracleMemo.end())
      It = OracleMemo
               .emplace(S.SrcText + '\x1f' + Text,
                        oracle::verifyLadder(S.SrcText, *S.source(), Text, O))
               .first;
    return It->second;
  };

  for (unsigned Threads : {1u, 4u}) {
    for (bool UseCache : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(Threads) +
                   (UseCache ? ", cache" : ", no cache"));
      struct Seen {
        const Sample *S;
        std::string Text;
        VerifyResult Verdict;
      };
      std::mutex M;
      std::vector<Seen> Handed;
      RewardFn Record = [&](const Sample &S, const Completion &C,
                            const RolloutAnswer &Answer,
                            const RolloutVerdicts &V) {
        std::lock_guard<std::mutex> L(M);
        if (C.FormatOk)
          Handed.push_back({&S, C.AnswerIR, V.Answer});
        Handed.push_back({&S, C.ThinkAttemptIR, V.Attempt});
        return answerScore(S, C, Answer, V.Answer);
      };
      RewritePolicyModel Model(presetQwen3B());
      auto Cache = UseCache ? std::make_unique<VerifyCache>(512) : nullptr;
      ThreadPool Pool(Threads);
      BatchVerifier Verifier = makeVerifier(O, Cache.get());
      GRPOOptions G = smallGRPO(&Pool);
      G.Mode = PromptMode::Augmented;
      GRPOTrainer Trainer(Model, Verifier, Record, G);
      Trainer.train(DS.Train, 4);

      ASSERT_FALSE(Handed.empty());
      for (const Seen &H : Handed)
        expectLadderVerdict(H.Verdict, oracleFor(*H.S, H.Text), H.Text);
    }
  }
}

TEST(Trainer, KeptSourceHalvesMatchOracle) {
  // The trainer keeps one source half per prompt for its lifetime. Over
  // three prompts drawn again in every step, every verdict the reward
  // receives is still the plain ladder's, and each prompt that reaches the
  // verifier has its half built exactly once.
  static const Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 3;
    O.ValidCount = 0;
    O.Seed = 21;
    return buildDataset(O);
  }();
  ASSERT_EQ(DS.Train.size(), 3u);
  std::set<std::string> Sources;
  for (const Sample &S : DS.Train)
    Sources.insert(S.SrcText);
  ASSERT_EQ(Sources.size(), DS.Train.size());

  RobustVerifyOptions O = trainLadder();
  std::map<std::string, VerifyResult> OracleMemo;
  auto oracleFor = [&](const Sample &S, const std::string &Text) {
    auto [It, New] = OracleMemo.try_emplace(S.SrcText + '\x1f' + Text);
    if (New)
      It->second = oracle::verifyLadder(S.SrcText, *S.source(), Text, O);
    return It->second;
  };

  Counter &SourceBuilds =
      MetricsRegistry::global().counter("verify.source_builds");
  for (unsigned Threads : {1u, 4u}) {
    for (bool UseCache : {false, true}) {
      SCOPED_TRACE("threads " + std::to_string(Threads) +
                   (UseCache ? ", cache" : ", no cache"));
      std::mutex M;
      std::vector<std::pair<const Sample *, std::string>> Texts;
      std::vector<VerifyResult> Verdicts;
      RewardFn Record = [&](const Sample &S, const Completion &C,
                            const RolloutAnswer &Answer,
                            const RolloutVerdicts &V) {
        std::lock_guard<std::mutex> L(M);
        if (C.FormatOk) {
          Texts.emplace_back(&S, C.AnswerIR);
          Verdicts.push_back(V.Answer);
        }
        Texts.emplace_back(&S, C.ThinkAttemptIR);
        Verdicts.push_back(V.Attempt);
        return answerScore(S, C, Answer, V.Answer);
      };
      RewritePolicyModel Model(presetQwen3B());
      auto Cache = UseCache ? std::make_unique<VerifyCache>(512) : nullptr;
      ThreadPool Pool(Threads);
      BatchVerifier Verifier = makeVerifier(O, Cache.get());
      GRPOOptions G = smallGRPO(&Pool);
      G.Mode = PromptMode::Augmented;
      const uint64_t Builds0 = SourceBuilds.value();
      {
        GRPOTrainer Trainer(Model, Verifier, Record, G);
        ASSERT_EQ(Trainer.train(DS.Train, 6).size(), 6u);
      }
      const uint64_t Builds = SourceBuilds.value() - Builds0;

      // A verdict past the guard chain needs the prompt's source half; the
      // cache starts cold, so some group of this run built it. (The oracle
      // builds fresh halves of its own, hence the count above.)
      std::set<const Sample *> Verified;
      for (size_t I = 0; I < Verdicts.size(); ++I) {
        expectLadderVerdict(Verdicts[I],
                            oracleFor(*Texts[I].first, Texts[I].second),
                            Texts[I].second);
        if (Verdicts[I].Status != VerifyStatus::SyntaxError)
          Verified.insert(Texts[I].first);
      }
      EXPECT_FALSE(Verified.empty());
      EXPECT_EQ(Builds, Verified.size());
    }
  }

  // An explicit batch that repeats a prompt, so A's two groups share one
  // kept half. At 1 and 4 threads the logs, the verdicts and every batch.*,
  // verify.* and smt.* counter delta are identical.
  const Sample &A = DS.Train[0], &B = DS.Train[1];
  struct Seen {
    std::string Sample, Text;
    VerifyResult Verdict;
  };
  struct StepRun {
    std::vector<TrainLogEntry> Logs;
    std::vector<Seen> Verdicts; // sorted by (sample, text)
    std::map<std::string, uint64_t> Deltas;
  };
  auto countedLayers = [] {
    std::map<std::string, uint64_t> Out;
    for (const auto &[Name, V] :
         MetricsRegistry::global().snapshot().Counters)
      if (Name.rfind("batch.", 0) == 0 || Name.rfind("verify.", 0) == 0 ||
          Name.rfind("smt.", 0) == 0)
        Out[Name] = V;
    return Out;
  };
  for (bool UseCache : {false, true}) {
    std::vector<StepRun> Runs;
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE("step {A, A, B}, threads " + std::to_string(Threads) +
                   (UseCache ? ", cache" : ", no cache"));
      StepRun Run;
      std::mutex M;
      RewardFn Record = [&](const Sample &S, const Completion &C,
                            const RolloutAnswer &Answer,
                            const RolloutVerdicts &V) {
        std::lock_guard<std::mutex> L(M);
        if (C.FormatOk)
          Run.Verdicts.push_back({S.Name, C.AnswerIR, V.Answer});
        Run.Verdicts.push_back({S.Name, C.ThinkAttemptIR, V.Attempt});
        return answerScore(S, C, Answer, V.Answer);
      };
      RewritePolicyModel Model(presetQwen3B());
      auto Cache = UseCache ? std::make_unique<VerifyCache>(512) : nullptr;
      ThreadPool Pool(Threads);
      BatchVerifier Verifier = makeVerifier(O, Cache.get());
      GRPOOptions G = smallGRPO(&Pool);
      G.Mode = PromptMode::Augmented;
      GRPOTrainer Trainer(Model, Verifier, Record, G);
      const std::map<std::string, uint64_t> Before = countedLayers();
      for (int Step = 0; Step < 2; ++Step)
        Run.Logs.push_back(Trainer.step({&A, &A, &B}));
      for (const auto &[Name, V] : countedLayers()) {
        auto It = Before.find(Name);
        uint64_t Delta = V - (It == Before.end() ? 0 : It->second);
        if (Delta)
          Run.Deltas[Name] = Delta;
      }
      EXPECT_GT(Run.Deltas["batch.groups"], 0u);

      std::stable_sort(Run.Verdicts.begin(), Run.Verdicts.end(),
                       [](const Seen &X, const Seen &Y) {
                         return std::tie(X.Sample, X.Text) <
                                std::tie(Y.Sample, Y.Text);
                       });
      for (const Seen &R : Run.Verdicts)
        expectLadderVerdict(R.Verdict,
                            oracleFor(R.Sample == A.Name ? A : B, R.Text),
                            R.Text);
      Runs.push_back(std::move(Run));
    }
    SCOPED_TRACE(UseCache ? "cache" : "no cache");
    const StepRun &Serial = Runs[0], &Pooled = Runs[1];
    expectSameTrajectory(Serial.Logs, Pooled.Logs);
    for (size_t I = 0; I < Serial.Logs.size(); ++I) {
      EXPECT_EQ(Serial.Logs[I].CacheHitRate, Pooled.Logs[I].CacheHitRate);
      EXPECT_EQ(Serial.Logs[I].FalsifyWins, Pooled.Logs[I].FalsifyWins);
    }
    ASSERT_EQ(Serial.Verdicts.size(), Pooled.Verdicts.size());
    for (size_t I = 0; I < Serial.Verdicts.size(); ++I) {
      EXPECT_EQ(Serial.Verdicts[I].Sample, Pooled.Verdicts[I].Sample);
      expectLadderVerdict(Pooled.Verdicts[I].Verdict,
                          Serial.Verdicts[I].Verdict,
                          Serial.Verdicts[I].Text);
    }
    EXPECT_EQ(Serial.Deltas, Pooled.Deltas);
  }
}

TEST(Trainer, RetryQueriesCountUniqueCandidates) {
  // The ladder runs once per canonically distinct candidate of a group:
  // each step's verify.retry.queries delta equals its batch.unique delta.
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  VerifyCache Cache(512);
  BatchVerifier Verifier = makeVerifier(trainLadder(), &Cache);
  GRPOOptions G = smallGRPO();
  G.Mode = PromptMode::Augmented;
  GRPOTrainer Trainer(Model, Verifier, AnswerReward, G);

  Counter &Queries = MetricsRegistry::global().counter("verify.retry.queries");
  Counter &Unique = MetricsRegistry::global().counter("batch.unique");
  uint64_t Q0 = Queries.value(), U0 = Unique.value();
  unsigned Steps = 0;
  Trainer.train(DS.Train, 6, [&](const TrainLogEntry &E) {
    EXPECT_EQ(Queries.value() - Q0, Unique.value() - U0) << "step " << E.Step;
    EXPECT_GT(Unique.value(), U0) << "step " << E.Step;
    Q0 = Queries.value();
    U0 = Unique.value();
    ++Steps;
    return true;
  });
  EXPECT_EQ(Steps, 6u);
}

TEST(Trainer, TrajectoryIsPinned) {
  // A few steps under each pipeline reward: the answer reward in Generic
  // mode, the correctness reward in Augmented mode, and the latency reward
  // in Generic mode at the stage-3 temperature. The digest covers the bits
  // of the trained parameters and every deterministic TrainLogEntry field.
  // It was recorded before the trainer kept per-prompt decode and reward
  // records, so keeping them moves no bit, at 1 or 4 scoring threads.
  const Dataset &DS = tinyDataset();
  LatencyRewardParams Latency;
  Latency.UMax = computeUMax(DS.Train);
  struct Arm {
    RewardFn Reward;
    PromptMode Mode;
    double Temperature;
    bool ScoresBleu;
  };
  const Arm Arms[] = {
      {makeAnswerReward(), PromptMode::Generic, 1.0, true},
      {makeCorrectnessReward(), PromptMode::Augmented, 1.0, true},
      {makeLatencyReward(Latency), PromptMode::Generic,
       PipelineOptions().Stage3Temperature, false}};
  Counter &Bleus = MetricsRegistry::global().counter("reward.bleu");
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    pins::Fnv1a D;
    for (const Arm &A : Arms) {
      const uint64_t Bleus0 = Bleus.value();
      RewritePolicyModel Model(presetQwen3B());
      VerifyCache Cache(512);
      ThreadPool Pool(Threads);
      BatchVerifier Verifier = makeVerifier(trainLadder(), &Cache);
      GRPOOptions G = smallGRPO(&Pool);
      G.Mode = A.Mode;
      G.Temperature = A.Temperature;
      GRPOTrainer Trainer(Model, Verifier, A.Reward, G);
      for (const TrainLogEntry &E : Trainer.train(DS.Train, 8)) {
        D.addU64(E.Step);
        D.addDoubleBits(E.MeanReward);
        D.addDoubleBits(E.EMAReward);
        D.addDoubleBits(E.EquivalentRate);
        D.addDoubleBits(E.CopyRate);
        D.addDoubleBits(E.GradNorm);
        D.addU64(E.FalsifyWins);
        D.addU64(E.SolverConflicts);
        D.addU64(E.RetryEscalations);
        D.addU64(E.TerminalInconclusive);
        D.addU64(E.MaxRetryTier);
      }
      for (double W : Model.params())
        D.addDoubleBits(W);
      // The latency reward reads no BLEU, so it computes none.
      EXPECT_EQ(Bleus.value() > Bleus0, A.ScoresBleu);
    }
    EXPECT_EQ(D.H, 0xac5d20961887e464ULL);
  }
}

TEST(Trainer, ColdCacheHitRateReflectsComputedRungs) {
  // CacheHitRate counts the ladder rungs the cache served against those
  // the step computed: a cold cache cannot serve the first step entirely.
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  VerifyCache Cache(512);
  BatchVerifier Verifier = makeVerifier(trainLadder(), &Cache);
  GRPOTrainer Trainer(Model, Verifier, AnswerReward, smallGRPO());
  auto Logs = Trainer.train(DS.Train, 3);
  ASSERT_EQ(Logs.size(), 3u);
  EXPECT_LT(Logs[0].CacheHitRate, 1.0);
  EXPECT_GT(Cache.counters().Misses, 0u);
}

TEST(Trainer, RolloutHookSeesEveryRolloutInOrder) {
  const Dataset &DS = tinyDataset();
  GRPOOptions G;
  G.GroupSize = 4;
  G.PromptsPerStep = 2;
  std::vector<const Sample *> SerialOrder, ParallelOrder;
  ThreadPool Pool(4);
  for (auto *Order : {&SerialOrder, &ParallelOrder}) {
    G.Pool = Order == &SerialOrder ? nullptr : &Pool;
    G.OnRollout = [Order](const Sample &S, const Completion &,
                          const RolloutScore &) { Order->push_back(&S); };
    BatchVerifier Verifier = makeVerifier(RobustVerifyOptions(), nullptr);
    RewritePolicyModel M(presetQwen3B());
    GRPOTrainer Trainer(M, Verifier, FlatReward, G);
    Trainer.train(DS.Train, 3);
  }
  EXPECT_EQ(SerialOrder.size(), 3u * 2 * 4);
  EXPECT_EQ(SerialOrder, ParallelOrder);
}

TEST(Trainer, SFTReducesLossAndTeachesOracle) {
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());

  std::vector<SFTExample> Data;
  for (const Sample &S : DS.Train) {
    SFTExample Ex;
    Ex.S = &S;
    Ex.TargetActions = oracleActions(S.RefTrace, Model);
    Ex.DiagClassTarget = 0;
    Data.push_back(Ex);
    // A synthetic correction example.
    SFTExample Corr = Data.back();
    Corr.IsCorrection = true;
    Corr.AttemptActions = {Action::CorruptConstant, Action::Stop};
    Corr.DiagClassTarget = 3;
    Data.push_back(Corr);
  }

  double Before = sftLoss(Model, Data);
  SFTOptions Opts;
  Opts.Epochs = 6;
  sftTrain(Model, Data, Opts);
  double After = sftLoss(Model, Data);
  EXPECT_LT(After, Before) << "SFT failed to reduce the loss";

  // The trained diagnosis head must map the corruption to its class.
  double LpRight = Model.diagLogProb({Action::CorruptConstant, Action::Stop},
                                     3);
  double LpWrong = Model.diagLogProb({Action::CorruptConstant, Action::Stop},
                                     1);
  EXPECT_GT(LpRight, LpWrong);

  // And the fix gate should have moved toward "fix".
  EXPECT_GT(Model.fixLogProb(true), Model.fixLogProb(false));
}

TEST(Trainer, SFTRaisesOracleSequenceProbability) {
  const Dataset &DS = tinyDataset();
  RewritePolicyModel Model(presetQwen3B());
  const Sample &S = DS.Train.front();
  auto Target = oracleActions(S.RefTrace, Model);
  double Before = Model.sequenceLogProb(*S.source(), Target);
  std::vector<SFTExample> Data;
  SFTExample Ex;
  Ex.S = &S;
  Ex.TargetActions = Target;
  Data.push_back(Ex);
  SFTOptions Opts;
  Opts.Epochs = 10;
  sftTrain(Model, Data, Opts);
  double After = Model.sequenceLogProb(*S.source(), Target);
  EXPECT_GT(After, Before);
}

} // namespace
} // namespace veriopt
