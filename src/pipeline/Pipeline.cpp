//===- Pipeline.cpp - The four-model training pipeline ------------------------//

#include "pipeline/Pipeline.h"

#include "pipeline/EvalDriver.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"
#include "verify/BatchVerifier.h"

#include <chrono>
#include <thread>

namespace veriopt {

static RolloutScore scoreFromBreakdown(const RewardBreakdown &B,
                                       double Reward) {
  RolloutScore Score;
  Score.Reward = Reward;
  Score.Equivalent = B.Equivalent;
  Score.ExactMatch = B.ExactMatch;
  Score.IsCopy = B.IsCopy;
  Score.AnswerVerify = B.Verify;
  return Score;
}

RewardFn makeAnswerReward() {
  return [](const Sample &S, const Completion &C,
            const RolloutAnswer &Answer, const RolloutVerdicts &V) {
    RewardBreakdown B = answerReward(S, C, Answer, V.Answer);
    return scoreFromBreakdown(B, B.Total);
  };
}

RewardFn makeCorrectnessReward() {
  return [](const Sample &S, const Completion &C,
            const RolloutAnswer &Answer, const RolloutVerdicts &V) {
    RewardBreakdown B = answerReward(S, C, Answer, V.Answer);
    return scoreFromBreakdown(B, B.Total + cotReward(C, V.Attempt));
  };
}

RewardFn makeLatencyReward(const LatencyRewardParams &P) {
  return [P](const Sample &S, const Completion &C,
             const RolloutAnswer &Answer, const RolloutVerdicts &V) {
    RewardBreakdown B = answerChecks(S, C, Answer, V.Answer);
    // Eq. (4): equivalence-gated shaped speedup. Alive2 stays in the loop
    // as the gate even though the instcombine labels are gone.
    return scoreFromBreakdown(
        B, latencyReward(S, Answer.Parse, B.Equivalent, P));
  };
}

static void foldStageLog(PipelineArtifacts &Art,
                         const std::vector<TrainLogEntry> &Log) {
  for (const TrainLogEntry &E : Log) {
    Art.RetryEscalations += E.RetryEscalations;
    Art.TerminalInconclusive += E.TerminalInconclusive;
  }
}

//===--- Checkpoint plumbing -------------------------------------------------//

static std::vector<unsigned> encodeActions(const std::vector<Action> &A) {
  std::vector<unsigned> Out;
  Out.reserve(A.size());
  for (Action X : A)
    Out.push_back(static_cast<unsigned>(X));
  return Out;
}

static std::vector<Action> decodeActions(const std::vector<unsigned> &A) {
  std::vector<Action> Out;
  Out.reserve(A.size());
  for (unsigned X : A)
    Out.push_back(static_cast<Action>(X));
  return Out;
}

/// Detach the harvested SFT set from Sample pointers for serialization.
static void captureAugmented(PipelineCheckpoint &CP,
                             const PipelineArtifacts &Art, const Dataset &DS) {
  CP.Augmented.clear();
  CP.Augmented.reserve(Art.Augmented.size());
  for (const SFTExample &Ex : Art.Augmented) {
    AugmentedRecord R;
    R.SampleIdx = static_cast<unsigned>(Ex.S - DS.Train.data());
    R.TargetActions = encodeActions(Ex.TargetActions);
    R.IsCorrection = Ex.IsCorrection;
    R.AttemptActions = encodeActions(Ex.AttemptActions);
    R.DiagClass = Ex.DiagClassTarget;
    CP.Augmented.push_back(std::move(R));
  }
  CP.CorrectionSamples = Art.CorrectionSamples;
  CP.FirstTimeSamples = Art.FirstTimeSamples;
}

/// Re-bind checkpointed SFT records to this run's dataset.
static void rebuildAugmented(PipelineArtifacts &Art,
                             const PipelineCheckpoint &CP, const Dataset &DS) {
  Art.Augmented.clear();
  Art.Augmented.reserve(CP.Augmented.size());
  for (const AugmentedRecord &R : CP.Augmented) {
    if (R.SampleIdx >= DS.Train.size())
      continue; // checkpoint from a different dataset; drop defensively
    SFTExample Ex;
    Ex.S = &DS.Train[R.SampleIdx];
    Ex.TargetActions = decodeActions(R.TargetActions);
    Ex.IsCorrection = R.IsCorrection;
    Ex.AttemptActions = decodeActions(R.AttemptActions);
    Ex.DiagClassTarget = R.DiagClass;
    Art.Augmented.push_back(std::move(Ex));
  }
  Art.CorrectionSamples = CP.CorrectionSamples;
  Art.FirstTimeSamples = CP.FirstTimeSamples;
}

PipelineArtifacts runTrainingPipeline(const Dataset &DS,
                                      const PipelineOptions &Opts) {
  TraceSpan RunSpan("pipeline.run");
  RunSpan.arg(TraceArg::ofInt("seed", static_cast<int64_t>(Opts.Seed)));
  // Thread count shapes the schedule, not the result — nondeterministic
  // plane by convention, so traces at different widths stay diffable.
  RunSpan.meta(TraceArg::ofInt("threads", Opts.Threads));

  PipelineArtifacts Art;
  Art.Base = std::make_unique<RewritePolicyModel>(Opts.BaseModel);
  Art.UMax = computeUMax(DS.Train);

  // One pool, one verification memo and one verifier serve all three GRPO
  // stages (the cache key carries the budget, so sharing across stages is
  // sound). All training verification goes through the verifier's
  // escalating retry ladder at RobustVerifyOptions' defaults: 3 tiers, 4x
  // budget growth per tier.
  ThreadPool Pool(Opts.Threads);
  VerifyCache Cache;
  if (Opts.Faults)
    Cache.setFaultInjector(Opts.Faults);
  // Durable tier under the memo: warm-store training replays verdicts
  // instead of recomputing them, bit-identically (the cache bypasses the
  // tier while a fault injector is attached — see docs/PERSISTENCE.md).
  if (Opts.VerdictTier)
    Cache.setBackingStore(Opts.VerdictTier);

  BatchVerifier::Options BO;
  BO.Robust.Base = Opts.TrainVerify;
  BatchVerifier BV(BO, &Cache, Opts.Faults);

  auto oracleFaults = [&]() -> uint64_t {
    if (!Opts.Faults)
      return 0;
    FaultInjector::Counters C = Opts.Faults->counters();
    return C.injected(FaultSite::OracleBudget) +
           C.injected(FaultSite::VerdictFlip);
  };
  const uint64_t OracleFaultsBefore = oracleFaults();

  GRPOOptions GBase = Opts.GRPO;
  GBase.Pool = &Pool;

  //===--- Resume --------------------------------------------------------===//

  PipelineCheckpoint CP;
  bool Resumed = false;
  if (Opts.Resume && !Opts.CheckpointPath.empty()) {
    PipelineCheckpoint Loaded;
    if (loadCheckpoint(Opts.CheckpointPath, Loaded) &&
        Loaded.Seed == Opts.Seed) {
      CP = std::move(Loaded);
      Resumed = true;
    }
  }
  const unsigned StartStage = Resumed ? CP.StageIdx : 0;

  auto modelFromParams =
      [&](const std::vector<double> &P) -> std::unique_ptr<RewritePolicyModel> {
    if (P.empty())
      return nullptr;
    auto M = std::make_unique<RewritePolicyModel>(Opts.BaseModel);
    if (P.size() == M->numParams())
      M->params() = P;
    return M;
  };
  if (Resumed) {
    Art.ModelZero = modelFromParams(CP.ModelZeroParams);
    Art.WarmUp = modelFromParams(CP.WarmUpParams);
    Art.Correctness = modelFromParams(CP.CorrectnessParams);
    Art.Latency = modelFromParams(CP.LatencyParams);
    Art.Stage1Log = CP.Stage1Log;
    Art.Stage2Log = CP.Stage2Log;
    Art.Stage3Log = CP.Stage3Log;
    rebuildAugmented(Art, CP, DS);
  }

  //===--- Checkpoint/halt machinery -------------------------------------===//

  unsigned StepsThisRun = 0;
  bool Halt = false;

  auto snapshot = [&](unsigned StageIdx, const GRPOTrainerState *TS) {
    PipelineCheckpoint S;
    S.Seed = Opts.Seed;
    S.StageIdx = StageIdx;
    if (TS)
      S.Trainer = *TS;
    if (Art.ModelZero)
      S.ModelZeroParams = Art.ModelZero->params();
    if (Art.WarmUp)
      S.WarmUpParams = Art.WarmUp->params();
    if (Art.Correctness)
      S.CorrectnessParams = Art.Correctness->params();
    if (Art.Latency)
      S.LatencyParams = Art.Latency->params();
    S.Stage1Log = Art.Stage1Log;
    S.Stage2Log = Art.Stage2Log;
    S.Stage3Log = Art.Stage3Log;
    captureAugmented(S, Art, DS);
    return S;
  };

  auto writeCkpt = [&](const PipelineCheckpoint &Snap) {
    if (Opts.CheckpointPath.empty())
      return;
    // Retry with the eval driver's deterministic capped-backoff law (no
    // clock, no randomness in the delay): transient write failures — a
    // briefly full disk, an injected fault — cost a few milliseconds, not
    // a checkpoint. A write that still fails after every attempt is
    // telemetry (the previous checkpoint stands) and training continues on
    // the identical trajectory.
    constexpr unsigned MaxAttempts = 3;
    constexpr uint64_t BackoffBaseMs = 10, BackoffCapMs = 100;
    static Counter &RetriesCounter =
        MetricsRegistry::global().counter("io.checkpoint.retries");
    bool Ok = false;
    unsigned Attempts = 0;
    for (unsigned A = 1; A <= MaxAttempts && !Ok; ++A) {
      if (A >= 2) {
        uint64_t DelayMs = driverBackoffMs(Opts.Seed, Snap.StageIdx, A,
                                           BackoffBaseMs, BackoffCapMs);
        if (DelayMs)
          std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
        ++Art.CheckpointRetries;
        RetriesCounter.inc();
      }
      Attempts = A;
      Ok = saveCheckpoint(Opts.CheckpointPath, Snap);
    }
    if (Ok)
      ++Art.CheckpointsWritten;
    else
      ++Art.CheckpointWriteFailures; // previous checkpoint still stands
    // "ok"/"attempts" ride the meta plane: whether a disk write succeeded
    // is durability-plane information and must not perturb the
    // deterministic args multiset under I/O faults.
    TraceEvent E;
    E.Name = "pipeline.checkpoint";
    E.Phase = TracePhase::Instant;
    E.Args.push_back(TraceArg::ofInt("stage", Snap.StageIdx));
    E.Meta.push_back(TraceArg::ofBool("ok", Ok));
    E.Meta.push_back(TraceArg::ofInt("attempts", Attempts));
    E.TsNs = TraceRecorder::instance().nowNs();
    TraceRecorder::instance().record(std::move(E));
  };

  /// Run the remainder of one GRPO stage: periodic checkpoints, halt on
  /// HaltAfterSteps (after checkpointing, so the run is resumable from
  /// exactly this point).
  auto runStage = [&](unsigned StageIdx, GRPOTrainer &Trainer,
                      std::vector<TrainLogEntry> &Log, unsigned TotalSteps) {
    unsigned Done = static_cast<unsigned>(Log.size());
    if (Done >= TotalSteps || Halt)
      return;
    // Mid-stage resume: reinstate the step counter / RNG / EMA so the
    // continuation is bit-identical to the uninterrupted run.
    if (Resumed && StartStage == StageIdx && Done > 0)
      Trainer.restoreState(CP.Trainer);
    Trainer.train(DS.Train, TotalSteps - Done,
                  [&](const TrainLogEntry &E) {
                    Log.push_back(E);
                    ++StepsThisRun;
                    bool Periodic =
                        Opts.CheckpointEveryNSteps &&
                        Log.size() % Opts.CheckpointEveryNSteps == 0;
                    bool HaltNow = Opts.HaltAfterSteps &&
                                   StepsThisRun >= Opts.HaltAfterSteps;
                    if (Periodic || HaltNow) {
                      GRPOTrainerState TS = Trainer.state();
                      writeCkpt(snapshot(StageIdx, &TS));
                    }
                    if (HaltNow)
                      Halt = true;
                    return !HaltNow;
                  });
  };

  //===--- Stage 1: MODEL-ZERO + diagnostic-augmented sample harvest ------===//

  if (StartStage == 0) {
    TraceSpan StageSpan("pipeline.stage");
    StageSpan.arg(TraceArg::ofStr("stage", "stage1"));
    if (!Art.ModelZero)
      Art.ModelZero = std::make_unique<RewritePolicyModel>(Opts.BaseModel);
    {
      GRPOOptions G = GBase;
      G.Mode = PromptMode::Generic;
      G.Seed = Opts.Seed * 3 + 1;
      G.TraceLabel = "stage1";
      // Every failed rollout becomes a correction-augmented sample (wrong
      // attempt, Alive verdict class, oracle target) — the model-adaptive
      // dataset of §III-C1. The harvest runs in the sequential OnRollout
      // hook, not inside the reward, so the SFT set is identical at any
      // thread count (and needs no locking).
      RewritePolicyModel *Zero = Art.ModelZero.get();
      G.OnRollout = [&Art, Zero](const Sample &S, const Completion &C,
                                 const RolloutScore &Score) {
        bool Failed =
            Score.AnswerVerify.Status == VerifyStatus::SyntaxError ||
            Score.AnswerVerify.Status == VerifyStatus::NotEquivalent;
        // Cap harvesting so a few hard prompts do not dominate the SFT set.
        if (Failed && Art.Augmented.size() < 4 * 1024) {
          SFTExample Ex;
          Ex.S = &S;
          Ex.TargetActions = oracleActions(S.RefTrace, *Zero);
          Ex.IsCorrection = true;
          Ex.AttemptActions = C.Actions;
          Ex.DiagClassTarget = diagKindClass(Score.AnswerVerify.Kind);
          Art.Augmented.push_back(std::move(Ex));
          ++Art.CorrectionSamples;
        }
      };
      GRPOTrainer Trainer(*Art.ModelZero, BV, makeAnswerReward(), G);
      runStage(0, Trainer, Art.Stage1Log, Opts.Stage1Steps);
    }

    if (!Halt) {
      // First-time augmented samples: the plain O0 -> instcombine pairs.
      for (const Sample &S : DS.Train) {
        SFTExample Ex;
        Ex.S = &S;
        Ex.TargetActions = oracleActions(S.RefTrace, *Art.ModelZero);
        Ex.IsCorrection = false;
        Ex.DiagClassTarget = 0; // a clean attempt verifies
        Art.Augmented.push_back(std::move(Ex));
        ++Art.FirstTimeSamples;
      }

      //===--- Stage 2 warm-up: SFT from the pretrained base (Fig. 3) ----===//
      Art.WarmUp = std::make_unique<RewritePolicyModel>(Opts.BaseModel);
      SFTOptions SFT;
      SFT.Epochs = Opts.Stage2SFTEpochs;
      SFT.LearningRate = Opts.Stage2SFTLearningRate;
      SFT.Seed = Opts.Seed * 5 + 2;
      {
        TraceSpan SftSpan("pipeline.stage");
        SftSpan.arg(TraceArg::ofStr("stage", "stage2.sft"));
        sftTrain(*Art.WarmUp, Art.Augmented, SFT);
      }
      Art.Correctness = std::make_unique<RewritePolicyModel>(*Art.WarmUp);

      writeCkpt(snapshot(1, nullptr)); // stage boundary
    }
  }

  //===--- Stage 2: GRPO -> MODEL-CORRECTNESS ----------------------------===//

  if (!Halt && StartStage <= 1 && Art.Correctness) {
    TraceSpan StageSpan("pipeline.stage");
    StageSpan.arg(TraceArg::ofStr("stage", "stage2"));
    GRPOOptions G = GBase;
    G.Mode = PromptMode::Augmented;
    G.Seed = Opts.Seed * 7 + 3;
    G.TraceLabel = "stage2";
    GRPOTrainer Trainer(*Art.Correctness, BV, makeCorrectnessReward(), G);
    runStage(1, Trainer, Art.Stage2Log, Opts.Stage2Steps);
    if (!Halt) {
      Art.Latency = std::make_unique<RewritePolicyModel>(*Art.Correctness);
      writeCkpt(snapshot(2, nullptr)); // stage boundary
    }
  }

  //===--- Stage 3: incremental latency GRPO -> MODEL-LATENCY ------------===//

  if (!Halt && StartStage <= 2 && Art.Latency) {
    TraceSpan StageSpan("pipeline.stage");
    StageSpan.arg(TraceArg::ofStr("stage", "stage3"));
    LatencyRewardParams P;
    P.UMax = Art.UMax;
    GRPOOptions G = GBase;
    G.Mode = PromptMode::Generic; // the <think> section is dropped (§III-C3)
    G.Temperature = Opts.Stage3Temperature;
    G.LearningRate = Opts.Stage3LearningRate;
    G.Seed = Opts.Seed * 11 + 4;
    G.TraceLabel = "stage3";
    GRPOTrainer Trainer(*Art.Latency, BV, makeLatencyReward(P), G);
    runStage(2, Trainer, Art.Stage3Log, Opts.Stage3Steps);
    if (!Halt)
      writeCkpt(snapshot(3, nullptr)); // complete
  }

  Art.Halted = Halt;
  foldStageLog(Art, Art.Stage1Log);
  foldStageLog(Art, Art.Stage2Log);
  foldStageLog(Art, Art.Stage3Log);
  Art.InjectedFaults = oracleFaults() - OracleFaultsBefore;

  return Art;
}

} // namespace veriopt
