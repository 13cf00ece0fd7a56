//===- FaultToleranceTest.cpp - Checkpoint/resume + fault injection -------===//
//
// The acceptance bar for the fault-tolerant runtime:
//  * killing the pipeline at an arbitrary step and resuming from the
//    checkpoint yields artifacts bit-identical to an uninterrupted run;
//  * the trainer survives every injected fault class without hanging;
//  * with injection disabled, results are independent of thread count and
//    of cache residency.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "store/VerdictStore.h"
#include "support/IoEnv.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace veriopt {
namespace {

const Dataset &smallDataset() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 12;
    O.ValidCount = 4;
    O.Seed = 77;
    return buildDataset(O);
  }();
  return DS;
}

PipelineOptions smallOptions() {
  PipelineOptions P;
  P.Stage1Steps = 4;
  P.Stage2Steps = 4;
  P.Stage3Steps = 4;
  P.GRPO.GroupSize = 4;
  P.GRPO.PromptsPerStep = 2;
  P.Seed = 2026;
  return P;
}

/// The deterministic slice of two runs' artifacts must match exactly.
void expectIdenticalArtifacts(const PipelineArtifacts &A,
                              const PipelineArtifacts &B) {
  ASSERT_NE(A.Latency, nullptr);
  ASSERT_NE(B.Latency, nullptr);
  EXPECT_EQ(A.ModelZero->params(), B.ModelZero->params());
  EXPECT_EQ(A.WarmUp->params(), B.WarmUp->params());
  EXPECT_EQ(A.Correctness->params(), B.Correctness->params());
  EXPECT_EQ(A.Latency->params(), B.Latency->params());

  auto expectSameLog = [](const std::vector<TrainLogEntry> &X,
                          const std::vector<TrainLogEntry> &Y) {
    ASSERT_EQ(X.size(), Y.size());
    for (size_t I = 0; I < X.size(); ++I) {
      EXPECT_EQ(X[I].Step, Y[I].Step);
      EXPECT_EQ(X[I].MeanReward, Y[I].MeanReward) << "step " << I;
      EXPECT_EQ(X[I].EMAReward, Y[I].EMAReward);
      EXPECT_EQ(X[I].EquivalentRate, Y[I].EquivalentRate);
      EXPECT_EQ(X[I].CopyRate, Y[I].CopyRate);
      EXPECT_EQ(X[I].GradNorm, Y[I].GradNorm);
      EXPECT_EQ(X[I].FalsifyWins, Y[I].FalsifyWins);
      EXPECT_EQ(X[I].SolverConflicts, Y[I].SolverConflicts);
      EXPECT_EQ(X[I].RetryEscalations, Y[I].RetryEscalations);
      EXPECT_EQ(X[I].TerminalInconclusive, Y[I].TerminalInconclusive);
      EXPECT_EQ(X[I].MaxRetryTier, Y[I].MaxRetryTier);
    }
  };
  expectSameLog(A.Stage1Log, B.Stage1Log);
  expectSameLog(A.Stage2Log, B.Stage2Log);
  expectSameLog(A.Stage3Log, B.Stage3Log);

  EXPECT_EQ(A.Augmented.size(), B.Augmented.size());
  EXPECT_EQ(A.CorrectionSamples, B.CorrectionSamples);
  EXPECT_EQ(A.FirstTimeSamples, B.FirstTimeSamples);
}

TEST(FaultTolerance, KillResumeYieldsIdenticalArtifacts) {
  const Dataset &DS = smallDataset();

  // Reference: one uninterrupted run, no checkpointing at all.
  PipelineArtifacts Ref = runTrainingPipeline(DS, smallOptions());
  ASSERT_FALSE(Ref.Halted);

  // Interrupted: kill after every 5 GRPO steps, resume from the checkpoint
  // until the pipeline reports completion. The halt points land in
  // different stages, so this also exercises stage-boundary resumes.
  const std::string Path = "ckpt_test_killresume.bin";
  std::remove(Path.c_str());
  PipelineArtifacts Res;
  unsigned Legs = 0;
  for (;; ++Legs) {
    ASSERT_LT(Legs, 20u) << "resume loop did not converge";
    PipelineOptions P = smallOptions();
    P.CheckpointPath = Path;
    P.CheckpointEveryNSteps = 2; // also exercise periodic checkpoints
    P.Resume = true;             // first leg: no file yet -> fresh start
    P.HaltAfterSteps = 5;
    Res = runTrainingPipeline(DS, P);
    if (!Res.Halted)
      break;
    EXPECT_GT(Res.CheckpointsWritten, 0u);
  }
  EXPECT_GE(Legs, 2u) << "test misconfigured: nothing was interrupted";

  expectIdenticalArtifacts(Ref, Res);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, ResumeIgnoresCheckpointFromDifferentSeed) {
  const Dataset &DS = smallDataset();
  const std::string Path = "ckpt_test_wrongseed.bin";
  std::remove(Path.c_str());

  PipelineOptions P = smallOptions();
  P.CheckpointPath = Path;
  P.HaltAfterSteps = 3;
  P.Resume = true;
  PipelineArtifacts Halted = runTrainingPipeline(DS, P);
  ASSERT_TRUE(Halted.Halted);

  // A different seed must not adopt this checkpoint: the run starts fresh
  // (and therefore completes all stages rather than resuming mid-stage-1).
  PipelineOptions Q = smallOptions();
  Q.Seed = 4711;
  Q.CheckpointPath = Path;
  Q.Resume = true;
  PipelineArtifacts Fresh = runTrainingPipeline(DS, Q);
  EXPECT_FALSE(Fresh.Halted);
  EXPECT_EQ(Fresh.Stage1Log.size(), smallOptions().Stage1Steps);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, SurvivesFaultStormWithoutHanging) {
  const Dataset &DS = smallDataset();
  FaultInjector FI(1234);
  FI.enable(FaultSite::OracleBudget, 0.3);
  FI.enable(FaultSite::VerdictFlip, 0.05);
  FI.enable(FaultSite::CacheMiss, 0.3);
  // Half of all checkpoint attempts fail: each attempt renames once. A
  // checkpoint is lost only when all three attempts fail (p = 1/8), so over
  // this run's 15 checkpoints some seeds lose none — seed 1234 among them.
  // Seed 1 loses three.
  FaultInjector IoFI(1);
  IoFI.enable(FaultSite::IoRename, 0.5);
  FaultyIoEnv Io(IoFI);

  const std::string Path = "ckpt_test_faultstorm.bin";
  std::remove(Path.c_str());
  PipelineOptions P = smallOptions();
  P.Faults = &FI;
  P.CheckpointPath = Path;
  P.CheckpointEveryNSteps = 1;
  PipelineArtifacts Art;
  {
    ScopedIoEnv Install(&Io);
    Art = runTrainingPipeline(DS, P);
  }

  // The run completes every stage despite the storm.
  EXPECT_FALSE(Art.Halted);
  ASSERT_NE(Art.Latency, nullptr);
  EXPECT_EQ(Art.Stage1Log.size(), P.Stage1Steps);
  EXPECT_EQ(Art.Stage2Log.size(), P.Stage2Steps);
  EXPECT_EQ(Art.Stage3Log.size(), P.Stage3Steps);

  // Faults actually fired and were logged, not silently swallowed.
  EXPECT_GT(Art.InjectedFaults, 0u);
  EXPECT_GT(Art.CheckpointWriteFailures, 0u);
  EXPECT_GT(Art.CheckpointsWritten + Art.CheckpointWriteFailures,
            P.Stage1Steps + P.Stage2Steps + P.Stage3Steps - 1);
  EXPECT_GT(FI.counters().injected(FaultSite::OracleBudget), 0u);
  // Injected oracle exhaustion is recovered through the retry ladder.
  EXPECT_GT(Art.RetryEscalations, 0u);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, CheckpointRetriesRecoverTransientWriteFaults) {
  // Each attempt's rename is a new operation on the checkpoint path, so a
  // retry of a failed checkpoint write decides independently of the first
  // attempt: at rate 0.5 with two retries most checkpoints land, the
  // telemetry records the retries, and the trajectory is bit-identical to
  // the fault-free run (durability work never feeds back into training).
  const Dataset &DS = smallDataset();
  PipelineArtifacts Plain = runTrainingPipeline(DS, smallOptions());

  FaultInjector FI(7001);
  FI.enable(FaultSite::IoRename, 0.5);
  FaultyIoEnv Io(FI);
  const std::string Path = "ckpt_test_retry.bin";
  std::remove(Path.c_str());
  PipelineOptions P = smallOptions();
  P.CheckpointPath = Path;
  P.CheckpointEveryNSteps = 1;
  PipelineArtifacts Art;
  {
    ScopedIoEnv Install(&Io);
    Art = runTrainingPipeline(DS, P);
  }

  EXPECT_FALSE(Art.Halted);
  EXPECT_GT(Art.CheckpointRetries, 0u) << "no retry ever fired at rate 0.5";
  // A retried write only counts as a failure when every attempt loses
  // (p = 0.125 per checkpoint here), so retries must strictly improve on
  // the no-retry storm: most checkpoints land.
  EXPECT_GT(Art.CheckpointsWritten, Art.CheckpointWriteFailures);
  expectIdenticalArtifacts(Plain, Art);
  std::remove(Path.c_str());
}

TEST(FaultTolerance, IoFaultStormPreservesTrajectory) {
  // The tentpole invariant end to end: run the pipeline with every durable
  // subsystem it touches (periodic checkpoints + the verdict-store
  // journal) behind a hostile disk — injected open/write/short-write/
  // fsync/rename/flock failures — and require the training trajectory to
  // be bit-identical to the fault-free same-seed run. I/O faults may cost
  // durability, never correctness or determinism.
  const Dataset &DS = smallDataset();
  PipelineArtifacts Plain = runTrainingPipeline(DS, smallOptions());

  const std::string Ckpt = "ckpt_test_iostorm.bin";
  const std::string Journal = "store_test_iostorm.vstore";
  std::remove(Ckpt.c_str());
  std::remove(Journal.c_str());
  std::remove((Journal + ".lock").c_str());

  VerdictStore::Options SO;
  SO.FlushEveryN = 4; // plenty of journal traffic for the storm to hit
  std::string Err;
  auto Store = VerdictStore::open(Journal, &Err, SO);
  ASSERT_NE(Store, nullptr) << Err;

  FaultInjector IoFI(0xFA11);
  for (FaultSite S : {FaultSite::IoOpen, FaultSite::IoWrite,
                      FaultSite::IoShortWrite, FaultSite::IoFsync,
                      FaultSite::IoRename, FaultSite::IoFlock})
    IoFI.enable(S, 0.25);
  FaultyIoEnv Env(IoFI);

  PipelineOptions P = smallOptions();
  P.CheckpointPath = Ckpt;
  P.CheckpointEveryNSteps = 1;
  P.VerdictTier = Store.get();
  PipelineArtifacts Art;
  {
    ScopedIoEnv Install(&Env);
    Art = runTrainingPipeline(DS, P);
  }

  EXPECT_FALSE(Art.Halted);
  EXPECT_GT(IoFI.counters().totalInjected(), 0u) << "storm never fired";
  expectIdenticalArtifacts(Plain, Art);
  // Degradation (if the storm tripped the store) is visible, typed state —
  // not silence, not an abort.
  if (Store->degraded()) {
    EXPECT_FALSE(Store->stats().DegradedReason.empty());
  }

  std::remove(Ckpt.c_str());
  std::remove(Journal.c_str());
  std::remove((Journal + ".lock").c_str());
}

TEST(FaultTolerance, CacheMissFaultsDoNotChangeResults) {
  // Cache residency must never influence training: verification is
  // deterministic, so randomly evicting entries only costs time.
  const Dataset &DS = smallDataset();
  PipelineArtifacts Plain = runTrainingPipeline(DS, smallOptions());

  FaultInjector FI(55);
  FI.enable(FaultSite::CacheMiss, 0.5);
  PipelineOptions P = smallOptions();
  P.Faults = &FI;
  PipelineArtifacts Faulted = runTrainingPipeline(DS, P);

  EXPECT_GT(FI.counters().injected(FaultSite::CacheMiss), 0u);
  expectIdenticalArtifacts(Plain, Faulted);
}

TEST(FaultTolerance, ThreadCountInvariantWithInjectionDisabled) {
  const Dataset &DS = smallDataset();
  PipelineOptions P1 = smallOptions();
  P1.Threads = 1;
  PipelineOptions P4 = smallOptions();
  P4.Threads = 4;
  PipelineArtifacts A = runTrainingPipeline(DS, P1);
  PipelineArtifacts B = runTrainingPipeline(DS, P4);
  expectIdenticalArtifacts(A, B);
}

} // namespace
} // namespace veriopt
