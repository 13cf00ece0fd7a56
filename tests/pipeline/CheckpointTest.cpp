//===- CheckpointTest.cpp - Checkpoint save/load round-trips --------------===//

#include "pipeline/Checkpoint.h"

#include "support/IoEnv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

namespace veriopt {
namespace {

/// Unique-ish per-test scratch path inside the build tree's cwd.
std::string scratchPath(const char *Name) {
  return std::string("ckpt_test_") + Name + ".bin";
}

bool bitEqual(double A, double B) {
  uint64_t X, Y;
  std::memcpy(&X, &A, sizeof(X));
  std::memcpy(&Y, &B, sizeof(Y));
  return X == Y;
}

PipelineCheckpoint makeRichCheckpoint() {
  PipelineCheckpoint CP;
  CP.Seed = 2026;
  CP.StageIdx = 1;
  CP.Trainer.StepCount = 17;
  CP.Trainer.RNGState = 0xDEADBEEFCAFEF00DULL;
  CP.Trainer.EMAValue = 1.0 / 3.0; // not exactly representable in decimal
  CP.Trainer.EMAPrimed = true;

  CP.ModelZeroParams = {0.1, -0.0, 1.0 / 3.0,
                        std::numeric_limits<double>::min(),
                        std::numeric_limits<double>::denorm_min(), -17.25};
  CP.WarmUpParams = {2.5, -3.75};
  // Correctness intentionally empty (= not built yet); latency has one.
  CP.LatencyParams = {1e-300};

  TrainLogEntry E;
  E.Step = 3;
  E.MeanReward = 0.123456789012345;
  E.EMAReward = -0.25;
  E.EquivalentRate = 2.0 / 3.0;
  E.CopyRate = 0.5;
  E.GradNorm = 1e-9;
  E.ScoreWallMs = 12.5;
  E.CacheHitRate = 0.875;
  E.FalsifyWins = 4;
  E.SolverConflicts = 123456;
  E.RetryEscalations = 2;
  E.TerminalInconclusive = 1;
  E.MaxRetryTier = 2;
  CP.Stage1Log = {E, E};
  E.Step = 9;
  CP.Stage2Log = {E};
  // Stage3Log empty.

  AugmentedRecord R1;
  R1.SampleIdx = 5;
  R1.TargetActions = {1, 2, 3, 0};
  R1.IsCorrection = true;
  R1.AttemptActions = {7, 0};
  R1.DiagClass = 4;
  AugmentedRecord R2;
  R2.SampleIdx = 0;
  R2.TargetActions = {0};
  CP.Augmented = {R1, R2};
  CP.CorrectionSamples = 1;
  CP.FirstTimeSamples = 1;
  return CP;
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const std::string Path = scratchPath("roundtrip");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));

  PipelineCheckpoint L;
  ASSERT_TRUE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.Version, CP.Version);
  EXPECT_EQ(L.Seed, CP.Seed);
  EXPECT_EQ(L.StageIdx, CP.StageIdx);
  EXPECT_EQ(L.Trainer.StepCount, CP.Trainer.StepCount);
  EXPECT_EQ(L.Trainer.RNGState, CP.Trainer.RNGState);
  EXPECT_TRUE(bitEqual(L.Trainer.EMAValue, CP.Trainer.EMAValue));
  EXPECT_EQ(L.Trainer.EMAPrimed, CP.Trainer.EMAPrimed);

  ASSERT_EQ(L.ModelZeroParams.size(), CP.ModelZeroParams.size());
  for (size_t I = 0; I < CP.ModelZeroParams.size(); ++I)
    EXPECT_TRUE(bitEqual(L.ModelZeroParams[I], CP.ModelZeroParams[I]))
        << "param " << I;
  EXPECT_EQ(L.WarmUpParams.size(), 2u);
  EXPECT_TRUE(L.CorrectnessParams.empty());
  ASSERT_EQ(L.LatencyParams.size(), 1u);
  EXPECT_TRUE(bitEqual(L.LatencyParams[0], 1e-300));

  ASSERT_EQ(L.Stage1Log.size(), 2u);
  ASSERT_EQ(L.Stage2Log.size(), 1u);
  EXPECT_TRUE(L.Stage3Log.empty());
  const TrainLogEntry &A = L.Stage1Log[0], &B = CP.Stage1Log[0];
  EXPECT_EQ(A.Step, B.Step);
  EXPECT_TRUE(bitEqual(A.MeanReward, B.MeanReward));
  EXPECT_TRUE(bitEqual(A.EMAReward, B.EMAReward));
  EXPECT_TRUE(bitEqual(A.EquivalentRate, B.EquivalentRate));
  EXPECT_TRUE(bitEqual(A.CopyRate, B.CopyRate));
  EXPECT_TRUE(bitEqual(A.GradNorm, B.GradNorm));
  EXPECT_TRUE(bitEqual(A.ScoreWallMs, B.ScoreWallMs));
  EXPECT_TRUE(bitEqual(A.CacheHitRate, B.CacheHitRate));
  EXPECT_EQ(A.FalsifyWins, B.FalsifyWins);
  EXPECT_EQ(A.SolverConflicts, B.SolverConflicts);
  EXPECT_EQ(A.RetryEscalations, B.RetryEscalations);
  EXPECT_EQ(A.TerminalInconclusive, B.TerminalInconclusive);
  EXPECT_EQ(A.MaxRetryTier, B.MaxRetryTier);

  ASSERT_EQ(L.Augmented.size(), 2u);
  EXPECT_EQ(L.Augmented[0].SampleIdx, 5u);
  EXPECT_EQ(L.Augmented[0].TargetActions, CP.Augmented[0].TargetActions);
  EXPECT_TRUE(L.Augmented[0].IsCorrection);
  EXPECT_EQ(L.Augmented[0].AttemptActions, CP.Augmented[0].AttemptActions);
  EXPECT_EQ(L.Augmented[0].DiagClass, 4u);
  EXPECT_FALSE(L.Augmented[1].IsCorrection);
  EXPECT_EQ(L.CorrectionSamples, 1u);
  EXPECT_EQ(L.FirstTimeSamples, 1u);

  std::remove(Path.c_str());
}

TEST(Checkpoint, MissingFileFailsCleanly) {
  PipelineCheckpoint L;
  L.Seed = 99;
  EXPECT_FALSE(loadCheckpoint("ckpt_test_does_not_exist.bin", L));
  // The output is untouched on failure.
  EXPECT_EQ(L.Seed, 99u);
}

TEST(Checkpoint, TruncatedFileFailsCleanly) {
  const std::string Path = scratchPath("truncated");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));
  // Chop the file roughly in half.
  std::string Contents;
  {
    std::ifstream F(Path, std::ios::binary);
    Contents.assign(std::istreambuf_iterator<char>(F),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << Contents.substr(0, Contents.size() / 2);
  }
  PipelineCheckpoint L;
  L.Seed = 99;
  EXPECT_FALSE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.Seed, 99u);
  std::remove(Path.c_str());
}

TEST(Checkpoint, BadMagicOrVersionFails) {
  const std::string Path = scratchPath("badmagic");
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << "not-a-checkpoint 1\n";
  }
  PipelineCheckpoint L;
  EXPECT_FALSE(loadCheckpoint(Path, L));
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << "veriopt-ckpt 999\nseed 1\n";
  }
  EXPECT_FALSE(loadCheckpoint(Path, L));
  std::remove(Path.c_str());
}

TEST(Checkpoint, SaveOverwritesAtomically) {
  const std::string Path = scratchPath("overwrite");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));
  CP.StageIdx = 2;
  CP.Trainer.StepCount = 99;
  ASSERT_TRUE(saveCheckpoint(Path, CP));
  // No stale temp file left behind.
  std::ifstream Tmp(Path + ".tmp");
  EXPECT_FALSE(Tmp.good());
  PipelineCheckpoint L;
  ASSERT_TRUE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.StageIdx, 2u);
  EXPECT_EQ(L.Trainer.StepCount, 99u);
  std::remove(Path.c_str());
}

TEST(Checkpoint, InjectedWriteFailureLeavesPreviousCheckpoint) {
  const std::string Path = scratchPath("faultwrite");
  PipelineCheckpoint CP = makeRichCheckpoint();
  ASSERT_TRUE(saveCheckpoint(Path, CP));

  // Every rename fails: the new checkpoint is never published.
  FaultInjector FI(11);
  FI.enable(FaultSite::IoRename, 1.0);
  FaultyIoEnv Io(FI);
  PipelineCheckpoint Next = CP;
  Next.StageIdx = 2;
  {
    ScopedIoEnv Install(&Io);
    EXPECT_FALSE(saveCheckpoint(Path, Next));
  }
  EXPECT_GT(FI.counters().injected(FaultSite::IoRename), 0u);

  // The previous checkpoint still stands, bit for bit.
  PipelineCheckpoint L;
  ASSERT_TRUE(loadCheckpoint(Path, L));
  EXPECT_EQ(L.StageIdx, CP.StageIdx);
  std::remove(Path.c_str());
}

} // namespace
} // namespace veriopt
