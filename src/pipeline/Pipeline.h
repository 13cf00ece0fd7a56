//===- Pipeline.h - The four-model training pipeline -------------*- C++ -*-=//
//
// Implements the paper's §III-C training scheme end to end:
//
//  Stage 1  MODEL-ZERO: GRPO with the generic prompt directly on the base
//           policy. Its main product is not the policy but the stream of
//           *diagnostic-augmented samples* harvested from failed rollouts
//           (wrong attempt + Alive verdict + reference answer).
//  Stage 2  WARM-UP: SFT of a fresh base policy on the augmented samples
//           (first-time + correction), then GRPO with augmented prompts and
//           the CoT reward, yielding MODEL-CORRECTNESS.
//  Stage 3  MODEL-LATENCY: incremental GRPO from MODEL-CORRECTNESS with the
//           Eq.(4) latency reward (labels dropped; Alive2 stays in the
//           reward as the equivalence gate; generic prompt again).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_PIPELINE_PIPELINE_H
#define VERIOPT_PIPELINE_PIPELINE_H

#include "pipeline/Checkpoint.h"
#include "rl/Trainer.h"
#include "support/FaultInjector.h"

#include <memory>

namespace veriopt {

class VerdictBackingTier;

struct PipelineOptions {
  DatasetOptions Data;
  ModelConfig BaseModel = presetQwen3B();

  unsigned Stage1Steps = 50;
  unsigned Stage2SFTEpochs = 2; ///< a light warm-up: rudimentary skills only
  double Stage2SFTLearningRate = 0.05;
  unsigned Stage2Steps = 80;
  unsigned Stage3Steps = 200;
  /// Stage-3 explores aggressively: the latency reward must *discover*
  /// rewrites beyond the instcombine labels (mem2reg/simplifycfg), which
  /// start with low probability after imitation.
  double Stage3Temperature = 1.9;
  /// The latency stage needs a larger step size: its reward is sparse
  /// (zero unless strictly faster) and the actions it must discover start
  /// rare, so the clipped token-normalized gradients are small.
  double Stage3LearningRate = 0.5;

  /// Shared defaults for the three GRPO stages. Every stage sets its own
  /// Mode, Seed, Pool and TraceLabel; stage 1 sets OnRollout (the sample
  /// harvest) and stage 3 sets Temperature and LearningRate from the
  /// Stage3* fields above.
  GRPOOptions GRPO;
  /// Verification budget during training (cheaper than evaluation). Every
  /// candidate runs RobustVerifyOptions' default retry ladder over it.
  VerifyOptions TrainVerify = trainVerifyDefaults();
  uint64_t Seed = 2026;

  /// Size of the one pool that fans out verification and scoring in all
  /// three GRPO stages. Generation stays sequential, so results are
  /// bit-identical at any setting (see GRPOOptions::Pool).
  unsigned Threads = 1;

  //===--- Fault-tolerant runtime ---------------------------------------===//

  /// Checkpoint file; empty disables checkpointing. Written every
  /// CheckpointEveryNSteps GRPO steps (0 = only at stage boundaries and on
  /// halt) via atomic write-then-rename. A failed write is retried twice
  /// after the driver's deterministic capped backoff; one that still fails
  /// is telemetry, never an abort: the previous checkpoint stands and
  /// training continues on the identical trajectory.
  std::string CheckpointPath;
  unsigned CheckpointEveryNSteps = 0;
  /// Resume from CheckpointPath when it holds a checkpoint for this Seed;
  /// the resumed run's deterministic artifacts (parameters, logs, harvested
  /// samples) are identical to an uninterrupted run.
  bool Resume = false;
  /// Test hook: stop this invocation after N GRPO steps (counted across
  /// stages, after writing a checkpoint), returning artifacts with
  /// Halted = true. 0 = run to completion.
  unsigned HaltAfterSteps = 0;

  /// Optional deterministic fault injection (oracle budget exhaustion,
  /// verdict flips, cache misses). Null = off. Checkpoint write failures
  /// come from the installed IoEnv (support/IoEnv.h).
  FaultInjector *Faults = nullptr;

  /// Optional durable verdict tier (the persistent VerdictStore, opened by
  /// the caller from e.g. train_mini's --verdict-store flag) attached under
  /// the run's shared VerifyCache. Warm-store runs are bit-identical to
  /// cold ones — only the verification work is skipped. While Faults is set
  /// the cache bypasses the tier entirely, so chaos runs neither read nor
  /// warm the store.
  VerdictBackingTier *VerdictTier = nullptr;

  static VerifyOptions trainVerifyDefaults() {
    VerifyOptions V;
    V.FalsifyTrials = 12;
    V.SolverConflictBudget = 50000;
    return V;
  }
};

/// Everything the pipeline produces: the four model snapshots, training
/// logs (Fig. 4), the harvested sample set, and U_max.
struct PipelineArtifacts {
  std::unique_ptr<RewritePolicyModel> Base;        ///< untouched base
  std::unique_ptr<RewritePolicyModel> ModelZero;   ///< stage-1 policy
  std::unique_ptr<RewritePolicyModel> WarmUp;      ///< post-SFT snapshot
  std::unique_ptr<RewritePolicyModel> Correctness; ///< stage-2 result
  std::unique_ptr<RewritePolicyModel> Latency;     ///< stage-3 result

  std::vector<TrainLogEntry> Stage1Log;
  std::vector<TrainLogEntry> Stage2Log; ///< Fig. 4(a)
  std::vector<TrainLogEntry> Stage3Log; ///< Fig. 4(b)

  std::vector<SFTExample> Augmented; ///< harvested diagnostic samples
  unsigned CorrectionSamples = 0;
  unsigned FirstTimeSamples = 0;
  double UMax = 3.0;

  // Fault-tolerant-runtime instrumentation.
  bool Halted = false;            ///< stopped early via HaltAfterSteps
  unsigned CheckpointsWritten = 0;
  unsigned CheckpointWriteFailures = 0; ///< every attempt failed; run
                                        ///< continued
  uint64_t CheckpointRetries = 0;       ///< extra save attempts consumed
  uint64_t RetryEscalations = 0;        ///< rollouts verified above tier 0
  uint64_t TerminalInconclusive = 0;    ///< budget-bound at the top tier
  uint64_t InjectedFaults = 0;          ///< oracle faults the verifier saw
};

/// Run the full pipeline over \p DS (built by the caller so benches can
/// share one dataset across many experiments).
PipelineArtifacts runTrainingPipeline(const Dataset &DS,
                                      const PipelineOptions &Opts);

/// The three stage rewards. They read the verdicts the trainer hands them
/// and never verify; all are thread-safe, suitable for parallel scoring.
/// Stage 1: Eq. (1) on the answer.
RewardFn makeAnswerReward();

/// Stage 2: Eq. (1) on the answer plus Eq. (2) on the think section.
RewardFn makeCorrectnessReward();

/// Stage 3: Eq. (4) with the given parameters.
RewardFn makeLatencyReward(const LatencyRewardParams &P);

} // namespace veriopt

#endif // VERIOPT_PIPELINE_PIPELINE_H
