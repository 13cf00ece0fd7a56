//===- Trainer.h - GRPO and SFT trainers -------------------------*- C++ -*-=//
//
// GRPO (Shao et al.) with the paper's §IV-B modifications: no KL penalty
// (gradient clipping instead), single-update objective, and DAPO-style
// token-level loss normalization (each completion's policy gradient is
// weighted by 1 / total-tokens-in-batch rather than per-sequence means).
//
// SFT teacher-forces oracle action sequences, the diagnosis head, and the
// self-correction gate on diagnostic-augmented samples (§III-C2 warm-up).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_RL_TRAINER_H
#define VERIOPT_RL_TRAINER_H

#include "rl/Reward.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <functional>
#include <memory>
#include <unordered_map>

namespace veriopt {

class BatchVerifier;
struct SourceEncoding;

/// What a stage-specific reward evaluation returns for one completion.
struct RolloutScore {
  double Reward = 0;
  bool Equivalent = false;
  bool ExactMatch = false;
  bool IsCopy = false;
  VerifyResult AnswerVerify;
};

/// The verifier's verdicts on one rollout. The trainer computes them with
/// one BatchVerifier::verifyGroup call per prompt group, before scoring,
/// over one Candidate per distinct answer or attempt text of the step.
struct RolloutVerdicts {
  /// Verdict on the answer; left default when the completion fails the
  /// format gate (the reward scores those without a verdict).
  VerifyResult Answer;
  /// Verdict on the <think> attempt; set in augmented mode only.
  VerifyResult Attempt;
};

/// Stage-specific reward: (sample, completion, its answer, verdicts) ->
/// score. It never verifies, reads the answer's parse from the Candidate
/// instead of parsing again, and reads the copy flag and BLEU score from
/// the terms the trainer keeps per (prompt, answer text). Scoring fans out
/// when GRPOOptions::Pool has more than one thread, and rollouts with the
/// same answer text share one Candidate and, per prompt, one AnswerTerms,
/// so the function must be safe to call concurrently on distinct
/// completions (shared state needs its own synchronization — or better,
/// use GRPOOptions::OnRollout, which runs sequentially).
using RewardFn =
    std::function<RolloutScore(const Sample &, const Completion &,
                               const RolloutAnswer &, const RolloutVerdicts &)>;

/// Sequential per-rollout observer, invoked after the (possibly parallel)
/// scoring phase in deterministic rollout order. The place for stateful
/// consumers like the stage-1 sample harvester: it sees every rollout
/// exactly once, in the same order at any thread count.
using RolloutHook = std::function<void(const Sample &, const Completion &,
                                       const RolloutScore &)>;

struct GRPOOptions {
  unsigned GroupSize = 8;      ///< candidates per prompt (the "group")
  unsigned PromptsPerStep = 4; ///< prompts per update
  double LearningRate = 0.12;
  double Temperature = 1.0;
  double ClipNorm = 4.0; ///< global L2 gradient clip (replaces KL)
  PromptMode Mode = PromptMode::Generic;
  uint64_t Seed = 11;

  /// Rollout-scoring parallelism: scoring fans out over the pool when it has
  /// more than one thread; null or a 1-thread pool runs the serial loop.
  /// Generation stays sequential (each rollout draws from an RNG derived
  /// from (Seed, Step, PromptIdx, G)), so the trained model and the log's
  /// reward/equivalence values are bit-identical at any thread count.
  ThreadPool *Pool = nullptr;
  /// Optional sequential observer of every scored rollout.
  RolloutHook OnRollout;
  /// Stage label stamped onto this trainer's trace events ("stage1"...);
  /// empty means unlabeled. Deterministic, so it lives in event Args.
  std::string TraceLabel;
};

/// One training-step log record (drives the Fig. 4 curves, plus the
/// verifier-cost instrumentation for the parallel scoring path).
struct TrainLogEntry {
  unsigned Step = 0;
  double MeanReward = 0;
  double EMAReward = 0; ///< 0.95-smoothed, as plotted in the paper
  double EquivalentRate = 0;
  double CopyRate = 0;
  double GradNorm = 0;

  // Scoring-phase instrumentation (not part of the determinism guarantee:
  // wall time depends on the host, hit rate on the cache's history).
  double ScoreWallMs = 0;       ///< wall time of the scoring phase
  double CacheHitRate = 0;      ///< ladder rungs served by the cache / run
  unsigned FalsifyWins = 0;     ///< counterexamples found pre-SMT
  uint64_t SolverConflicts = 0; ///< CDCL conflicts spent this step

  // Retry-ladder telemetry (deterministic: derived from verdicts, and
  // identical whether a verdict came from the cache or a fresh run). Counted
  // per rollout answer.
  unsigned RetryEscalations = 0;     ///< rollouts verified above tier 0
  unsigned TerminalInconclusive = 0; ///< budget-bound even at the top tier
  unsigned MaxRetryTier = 0;         ///< highest tier reached this step
};

/// Everything needed to restart GRPO training mid-run and produce results
/// bit-identical to an uninterrupted run: the step counter feeds the
/// per-rollout RNG derivation, RNGState drives prompt sampling, and the
/// EMA smoother state continues the logged reward curve. (Model parameters
/// are checkpointed separately by the pipeline.)
struct GRPOTrainerState {
  unsigned StepCount = 0;
  uint64_t RNGState = 0;
  double EMAValue = 0;
  bool EMAPrimed = false;
};

/// Group Relative Policy Optimization over a fixed prompt set.
class GRPOTrainer {
public:
  /// \p Verifier computes every verdict the reward sees; it must outlive
  /// the trainer, and so must every prompt passed to train() or step(): the
  /// trainer keeps a record per prompt for its lifetime (KeptPrompt).
  GRPOTrainer(RewritePolicyModel &Model, const BatchVerifier &Verifier,
              RewardFn Reward, const GRPOOptions &Opts);
  GRPOTrainer(RewritePolicyModel &Model, const BatchVerifier &&Verifier,
              RewardFn Reward, const GRPOOptions &Opts) = delete;
  ~GRPOTrainer();

  /// Run \p Steps updates over \p Prompts (cycled, shuffled by seed).
  /// Returns the per-step log. \p OnStep, when set, observes each step's
  /// log entry; returning false halts training after that step (the
  /// pipeline's checkpoint hook), leaving the trainer resumable via
  /// state()/restoreState().
  std::vector<TrainLogEntry>
  train(const std::vector<Sample> &Prompts, unsigned Steps,
        const std::function<bool(const TrainLogEntry &)> &OnStep = nullptr);

  /// Single update from explicit rollouts (exposed for tests).
  TrainLogEntry step(const std::vector<const Sample *> &Batch);

  /// Snapshot / restore the trainer's resumable state (checkpointing).
  GRPOTrainerState state() const;
  void restoreState(const GRPOTrainerState &St);

private:
  RewritePolicyModel &Model;
  const BatchVerifier &Verifier;
  RewardFn Reward;
  GRPOOptions Opts;
  RNG R;
  unsigned StepCount = 0;
  EMA Smoother{0.95};
  /// What the trainer keeps per prompt for its lifetime: every value that
  /// depends on nothing but the prompt and one decision, so a prompt drawn
  /// again reuses it. Each is a function of its key, so keeping it changes
  /// no decode, verdict or reward, and a trainer restored from a checkpoint
  /// starts with no records. Candidates are not kept: they live for one
  /// step.
  struct KeptPrompt {
    KeptPrompt(const RewritePolicyModel &Model, const Sample &S);
    /// Features, gate and roll states, rewrites and perturbations.
    PromptRecord Decode;
    /// The verifier's source half, built by the prompt's first group that
    /// reaches the verifier and lent to every later one.
    std::unique_ptr<SourceEncoding> Source;
    /// Reward terms per answer text. Entries are added in the sequential
    /// phases of a step and fill themselves race-free when scoring fans out.
    std::unordered_map<std::string, AnswerTerms> Terms;
  };
  KeptPrompt &kept(const Sample &S);

  std::unordered_map<const Sample *, KeptPrompt> Prompts;
};

//===--- SFT -----------------------------------------------------------------//

/// One diagnostic-augmented training example (Fig. 2). First-time samples
/// have IsCorrection = false and an empty AttemptActions; correction
/// samples carry the corruptions of the failed attempt plus the Alive
/// verdict class observed for it.
struct SFTExample {
  const Sample *S = nullptr;
  std::vector<Action> TargetActions; ///< oracle sequence, ends with Stop
  bool IsCorrection = false;
  std::vector<Action> AttemptActions; ///< actions of the failed attempt
  unsigned DiagClassTarget = 0;       ///< Alive verdict class for attempt
};

struct SFTOptions {
  double LearningRate = 0.08;
  unsigned Epochs = 12;
  double ClipNorm = 4.0;
  uint64_t Seed = 17;
};

/// Average SFT loss (negative log-likelihood) over the set — exposed so
/// tests/benches can confirm the warm-up converges.
double sftLoss(const RewritePolicyModel &Model,
               const std::vector<SFTExample> &Data);

/// Supervised fine-tuning on diagnostic-augmented samples.
void sftTrain(RewritePolicyModel &Model, const std::vector<SFTExample> &Data,
              const SFTOptions &Opts);

/// Utilities shared by trainers.
double clipGradient(std::vector<double> &Grad, double MaxNorm);

} // namespace veriopt

#endif // VERIOPT_RL_TRAINER_H
