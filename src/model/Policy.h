//===- Policy.h - The simulated LLM: a learnable rewrite policy ---*- C++ -*-=//
//
// GPU-scale transformer fine-tuning is unavailable in this reproduction
// (repro band 2), so the LLM is modelled as a stochastic *rewrite policy*
// with the same observable behaviour the paper studies:
//
//  - it emits IR text for a prompt, by sampling a short sequence of actions
//    (Action.h): copy the input, apply verified rewrite families, or
//    hallucinate (corruption operators producing the Table-I failure modes);
//  - its parameters are a featurized softmax over actions plus a diagnosis
//    head and a self-correction gate, all trained by the same SFT/GRPO
//    updates the paper applies to Qwen-3B;
//  - decoding is greedy for evaluation (deterministic) and temperature-1
//    sampling for GRPO rollouts.
//
// Capability presets (parameter count, prior error rates, which rewrite
// families the model "knows") reproduce the baseline models of Fig. 5.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_MODEL_POLICY_H
#define VERIOPT_MODEL_POLICY_H

#include "ir/Function.h"
#include "model/Action.h"
#include "model/Prompt.h"
#include "opt/Pass.h"
#include "support/RNG.h"
#include "verify/AliveLite.h"

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace veriopt {

//===--- Features -------------------------------------------------------===//

inline constexpr unsigned NumFeatures = 14;

/// Features of the prompt function conditioning the policy:
/// [bias, hasAlloca, hasCycle, hasCall, hasMulDiv, hasICmp, hasCast,
/// hasMemOp, log-size, widthOver32, 4 content-hash bits]. The hash bits
/// stand in for a transformer's fine-grained content sensitivity: they make
/// greedy decoding vary across prompts the way a real base model's
/// behaviour does, while remaining deterministic per input.
std::array<double, NumFeatures> extractFeatures(const Function &F);

//===--- Diagnosis head ---------------------------------------------------===//

/// Label space of the self-diagnosis (subset of DiagKind the model can
/// name).
inline constexpr unsigned NumDiagClasses = 7;
DiagKind diagClassKind(unsigned Class);
unsigned diagKindClass(DiagKind K);
/// The Alive2-style message template the model emits for a predicted class.
std::string diagClassMessage(unsigned Class, const std::string &FnName);

//===--- Configuration ----------------------------------------------------===//

struct ModelConfig {
  std::string Name = "qwen-3b";
  double ParamsB = 3.0; ///< parameter count in billions (reporting only)
  // Initial bias-logits (the "pretraining prior").
  double CopyBias = 1.0;
  double OptBias = -1.0;
  double SyntaxCorruptBias = 0.0;
  double SemanticCorruptBias = -1.0;
  double StopBias = 0.0;
  /// Which rewrite families exist at all for this model (bitmask over the
  /// Opt* actions, bit = action index). Families outside the mask can never
  /// be selected nor learned: the capacity ceiling of a small model.
  unsigned KnowledgeMask = ~0u;
  /// Per-(prompt, family) reliability: even a selected rewrite family only
  /// fires when a deterministic content hash falls below this percentage.
  /// This is the capacity ceiling of a small model — it sometimes fails to
  /// spot a pattern the reference pass implements (the paper's Figs. 11/12
  /// misses), which is what produces losses against -instcombine.
  unsigned CoreReliabilityPct = 97;
  /// Same gate for the emergent families (mem2reg / simplifycfg), which are
  /// harder still: the trained model only beats the reference pass on the
  /// prompts where these fire (the paper's 20.1% win rate).
  unsigned EmergentReliabilityPct = 25;
  /// Irreducible hallucination floor: on a deterministic subset of prompts
  /// the emitted answer is corrupted regardless of policy. No amount of
  /// RL removes it — this is why the paper's trained models plateau near
  /// 90% (Table II: ~3% syntax + ~5% semantic residual errors).
  unsigned ResidualSyntaxPct = 3;
  unsigned ResidualSemanticPct = 5;
  double FixSkillInit = -2.0; ///< pre-sigmoid self-correction skill
  uint64_t InitSeed = 1;      ///< weight-noise seed
};

/// Fig. 5 baseline presets (parameter-size order).
ModelConfig presetQwen15B();
ModelConfig presetQwen3B(); ///< the paper's base model
ModelConfig presetQwen7B();
ModelConfig presetLlama8B();
ModelConfig presetLLMCompiler7B();
ModelConfig presetQwen32B();

//===--- Completions -------------------------------------------------------===//

/// One decoded output with everything the trainers need.
struct Completion {
  std::vector<Action> Actions; ///< sampled action sequence (incl. Stop)
  bool FormatOk = true;
  std::string AnswerIR;   ///< final answer payload
  std::string Text;       ///< full completion text (envelope included)
  unsigned TokenCount = 0;
  double LogProb = 0;     ///< actions + diagnosis + fix gate

  // Augmented-mode fields (Fig. 2).
  std::string ThinkAttemptIR;
  unsigned PredictedDiagClass = 0; ///< 0 == "verifies"
  std::string PredictedMessage;
  bool SelfCorrected = false;
};

//===--- The policy --------------------------------------------------------===//

class RewritePolicyModel;

/// What decoding one prompt computes that depends on nothing but the
/// prompt, the model's configuration and one decision of the decode: the
/// features, the FNV-1a states of the capacity gate and the residual roll,
/// the printed rewrite per (firing families, semantic corruptions in order)
/// and the residual semantic perturbation per answer text. The features and
/// hash states are computed with the record; a rewrite or perturbation the
/// first time a decode through the record needs it. So a record kept across
/// the decodes of one prompt computes each value once, and a fresh record
/// does the work of one decode. Bound to one model, whose configuration
/// never changes, and to the prompt; both must outlive it. Not thread-safe:
/// one decode at a time.
class PromptRecord {
public:
  /// \p SrcText must be printFunction(Src) (Sample::SrcText).
  PromptRecord(const RewritePolicyModel &Model, const Function &Src,
               const std::string &SrcText);

private:
  friend class RewritePolicyModel;

  /// The prompt rewritten by the families in \p Firing (a mask over the
  /// Opt* actions, which act as a set) and then corrupted by \p Semantic in
  /// order, printed. On a miss, one clone and fixpoint run computes it;
  /// with \p KeepClean, the same run also keeps the corruption-free text.
  const std::string &rewrite(uint32_t Firing,
                             const std::vector<Action> &Semantic,
                             bool KeepClean);
  /// \p Text with its first constant perturbed, or \p Text itself when it
  /// does not parse or has no constant (the residual semantic error).
  const std::string &perturbed(const std::string &Text);

  const RewritePolicyModel &Model;
  const Function &Src;
  const std::string &SrcText;
  std::array<double, NumFeatures> Features;
  /// FNV-1a states after (model identity, SrcText): the capacity gate's,
  /// and the residual roll in [0, 100).
  uint64_t GateState;
  unsigned ResidualRoll;
  /// Keyed by the firing mask in the low 32 bits and the semantic
  /// corruptions, 5 bits each, above.
  std::unordered_map<uint64_t, std::string> Rewrites;
  std::unordered_map<std::string, std::string> Perturbations;
};

class RewritePolicyModel {
public:
  explicit RewritePolicyModel(const ModelConfig &Cfg);

  const ModelConfig &config() const { return Cfg; }
  unsigned numParams() const { return static_cast<unsigned>(Theta.size()); }
  std::vector<double> &params() { return Theta; }
  const std::vector<double> &params() const { return Theta; }

  /// Decode a completion for the prompt of \p P, a record built for this
  /// model, reusing and filling its kept values. Greedy when \p Greedy (the
  /// evaluation setting); otherwise temperature-\p Temperature sampling
  /// from \p R. The result depends only on the prompt, the parameters and
  /// \p R, never on what \p P already holds.
  Completion generate(PromptRecord &P, PromptMode Mode, RNG &R, bool Greedy,
                      double Temperature = 1.0) const;
  /// One decode through a fresh record for \p Src, whose printed text is
  /// \p SrcText (Sample::SrcText).
  Completion generate(const Function &Src, const std::string &SrcText,
                      PromptMode Mode, RNG &R, bool Greedy,
                      double Temperature = 1.0) const;
  /// The same, printing \p Src first.
  Completion generate(const Function &Src, PromptMode Mode, RNG &R,
                      bool Greedy, double Temperature = 1.0) const;

  /// Maximum actions per completion.
  static constexpr unsigned MaxSteps = 12;

  //===--- Trainer interface ----------------------------------------------===//

  /// Per-step action log-probability of \p Seq (teacher forcing), given the
  /// prompt features. Unavailable actions contribute -inf (1e9 clamp).
  double sequenceLogProb(const Function &Src,
                         const std::vector<Action> &Seq) const;

  /// Accumulate d logProb(Seq)/d Theta * Scale into \p Grad (same layout as
  /// params()), for the prompt of \p P.
  void accumulateSequenceGrad(const PromptRecord &P,
                              const std::vector<Action> &Seq, double Scale,
                              std::vector<double> &Grad) const;

  /// Diagnosis head: log p(class | corruption one-hot) and its gradient.
  double diagLogProb(const std::vector<Action> &Attempt,
                     unsigned Class) const;
  void accumulateDiagGrad(const std::vector<Action> &Attempt, unsigned Class,
                          double Scale, std::vector<double> &Grad) const;

  /// Self-correction gate: log p(fix=F | theta) and gradient.
  double fixLogProb(bool Fix) const;
  void accumulateFixGrad(bool Fix, double Scale,
                         std::vector<double> &Grad) const;

  bool actionAvailable(Action A) const;

  /// Action distribution at the current (greedy-relevant) state; exposed
  /// for tests and the training-dynamics bench.
  std::vector<double> actionProbs(const Function &Src) const;

private:
  // Parameter layout in Theta:
  //   [0, NumActions*NumFeatures)                      action weights
  //   [.., + NumDiagClasses*(NumCorrupt+2))            diagnosis weights
  //   [last]                                           fix-skill scalar
  static constexpr unsigned NumCorrupt = 8;
  unsigned actionW(unsigned A, unsigned F) const {
    return A * NumFeatures + F;
  }
  unsigned diagW(unsigned C, unsigned F) const {
    return NumActions * NumFeatures + C * (NumCorrupt + 2) + F;
  }
  unsigned fixW() const {
    return NumActions * NumFeatures + NumDiagClasses * (NumCorrupt + 2);
  }

  std::vector<double>
  actionLogits(const std::array<double, NumFeatures> &Phi) const;
  /// Does family \p A actually fire on the prompt whose FNV-1a state after
  /// (model identity, printed source) is \p GateState? The deterministic
  /// content-hash gate implementing the capacity ceiling.
  bool familyFires(uint64_t GateState, Action A) const;
  void applyResidualHallucination(PromptRecord &P, Completion &Out) const;
  std::array<double, 10> diagFeatures(const std::vector<Action> &A) const;
  std::vector<double> diagLogits(const std::vector<Action> &A) const;

  ModelConfig Cfg;
  std::vector<double> Theta;
};

//===--- Oracle action sequences -------------------------------------------===//

/// Map a reference-pass trace to the action vocabulary (for SFT teacher
/// forcing). Actions outside \p Model's knowledge mask are dropped — a
/// small model cannot be taught families it has no capacity for (the Fig.
/// 11/12 misses). Ends with Stop.
std::vector<Action> oracleActions(const PassTrace &Trace,
                                  const RewritePolicyModel &Model);

} // namespace veriopt

#endif // VERIOPT_MODEL_POLICY_H
