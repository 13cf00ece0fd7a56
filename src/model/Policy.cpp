//===- Policy.cpp - The simulated LLM: a learnable rewrite policy --------------//

#include "model/Policy.h"

#include "analysis/CFG.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "textgen/Bleu.h"
#include "trace/Metrics.h"

#include <cmath>

namespace veriopt {

//===----------------------------------------------------------------------===//
// Actions
//===----------------------------------------------------------------------===//

const char *actionName(Action A) {
  switch (A) {
  case Action::Stop:
    return "stop";
  case Action::Copy:
    return "copy";
  case Action::OptConstFold:
    return "opt-constfold";
  case Action::OptAlgebraic:
    return "opt-algebraic";
  case Action::OptBitwise:
    return "opt-bitwise";
  case Action::OptShift:
    return "opt-shift";
  case Action::OptCompare:
    return "opt-compare";
  case Action::OptSelect:
    return "opt-select";
  case Action::OptCast:
    return "opt-cast";
  case Action::OptMemory:
    return "opt-memory";
  case Action::OptScalar:
    return "opt-scalar";
  case Action::OptDCE:
    return "opt-dce";
  case Action::OptMem2Reg:
    return "opt-mem2reg";
  case Action::OptSimplifyCFG:
    return "opt-simplifycfg";
  case Action::CorruptUndefName:
    return "hallucinate-undef-name";
  case Action::CorruptBadType:
    return "hallucinate-bad-type";
  case Action::CorruptTruncate:
    return "hallucinate-truncate";
  case Action::CorruptFormat:
    return "hallucinate-format";
  case Action::CorruptConstant:
    return "hallucinate-constant";
  case Action::CorruptSwapSub:
    return "hallucinate-swap-operands";
  case Action::CorruptFlipPred:
    return "hallucinate-flip-predicate";
  case Action::CorruptDropStore:
    return "hallucinate-drop-store";
  case Action::Count:
    break;
  }
  return "<invalid>";
}

//===----------------------------------------------------------------------===//
// Features
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;

/// Fold \p Text into the FNV-1a state \p H.
uint64_t fnv1a(uint64_t H, const std::string &Text) {
  for (char C : Text)
    H = (H ^ static_cast<uint64_t>(C)) * 0x100000001b3ULL;
  return H;
}

/// extractFeatures with the printed function passed in: \p Text must be
/// printFunction(F).
std::array<double, NumFeatures> featuresOf(const Function &F,
                                           const std::string &Text) {
  static Counter &Extractions =
      MetricsRegistry::global().counter("policy.features");
  Extractions.inc();
  std::array<double, NumFeatures> Phi{};
  Phi[0] = 1.0; // bias
  bool HasAlloca = false, HasCall = false, HasMulDiv = false,
       HasICmp = false, HasCast = false, HasMem = false;
  unsigned MaxWidth = 0;
  for (const auto &BB : F)
    for (const auto &I : *BB) {
      HasAlloca |= isa<AllocaInst>(I.get());
      HasCall |= isa<CallInst>(I.get());
      HasMulDiv |= I->getOpcode() == Opcode::Mul || I->isDivRem();
      HasICmp |= isa<ICmpInst>(I.get());
      HasCast |= I->isCast();
      HasMem |= isa<LoadInst>(I.get()) || isa<StoreInst>(I.get());
      if (I->getType()->isInteger())
        MaxWidth = std::max(MaxWidth, I->getType()->getBitWidth());
    }
  CFG G(F);
  Phi[1] = HasAlloca ? 1.0 : 0.0;
  Phi[2] = G.hasCycle() ? 1.0 : 0.0;
  Phi[3] = HasCall ? 1.0 : 0.0;
  Phi[4] = HasMulDiv ? 1.0 : 0.0;
  Phi[5] = HasICmp ? 1.0 : 0.0;
  Phi[6] = HasCast ? 1.0 : 0.0;
  Phi[7] = HasMem ? 1.0 : 0.0;
  Phi[8] = std::log(1.0 + F.instructionCount()) / 5.0;
  Phi[9] = MaxWidth > 32 ? 1.0 : 0.0;
  // Content-hash bits (FNV-1a over the printed text).
  uint64_t H = fnv1a(FnvOffset, Text);
  for (unsigned B = 0; B < 4; ++B)
    Phi[10 + B] = (H >> (11 + 13 * B)) & 1 ? 1.0 : 0.0;
  return Phi;
}

} // namespace

std::array<double, NumFeatures> extractFeatures(const Function &F) {
  return featuresOf(F, printFunction(F));
}

//===----------------------------------------------------------------------===//
// Diagnosis classes
//===----------------------------------------------------------------------===//

DiagKind diagClassKind(unsigned Class) {
  switch (Class) {
  case 0:
    return DiagKind::None;
  case 1:
    return DiagKind::ParseError;
  case 2:
    return DiagKind::StructureError;
  case 3:
    return DiagKind::ValueMismatch;
  case 4:
    return DiagKind::PoisonMismatch;
  case 5:
    return DiagKind::UBIntroduced;
  default:
    return DiagKind::CallMismatch;
  }
}

unsigned diagKindClass(DiagKind K) {
  switch (K) {
  case DiagKind::None:
    return 0;
  case DiagKind::ParseError:
    return 1;
  case DiagKind::StructureError:
    return 2;
  case DiagKind::ValueMismatch:
    return 3;
  case DiagKind::PoisonMismatch:
    return 4;
  case DiagKind::UBIntroduced:
    return 5;
  case DiagKind::CallMismatch:
    return 6;
  default:
    return 3; // treat anything else as a value problem
  }
}

std::string diagClassMessage(unsigned Class, const std::string &FnName) {
  std::string Head = "----------------------------------------\n@" + FnName +
                     "\n";
  switch (Class) {
  case 0:
    return Head + "Transformation seems to be correct!\n";
  case 1:
    return Head + "ERROR: Could not parse transformed IR\n";
  case 2:
    return Head + "ERROR: Transformed IR is ill-formed\n";
  case 3:
    return Head + "Transformation doesn't verify!\nERROR: Value mismatch\n";
  case 4:
    return Head + "Transformation doesn't verify!\nERROR: Target returns "
                  "poison where source is well-defined\n";
  case 5:
    return Head + "Transformation doesn't verify!\nERROR: Target is more "
                  "poisonous/undefined than source\n";
  default:
    return Head + "Transformation doesn't verify!\nERROR: Mismatch in "
                  "external calls\n";
  }
}

//===----------------------------------------------------------------------===//
// Presets
//===----------------------------------------------------------------------===//

namespace {

unsigned optMask(std::initializer_list<Action> As) {
  unsigned M = 0;
  for (Action A : As)
    M |= 1u << static_cast<unsigned>(A);
  return M;
}

unsigned allOptMask() {
  unsigned M = 0;
  for (unsigned A = 0; A < NumActions; ++A)
    if (isOptAction(static_cast<Action>(A)))
      M |= 1u << A;
  return M;
}

} // namespace

ModelConfig presetQwen15B() {
  ModelConfig C;
  C.Name = "qwen-1.5b";
  C.ParamsB = 1.5;
  C.CopyBias = 0.9;
  C.OptBias = -0.9;
  C.SyntaxCorruptBias = 0.55;
  C.SemanticCorruptBias = -0.35;
  C.StopBias = 0.6;
  C.KnowledgeMask = optMask({Action::OptConstFold, Action::OptAlgebraic,
                             Action::OptBitwise, Action::OptDCE});
  C.CoreReliabilityPct = 85;
  C.EmergentReliabilityPct = 0;
  C.InitSeed = 15;
  return C;
}

ModelConfig presetQwen3B() {
  ModelConfig C;
  C.Name = "qwen-3b";
  C.ParamsB = 3.0;
  // Calibrated to reproduce the Table-I taxonomy of the raw base model
  // under greedy decoding: ~73% verified (mostly trivial copies), ~21%
  // syntax errors, ~5% semantic errors, ~13% different-and-correct.
  C.CopyBias = 0.8;
  C.OptBias = -0.5;
  C.SyntaxCorruptBias = 0.2;
  C.SemanticCorruptBias = -0.55;
  C.StopBias = 0.75;
  C.KnowledgeMask = optMask(
      {Action::OptConstFold, Action::OptAlgebraic, Action::OptBitwise,
       Action::OptShift, Action::OptCompare, Action::OptSelect,
       Action::OptCast, Action::OptMemory, Action::OptScalar, Action::OptDCE,
       Action::OptMem2Reg, Action::OptSimplifyCFG});
  C.InitSeed = 3;
  return C;
}

ModelConfig presetQwen7B() {
  ModelConfig C = presetQwen3B();
  C.Name = "qwen-7b";
  C.ParamsB = 7.0;
  C.CopyBias = 0.7;
  C.OptBias = -0.25;
  C.SyntaxCorruptBias = -0.15;
  C.SemanticCorruptBias = -0.7;
  C.StopBias = 0.8;
  C.CoreReliabilityPct = 98;
  C.EmergentReliabilityPct = 40;
  C.InitSeed = 7;
  return C;
}

ModelConfig presetLlama8B() {
  ModelConfig C = presetQwen3B();
  C.Name = "llama-8b";
  C.ParamsB = 8.0;
  C.CopyBias = 0.8;
  C.OptBias = -0.35;
  C.SyntaxCorruptBias = -0.05;
  C.SemanticCorruptBias = -0.8;
  C.StopBias = 0.75;
  C.InitSeed = 8;
  return C;
}

ModelConfig presetLLMCompiler7B() {
  ModelConfig C = presetQwen3B();
  C.Name = "llm-compiler-7b";
  C.ParamsB = 7.0;
  // Pretrained on compiler text: far fewer syntax errors, still mostly
  // conservative, no task-specific fine-tuning.
  C.CopyBias = 0.65;
  C.OptBias = -0.05;
  C.SyntaxCorruptBias = -1.1;
  C.SemanticCorruptBias = -0.9;
  C.StopBias = 0.8;
  C.InitSeed = 77;
  return C;
}

ModelConfig presetQwen32B() {
  ModelConfig C = presetQwen3B();
  C.Name = "qwen-32b";
  C.ParamsB = 32.0;
  C.CopyBias = 0.4;
  C.OptBias = 0.25;
  C.SyntaxCorruptBias = -1.4;
  C.SemanticCorruptBias = -1.3;
  C.StopBias = 0.85;
  C.KnowledgeMask = allOptMask();
  C.CoreReliabilityPct = 99;
  C.EmergentReliabilityPct = 55;
  C.InitSeed = 32;
  return C;
}

//===----------------------------------------------------------------------===//
// Model
//===----------------------------------------------------------------------===//

RewritePolicyModel::RewritePolicyModel(const ModelConfig &Cfg) : Cfg(Cfg) {
  Theta.assign(NumActions * NumFeatures + NumDiagClasses * (NumCorrupt + 2) +
                   1,
               0.0);
  RNG R(Cfg.InitSeed * 0x9E3779B97F4A7C15ULL + 11);
  // The feature-conditioned action weights get substantial "pretraining"
  // noise so greedy decoding varies across prompts (different functions
  // elicit different behaviours, as observed with real base models); the
  // other heads start near zero.
  for (double &W : Theta)
    W = 0.05 * R.gaussian();
  for (unsigned A = 0; A < NumActions; ++A)
    for (unsigned F = 1; F < NumFeatures; ++F)
      Theta[actionW(A, F)] = 0.8 * R.gaussian();
  // Pretraining prior: bias column of the action head.
  for (unsigned A = 0; A < NumActions; ++A) {
    Action Act = static_cast<Action>(A);
    double Bias = 0;
    if (Act == Action::Copy)
      Bias = Cfg.CopyBias;
    else if (Act == Action::Stop)
      Bias = Cfg.StopBias;
    else if (isOptAction(Act))
      Bias = Cfg.OptBias;
    else if (isSyntaxCorruption(Act))
      Bias = Cfg.SyntaxCorruptBias;
    else if (isSemanticCorruption(Act))
      Bias = Cfg.SemanticCorruptBias;
    Theta[actionW(A, 0)] += Bias;
  }
  Theta[fixW()] = Cfg.FixSkillInit;
}

bool RewritePolicyModel::familyFires(uint64_t GateState, Action A) const {
  assert(isOptAction(A) && "capacity gate applies to rewrite families only");
  bool Emergent = A == Action::OptMem2Reg || A == Action::OptSimplifyCFG;
  unsigned Pct = Emergent ? Cfg.EmergentReliabilityPct
                          : Cfg.CoreReliabilityPct;
  uint64_t H =
      (GateState ^ (static_cast<uint64_t>(A) + 0x51ED2701)) * 0x100000001b3ULL;
  H ^= H >> 33;
  return H % 100 < Pct;
}

bool RewritePolicyModel::actionAvailable(Action A) const {
  if (!isOptAction(A))
    return true;
  return (Cfg.KnowledgeMask >> static_cast<unsigned>(A)) & 1;
}

std::vector<double> RewritePolicyModel::actionLogits(
    const std::array<double, NumFeatures> &Phi) const {
  std::vector<double> Logits(NumActions, -1e9);
  for (unsigned A = 0; A < NumActions; ++A) {
    if (!actionAvailable(static_cast<Action>(A)))
      continue;
    double Z = 0;
    for (unsigned F = 0; F < NumFeatures; ++F)
      Z += Theta[actionW(A, F)] * Phi[F];
    Logits[A] = Z;
  }
  return Logits;
}

// Rewrites and corruptions are idempotent within one completion, so the
// decoding distribution is state-dependent: an action already taken is
// masked out. Stop and Copy stay available (the sequence must terminate).
// Teacher-forced log-probs and gradients replay the same masking.
static void maskUsed(std::vector<double> &Logits, uint32_t UsedMask) {
  for (unsigned A = 0; A < Logits.size(); ++A) {
    Action Act = static_cast<Action>(A);
    if (Act != Action::Stop && Act != Action::Copy && ((UsedMask >> A) & 1))
      Logits[A] = -1e9;
  }
}

namespace {

std::vector<double> softmax(const std::vector<double> &Logits, double T) {
  double Max = -1e18;
  for (double L : Logits)
    Max = std::max(Max, L);
  std::vector<double> P(Logits.size());
  double Sum = 0;
  for (size_t I = 0; I < Logits.size(); ++I) {
    P[I] = std::exp((Logits[I] - Max) / T);
    Sum += P[I];
  }
  for (double &V : P)
    V /= Sum;
  return P;
}

unsigned argmax(const std::vector<double> &Xs) {
  unsigned Best = 0;
  for (unsigned I = 1; I < Xs.size(); ++I)
    if (Xs[I] > Xs[Best])
      Best = I;
  return Best;
}

//===--- Semantic corruption operators (mutate IR in place) ---------------===//

bool perturbConstant(Function &F) {
  for (auto &BB : F)
    for (auto &I : *BB) {
      if (isa<PhiInst>(I.get()))
        continue; // keep CFG structure sane
      for (unsigned OpIdx = 0; OpIdx < I->getNumOperands(); ++OpIdx) {
        auto *C = dyn_cast<ConstantInt>(I->getOperand(OpIdx));
        if (!C)
          continue;
        APInt64 V = C->getValue().add(APInt64::one(C->getValue().width()));
        I->setOperand(OpIdx, F.getConstant(C->getType(), V));
        return true;
      }
    }
  return false;
}

bool swapNonCommutative(Function &F) {
  for (auto &BB : F)
    for (auto &I : *BB) {
      auto *B = dyn_cast<BinaryInst>(I.get());
      if (!B || B->isCommutative())
        continue;
      Value *L = B->getLHS(), *R = B->getRHS();
      if (L == R)
        continue;
      B->setOperand(0, R);
      B->setOperand(1, L);
      return true;
    }
  return false;
}

bool flipPredicate(Function &F) {
  for (auto &BB : F)
    for (auto &I : *BB)
      if (auto *C = dyn_cast<ICmpInst>(I.get())) {
        C->setPredicate(invertedPred(C->getPredicate()));
        return true;
      }
  return false;
}

bool dropStore(Function &F) {
  for (auto &BB : F)
    for (auto &I : *BB)
      if (isa<StoreInst>(I.get())) {
        BB->erase(I.get());
        return true;
      }
  return false;
}

//===--- Syntax corruption operators (mangle text) ------------------------===//

std::string corruptUndefName(std::string Text) {
  // Replace the final local-value use with an undefined name.
  size_t Pos = Text.rfind('%');
  if (Pos == std::string::npos)
    return Text;
  size_t End = Pos + 1;
  while (End < Text.size() &&
         (std::isalnum(static_cast<unsigned char>(Text[End])) ||
          Text[End] == '_' || Text[End] == '.'))
    ++End;
  return Text.substr(0, Pos) + "%hallucinated" + Text.substr(End);
}

std::string corruptBadType(std::string Text) {
  size_t Pos = Text.rfind(" i32 ");
  if (Pos == std::string::npos)
    Pos = Text.rfind(" i64 ");
  if (Pos == std::string::npos)
    return Text + "\ni37 garbage";
  return Text.substr(0, Pos) + " i37 " + Text.substr(Pos + 5);
}

std::string corruptTruncate(std::string Text) {
  return Text.substr(0, Text.size() * 2 / 3);
}

/// Apply a *set* of optimization actions, given as a mask over the Opt*
/// actions, as one fixpoint pipeline.
void applyOptActionSet(uint32_t Firing, Function &F) {
  unsigned CatMask = 0;
  bool Mem2Reg = false, SCFG = false, DCE = false;
  for (unsigned AIdx = 0; AIdx < NumActions; ++AIdx) {
    if (!((Firing >> AIdx) & 1))
      continue;
    switch (static_cast<Action>(AIdx)) {
    case Action::OptConstFold:
      CatMask |= ruleCatBit(RuleCat::ConstFold);
      break;
    case Action::OptAlgebraic:
      CatMask |= ruleCatBit(RuleCat::Algebraic);
      break;
    case Action::OptBitwise:
      CatMask |= ruleCatBit(RuleCat::Bitwise);
      break;
    case Action::OptShift:
      CatMask |= ruleCatBit(RuleCat::Shift);
      break;
    case Action::OptCompare:
      CatMask |= ruleCatBit(RuleCat::Compare);
      break;
    case Action::OptSelect:
      CatMask |= ruleCatBit(RuleCat::Select);
      break;
    case Action::OptCast:
      CatMask |= ruleCatBit(RuleCat::Cast);
      break;
    case Action::OptMemory:
      CatMask |= ruleCatBit(RuleCat::Memory);
      break;
    case Action::OptScalar:
      CatMask |= ruleCatBit(RuleCat::Scalar);
      break;
    case Action::OptDCE:
      DCE = true;
      break;
    case Action::OptMem2Reg:
      Mem2Reg = true;
      break;
    case Action::OptSimplifyCFG:
      SCFG = true;
      break;
    default:
      assert(false && "not an optimization action");
    }
  }
  PassManager PM;
  if (Mem2Reg)
    PM.add(createMem2RegPass());
  if (CatMask)
    PM.add(createInstCombinePass(CatMask));
  if (SCFG)
    PM.add(createSimplifyCFGPass());
  if (DCE)
    PM.add(createDCEPass());
  PM.runToFixpoint(F);
}

/// FNV-1a seed of the hashes that identify the model (InitSeed).
uint64_t modelSeed(const ModelConfig &Cfg, uint64_t Salt) {
  return FnvOffset ^ (Cfg.InitSeed * 0x9E3779B9ULL + Salt);
}

} // namespace

//===----------------------------------------------------------------------===//
// Prompt records
//===----------------------------------------------------------------------===//

PromptRecord::PromptRecord(const RewritePolicyModel &Model,
                           const Function &Src, const std::string &SrcText)
    : Model(Model), Src(Src), SrcText(SrcText),
      Features(featuresOf(Src, SrcText)),
      GateState(fnv1a(modelSeed(Model.config(), 0), SrcText)) {
  uint64_t H = fnv1a(modelSeed(Model.config(), 7), SrcText);
  H ^= H >> 29;
  ResidualRoll = H % 100;
}

const std::string &PromptRecord::rewrite(uint32_t Firing,
                                         const std::vector<Action> &Semantic,
                                         bool KeepClean) {
  assert(Semantic.size() <= 4 && "a decode takes each corruption once");
  uint64_t Key = Firing;
  for (size_t I = 0; I < Semantic.size(); ++I)
    Key |= static_cast<uint64_t>(Semantic[I]) << (32 + 5 * I);
  auto It = Rewrites.find(Key);
  if (It != Rewrites.end())
    return It->second;

  static Counter &Runs = MetricsRegistry::global().counter("policy.rewrites");
  Runs.inc();
  std::unique_ptr<Function> F = Src.clone();
  if (Firing)
    applyOptActionSet(Firing, *F);
  if (!Semantic.empty() && KeepClean && !Rewrites.count(Firing))
    Rewrites.emplace(Firing, printFunction(*F));
  for (Action A : Semantic) {
    switch (A) {
    case Action::CorruptConstant:
      perturbConstant(*F);
      break;
    case Action::CorruptSwapSub:
      swapNonCommutative(*F);
      break;
    case Action::CorruptFlipPred:
      flipPredicate(*F);
      break;
    default:
      dropStore(*F);
      break;
    }
  }
  return Rewrites.emplace(Key, printFunction(*F)).first->second;
}

const std::string &PromptRecord::perturbed(const std::string &Text) {
  auto [It, New] = Perturbations.try_emplace(Text);
  if (New) {
    It->second = Text;
    auto M = parseModule(Text);
    if (M && M.value()->getMainFunction()) {
      Function *F = M.value()->getMainFunction();
      if (perturbConstant(*F))
        It->second = printFunction(*F);
    }
  }
  return It->second;
}

Completion RewritePolicyModel::generate(const Function &Src, PromptMode Mode,
                                        RNG &R, bool Greedy,
                                        double Temperature) const {
  return generate(Src, printFunction(Src), Mode, R, Greedy, Temperature);
}

Completion RewritePolicyModel::generate(const Function &Src,
                                        const std::string &SrcText,
                                        PromptMode Mode, RNG &R, bool Greedy,
                                        double Temperature) const {
  PromptRecord P(*this, Src, SrcText);
  return generate(P, Mode, R, Greedy, Temperature);
}

Completion RewritePolicyModel::generate(PromptRecord &P, PromptMode Mode,
                                        RNG &R, bool Greedy,
                                        double Temperature) const {
  assert(&P.Model == this && "a prompt record decodes for its own model");
  Completion Out;
  std::vector<double> BaseLogits = actionLogits(P.Features);

  // The selected rewrite families act as a *set*: the answer is one
  // fixpoint run of the corresponding pipeline (mem2reg first, masked
  // instcombine, simplifycfg, dce), so action order cannot leave cascading
  // opportunities on the table. Families are filtered through the
  // capacity gate first: selecting a family does not guarantee the model
  // can actually realize it on this prompt. The gate hashes (model
  // identity, source text, family); the state after the text is kept in
  // the record.
  uint32_t Firing = 0;
  std::vector<Action> SyntaxCorrupts, SemanticCorrupts;
  bool Copied = false;
  uint32_t Used = 0;

  for (unsigned Step = 0; Step < MaxSteps; ++Step) {
    std::vector<double> Logits = BaseLogits;
    maskUsed(Logits, Used);
    std::vector<double> Probs = softmax(Logits, Temperature);
    unsigned AIdx =
        Greedy ? argmax(Probs) : static_cast<unsigned>(R.weightedPick(Probs));
    Action A = static_cast<Action>(AIdx);
    Out.Actions.push_back(A);
    Out.LogProb += std::log(std::max(Probs[AIdx], 1e-12));
    Used |= 1u << AIdx;
    if (A == Action::Stop)
      break;
    if (A == Action::Copy) {
      Copied = true;
      break;
    }
    if (isOptAction(A)) {
      if (familyFires(P.GateState, A))
        Firing |= 1u << AIdx;
    } else if (isSemanticCorruption(A)) {
      SemanticCorrupts.push_back(A);
    } else {
      SyntaxCorrupts.push_back(A);
    }
  }

  // Augmented mode (Fig. 2) diagnoses the attempt and may correct it. Both
  // draws read only the actions, so they come before any rendering.
  bool Fixed = false;
  if (Mode == PromptMode::Augmented) {
    std::vector<double> DProbs =
        softmax(diagLogits(Out.Actions), Temperature);
    unsigned DClass = Greedy ? argmax(DProbs)
                             : static_cast<unsigned>(R.weightedPick(DProbs));
    Out.PredictedDiagClass = DClass;
    Out.LogProb += std::log(std::max(DProbs[DClass], 1e-12));
    Out.PredictedMessage = diagClassMessage(DClass, P.Src.getName());
    if (DClass != 0) {
      double PFix = 1.0 / (1.0 + std::exp(-Theta[fixW()]));
      Fixed = Greedy ? PFix > 0.5 : R.chance(PFix);
      Out.LogProb += std::log(std::max(Fixed ? PFix : 1.0 - PFix, 1e-12));
    }
    Out.SelfCorrected = Fixed;
  }

  // Render the attempt. A copy answers with the source text; a rewrite is
  // the record's text for its decision, and a correction needs the
  // corruption-free text of the same families.
  std::string AttemptIR;
  bool AttemptFormatOk = true;
  if (Copied) {
    AttemptIR = P.SrcText;
  } else {
    AttemptIR = P.rewrite(Firing, SemanticCorrupts, /*KeepClean=*/Fixed);
    for (Action A : SyntaxCorrupts) {
      switch (A) {
      case Action::CorruptUndefName:
        AttemptIR = corruptUndefName(std::move(AttemptIR));
        break;
      case Action::CorruptBadType:
        AttemptIR = corruptBadType(std::move(AttemptIR));
        break;
      case Action::CorruptTruncate:
        AttemptIR = corruptTruncate(std::move(AttemptIR));
        break;
      case Action::CorruptFormat:
        AttemptFormatOk = false;
        break;
      default:
        break;
      }
    }
  }

  if (Mode == PromptMode::Augmented)
    Out.ThinkAttemptIR = AttemptIR;
  if (Fixed) {
    // The corrected answer: the clean (uncorrupted) transformed function.
    Out.AnswerIR = Copied ? P.SrcText : P.rewrite(Firing, {}, false);
    Out.FormatOk = true;
  } else {
    Out.AnswerIR = std::move(AttemptIR);
    Out.FormatOk = AttemptFormatOk;
  }
  applyResidualHallucination(P, Out);
  Out.Text = renderCompletion(Mode, Out.FormatOk, Out.ThinkAttemptIR,
                              Out.PredictedMessage, Out.AnswerIR);
  Out.TokenCount = static_cast<unsigned>(Out.Actions.size() +
                                         countIRTokens(Out.ThinkAttemptIR) +
                                         countIRTokens(Out.AnswerIR));
  return Out;
}

void RewritePolicyModel::applyResidualHallucination(PromptRecord &P,
                                                    Completion &Out) const {
  if (P.ResidualRoll < Cfg.ResidualSyntaxPct)
    Out.AnswerIR = corruptUndefName(std::move(Out.AnswerIR));
  else if (P.ResidualRoll < Cfg.ResidualSyntaxPct + Cfg.ResidualSemanticPct)
    Out.AnswerIR = P.perturbed(Out.AnswerIR);
}

double RewritePolicyModel::sequenceLogProb(
    const Function &Src, const std::vector<Action> &Seq) const {
  auto Phi = extractFeatures(Src);
  std::vector<double> BaseLogits = actionLogits(Phi);
  uint32_t Used = 0;
  double LP = 0;
  for (Action A : Seq) {
    std::vector<double> Logits = BaseLogits;
    maskUsed(Logits, Used);
    std::vector<double> P = softmax(Logits, 1.0);
    LP += std::log(std::max(P[static_cast<unsigned>(A)], 1e-12));
    Used |= 1u << static_cast<unsigned>(A);
  }
  return LP;
}

void RewritePolicyModel::accumulateSequenceGrad(
    const PromptRecord &P, const std::vector<Action> &Seq, double Scale,
    std::vector<double> &Grad) const {
  assert(Grad.size() == Theta.size() && "gradient buffer layout mismatch");
  const std::array<double, NumFeatures> &Phi = P.Features;
  std::vector<double> BaseLogits = actionLogits(Phi);
  uint32_t Used = 0;
  // d log softmax_a / d logit_b = [a==b] - P_b, per step, under the same
  // used-action masking the decoder applies.
  for (Action A : Seq) {
    std::vector<double> Logits = BaseLogits;
    maskUsed(Logits, Used);
    std::vector<double> P = softmax(Logits, 1.0);
    unsigned AIdx = static_cast<unsigned>(A);
    for (unsigned B = 0; B < NumActions; ++B) {
      if (Logits[B] <= -1e8)
        continue; // masked or unavailable: frozen
      double Coef = ((B == AIdx) ? 1.0 : 0.0) - P[B];
      for (unsigned F = 0; F < NumFeatures; ++F)
        Grad[actionW(B, F)] += Scale * Coef * Phi[F];
    }
    Used |= 1u << AIdx;
  }
}

std::array<double, 10>
RewritePolicyModel::diagFeatures(const std::vector<Action> &Attempt) const {
  std::array<double, 10> X{};
  X[0] = 1.0;
  bool Any = false;
  for (Action A : Attempt) {
    if (!isCorruption(A))
      continue;
    unsigned Slot = static_cast<unsigned>(A) -
                    static_cast<unsigned>(Action::CorruptUndefName);
    X[1 + Slot] = 1.0;
    Any = true;
  }
  X[9] = Any ? 0.0 : 1.0; // "clean attempt" indicator
  return X;
}

std::vector<double>
RewritePolicyModel::diagLogits(const std::vector<Action> &Attempt) const {
  auto X = diagFeatures(Attempt);
  std::vector<double> Logits(NumDiagClasses, 0.0);
  for (unsigned C = 0; C < NumDiagClasses; ++C)
    for (unsigned F = 0; F < NumCorrupt + 2; ++F)
      Logits[C] += Theta[diagW(C, F)] * X[F];
  return Logits;
}

double RewritePolicyModel::diagLogProb(const std::vector<Action> &Attempt,
                                       unsigned Class) const {
  std::vector<double> P = softmax(diagLogits(Attempt), 1.0);
  return std::log(std::max(P[Class], 1e-12));
}

void RewritePolicyModel::accumulateDiagGrad(
    const std::vector<Action> &Attempt, unsigned Class, double Scale,
    std::vector<double> &Grad) const {
  auto X = diagFeatures(Attempt);
  std::vector<double> P = softmax(diagLogits(Attempt), 1.0);
  for (unsigned C = 0; C < NumDiagClasses; ++C) {
    double Coef = ((C == Class) ? 1.0 : 0.0) - P[C];
    for (unsigned F = 0; F < NumCorrupt + 2; ++F)
      Grad[diagW(C, F)] += Scale * Coef * X[F];
  }
}

double RewritePolicyModel::fixLogProb(bool Fix) const {
  double PFix = 1.0 / (1.0 + std::exp(-Theta[fixW()]));
  return std::log(std::max(Fix ? PFix : 1.0 - PFix, 1e-12));
}

void RewritePolicyModel::accumulateFixGrad(bool Fix, double Scale,
                                           std::vector<double> &Grad) const {
  double PFix = 1.0 / (1.0 + std::exp(-Theta[fixW()]));
  Grad[fixW()] += Scale * ((Fix ? 1.0 : 0.0) - PFix);
}

std::vector<double>
RewritePolicyModel::actionProbs(const Function &Src) const {
  return softmax(actionLogits(extractFeatures(Src)), 1.0);
}

//===----------------------------------------------------------------------===//
// Oracle sequences
//===----------------------------------------------------------------------===//

std::vector<Action> oracleActions(const PassTrace &Trace,
                                  const RewritePolicyModel &Model) {
  auto catOf = [](const std::string &Rule) -> Action {
    if (Rule == "const-fold" || Rule == "cast-fold" || Rule == "icmp-fold")
      return Action::OptConstFold;
    if (Rule.rfind("icmp", 0) == 0 || Rule == "not-icmp-invert")
      return Action::OptCompare;
    if (Rule.rfind("select", 0) == 0)
      return Action::OptSelect;
    if (Rule.rfind("ext", 0) == 0 || Rule.rfind("trunc", 0) == 0)
      return Action::OptCast;
    if (Rule == "store-to-load-forward" || Rule == "dead-store-elim")
      return Action::OptMemory;
    if (Rule == "dce")
      return Action::OptDCE;
    if (Rule.rfind("gep", 0) == 0 || Rule.rfind("phi", 0) == 0)
      return Action::OptScalar;
    if (Rule.rfind("and", 0) == 0 || Rule.rfind("or", 0) == 0 ||
        Rule.rfind("xor", 0) == 0)
      return Action::OptBitwise;
    if (Rule.rfind("shift", 0) == 0 || Rule.rfind("shl", 0) == 0 ||
        Rule.rfind("lshr", 0) == 0)
      return Action::OptShift;
    if (Rule == "mem2reg-promote")
      return Action::OptMem2Reg;
    if (Rule.rfind("br-", 0) == 0 || Rule == "merge-blocks" ||
        Rule == "forward-empty-block" || Rule == "diamond-to-select" ||
        Rule == "remove-unreachable")
      return Action::OptSimplifyCFG;
    return Action::OptAlgebraic;
  };

  std::vector<Action> Out;
  for (const std::string &Rule : Trace.Applied) {
    Action A = catOf(Rule);
    if (!Model.actionAvailable(A))
      continue; // beyond this model's capacity
    bool Seen = false;
    for (Action Prev : Out)
      Seen |= Prev == A;
    if (!Seen)
      Out.push_back(A);
    if (Out.size() >= RewritePolicyModel::MaxSteps - 1)
      break;
  }
  Out.push_back(Action::Stop);
  return Out;
}

} // namespace veriopt
