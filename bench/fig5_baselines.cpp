//===- fig5_baselines.cpp - Fig. 5: comparison against LLM baselines -------===//
//
// Paper Fig. 5: latency / correctness / instruction count / binary size of
// LLM-VeriOpt against SFT-trained baselines in parameter-size order
// (Qwen-1.5B/3B/7B, Llama-8B, LLM-Compiler-7B without task FT, Qwen-32B).
// Expected shape: larger models generally do better, but the 3B
// MODEL-LATENCY bucks the trend and leads latency/ICount/correctness;
// Qwen-32B takes binary size.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace veriopt;

namespace {

void row(const EvalResult &E, double ParamsB, const char *Note) {
  std::printf("%-16s %5.1fB %9.2fx %8.1f%% %9.3f %9.3f  %s\n",
              E.ModelName.c_str(), ParamsB, E.GeoSpeedupVsO0,
              E.Taxonomy.pct(E.Taxonomy.Correct), E.ICount.GeoRatio,
              E.Size.GeoRatio, Note);
}

/// SFT a baseline preset on the training split (generic prompt), as the
/// paper does for all small/medium baselines.
EvalResult sftBaseline(const ModelConfig &Cfg, const Dataset &DS) {
  RewritePolicyModel Model(Cfg);
  std::vector<SFTExample> Data;
  for (const Sample &S : DS.Train) {
    SFTExample Ex;
    Ex.S = &S;
    Ex.TargetActions = oracleActions(S.RefTrace, Model);
    Ex.DiagClassTarget = 0;
    Data.push_back(Ex);
  }
  SFTOptions Opts;
  Opts.Epochs = 10;
  sftTrain(Model, Data, Opts);
  return bench::evaluate(Model, DS.Valid, PromptMode::Generic);
}

} // namespace

int main() {
  bench::header("Fig. 5 — LLM-VeriOpt vs LLM baselines (parameter order)",
                "Fig. 5(a)-(d)");

  Dataset DS = buildDataset(bench::benchDataset());
  std::printf("corpus: %zu train / %zu validation\n\n", DS.Train.size(),
              DS.Valid.size());

  std::printf("%-16s %6s %10s %9s %9s %9s\n", "model", "params",
              "latency", "correct", "icount", "size");
  std::printf("%-16s %6s %10s %9s %9s %9s\n", "", "", "(vs-O0,hi)", "(hi)",
              "(ratio,lo)", "(ratio,lo)");

  row(sftBaseline(presetQwen15B(), DS), 1.5, "SFT");
  row(sftBaseline(presetQwen3B(), DS), 3.0, "SFT");
  row(sftBaseline(presetQwen7B(), DS), 7.0, "SFT");
  row(sftBaseline(presetLlama8B(), DS), 8.0, "SFT");
  {
    // LLM-Compiler-7B: evaluated without task-specific fine-tuning.
    RewritePolicyModel M(presetLLMCompiler7B());
    row(bench::evaluate(M, DS.Valid, PromptMode::Generic), 7.0, "no FT");
  }
  row(sftBaseline(presetQwen32B(), DS), 32.0, "SFT");

  std::printf("training LLM-VeriOpt pipeline...\n");
  PipelineArtifacts Art = runTrainingPipeline(DS, bench::benchPipeline());
  EvalResult Veriopt =
      bench::evaluate(*Art.Latency, DS.Valid, PromptMode::Generic);
  Veriopt.ModelName = "VERIOPT (3B)";
  row(Veriopt, 3.0, "GRPO+Alive");

  std::printf("\npaper reference: MODEL-LATENCY leads latency, ICount and "
              "correctness despite 3B params; Qwen-32B leads binary size\n");
  return 0;
}
