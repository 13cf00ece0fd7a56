//===- table2_veriopt.cpp - Table II: trained-model verification taxonomy --===//
//
// Paper Table II: Alive2 verification of MODEL-CORRECTNESS and
// MODEL-LATENCY. Expected shape: ~90% verified with almost no trivial
// copies, small residual semantic/syntax bands, and the latency stage
// holding (not losing) correctness.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace veriopt;

int main() {
  bench::header("Table II — Alive verification of the LLM-VeriOpt models",
                "Table II");

  Dataset DS = buildDataset(bench::benchDataset());
  std::printf("training pipeline on %zu functions, evaluating on %zu...\n\n",
              DS.Train.size(), DS.Valid.size());
  PipelineArtifacts Art = runTrainingPipeline(DS, bench::benchPipeline());

  EvalResult Corr =
      bench::evaluate(*Art.Correctness, DS.Valid, PromptMode::Augmented);
  EvalResult Lat = bench::evaluate(*Art.Latency, DS.Valid, PromptMode::Generic);

  bench::taxonomyRow("MODEL-CORRECTNESS", Corr.Taxonomy);
  std::printf("\n");
  bench::taxonomyRow("MODEL-LATENCY", Lat.Taxonomy);

  std::printf("\npaper reference: correctness 89.5%% correct (1.4%% copies), "
              "latency 89.9%% correct (1.5%% copies)\n");
  double Improvement = Lat.Taxonomy.differentCorrectRate() / 16.4;
  std::printf("different-correct improvement over the paper's baseline "
              "figure of 16.4%%: %.1fx (paper: 5.4x over their baseline)\n",
              Improvement);
  std::printf("latency stage keeps correctness within %.1f points of the "
              "correctness stage\n",
              Corr.Taxonomy.pct(Corr.Taxonomy.Correct) -
                  Lat.Taxonomy.pct(Lat.Taxonomy.Correct));
  return 0;
}
