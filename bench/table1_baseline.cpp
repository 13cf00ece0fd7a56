//===- table1_baseline.cpp - Table I: base-model verification taxonomy -----===//
//
// Paper Table I: Alive2 verification results of baseline Qwen-3B with the
// generic prompt and greedy decoding. Expected shape: ~73% verified, the
// majority of which are trivial copies; ~21% syntax errors; a small
// semantic-error band; different-and-correct ~16%.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace veriopt;

int main() {
  bench::header("Table I — Alive verification of the baseline model",
                "Table I");

  auto DSOpts = bench::benchDataset();
  DSOpts.TrainCount = 0; // evaluation only
  Dataset DS = buildDataset(DSOpts);
  std::printf("validation functions: %zu (paper: 4,386; scaled corpus)\n\n",
              DS.Valid.size());

  RewritePolicyModel Base(presetQwen3B());
  EvalResult E = bench::evaluate(Base, DS.Valid, PromptMode::Generic);
  bench::taxonomyRow("baseline qwen-3b (greedy)", E.Taxonomy);

  std::printf("\npaper reference: correct 73.2%% (copies 56.8%%), semantic "
              "4.2%%, syntax 21.1%%, inconclusive 1.5%%, "
              "different-correct 16.4%%\n");
  std::printf("geomean speedup vs -O0: %.3fx (paper: ~1.002x)\n",
              E.GeoSpeedupVsO0);
  return 0;
}
