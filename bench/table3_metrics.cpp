//===- table3_metrics.cpp - Table III: per-sample outcomes vs -O0 ----------===//
//
// Paper Table III: per-sample Better/Worse/Tie counts against LLVM -O0
// (with -O0 fallback on verification failure) and the mean relative change
// for Latency / Size / ICount, for MODEL-LATENCY, MODEL-CORRECTNESS, and
// the raw base model. Expected shape: the trained models improve the vast
// majority of samples with large negative mean changes; the base model is
// almost all ties with ~0% change.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace veriopt;

namespace {

void row(const char *Metric, const char *Model, const MetricAgg &A,
         unsigned Total) {
  std::printf("%-8s %-12s %6u %6u %6u %6u   %+7.2f%%\n", Metric, Model,
              A.Better, A.Worse, A.Tie, Total, 100.0 * A.MeanRelChange);
}

} // namespace

int main() {
  bench::header(
      "Table III — per-sample outcomes vs -O0 (smaller = better)",
      "Table III");

  Dataset DS = buildDataset(bench::benchDataset());
  std::printf("training pipeline on %zu functions, evaluating on %zu...\n\n",
              DS.Train.size(), DS.Valid.size());
  PipelineArtifacts Art = runTrainingPipeline(DS, bench::benchPipeline());

  EvalResult Lat = bench::evaluate(*Art.Latency, DS.Valid, PromptMode::Generic);
  EvalResult Corr =
      bench::evaluate(*Art.Correctness, DS.Valid, PromptMode::Augmented);
  EvalResult Base = bench::evaluate(*Art.Base, DS.Valid, PromptMode::Generic);

  unsigned N = Lat.Taxonomy.Total;
  std::printf("%-8s %-12s %6s %6s %6s %6s   %9s\n", "Metric", "Model",
              "Better", "Worse", "Tie", "Total", "MeanΔ vs-O0");
  row("Latency", "Latency", Lat.Latency, N);
  row("Latency", "Correctness", Corr.Latency, N);
  row("Latency", "Base", Base.Latency, N);
  row("Size", "Latency", Lat.Size, N);
  row("Size", "Correctness", Corr.Size, N);
  row("Size", "Base", Base.Size, N);
  row("ICount", "Latency", Lat.ICount, N);
  row("ICount", "Correctness", Corr.ICount, N);
  row("ICount", "Base", Base.ICount, N);

  std::printf("\npaper reference (4,386 samples): Latency row for "
              "Model-Latency 3696/0/690 with -50.68%%; base model ~4290 "
              "ties with -0.19%%\n");
  return 0;
}
