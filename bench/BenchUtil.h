//===- BenchUtil.h - Shared configuration for the table/figure benches -----===//
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic corpus. They share the dataset/pipeline configuration here so
// rows are comparable across binaries. Scale can be adjusted with the
// VERIOPT_BENCH_SCALE environment variable (default 1; 2 doubles corpus
// sizes and training budgets).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_BENCH_BENCHUTIL_H
#define VERIOPT_BENCH_BENCHUTIL_H

#include "pipeline/Evaluation.h"
#include "pipeline/Pipeline.h"
#include "report/BenchJson.h"
#include "trace/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace veriopt {
namespace bench {

inline unsigned scale() {
  const char *S = std::getenv("VERIOPT_BENCH_SCALE");
  if (!S)
    return 1;
  int V = std::atoi(S);
  return V > 0 ? static_cast<unsigned>(V) : 1;
}

inline DatasetOptions benchDataset() {
  DatasetOptions D;
  D.TrainCount = 60 * scale();
  D.ValidCount = 100 * scale();
  D.Seed = 2026;
  return D;
}

inline PipelineOptions benchPipeline() {
  PipelineOptions P;
  P.Data = benchDataset();
  P.Stage1Steps = 50 * scale();
  P.Stage2Steps = 80 * scale();
  P.Stage3Steps = 200 * scale();
  return P;
}

/// Greedy evaluation at the default verification budget: one inline shard
/// of evaluateModelSharded.
inline EvalResult evaluate(const RewritePolicyModel &M,
                           const std::vector<Sample> &Valid, PromptMode Mode) {
  return evaluateModelSharded(M, Valid, Mode, VerifyOptions(), EvalOptions());
}

inline void header(const char *Title, const char *PaperRef) {
  std::printf("==============================================================="
              "=\n%s\n(reproduces %s; shape comparison, not absolute "
              "numbers)\n"
              "==============================================================="
              "=\n",
              Title, PaperRef);
}

inline void taxonomyRow(const char *Name, const VerifyTaxonomy &T) {
  std::printf("%-34s %5u  %5.1f%%\n", Name, T.Total, 100.0);
  std::printf("  Correct (Alive-lite verified)    %5u  %5.1f%%\n", T.Correct,
              T.pct(T.Correct));
  std::printf("  - Copy of input (no optimization)%5u  %5.1f%%\n",
              T.CorrectCopies, T.pct(T.CorrectCopies));
  std::printf("  Semantic Error (Not Equivalent)  %5u  %5.1f%%\n",
              T.SemanticError, T.pct(T.SemanticError));
  std::printf("  Syntax Error (Invalid IR)        %5u  %5.1f%%\n",
              T.SyntaxError, T.pct(T.SyntaxError));
  std::printf("  Inconclusive                     %5u  %5.1f%%\n",
              T.Inconclusive, T.pct(T.Inconclusive));
  std::printf("  => different-and-correct rate:   %5.1f%%\n",
              T.differentCorrectRate());
}

/// Write the shared machine-readable result file, `BENCH_<name>.json` in
/// the working directory. Every bench emits the same schema — the
/// process-wide MetricsRegistry snapshot under "metrics", with
/// bench-specific headline numbers published as `bench.*` gauges — so
/// multi-run comparison tooling never needs per-binary parsers. The schema
/// (and its versioning) is owned by src/report/BenchJson.h, which is also
/// the validator behind `report --bench-diff`; emitting through it keeps
/// writer and checker from drifting.
inline bool writeBenchJson(const std::string &Name) {
  const std::string Path = "BENCH_" + Name + ".json";
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  OS << benchReportToJson(Name, MetricsRegistry::global().snapshot());
  OS.flush();
  if (OS)
    std::printf("\nwrote %s\n", Path.c_str());
  return static_cast<bool>(OS);
}

} // namespace bench
} // namespace veriopt

#endif // VERIOPT_BENCH_BENCHUTIL_H
