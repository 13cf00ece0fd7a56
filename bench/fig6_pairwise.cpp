//===- fig6_pairwise.cpp - Fig. 6: pairwise distributions vs baselines -----===//
//
// Paper Fig. 6: (a)/(b) VeriOpt and -instcombine improvements over -O0 are
// broadly similar; (c) head-to-head, VeriOpt beats -instcombine on ~20% of
// functions (20.1% in the paper), loses ~22.6%, ties 57.3%; composing with
// a fallback (take whichever is better) yields a further geomean gain
// (+17% latency in the paper).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Stats.h"

using namespace veriopt;

int main() {
  bench::header("Fig. 6 — pairwise distributions vs -O0 and vs instcombine",
                "Fig. 6(a)-(c)");

  Dataset DS = buildDataset(bench::benchDataset());
  PipelineArtifacts Art = runTrainingPipeline(DS, bench::benchPipeline());

  EvalResult Model =
      bench::evaluate(*Art.Latency, DS.Valid, PromptMode::Generic);
  EvalResult Ref = evaluateReferencePass(DS.Valid);

  std::printf("(a)/(b) improvements over -O0 (geomean):\n");
  std::printf("  %-14s latency %5.2fx  icount ratio %5.3f  size ratio "
              "%5.3f\n",
              "veriopt", Model.GeoSpeedupVsO0, Model.ICount.GeoRatio,
              Model.Size.GeoRatio);
  std::printf("  %-14s latency %5.2fx  icount ratio %5.3f  size ratio "
              "%5.3f\n",
              "instcombine", Ref.GeoSpeedupVsO0, Ref.ICount.GeoRatio,
              Ref.Size.GeoRatio);

  unsigned N = Model.Taxonomy.Total;
  std::printf("\n(c) veriopt vs instcombine on latency, per function:\n");
  std::printf("  better %5.1f%%   worse %5.1f%%   tie %5.1f%%\n",
              100.0 * Model.VsRefBetter / N, 100.0 * Model.VsRefWorse / N,
              100.0 * Model.VsRefTie / N);
  std::printf("  paper: better 20.1%%, worse 22.6%%, tie 57.3%%\n");

  // Fallback composition: keep whichever output is faster per function.
  std::printf("\nfallback composition (min of both, per function):\n");
  std::printf("  latency gain over instcombine alone: %+5.1f%% "
              "(paper: +17%%)\n",
              100.0 * Model.FallbackGainOverRef);

  // ICount / size pairwise, as the paper reports similar patterns.
  {
    unsigned B = 0, W = 0, T = 0;
    std::vector<double> FallbackIC;
    for (const SampleEval &E : Model.PerSample) {
      if (E.ICountOut < E.ICountRef)
        ++B;
      else if (E.ICountOut > E.ICountRef)
        ++W;
      else
        ++T;
      FallbackIC.push_back(
          static_cast<double>(E.ICountRef) /
          std::max(1u, std::min(E.ICountOut, E.ICountRef)));
    }
    std::printf("  icount:  better %4.1f%% worse %4.1f%% tie %4.1f%%, "
                "fallback gain %+4.1f%% (paper: +13.9%%)\n",
                100.0 * B / N, 100.0 * W / N, 100.0 * T / N,
                100.0 * (geomean(FallbackIC) - 1.0));
  }
  {
    unsigned B = 0, W = 0, T = 0;
    std::vector<double> FallbackSz;
    for (const SampleEval &E : Model.PerSample) {
      if (E.SizeOut < E.SizeRef)
        ++B;
      else if (E.SizeOut > E.SizeRef)
        ++W;
      else
        ++T;
      FallbackSz.push_back(static_cast<double>(E.SizeRef) /
                           std::max(1u, std::min(E.SizeOut, E.SizeRef)));
    }
    std::printf("  size:    better %4.1f%% worse %4.1f%% tie %4.1f%%, "
                "fallback gain %+4.1f%% (paper: +2.1%%)\n",
                100.0 * B / N, 100.0 * W / N, 100.0 * T / N,
                100.0 * (geomean(FallbackSz) - 1.0));
  }
  return 0;
}
