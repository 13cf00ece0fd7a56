//===- train_mini.cpp - A miniature end-to-end LLM-VeriOpt run --------------===//
//
// Runs the whole §III-C pipeline at a small scale and prints the ablation
// ladder: base -> MODEL-ZERO -> WARM-UP -> MODEL-CORRECTNESS ->
// MODEL-LATENCY, compared against the handwritten reference pass.
//
// Takes a couple of minutes. Build & run:  ./build/examples/train_mini
//
// Flags:
//   --tiny                 few samples / few steps (the CI smoke config)
//   --trace <out.jsonl>    record the run's trace + metrics (see
//                          docs/OBSERVABILITY.md; render with tools/report)
//   --chrome-trace <out>   also write a chrome://tracing-loadable JSON
//   --eval-shards <n>      shard the final evaluation (0 = one per thread);
//                          results are bit-identical at any setting
//   --eval-threads <n>     worker threads for the sharded evaluation
//   --verdict-store <path> durable verdict journal shared across runs and
//                          processes (docs/PERSISTENCE.md); results are
//                          bit-identical warm or cold
//   --checkpoint <path>    periodic pipeline checkpoints + resume (see
//                          docs/FAULT_TOLERANCE.md)
//   --checkpoint-every <n> checkpoint every n GRPO steps (0 = stage
//                          boundaries only)
//   --chaos-io <rate%>     inject I/O faults (ENOSPC/EIO/EDQUOT, short
//                          writes, failed fsync/rename/flock) into every
//                          durable write at the given percentage. The run
//                          must still complete with a training trajectory
//                          bit-identical to the fault-free same-seed run;
//                          only durability (store flushes, checkpoints)
//                          degrades, visibly, as io.* metrics. The JSONL
//                          trace is exempted so the gate artifact this
//                          flag exists to compare survives.
//   --chaos-io-seed <s>    seed for the fault pattern, decimal or 0x hex
//                          (default 0xFA11)
//
// Every numeric value must parse whole; a bad one prints the usage line
// and exits 2.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Evaluation.h"
#include "pipeline/Pipeline.h"
#include "store/VerdictStore.h"
#include "support/CommandLine.h"
#include "support/FaultInjector.h"
#include "support/IoEnv.h"
#include "support/ThreadPool.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

using namespace veriopt;

int main(int argc, char **argv) {
  bool Tiny = false;
  unsigned EvalShards = 1, EvalThreads = 1;
  unsigned CheckpointEvery = 0;
  unsigned ChaosIoPct = 0;
  uint64_t ChaosIoSeed = 0xFA11;
  std::string TracePath, ChromePath, StorePath, CheckpointPath;
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--tiny] [--trace out.jsonl] "
                 "[--chrome-trace out.json] [--eval-shards n] "
                 "[--eval-threads n] "
                 "[--verdict-store path] [--checkpoint path] "
                 "[--checkpoint-every n] [--chaos-io rate%%] "
                 "[--chaos-io-seed s]\n",
                 argv[0]);
    return 2;
  };
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--tiny") == 0) {
      Tiny = true;
    } else if (std::strcmp(argv[I], "--trace") == 0 && I + 1 < argc) {
      TracePath = argv[++I];
    } else if (std::strcmp(argv[I], "--chrome-trace") == 0 && I + 1 < argc) {
      ChromePath = argv[++I];
    } else if (std::strcmp(argv[I], "--eval-shards") == 0 && I + 1 < argc) {
      if (!parseUnsignedArg(argv[++I], EvalShards))
        return usage();
    } else if (std::strcmp(argv[I], "--eval-threads") == 0 && I + 1 < argc) {
      if (!parseUnsignedArg(argv[++I], EvalThreads))
        return usage();
      EvalThreads = std::max(1u, EvalThreads);
    } else if (std::strcmp(argv[I], "--verdict-store") == 0 && I + 1 < argc) {
      StorePath = argv[++I];
    } else if (std::strcmp(argv[I], "--checkpoint") == 0 && I + 1 < argc) {
      CheckpointPath = argv[++I];
    } else if (std::strcmp(argv[I], "--checkpoint-every") == 0 &&
               I + 1 < argc) {
      if (!parseUnsignedArg(argv[++I], CheckpointEvery))
        return usage();
    } else if (std::strcmp(argv[I], "--chaos-io") == 0 && I + 1 < argc) {
      if (!parseUnsignedArg(argv[++I], ChaosIoPct) || ChaosIoPct > 100)
        return usage();
    } else if (std::strcmp(argv[I], "--chaos-io-seed") == 0 && I + 1 < argc) {
      if (!parseU64Arg(argv[++I], ChaosIoSeed))
        return usage();
    } else {
      return usage();
    }
  }

  // Chaos-io installs process-wide, before any durable subsystem opens a
  // file, so the whole run sees the same hostile disk. The JSONL trace is
  // exempted: the CI chaos gate diffs this run's trace against a fault-free
  // same-seed run, which requires the comparison artifact itself to land.
  std::unique_ptr<FaultInjector> IoFI;
  std::unique_ptr<FaultyIoEnv> IoFaults;
  std::unique_ptr<ScopedIoEnv> IoInstall;
  if (ChaosIoPct > 0) {
    IoFI = std::make_unique<FaultInjector>(ChaosIoSeed);
    const double Rate = static_cast<double>(ChaosIoPct) / 100.0;
    for (FaultSite S : {FaultSite::IoOpen, FaultSite::IoWrite,
                        FaultSite::IoShortWrite, FaultSite::IoFsync,
                        FaultSite::IoRename, FaultSite::IoFlock})
      IoFI->enable(S, Rate);
    IoFaults = std::make_unique<FaultyIoEnv>(*IoFI);
    IoFaults->exemptSuffix(".jsonl");
    IoInstall = std::make_unique<ScopedIoEnv>(IoFaults.get());
    std::fprintf(stderr, "chaos-io: armed at %u%% (seed 0x%llx)\n",
                 ChaosIoPct,
                 static_cast<unsigned long long>(ChaosIoSeed));
  }

  if (!TracePath.empty() || !ChromePath.empty())
    TraceRecorder::instance().enable();

  std::unique_ptr<VerdictStore> Store;
  if (!StorePath.empty()) {
    std::string Err;
    Store = VerdictStore::open(StorePath, &Err);
    if (!Store) {
      std::fprintf(stderr, "error: could not open verdict store %s: %s\n",
                   StorePath.c_str(), Err.c_str());
      return 1;
    }
    std::printf("verdict store: %s (%llu records loaded, %llu quarantined)\n",
                StorePath.c_str(),
                static_cast<unsigned long long>(Store->stats().LiveAtOpen),
                static_cast<unsigned long long>(Store->stats().Quarantined));
  }

  // A small corpus so this example stays quick; the bench binaries use the
  // full configuration.
  DatasetOptions D;
  D.TrainCount = Tiny ? 8 : 30;
  D.ValidCount = Tiny ? 6 : 24;
  D.Seed = 123;
  std::printf("building dataset (LLVM/GCC-test-suite-style functions, "
              "-O0 lowered, Alive-filtered)...\n");
  Dataset DS = buildDataset(D);
  std::printf("  kept %zu train / %zu validation "
              "(rejected: %u token-limit, %u unverified, %u inconclusive)\n",
              DS.Train.size(), DS.Valid.size(),
              DS.Stats.RejectedTokenLimit, DS.Stats.RejectedNotEquivalent,
              DS.Stats.RejectedInconclusive);
  std::printf("  example source function:\n%s\n",
              DS.Train.front().CSource.c_str());

  PipelineOptions P;
  P.Data = D;
  P.VerdictTier = Store.get();
  P.Stage1Steps = Tiny ? 4 : 20;
  P.Stage2Steps = Tiny ? 6 : 40;
  P.Stage3Steps = Tiny ? 8 : 80;
  P.GRPO.GroupSize = 6;
  P.CheckpointPath = CheckpointPath;
  P.CheckpointEveryNSteps = CheckpointEvery;
  std::printf("running the four-stage training pipeline...\n");
  PipelineArtifacts Art = runTrainingPipeline(DS, P);
  std::printf("  U_max (80th pct of reference speedups) = %.2f\n",
              Art.UMax);
  std::printf("  harvested %u correction + %u first-time augmented "
              "samples\n\n",
              Art.CorrectionSamples, Art.FirstTimeSamples);

  ThreadPool EvalPool(EvalThreads);
  EvalOptions EO;
  EO.Shards = EvalShards;
  EO.Pool = &EvalPool;
  EO.VerdictTier = Store.get();
  auto Eval = [&](const RewritePolicyModel &M, PromptMode Mode) {
    return evaluateModelSharded(M, DS.Valid, Mode, VerifyOptions(), EO);
  };
  auto Row = [&](const char *Name, const RewritePolicyModel &M,
                 PromptMode Mode) {
    EvalResult E = Eval(M, Mode);
    std::printf("%-18s correct %5.1f%%  diff-correct %5.1f%%  speedup "
                "%.2fx\n",
                Name, E.Taxonomy.pct(E.Taxonomy.Correct),
                E.Taxonomy.differentCorrectRate(), E.GeoSpeedupVsO0);
  };
  Row("base", *Art.Base, PromptMode::Generic);
  Row("MODEL-ZERO", *Art.ModelZero, PromptMode::Generic);
  Row("WARM-UP", *Art.WarmUp, PromptMode::Augmented);
  Row("MODEL-CORRECTNESS", *Art.Correctness, PromptMode::Augmented);
  Row("MODEL-LATENCY", *Art.Latency, PromptMode::Generic);

  EvalResult Ref = evaluateReferencePass(DS.Valid);
  std::printf("%-18s correct %5.1f%%  diff-correct %5.1f%%  speedup "
              "%.2fx (handwritten)\n",
              "instcombine", 100.0, 100.0, Ref.GeoSpeedupVsO0);

  EvalResult Lat = Eval(*Art.Latency, PromptMode::Generic);
  std::printf("\nMODEL-LATENCY vs instcombine: better %.0f%%, worse %.0f%%, "
              "tie %.0f%%; fallback composition %+.1f%%\n",
              Lat.Taxonomy.pct(Lat.VsRefBetter),
              Lat.Taxonomy.pct(Lat.VsRefWorse),
              Lat.Taxonomy.pct(Lat.VsRefTie),
              100.0 * Lat.FallbackGainOverRef);

  if (Store) {
    VerdictStore::Stats SS = Store->stats();
    if (!Store->flush())
      std::fprintf(stderr, "warning: verdict store flush failed\n");
    if (Store->degraded())
      std::fprintf(stderr,
                   "warning: verdict store degraded to in-memory-only (%s); "
                   "results above are unaffected\n",
                   Store->stats().DegradedReason.c_str());
    std::printf("verdict store: %llu hits, %llu misses, %llu new records "
                "(%zu resident)\n",
                static_cast<unsigned long long>(SS.Hits),
                static_cast<unsigned long long>(SS.Misses),
                static_cast<unsigned long long>(SS.Writes), Store->size());
  }

  if (!TracePath.empty()) {
    if (TraceRecorder::instance().writeJsonl(TracePath,
                                             &MetricsRegistry::global()))
      std::printf("wrote trace: %s  (render: tools/report %s)\n",
                  TracePath.c_str(), TracePath.c_str());
    else {
      std::fprintf(stderr, "error: could not write %s\n", TracePath.c_str());
      return 1;
    }
  }
  if (!ChromePath.empty()) {
    if (TraceRecorder::instance().writeChromeTrace(ChromePath))
      std::printf("wrote chrome trace: %s  (open in chrome://tracing)\n",
                  ChromePath.c_str());
    else {
      std::fprintf(stderr, "error: could not write %s\n", ChromePath.c_str());
      return 1;
    }
  }
  return 0;
}
