//===- veriopt_drive.cpp - Crash-tolerant multi-process eval supervisor -----===//
//
// The operator front door for multi-process evaluation: plans shards,
// writes the manifest, farms shards to `veriopt-worker` processes via
// EvalDriver (supervision, deterministic retry/backoff, poison-shard
// quarantine), and merges the healthy subset.
//
//   veriopt-drive --dir results/ [--valid-count N] [--dataset-seed S]
//                 [--shards K] [--workers N] [--max-attempts A]
//                 [--timeout-ms T] [--backoff-ms B] [--backoff-cap-ms C]
//                 [--worker PATH] [--no-resume] [--trace out.jsonl]
//                 [--verdict-store PATH]
//                 [--inject-crash-shard I] [--inject-hang-shard I]
//                 [--inject-corrupt-result I] [--inject-flaky-shard I]
//                 [--chaos-io RATE%] [--chaos-io-seed S]
//
// --verdict-store hands every worker the same durable verdict journal
// (docs/PERSISTENCE.md): the fleet shares one warm store across shards,
// processes, and runs. Results are bit-identical with or without it.
//
// --chaos-io forwards worker-side I/O fault injection (the FaultyIoEnv
// seam, docs/FAULT_TOLERANCE.md): every durable write a worker makes can
// fail with a shaped errno at the given percentage, deterministically in
// (seed, logical path, op ordinal) with the seed mixed per attempt — so a
// shard whose result write fails (typed exit 5, classified [io] in the
// quarantine diagnostics, distinct from [logic] and [runtime]) is
// salvageable by the driver's retries, exactly like a transiently failing
// disk. The CI chaos-io job drives this with --max-attempts raised and
// gates a clean exit.
//
// Exit codes: 0 all shards healthy; 1 hard error; 2 usage error (an unknown
// flag, or a numeric value that does not parse whole — counts, shard
// indices and RATE are decimal, seeds and milliseconds decimal or 0x hex,
// RATE at most 100); 4 degraded (some shards quarantined — healthy subset
// still merged and reported). Values forwarded to the workers are checked
// here, before any worker spawns.
//
// `--tiny` is the CI chaos gate. It runs three phases (four with
// --verdict-store) over a scratch directory and exits nonzero unless every
// gate holds:
//   1. all-healthy run  => bit-identical to evaluateModelSharded() and the
//      serial evaluation oracle (oracle::evaluateSerially);
//   2. chaos run (flaky shard 0, crash shard 1, hang shard 2, corrupt
//      result shard 3) => completes, salvages shard 0 via retry
//      (salvaged > 0), quarantines exactly shards {1,2,3}, and the
//      healthy-subset merge is bit-identical to the oracle restricted to
//      the healthy shard set;
//   3. resume run over the same directory without injection => reuses the
//      salvaged shard's result file, re-runs only the quarantined shards,
//      and the full merge is bit-identical to the oracle;
//   4. (with --verdict-store) warm-store differential: an in-process
//      sharded evaluation against the store the worker fleet just warmed
//      must replay verdicts (store hits > 0) and stay bit-identical to the
//      oracle. Running --tiny twice against one store also exercises the
//      cross-run warm path — the CI warm-store job's gate.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"
#include "pipeline/EvalDriver.h"
#include "store/VerdictStore.h"
#include "support/AtomicFile.h"
#include "support/CommandLine.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace veriopt;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--tiny] --dir <results-dir> [--valid-count N]\n"
      "          [--dataset-seed S] [--shards K] [--workers N]\n"
      "          [--max-attempts A] [--timeout-ms T] [--backoff-ms B]\n"
      "          [--backoff-cap-ms C] [--worker PATH] [--no-resume]\n"
      "          [--trace out.jsonl] [--verdict-store PATH]\n"
      "          [--inject-crash-shard I]\n"
      "          [--inject-hang-shard I] [--inject-corrupt-result I]\n"
      "          [--inject-flaky-shard I] [--chaos-io RATE%%]\n"
      "          [--chaos-io-seed S]\n",
      Argv0);
  return 2;
}

/// Default worker: sibling binary of this executable.
std::string siblingWorker(const char *Argv0) {
  std::string S = Argv0;
  size_t Slash = S.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : S.substr(0, Slash);
  return Dir + "/veriopt-worker";
}

struct DriveConfig {
  std::string Dir, WorkerPath, TracePath, StorePath;
  unsigned ValidCount = 24, Shards = 4, Workers = 2, MaxAttempts = 3;
  uint64_t DatasetSeed = 2026, TimeoutMs = 120000, BackoffMs = 50,
           BackoffCapMs = 2000, PlanSeed = 0xE7A1;
  bool Resume = true;
  std::vector<std::string> InjectArgs; ///< forwarded to every worker
};

/// Plan + manifest + driver run over an already built corpus size.
bool runOnce(const DriveConfig &C, size_t CorpusSize, EvalDriverReport &Out,
             std::string *Err) {
  auto Plan = planEvalShards(CorpusSize, C.Shards, C.PlanSeed);
  const std::string Manifest = C.Dir + "/manifest.json";
  if (!writeFileAtomic(Manifest,
                       shardManifestToJson(Plan, C.PlanSeed, CorpusSize),
                       Err))
    return false;

  EvalDriverOptions DO;
  DO.ManifestPath = Manifest;
  DO.ResultDir = C.Dir;
  DO.WorkerArgv = {C.WorkerPath,
                   "--valid-count", std::to_string(C.ValidCount),
                   "--dataset-seed", std::to_string(C.DatasetSeed)};
  if (!C.StorePath.empty())
    DO.WorkerArgv.insert(DO.WorkerArgv.end(),
                         {"--verdict-store", C.StorePath});
  DO.WorkerArgv.insert(DO.WorkerArgv.end(), C.InjectArgs.begin(),
                       C.InjectArgs.end());
  DO.MaxWorkers = C.Workers;
  DO.MaxAttempts = C.MaxAttempts;
  DO.BackoffBaseMs = C.BackoffMs;
  DO.BackoffCapMs = C.BackoffCapMs;
  DO.WorkerDeadlineMs = C.TimeoutMs;
  DO.Seed = C.PlanSeed;
  DO.Resume = C.Resume;
  return runEvalDriver(DO, presetQwen3B().Name, Out, Err);
}

/// In-process oracle restricted to a shard subset: evaluate exactly those
/// shards with the plain (non-batch) verifier and merge. By the PR6
/// contract this equals the serial oracle on that sample subset.
EvalResult oracleSubset(const RewritePolicyModel &Model,
                        const std::vector<Sample> &Valid,
                        const std::vector<EvalShard> &Plan,
                        const std::vector<unsigned> &Indices) {
  std::vector<ShardEvalResult> Shards;
  for (unsigned I : Indices)
    Shards.push_back(evaluateEvalShard(Model, Valid, PromptMode::Generic,
                                       VerifyOptions(), Plan[I]));
  return mergeShardResults(Model.config().Name, std::move(Shards));
}

int chaosGate(DriveConfig C) {
  std::printf("veriopt-drive --tiny: differential + chaos gate\n");
  C.ValidCount = 12;
  C.Shards = 4;
  C.Workers = 2;
  C.MaxAttempts = 2;
  C.BackoffMs = 20;
  C.BackoffCapMs = 200;

  DatasetOptions DOpts;
  DOpts.TrainCount = 0;
  DOpts.ValidCount = C.ValidCount;
  DOpts.Seed = C.DatasetSeed;
  Dataset DS = buildDataset(DOpts);
  RewritePolicyModel Model(presetQwen3B());
  EvalResult Oracle =
      oracle::evaluateSerially(Model, DS.Valid, PromptMode::Generic);
  auto Plan = planEvalShards(DS.Valid.size(), C.Shards, C.PlanSeed);

  unsigned Failures = 0;
  auto gate = [&](bool Ok, const char *What) {
    std::printf("  %-52s %s\n", What, Ok ? "ok" : "FAILED");
    Failures += !Ok;
  };

  // Phase 1: all-healthy differential.
  {
    DriveConfig H = C;
    H.Dir = C.Dir + "/healthy";
    ::mkdir(H.Dir.c_str(), 0755);
    EvalDriverReport R;
    std::string Err;
    if (!runOnce(H, DS.Valid.size(), R, &Err)) {
      std::fprintf(stderr, "driver error: %s\n", Err.c_str());
      return 1;
    }
    gate(R.allHealthy() && R.Salvaged == C.Shards, "healthy: all salvaged");
    gate(countResultDivergence(Oracle, R.Merged) == 0,
         "healthy: bit-identical to serial oracle");
    EvalOptions EO;
    EO.Shards = C.Shards;
    EvalResult InProc = evaluateModelSharded(Model, DS.Valid,
                                             PromptMode::Generic,
                                             VerifyOptions(), EO);
    gate(countResultDivergence(InProc, R.Merged) == 0,
         "healthy: bit-identical to evaluateModelSharded");
  }

  // Phase 2: chaos — flaky 0 (salvaged by retry), crash 1, hang 2,
  // corrupt result 3.
  const std::string ChaosDir = C.Dir + "/chaos";
  {
    DriveConfig X = C;
    X.Dir = ChaosDir;
    ::mkdir(X.Dir.c_str(), 0755);
    X.TimeoutMs = 5000; // hang shard burns one deadline per attempt
    X.InjectArgs = {"--inject-flaky-shard", "0", "--inject-crash-shard",
                    "1",  "--inject-hang-shard", "2",
                    "--inject-corrupt-result", "3"};
    EvalDriverReport R;
    std::string Err;
    if (!runOnce(X, DS.Valid.size(), R, &Err)) {
      std::fprintf(stderr, "driver error: %s\n", Err.c_str());
      return 1;
    }
    std::fputs(renderDriverReport(R).c_str(), stdout);
    gate(R.Salvaged > 0, "chaos: nonzero salvaged shards");
    gate(R.Retried > 0, "chaos: flaky shard was retried");
    gate(R.Quarantined.size() == 3 &&
             R.Quarantined[0].Shard.Index == 1 &&
             R.Quarantined[1].Shard.Index == 2 &&
             R.Quarantined[2].Shard.Index == 3,
         "chaos: quarantined exactly shards {1,2,3}");
    bool HaveDiags = !R.Quarantined.empty();
    for (const QuarantinedShard &Q : R.Quarantined)
      HaveDiags = HaveDiags && Q.Failures.size() == C.MaxAttempts &&
                  !Q.Failures.back().Reason.empty();
    gate(HaveDiags, "chaos: quarantine carries per-attempt diagnostics");
    EvalResult Sub =
        oracleSubset(Model, DS.Valid, Plan, R.HealthyShardIndices);
    gate(countResultDivergence(Sub, R.Merged) == 0,
         "chaos: healthy-subset merge bit-identical to oracle");
  }

  // Phase 3: resume over the chaos directory without injection — the
  // salvaged shard's result file is reused, only the quarantined shards
  // re-run, and the full merge equals the oracle.
  {
    DriveConfig Z = C;
    Z.Dir = ChaosDir;
    EvalDriverReport R;
    std::string Err;
    if (!runOnce(Z, DS.Valid.size(), R, &Err)) {
      std::fprintf(stderr, "driver error: %s\n", Err.c_str());
      return 1;
    }
    gate(R.Reused >= 1, "resume: salvaged shard result reused");
    gate(R.Spawned == C.Shards - R.Reused,
         "resume: only missing shards re-ran");
    gate(R.allHealthy(), "resume: run completed healthy");
    gate(countResultDivergence(Oracle, R.Merged) == 0,
         "resume: full merge bit-identical to serial oracle");
  }

  // Phase 4 (with --verdict-store): the worker fleet above warmed the
  // shared journal; an in-process evaluation against it must replay those
  // verdicts and still match the oracle bit for bit.
  if (!C.StorePath.empty()) {
    std::string SErr;
    std::unique_ptr<VerdictStore> Store = VerdictStore::open(C.StorePath,
                                                             &SErr);
    if (!Store) {
      std::fprintf(stderr, "store error: %s\n", SErr.c_str());
      return 1;
    }
    VerdictStore::Stats AtOpen = Store->stats();
    std::printf("verdict store: %llu records loaded, %llu quarantined\n",
                static_cast<unsigned long long>(AtOpen.LiveAtOpen),
                static_cast<unsigned long long>(AtOpen.Quarantined));
    gate(AtOpen.LiveAtOpen > 0, "warm store: fleet journaled verdicts");
    EvalOptions EO;
    EO.Shards = C.Shards;
    EO.VerdictTier = Store.get();
    EvalResult Warm = evaluateModelSharded(Model, DS.Valid,
                                           PromptMode::Generic,
                                           VerifyOptions(), EO);
    gate(Store->stats().Hits > 0, "warm store: verdicts replayed (hits > 0)");
    gate(countResultDivergence(Oracle, Warm) == 0,
         "warm store: bit-identical to serial oracle");
  }

  std::printf("chaos gate: %s\n", Failures ? "FAILED" : "all gates passed");
  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  DriveConfig C;
  bool Tiny = false;
  C.WorkerPath = siblingWorker(argv[0]);

  auto valArg = [&](int &I, const char *Name, const char **Out) {
    if (std::strcmp(argv[I], Name) != 0 || I + 1 >= argc)
      return false;
    *Out = argv[++I];
    return true;
  };
  // A numeric flag matches its name; a value that does not parse whole
  // makes the command line a usage error.
  bool BadValue = false;
  auto countArg = [&](int &I, const char *Name, unsigned &Out) {
    const char *V = nullptr;
    if (!valArg(I, Name, &V))
      return false;
    BadValue |= !parseUnsignedArg(V, Out);
    return true;
  };
  auto u64Arg = [&](int &I, const char *Name, uint64_t &Out) {
    const char *V = nullptr;
    if (!valArg(I, Name, &V))
      return false;
    BadValue |= !parseU64Arg(V, Out);
    return true;
  };
  // A worker flag is checked as the worker parses it, then forwarded
  // verbatim (argv[I] is the value the parse just consumed).
  auto forwardCount = [&](int &I, const char *Name,
                          unsigned Max = UINT_MAX) {
    unsigned N = 0;
    if (!countArg(I, Name, N))
      return false;
    BadValue |= N > Max;
    C.InjectArgs.insert(C.InjectArgs.end(), {Name, argv[I]});
    return true;
  };
  auto forwardSeed = [&](int &I, const char *Name) {
    uint64_t Seed = 0;
    if (!u64Arg(I, Name, Seed))
      return false;
    C.InjectArgs.insert(C.InjectArgs.end(), {Name, argv[I]});
    return true;
  };
  for (int I = 1; I < argc; ++I) {
    const char *V = nullptr;
    if (std::strcmp(argv[I], "--tiny") == 0)
      Tiny = true;
    else if (std::strcmp(argv[I], "--no-resume") == 0)
      C.Resume = false;
    else if (valArg(I, "--dir", &V))
      C.Dir = V;
    else if (valArg(I, "--worker", &V))
      C.WorkerPath = V;
    else if (valArg(I, "--trace", &V))
      C.TracePath = V;
    else if (valArg(I, "--verdict-store", &V))
      C.StorePath = V;
    else if (countArg(I, "--valid-count", C.ValidCount) ||
             countArg(I, "--shards", C.Shards) ||
             countArg(I, "--workers", C.Workers) ||
             countArg(I, "--max-attempts", C.MaxAttempts) ||
             u64Arg(I, "--dataset-seed", C.DatasetSeed) ||
             u64Arg(I, "--timeout-ms", C.TimeoutMs) ||
             u64Arg(I, "--backoff-ms", C.BackoffMs) ||
             u64Arg(I, "--backoff-cap-ms", C.BackoffCapMs) ||
             forwardCount(I, "--inject-crash-shard") ||
             forwardCount(I, "--inject-hang-shard") ||
             forwardCount(I, "--inject-corrupt-result") ||
             forwardCount(I, "--inject-flaky-shard") ||
             forwardCount(I, "--chaos-io", 100) ||
             forwardSeed(I, "--chaos-io-seed"))
      continue;
    else
      return usage(argv[0]);
  }
  if (BadValue || C.Dir.empty())
    return usage(argv[0]);
  ::mkdir(C.Dir.c_str(), 0755); // fine if it already exists (resume)

  if (!C.TracePath.empty())
    TraceRecorder::instance().enable();

  int Ret;
  if (Tiny) {
    Ret = chaosGate(C);
  } else {
    DatasetOptions DOpts;
    DOpts.TrainCount = 0;
    DOpts.ValidCount = C.ValidCount;
    DOpts.Seed = C.DatasetSeed;
    Dataset DS = buildDataset(DOpts);
    EvalDriverReport R;
    std::string Err;
    if (!runOnce(C, DS.Valid.size(), R, &Err)) {
      std::fprintf(stderr, "veriopt-drive: %s\n", Err.c_str());
      return 1;
    }
    std::fputs(renderDriverReport(R).c_str(), stdout);
    std::printf("quarantine list: %s/quarantine.json\n", C.Dir.c_str());
    Ret = R.allHealthy() ? 0 : 4;
  }

  if (!C.TracePath.empty() &&
      !TraceRecorder::instance().writeJsonl(C.TracePath,
                                            &MetricsRegistry::global())) {
    std::fprintf(stderr, "veriopt-drive: could not write %s\n",
                 C.TracePath.c_str());
    return 1;
  }
  return Ret;
}
