//===- eval_driver.cpp - Multi-process eval driver under chaos -------------===//
//
// Measures the crash-tolerant driver on the bench's standard validation
// corpus, two ways:
//
//  1. Differential gate: an all-healthy multi-process run must merge
//     bit-identically to the serial oracle, and a chaos run (crash + hang
//     + corrupt-result + flaky injections) must salvage every healthy
//     shard, quarantine exactly the poisoned ones, and merge the healthy
//     subset bit-identically to the oracle restricted to those shards.
//     Exits nonzero on any divergence, so CI runs `--tiny` as a gate.
//
//  2. Overhead: the supervised multi-process path re-runs the model in
//     worker processes (cold caches, process startup), so this reports
//     the absolute wall clocks rather than a speedup target — on a
//     single-core CI box the interesting number is the supervision
//     overhead per shard, not parallel scaling.
//
// Reported in EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "oracle/Oracle.h"

#include "pipeline/EvalDriver.h"
#include "support/AtomicFile.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <sys/stat.h>

using namespace veriopt;
using namespace veriopt::bench;

namespace {

double wallMs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Tiny = Argc > 1 && std::strcmp(Argv[1], "--tiny") == 0;

  header("Multi-process evaluation driver under chaos",
         "the crash-tolerance tentpole; not a paper figure");

  DatasetOptions DO = benchDataset();
  DO.TrainCount = 0;
  if (Tiny)
    DO.ValidCount = 8;
  Dataset DS = buildDataset(DO);
  RewritePolicyModel Base(presetQwen3B());
  const unsigned Shards = 4;
  const uint64_t PlanSeed = 0xE7A1;

  char Tmpl[] = "/tmp/veriopt-bench-driver-XXXXXX";
  if (!::mkdtemp(Tmpl)) {
    std::printf("cannot create scratch dir\n");
    return 1;
  }
  const std::string Dir = Tmpl;

  auto Plan = planEvalShards(DS.Valid.size(), Shards, PlanSeed);
  auto driverOpts = [&](const std::string &Sub,
                        std::vector<std::string> Extra) {
    std::string D = Dir + "/" + Sub;
    ::mkdir(D.c_str(), 0755);
    if (!writeFileAtomic(D + "/manifest.json",
                         shardManifestToJson(Plan, PlanSeed,
                                             DS.Valid.size()))) {
      std::printf("cannot write %s/manifest.json\n", D.c_str());
      std::exit(1);
    }
    EvalDriverOptions O;
    O.ManifestPath = D + "/manifest.json";
    O.ResultDir = D;
    O.WorkerArgv = {VERIOPT_WORKER_BIN,
                    "--valid-count", std::to_string(DS.Valid.size()),
                    "--dataset-seed", std::to_string(DO.Seed)};
    O.WorkerArgv.insert(O.WorkerArgv.end(), Extra.begin(), Extra.end());
    O.MaxWorkers = 2;
    O.MaxAttempts = 2;
    O.BackoffBaseMs = 10;
    O.BackoffCapMs = 100;
    O.WorkerDeadlineMs = Tiny ? 10000 : 120000;
    O.Seed = PlanSeed;
    return O;
  };

  std::printf("%zu validation samples, %u shards, 2 workers\n\n",
              DS.Valid.size(), Shards);

  EvalResult Oracle;
  double SerialMs = wallMs([&] {
    Oracle = oracle::evaluateSerially(Base, DS.Valid, PromptMode::Generic);
  });

  unsigned Failures = 0;
  std::string Err;

  // All healthy: the multi-process differential.
  EvalDriverReport Healthy;
  double HealthyMs = wallMs([&] {
    if (!runEvalDriver(driverOpts("healthy", {}), Base.config().Name,
                       Healthy, &Err))
      ++Failures;
  });
  unsigned D = countResultDivergence(Oracle, Healthy.Merged);
  Failures += D + !Healthy.allHealthy();
  std::printf("serial oracle (in-process)       %8.1f ms\n", SerialMs);
  std::printf("driver, all healthy              %8.1f ms  %s\n", HealthyMs,
              D ? "DIVERGED" : "bit-identical");

  // Chaos: shard 0 flaky (salvaged by retry), shard 1 crashes, shard 2
  // corrupts its result file. (No hang shard here: its cost is just the
  // deadline, measured nowhere interesting.)
  EvalDriverReport Chaos;
  double ChaosMs = wallMs([&] {
    if (!runEvalDriver(driverOpts("chaos",
                                  {"--inject-flaky-shard", "0",
                                   "--inject-crash-shard", "1",
                                   "--inject-corrupt-result", "2"}),
                       Base.config().Name, Chaos, &Err))
      ++Failures;
  });
  bool QuarantineRight = Chaos.Quarantined.size() == 2 &&
                         Chaos.Quarantined[0].Shard.Index == 1 &&
                         Chaos.Quarantined[1].Shard.Index == 2;
  std::vector<ShardEvalResult> Sub;
  for (unsigned I : Chaos.HealthyShardIndices)
    Sub.push_back(evaluateEvalShard(Base, DS.Valid, PromptMode::Generic,
                                    VerifyOptions(), Plan[I]));
  unsigned DSub = countResultDivergence(
      mergeShardResults(Base.config().Name, std::move(Sub)), Chaos.Merged);
  Failures += DSub + !QuarantineRight + (Chaos.Retried == 0);
  std::printf("driver, chaos (2 poison, 1 flaky) %7.1f ms  %s\n", ChaosMs,
              DSub || !QuarantineRight
                  ? "WRONG"
                  : "salvaged subset bit-identical");
  std::printf("  salvaged %u/%u shards, %u retries, %zu quarantined\n",
              Chaos.Salvaged, Shards, Chaos.Retried,
              Chaos.Quarantined.size());

  // Resume over the healthy directory: all shards served from disk.
  EvalDriverReport Resumed;
  double ResumeMs = wallMs([&] {
    if (!runEvalDriver(driverOpts("healthy", {}), Base.config().Name,
                       Resumed, &Err))
      ++Failures;
  });
  unsigned DRes = countResultDivergence(Oracle, Resumed.Merged);
  Failures += DRes + (Resumed.Reused != Shards) + (Resumed.Spawned != 0);
  std::printf("driver, resume (0 spawned)       %8.1f ms  %s\n", ResumeMs,
              DRes ? "DIVERGED" : "bit-identical");

  double PerShardOverheadMs =
      Shards ? (HealthyMs - SerialMs) / Shards : 0;
  std::printf("\nsupervision+process overhead ~%.1f ms/shard; results: %s\n",
              PerShardOverheadMs,
              Failures ? "FAILED (correctness bug)" : "all bit-identical");

  MetricsRegistry &M = MetricsRegistry::global();
  M.gauge("bench.serial_ms").set(SerialMs);
  M.gauge("bench.driver_healthy_ms").set(HealthyMs);
  M.gauge("bench.driver_chaos_ms").set(ChaosMs);
  M.gauge("bench.driver_resume_ms").set(ResumeMs);
  M.gauge("bench.driver_salvaged").set(Chaos.Salvaged);
  M.gauge("bench.driver_quarantined").set(Chaos.Quarantined.size());
  M.gauge("bench.driver_failures").set(Failures);
  writeBenchJson("eval_driver");

  std::string Cleanup = "rm -rf '" + Dir + "'";
  (void)std::system(Cleanup.c_str());
  return Failures ? 1 : 0;
}
