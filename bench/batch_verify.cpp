//===- batch_verify.cpp - Sequential vs batched group verification ---------===//
//
// Measures the incremental-SAT tentpole: verifying a whole GRPO group
// (G = 8 candidates per source) through one shared solver context —
// source falsification, encoding, and CNF prefix built once, candidates
// activated behind assumption selectors, renaming duplicates deduped —
// against the sequential oracle: the plain ladder (oracle::verifyLadder),
// verifying each candidate from scratch with verifyCandidateText at each
// rung's tierOptions.
//
// The batch path's verdict stream must be bit-identical to the sequential
// one; this binary exits nonzero on any divergence, so CI can run it in
// `--tiny` mode as a cheap differential gate. Reported in EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "verify/BatchVerifier.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "oracle/Oracle.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace veriopt;
using namespace veriopt::bench;

namespace {

double wallMs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// Parse-strip-reprint: a renaming duplicate of \p Text (the kind GRPO's
/// small action space emits constantly). Falls back to the input on parse
/// failure.
std::string renamed(const std::string &Text) {
  auto M = parseModule(Text);
  if (!M.hasValue())
    return Text;
  for (const auto &F : M.value()->functions()) {
    for (unsigned I = 0; I < F->getNumParams(); ++I)
      F->getArg(I)->setName("");
    for (auto &BB : *F) {
      BB->setName("");
      for (auto &Inst : *BB)
        Inst->setName("");
    }
  }
  return printModule(*M.value());
}

/// Deterministic "wrong candidate": flip the first add<->sub (else bump the
/// first small integer literal). May also yield unparseable text — fine,
/// both paths see the same bytes.
std::string corrupted(const std::string &Text) {
  std::string Out = Text;
  size_t P = Out.find(" add ");
  if (P != std::string::npos) {
    Out.replace(P, 5, " sub ");
    return Out;
  }
  P = Out.find(" sub ");
  if (P != std::string::npos) {
    Out.replace(P, 5, " add ");
    return Out;
  }
  P = Out.find(", 1");
  if (P != std::string::npos)
    Out.replace(P, 3, ", 7");
  return Out;
}

/// A realistic G=8 group for one prompt: the reference rewrite, a verbatim
/// copy, renaming duplicates, a byte-identical repeat, a corrupted
/// candidate, and a truncated (unparseable) one.
std::vector<std::string> makeGroup(const Sample &S) {
  std::vector<std::string> G;
  G.push_back(S.RefText);
  G.push_back(S.SrcText); // copy-of-input candidate
  G.push_back(renamed(S.RefText));
  G.push_back(corrupted(S.RefText));
  G.push_back(S.RefText); // byte-identical repeat
  G.push_back(S.SrcText.substr(0, S.SrcText.size() / 2)); // truncated
  G.push_back(renamed(S.SrcText));
  G.push_back(corrupted(S.SrcText));
  return G;
}

struct VerdictKey {
  VerifyStatus Status;
  DiagKind Kind;
  uint64_t Conflicts;
  uint64_t Fuel;
  unsigned Tier;
  bool operator==(const VerdictKey &O) const {
    return Status == O.Status && Kind == O.Kind && Conflicts == O.Conflicts &&
           Fuel == O.Fuel && Tier == O.Tier;
  }
};

VerdictKey keyOf(const VerifyResult &R) {
  return {R.Status, R.Kind, R.SolverConflicts, R.FuelSpent, R.RetryTier};
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Tiny = Argc > 1 && std::strcmp(Argv[1], "--tiny") == 0;

  header("Batched group verification vs the sequential oracle",
         "the incremental-SAT tentpole; not a paper figure");

  DatasetOptions DO;
  DO.TrainCount = Tiny ? 6 : 24 * scale();
  DO.ValidCount = 0;
  DO.Seed = 2026;
  Dataset DS = buildDataset(DO);

  RobustVerifyOptions RVO;
  RVO.Base = PipelineOptions::trainVerifyDefaults();
  RVO.MaxTiers = 3;
  RVO.BudgetGrowth = 4;

  std::vector<std::vector<std::string>> Groups;
  for (const Sample &S : DS.Train)
    Groups.push_back(makeGroup(S));
  std::printf("%zu prompts x %u candidates, training verification budget, "
              "%u-tier ladder\n\n",
              DS.Train.size(), 8u, RVO.MaxTiers);

  // Sequential oracle: the plain ladder, a cold fresh verification per
  // candidate.
  std::vector<std::vector<VerdictKey>> SeqVerdicts(Groups.size());
  double SeqMs = wallMs([&] {
    for (size_t I = 0; I < Groups.size(); ++I) {
      const Sample &S = DS.Train[I];
      for (const std::string &T : Groups[I])
        SeqVerdicts[I].push_back(
            keyOf(oracle::verifyLadder(S.SrcText, *S.source(), T, RVO)));
    }
  });

  MetricsRegistry &M = MetricsRegistry::global();
  Counter &Retained = M.counter("smt.clauses_retained");
  Counter &AssumpSolves = M.counter("smt.assumption_solves");
  Counter &CseHits = M.counter("encode.cse_hits");
  uint64_t Retained0 = Retained.value();
  uint64_t Assump0 = AssumpSolves.value();
  uint64_t Cse0 = CseHits.value();

  // Batched: the single-threaded speedup is pure reuse (shared source half
  // + canonical dedupe), no parallelism. Groups are independent, so with
  // more than one thread they fan out over the pool, a group per task, the
  // way evaluation shards call verifyGroup concurrently.
  auto runBatched = [&](unsigned Threads,
                        std::vector<std::vector<VerdictKey>> &Out) {
    Out.assign(Groups.size(), {});
    ThreadPool Pool(Threads);
    BatchVerifier::Options BO;
    BO.Robust = RVO;
    auto VerifyOne = [&](size_t I) {
      const Sample &S = DS.Train[I];
      VerifyCache Cache(1024); // cold per group, like the oracle
      BatchVerifier BV(BO, &Cache);
      for (const VerifyResult &R :
           BV.verifyGroup(S.SrcText, *S.source(), Groups[I]))
        Out[I].push_back(keyOf(R));
    };
    return wallMs([&] { Pool.parallelFor(Groups.size(), VerifyOne); });
  };

  std::vector<std::vector<VerdictKey>> Batch1, Batch4;
  double Batch1Ms = runBatched(1, Batch1);
  uint64_t RetainedDelta = Retained.value() - Retained0;
  uint64_t AssumpDelta = AssumpSolves.value() - Assump0;
  uint64_t CseDelta = CseHits.value() - Cse0;
  double Batch4Ms = runBatched(4, Batch4);

  // The differential gate: any verdict-stream divergence is a correctness
  // bug, not a performance regression.
  unsigned Divergent = 0;
  for (size_t I = 0; I < Groups.size(); ++I)
    for (size_t J = 0; J < Groups[I].size(); ++J) {
      if (!(Batch1[I][J] == SeqVerdicts[I][J]))
        ++Divergent;
      if (!(Batch4[I][J] == SeqVerdicts[I][J]))
        ++Divergent;
    }

  double Speedup1 = Batch1Ms > 0 ? SeqMs / Batch1Ms : 0;
  double Speedup4 = Batch4Ms > 0 ? SeqMs / Batch4Ms : 0;
  size_t NQueries = Groups.size() * 8;
  std::printf("sequential oracle        %8.1f ms  (%zu verifications)\n",
              SeqMs, NQueries);
  std::printf("batched, 1 thread        %8.1f ms  (%.2fx)\n", Batch1Ms,
              Speedup1);
  std::printf("batched, 4 threads       %8.1f ms  (%.2fx)\n", Batch4Ms,
              Speedup4);
  std::printf("\nreuse: %llu clauses inherited, %llu assumption solves, "
              "%llu CSE hits (batched single-thread pass)\n",
              static_cast<unsigned long long>(RetainedDelta),
              static_cast<unsigned long long>(AssumpDelta),
              static_cast<unsigned long long>(CseDelta));
  std::printf("verdict streams: %s\n",
              Divergent ? "DIVERGED (correctness bug)" : "bit-identical");

  M.gauge("bench.seq_ms").set(SeqMs);
  M.gauge("bench.batch1_ms").set(Batch1Ms);
  M.gauge("bench.batch4_ms").set(Batch4Ms);
  M.gauge("bench.speedup_1t").set(Speedup1);
  M.gauge("bench.speedup_4t").set(Speedup4);
  M.gauge("bench.clauses_reused").set(static_cast<double>(RetainedDelta));
  M.gauge("bench.assumption_solves").set(static_cast<double>(AssumpDelta));
  M.gauge("bench.clauses_reused_per_solve")
      .set(AssumpDelta ? static_cast<double>(RetainedDelta) /
                             static_cast<double>(AssumpDelta)
                       : 0);
  M.gauge("bench.divergent_verdicts").set(Divergent);
  writeBenchJson("batch_verify");

  if (Divergent)
    return 1;
  // Tiny mode is the CI differential gate only; wall-clock on a loaded CI
  // box is not a meaningful speedup measurement.
  if (!Tiny && Speedup1 < 1.2 && Speedup4 < 1.5) {
    std::printf("SPEEDUP TARGET MISSED\n");
    return 1;
  }
  return 0;
}
