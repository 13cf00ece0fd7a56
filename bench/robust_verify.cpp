//===- robust_verify.cpp - Escalating retry ladder on hard candidates ------===//
//
// Measures the fault-tolerant-runtime tentpole: on a crafted set of
// solver-hard and fuel-hungry candidates, an escalating budget ladder
// (tier-k budget = base * growth^k) turns terminal Inconclusives into
// definitive verdicts, at a bounded extra cost — cheap queries still pay
// only the tier-0 budget. Compares a single-tier verifier against 2- and
// 3-tier ladders under identical base budgets. Reported in EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "verify/BatchVerifier.h"

#include "ir/Parser.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace veriopt;
using namespace veriopt::bench;

namespace {

struct HardCase {
  const char *Name;
  std::string Src, Tgt;
};

std::string mulByThree(const char *Ty) {
  std::string T(Ty);
  return "define " + T + " @f(" + T + " %x) {\n  %m = mul " + T +
         " %x, 3\n  ret " + T + " %m\n}\n";
}

std::string addChainTimesThree(const char *Ty) {
  std::string T(Ty);
  return "define " + T + " @f(" + T + " %x) {\n  %a = add " + T +
         " %x, %x\n  %b = add " + T + " %a, %x\n  ret " + T + " %b\n}\n";
}

std::string mulCommut(const char *Ty, bool Swap) {
  std::string T(Ty);
  return "define " + T + " @f(" + T + " %x, " + T + " %y) {\n  %m = mul " +
         T + (Swap ? " %y, %x" : " %x, %y") + "\n  ret " + T + " %m\n}\n";
}

std::string longIdentity(unsigned N) {
  std::string S = "define i32 @f(i32 %x) {\n  %v0 = add i32 %x, 1\n";
  for (unsigned I = 1; I < N; ++I)
    S += "  %v" + std::to_string(I) + " = add i32 %v" + std::to_string(I - 1) +
         ", 1\n";
  S += "  ret i32 %v" + std::to_string(N - 1) + "\n}\n";
  return S;
}

std::vector<HardCase> hardSet() {
  std::vector<HardCase> Set;
  for (const char *Ty : {"i8", "i16", "i32"}) {
    Set.push_back({"mul3-vs-adds", mulByThree(Ty), addChainTimesThree(Ty)});
    Set.push_back({"mul-commut", mulCommut(Ty, false), mulCommut(Ty, true)});
  }
  // sdiv-by-2 vs ashr-by-1: NotEquivalent, but the counterexample (an odd
  // negative) takes real CDCL search to find with falsification disabled.
  for (const char *Ty : {"i8", "i32"}) {
    std::string T(Ty);
    Set.push_back({"sdiv-vs-ashr",
                   "define " + T + " @f(" + T + " %x) {\n  %y = sdiv " + T +
                       " %x, 2\n  ret " + T + " %y\n}\n",
                   "define " + T + " @f(" + T + " %x) {\n  %y = ashr " + T +
                       " %x, 1\n  ret " + T + " %y\n}\n"});
  }
  // Fuel pressure rather than conflict pressure: a long straight-line
  // function whose falsification + encoding alone outruns a small tank.
  Set.push_back({"long-identity", longIdentity(120), longIdentity(120)});
  // Control: trivial identity must stay a tier-0 verdict in every config.
  Set.push_back({"easy-identity", mulByThree("i32"), mulByThree("i32")});
  return Set;
}

struct LadderStats {
  unsigned Definitive = 0;
  unsigned TerminalInconclusive = 0;
  unsigned Escalated = 0;
  unsigned Rescued = 0;
  uint64_t Conflicts = 0;
  uint64_t Fuel = 0;
};

LadderStats runLadder(const std::vector<HardCase> &Set, unsigned MaxTiers,
                      uint64_t Growth) {
  BatchVerifier::Options BO;
  BO.Robust.Base.FalsifyTrials = 0;        // force the SMT path
  BO.Robust.Base.SolverConflictBudget = 60; // deliberately starved tier 0
  BO.Robust.Base.FuelBudget = 3000;
  BO.Robust.MaxTiers = MaxTiers;
  BO.Robust.BudgetGrowth = Growth;
  BatchVerifier BV(BO, nullptr);

  MetricsRegistry &Reg = MetricsRegistry::global();
  Counter &Terminal = Reg.counter("verify.retry.terminal_inconclusive");
  Counter &Escalated = Reg.counter("verify.retry.escalations");
  Counter &Rescued = Reg.counter("verify.retry.rescued");
  const uint64_t T0 = Terminal.value(), E0 = Escalated.value(),
                 R0 = Rescued.value();

  LadderStats S;
  for (const HardCase &C : Set) {
    auto M = parseModule(C.Src);
    VerifyResult Out =
        BV.verifyOne(C.Src, *M.value()->getMainFunction(), C.Tgt);
    if (Out.Status == VerifyStatus::Equivalent ||
        Out.Status == VerifyStatus::NotEquivalent)
      ++S.Definitive;
    S.Conflicts += Out.SolverConflicts;
    S.Fuel += Out.FuelSpent;
  }
  S.TerminalInconclusive = static_cast<unsigned>(Terminal.value() - T0);
  S.Escalated = static_cast<unsigned>(Escalated.value() - E0);
  S.Rescued = static_cast<unsigned>(Rescued.value() - R0);
  return S;
}

void row(const char *Name, const LadderStats &S, size_t N) {
  std::printf("%-24s definitive %2u/%zu   terminal-inconclusive %2u   "
              "escalated %2u   rescued %2u   conflicts %7llu   fuel %9llu\n",
              Name, S.Definitive, N, S.TerminalInconclusive, S.Escalated,
              S.Rescued, static_cast<unsigned long long>(S.Conflicts),
              static_cast<unsigned long long>(S.Fuel));
}

} // namespace

int main() {
  header("Escalating verification retry ladder on a hard-candidate set",
         "the fault-tolerant-runtime tentpole; not a paper figure");

  std::vector<HardCase> Set = hardSet();
  std::printf("%zu crafted candidates; base budgets: 60 conflicts, 3000 fuel,"
              " growth 16x per tier\n\n",
              Set.size());

  LadderStats T1 = runLadder(Set, /*MaxTiers=*/1, /*Growth=*/16);
  LadderStats T2 = runLadder(Set, /*MaxTiers=*/2, /*Growth=*/16);
  LadderStats T3 = runLadder(Set, /*MaxTiers=*/3, /*Growth=*/16);

  row("1 tier (no retries)", T1, Set.size());
  row("2 tiers", T2, Set.size());
  row("3 tiers", T3, Set.size());

  bool Improved = T3.TerminalInconclusive < T1.TerminalInconclusive &&
                  T3.Definitive > T1.Definitive;
  std::printf("\nladder reduces terminal Inconclusive (%u -> %u) and lifts "
              "definitive verdicts (%u -> %u): %s\n",
              T1.TerminalInconclusive, T3.TerminalInconclusive, T1.Definitive,
              T3.Definitive, Improved ? "OK" : "VIOLATED");

  // Headline numbers, published into the shared BENCH_*.json schema.
  MetricsRegistry &M = MetricsRegistry::global();
  auto publish = [&](const char *Key, const LadderStats &S) {
    M.gauge(std::string("bench.definitive.") + Key).set(S.Definitive);
    M.gauge(std::string("bench.terminal_inconclusive.") + Key)
        .set(S.TerminalInconclusive);
    M.gauge(std::string("bench.rescued.") + Key).set(S.Rescued);
    M.gauge(std::string("bench.conflicts.") + Key)
        .set(static_cast<double>(S.Conflicts));
    M.gauge(std::string("bench.fuel.") + Key).set(static_cast<double>(S.Fuel));
  };
  publish("tiers1", T1);
  publish("tiers2", T2);
  publish("tiers3", T3);
  M.gauge("bench.ladder_improved").set(Improved ? 1 : 0);
  writeBenchJson("robust_verify");
  return Improved ? 0 : 1;
}
