//===- BatchVerifier.cpp - Batched group verification -------------------------//

#include "verify/BatchVerifier.h"

#include "trace/Metrics.h"
#include "trace/Trace.h"
#include "verify/RefinementQuery.h"

#include <mutex>
#include <string_view>
#include <unordered_map>

namespace veriopt {

namespace {

/// Scale a budget by Growth^Tier, saturating instead of overflowing.
/// 0 means "unlimited" and stays 0.
uint64_t scaleBudget(uint64_t Budget, uint64_t Growth, unsigned Tier) {
  if (Budget == 0 || Growth <= 1)
    return Budget;
  for (unsigned I = 0; I < Tier; ++I) {
    if (Budget > UINT64_MAX / Growth)
      return UINT64_MAX;
    Budget *= Growth;
  }
  return Budget;
}

} // namespace

VerifyOptions tierOptions(const RobustVerifyOptions &O, unsigned Tier) {
  VerifyOptions T = O.Base;
  T.SolverConflictBudget =
      scaleBudget(T.SolverConflictBudget, O.BudgetGrowth, Tier);
  T.FuelBudget = scaleBudget(T.FuelBudget, O.BudgetGrowth, Tier);
  return T;
}

std::vector<VerifyResult>
BatchVerifier::verifyGroup(const std::string &SrcText, const Function &Src,
                           const std::vector<std::string> &Texts,
                           GroupStats *Stats) const {
  TraceSpan Span("batch.verify");
  const VerifyOptions Tier0 = tierOptions(Opts.Robust, 0);

  // Canonical dedupe: GRPO's small action space makes byte- or
  // renaming-identical candidates common within a group; they share every
  // per-tier cache key, so one ladder serves all of them. The tier-0 key
  // also keys the fault sites and the tier-0 cache entry. Byte-identical
  // texts are canonically equal, so a repeat takes its first occurrence's
  // slot without paying makeKey's parse and canonical print.
  std::vector<size_t> UniqueOf(Texts.size());
  std::vector<size_t> UniqueIdx;     // positions of first occurrences
  std::vector<std::string> Tier0Key; // per unique candidate
  {
    std::unordered_map<std::string_view, size_t> ByText; // views of Texts
    std::unordered_map<std::string, size_t> Seen;
    for (size_t I = 0; I < Texts.size(); ++I) {
      auto [TextIt, NewText] = ByText.emplace(Texts[I], 0);
      if (!NewText) {
        UniqueOf[I] = TextIt->second;
        continue;
      }
      std::string Key = VerifyCache::makeKey(SrcText, Texts[I], Tier0);
      auto [It, Inserted] = Seen.emplace(Key, UniqueIdx.size());
      if (Inserted) {
        UniqueIdx.push_back(I);
        Tier0Key.push_back(std::move(Key));
      }
      UniqueOf[I] = TextIt->second = It->second;
    }
  }

  // The shared source half is built on first need: a group whose every
  // rung is already cached never pays for it.
  std::unique_ptr<SourceEncoding> SC;
  std::once_flag SCOnce;
  auto sharedEncoding = [&]() -> SourceEncoding * {
    std::call_once(SCOnce, [&] { SC = buildSourceEncoding(Src, Tier0); });
    return SC.get();
  };

  MetricsRegistry &Reg = MetricsRegistry::global();
  static Counter &MQueries = Reg.counter("verify.retry.queries");
  static Counter &MEscalations = Reg.counter("verify.retry.escalations");
  static Counter &MRescued = Reg.counter("verify.retry.rescued");
  static Counter &MTerminal =
      Reg.counter("verify.retry.terminal_inconclusive");

  const unsigned MaxTiers = Opts.Robust.MaxTiers ? Opts.Robust.MaxTiers : 1;
  std::vector<VerifyResult> Finals(UniqueIdx.size());
  std::vector<unsigned> Hits(UniqueIdx.size(), 0), Comps(UniqueIdx.size(), 0);

  // One task per unique candidate: its full ladder runs on one thread, so
  // per-candidate trace spans stay contiguous.
  auto RunOne = [&](size_t U) {
    const std::string &TgtText = Texts[UniqueIdx[U]];
    const std::string &FaultKey = Tier0Key[U];

    uint64_t TotalConflicts = 0, TotalFuel = 0;
    VerifyResult Final;
    unsigned Rungs = 0;
    for (unsigned Tier = 0; Tier < MaxTiers; ++Tier) {
      VerifyResult R;
      bool Injected = false;
      if (Tier == 0 && Faults &&
          Faults->shouldInject(FaultSite::OracleBudget, FaultKey)) {
        // Simulated oracle budget exhaustion: the first attempt reports
        // ResourceExhausted without running (and is never cached), and the
        // ladder must recover by escalating exactly as it would for a
        // genuinely hard candidate.
        R.Status = VerifyStatus::Inconclusive;
        R.Kind = DiagKind::ResourceExhausted;
        R.Diagnostic = "Inconclusive: injected oracle budget exhaustion\n";
        Injected = true;
      } else {
        const VerifyOptions TierOpts = tierOptions(Opts.Robust, Tier);
        std::string Key;
        bool Served = false;
        if (Cache) {
          Key = Tier == 0 ? FaultKey
                          : VerifyCache::makeKey(SrcText, TgtText, TierOpts);
          Served = Cache->peek(Key, R);
        }
        if (Served) {
          ++Hits[U];
        } else {
          // Pass the provider, not the encoding: a candidate the guard
          // chain rejects (parse/size/structure) must not trigger the
          // shared source build.
          R = verifyCandidateTextOn(sharedEncoding, Src, TgtText, TierOpts);
          ++Comps[U];
          if (Cache)
            Cache->seed(Key, R);
        }
      }

      TraceRecorder::instance().instant(
          "verify.tier",
          {TraceArg::ofInt("tier", Tier),
           TraceArg::ofStr("status", verifyStatusName(R.Status)),
           TraceArg::ofStr("diag", diagKindName(R.Kind)),
           TraceArg::ofInt("conflicts",
                           static_cast<int64_t>(R.SolverConflicts)),
           TraceArg::ofInt("fuel", static_cast<int64_t>(R.FuelSpent)),
           TraceArg::ofBool("injected", Injected)});
      ++Rungs;
      TotalConflicts += R.SolverConflicts;
      TotalFuel += R.FuelSpent;
      Final = std::move(R);
      Final.RetryTier = Tier;
      if (!retryable(Final))
        break;
    }

    MQueries.inc();
    if (Rungs > 1)
      MEscalations.inc();
    if (retryable(Final))
      MTerminal.inc();
    else if (Rungs > 1)
      MRescued.inc();

    // Simulated oracle bug: flip a definitive verdict (after the ladder,
    // outside the cache). The trainer must tolerate occasional wrong
    // rewards with bounded impact (GRPO's group baseline absorbs them).
    if ((Final.Status == VerifyStatus::Equivalent ||
         Final.Status == VerifyStatus::NotEquivalent) &&
        Faults && Faults->shouldInject(FaultSite::VerdictFlip, FaultKey)) {
      if (Final.Status == VerifyStatus::Equivalent) {
        Final.Status = VerifyStatus::NotEquivalent;
        Final.Kind = DiagKind::ValueMismatch;
      } else {
        Final.Status = VerifyStatus::Equivalent;
        Final.Kind = DiagKind::None;
        Final.Counterexample.clear();
      }
      Final.Diagnostic += "(injected verdict flip)\n";
    }

    Final.SolverConflicts = TotalConflicts;
    Final.FuelSpent = TotalFuel;
    Finals[U] = std::move(Final);
  };

  if (Opts.Pool && Opts.Pool->numThreads() > 1)
    Opts.Pool->parallelFor(UniqueIdx.size(), RunOne);
  else
    for (size_t U = 0; U < UniqueIdx.size(); ++U)
      RunOne(U);

  GroupStats GS;
  GS.Candidates = static_cast<unsigned>(Texts.size());
  GS.Unique = static_cast<unsigned>(UniqueIdx.size());
  for (size_t U = 0; U < UniqueIdx.size(); ++U) {
    GS.CacheHits += Hits[U];
    GS.Computed += Comps[U];
  }
  if (Stats)
    *Stats = GS;

  static Counter &Groups = Reg.counter("batch.groups");
  static Counter &Cands = Reg.counter("batch.candidates");
  static Counter &Uniq = Reg.counter("batch.unique");
  static Counter &CacheHits = Reg.counter("batch.cache_hits");
  static Counter &Computed = Reg.counter("batch.computed");
  Groups.inc();
  Cands.inc(GS.Candidates);
  Uniq.inc(GS.Unique);
  CacheHits.inc(GS.CacheHits);
  Computed.inc(GS.Computed);

  if (Span.active()) {
    Span.arg(TraceArg::ofInt("candidates", GS.Candidates));
    Span.arg(TraceArg::ofInt("unique", GS.Unique));
    Span.arg(TraceArg::ofInt("cached", GS.CacheHits));
    Span.arg(TraceArg::ofInt("computed", GS.Computed));
  }

  std::vector<VerifyResult> Out(Texts.size());
  for (size_t I = 0; I < Texts.size(); ++I)
    Out[I] = Finals[UniqueOf[I]];
  return Out;
}

VerifyResult BatchVerifier::verifyOne(const std::string &SrcText,
                                      const Function &Src,
                                      const std::string &Text) const {
  return verifyGroup(SrcText, Src, {Text}).front();
}

} // namespace veriopt
