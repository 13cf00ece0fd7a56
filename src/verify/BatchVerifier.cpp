//===- BatchVerifier.cpp - Batched group verification -------------------------//

#include "verify/BatchVerifier.h"

#include "trace/Metrics.h"
#include "trace/Trace.h"
#include "verify/RefinementQuery.h"

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
                           const std::vector<const Candidate *> &Cands,
                           GroupStats *Stats,
                           std::unique_ptr<SourceEncoding> *Kept) const {
  TraceSpan Span("batch.verify");
  const VerifyOptions Tier0 = tierOptions(Opts.Robust, 0);

  // Canonical dedupe: GRPO's small action space makes byte- or
  // renaming-identical candidates common within a group; they share every
  // per-tier cache key, so one ladder serves all of them. The tier-0 key
  // also keys the fault sites and the tier-0 cache entry. A Candidate
  // passed again (a byte-identical answer) takes its first occurrence's
  // slot without building its key again.
  std::vector<size_t> UniqueOf(Cands.size());
  std::vector<const Candidate *> Unique; // first occurrences
  std::vector<std::string> Tier0Key;     // per unique candidate
  {
    std::unordered_map<const Candidate *, size_t> ByCand;
    std::unordered_map<std::string, size_t> Seen;
    for (size_t I = 0; I < Cands.size(); ++I) {
      auto [CandIt, NewCand] = ByCand.emplace(Cands[I], 0);
      if (!NewCand) {
        UniqueOf[I] = CandIt->second;
        continue;
      }
      std::string Key = VerifyCache::makeKey(SrcText, *Cands[I], Tier0);
      auto [It, Inserted] = Seen.emplace(Key, Unique.size());
      if (Inserted) {
        Unique.push_back(Cands[I]);
        Tier0Key.push_back(std::move(Key));
      }
      UniqueOf[I] = CandIt->second = It->second;
    }
  }

  // The shared source half is built on first need: a group whose every
  // rung is already cached never pays for it. A kept half is built by the
  // first group against its source that needs it and reused after that.
  std::unique_ptr<SourceEncoding> Local;
  std::unique_ptr<SourceEncoding> &SC = Kept ? *Kept : Local;

  MetricsRegistry &Reg = MetricsRegistry::global();
  static Counter &MQueries = Reg.counter("verify.retry.queries");
  static Counter &MEscalations = Reg.counter("verify.retry.escalations");
  static Counter &MRescued = Reg.counter("verify.retry.rescued");
  static Counter &MTerminal =
      Reg.counter("verify.retry.terminal_inconclusive");

  const unsigned MaxTiers = Opts.Robust.MaxTiers ? Opts.Robust.MaxTiers : 1;
  std::vector<VerifyResult> Finals(Unique.size());
  GroupStats GS;
  GS.Candidates = static_cast<unsigned>(Cands.size());
  GS.Unique = static_cast<unsigned>(Unique.size());

  // Each unique candidate runs its full ladder before the next starts.
  for (size_t U = 0; U < Unique.size(); ++U) {
    const Candidate &Tgt = *Unique[U];
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
                          : VerifyCache::makeKey(SrcText, Tgt, TierOpts);
          Served = Cache->peek(Key, R);
        }
        if (Served) {
          ++GS.CacheHits;
        } else {
          // Pass the slot, not the encoding: a candidate the guard chain
          // rejects (parse/size/structure) must not trigger the shared
          // source build.
          R = verifyCandidateOn(SC, Src, Tgt, TierOpts);
          ++GS.Computed;
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
  }
  if (Kept && SC)
    endGroup(*SC);

  if (Stats)
    *Stats = GS;

  static Counter &Groups = Reg.counter("batch.groups");
  static Counter &Candidates = Reg.counter("batch.candidates");
  static Counter &Uniq = Reg.counter("batch.unique");
  static Counter &CacheHits = Reg.counter("batch.cache_hits");
  static Counter &Computed = Reg.counter("batch.computed");
  Groups.inc();
  Candidates.inc(GS.Candidates);
  Uniq.inc(GS.Unique);
  CacheHits.inc(GS.CacheHits);
  Computed.inc(GS.Computed);

  if (Span.active()) {
    Span.arg(TraceArg::ofInt("candidates", GS.Candidates));
    Span.arg(TraceArg::ofInt("unique", GS.Unique));
    Span.arg(TraceArg::ofInt("cached", GS.CacheHits));
    Span.arg(TraceArg::ofInt("computed", GS.Computed));
  }

  std::vector<VerifyResult> Out(Cands.size());
  for (size_t I = 0; I < Cands.size(); ++I)
    Out[I] = Finals[UniqueOf[I]];
  return Out;
}

std::vector<VerifyResult>
BatchVerifier::verifyGroup(const std::string &SrcText, const Function &Src,
                           const std::vector<std::string> &Texts,
                           GroupStats *Stats) const {
  CandidateSet Set;
  std::vector<const Candidate *> Cands;
  for (const std::string &Text : Texts)
    Cands.push_back(&Set.get(Text));
  return verifyGroup(SrcText, Src, Cands, Stats);
}

VerifyResult BatchVerifier::verifyOne(const std::string &SrcText,
                                      const Function &Src,
                                      const Candidate &Tgt) const {
  return verifyGroup(SrcText, Src, std::vector<const Candidate *>{&Tgt})
      .front();
}

VerifyResult BatchVerifier::verifyOne(const std::string &SrcText,
                                      const Function &Src,
                                      const std::string &Text) const {
  return verifyOne(SrcText, Src, Candidate(Text));
}

} // namespace veriopt
