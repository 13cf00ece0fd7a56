//===- BatchVerifier.h - Batched group verification --------------*- C++ -*-=//
//
// The one entry point that turns a candidate into a verdict. Verifies a
// whole GRPO group — G Candidates (Candidate.h) against one source —
// through a single shared solver context. The source function's
// falsification runs and symbolic encoding (SourceEncoding) are built once
// per call, or once per training stage when the caller keeps the half
// across groups (the GRPO trainer does, one per prompt). The source CNF
// (QueryPrefix) is blasted only when a candidate of the group reaches SAT,
// once per group. Each candidate pays only for its own screen, encode, and
// an assumption-guarded SAT activation on a clone of that prefix. A single
// candidate is a group of one (verifyOne).
//
// A group is verified on the calling thread, one unique candidate after
// another. Evaluation shards call verifyGroup concurrently through one
// verifier and one cache, each group on its own source half; the GRPO
// trainer verifies its groups one after another.
//
// Every unique candidate runs an escalating retry ladder: an Inconclusive
// verdict caused by budget exhaustion (SolverTimeout / ResourceExhausted)
// is retried at geometrically larger budget tiers before being accepted as
// terminal. Non-budget Inconclusives (Unsupported, LoopBound) are never
// retried — a bigger budget cannot change them. Each rung is its own
// VerifyCache key (the budget knobs are part of the key), so a later
// identical query replays the same ladder over per-tier cache entries.
//
// Every decision is deterministic: tier budgets derive from the base
// options alone, retries are triggered by verdict kinds (never wall clock),
// and the optional fault sites (OracleBudget, VerdictFlip) are a pure hash
// of (seed, site, canonical tier-0 key), so canonically equal candidates
// get the same injection decision whatever their bytes or group order.
// Verdicts, diagnostics, conflict counts, and fuel spent are bit-identical
// to verifyCandidateText at each rung's tierOptions (see RefinementQuery.h
// for the mechanisms).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_BATCHVERIFIER_H
#define VERIOPT_VERIFY_BATCHVERIFIER_H

#include "support/FaultInjector.h"
#include "verify/AliveLite.h"
#include "verify/Candidate.h"
#include "verify/VerifyCache.h"

#include <memory>
#include <string>
#include <vector>

namespace veriopt {

struct SourceEncoding;

struct RobustVerifyOptions {
  /// Tier-0 verification options; higher tiers scale the budget knobs only.
  VerifyOptions Base;
  /// Number of rungs (1 = no retries).
  unsigned MaxTiers = 3;
  /// Geometric budget growth per tier: tier k runs with
  /// SolverConflictBudget and FuelBudget multiplied by BudgetGrowth^k
  /// (0-valued budgets stay 0 = unlimited; scaling saturates).
  uint64_t BudgetGrowth = 4;
};

/// Options for rung \p Tier of \p O's ladder.
VerifyOptions tierOptions(const RobustVerifyOptions &O, unsigned Tier);

/// A verdict the ladder will retry at a higher budget.
inline bool retryable(const VerifyResult &R) {
  return R.Status == VerifyStatus::Inconclusive &&
         (R.Kind == DiagKind::SolverTimeout ||
          R.Kind == DiagKind::ResourceExhausted);
}

class BatchVerifier {
public:
  struct Options {
    /// The retry ladder every unique candidate runs.
    RobustVerifyOptions Robust;
  };

  /// Group-level reuse accounting, also mirrored into batch.* metrics.
  struct GroupStats {
    unsigned Candidates = 0; ///< texts passed in
    unsigned Unique = 0;     ///< distinct canonical candidates
    unsigned CacheHits = 0;  ///< ladder rungs served by existing entries
    unsigned Computed = 0;   ///< ladder rungs computed by this batch
  };

  /// \p Cache may be null (every rung is computed); \p Faults null disables
  /// the OracleBudget / VerdictFlip sites.
  BatchVerifier(const Options &O, VerifyCache *Cache,
                FaultInjector *Faults = nullptr)
      : Opts(O), Cache(Cache), Faults(Faults) {}

  /// Verify every candidate in \p Cands against \p Src, sharing the source
  /// half across the group. Returns the final ladder result per entry,
  /// aligned with \p Cands: RetryTier is the rung that settled it, and
  /// SolverConflicts / FuelSpent are summed over every rung run. Each
  /// unique candidate emits one verify.tier instant per rung and counts
  /// once in verify.retry.*. The same Candidate may appear more than once
  /// (every entry counts in GroupStats::Candidates). \p SrcText must be the
  /// printed form of \p Src.
  ///
  /// \p Kept, when non-null, keeps the source half across calls: the first
  /// group that needs it builds it into the slot, and every group ends by
  /// rolling it back to its post-build state (endGroup), so the verdicts
  /// are those of a fresh half. A slot belongs to one \p Src and to this
  /// verifier's structural options (MaxPaths, the unroll and step bounds,
  /// StrictLoops, FalsifyTrials), which every rung of the ladder shares,
  /// and serves one group at a time. Null builds a half for this call
  /// alone.
  std::vector<VerifyResult>
  verifyGroup(const std::string &SrcText, const Function &Src,
              const std::vector<const Candidate *> &Cands,
              GroupStats *Stats = nullptr,
              std::unique_ptr<SourceEncoding> *Kept = nullptr) const;
  /// The same over candidate texts, one Candidate built per distinct text.
  std::vector<VerifyResult> verifyGroup(const std::string &SrcText,
                                        const Function &Src,
                                        const std::vector<std::string> &Texts,
                                        GroupStats *Stats = nullptr) const;

  /// A group of one: evaluation's greedy decoding yields exactly one
  /// candidate per sample.
  VerifyResult verifyOne(const std::string &SrcText, const Function &Src,
                         const Candidate &Tgt) const;
  VerifyResult verifyOne(const std::string &SrcText, const Function &Src,
                         const std::string &Text) const;

  const Options &options() const { return Opts; }

private:
  Options Opts;
  VerifyCache *Cache = nullptr;
  FaultInjector *Faults = nullptr;
};

} // namespace veriopt

#endif // VERIOPT_VERIFY_BATCHVERIFIER_H
