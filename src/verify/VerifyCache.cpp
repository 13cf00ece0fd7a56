//===- VerifyCache.cpp - Memoized candidate verification ----------------------//

#include "verify/VerifyCache.h"

#include "trace/Metrics.h"

namespace veriopt {

namespace {

// Process-wide mirrors of the per-cache Counters, so a run's cache efficacy
// lands in the trace's "metric" lines without plumbing cache pointers around.
Counter &hitCounter() {
  static Counter &C = MetricsRegistry::global().counter("verify.cache.hit");
  return C;
}
Counter &missCounter() {
  static Counter &C = MetricsRegistry::global().counter("verify.cache.miss");
  return C;
}
Counter &evictionCounter() {
  static Counter &C =
      MetricsRegistry::global().counter("verify.cache.eviction");
  return C;
}

} // namespace

std::string VerifyCache::makeKey(const std::string &SrcText,
                                 const std::string &TgtText,
                                 const VerifyOptions &Opts) {
  return makeKey(SrcText, Candidate(TgtText), Opts);
}

std::string VerifyCache::makeKey(const std::string &SrcText,
                                 const Candidate &Tgt,
                                 const VerifyOptions &Opts) {
  // Every budget knob is part of the key: a low-tier Inconclusive must never
  // be served for a higher-tier query (or vice versa) when the retry ladder
  // re-asks the same candidate under a bigger budget.
  const uint64_t Knobs[] = {Opts.MaxPaths,
                            Opts.MaxBlockVisitsPerPath,
                            Opts.MaxStepsPerPath,
                            Opts.SolverConflictBudget,
                            Opts.StrictLoops,
                            Opts.FalsifyTrials,
                            Opts.FuelBudget,
                            Opts.MaxCandidateBytes,
                            Opts.MaxCandidateInsts};
  std::string Key;
  for (uint64_t K : Knobs) {
    if (!Key.empty())
      Key.push_back('|');
    Key += std::to_string(K);
  }
  Key.push_back('\x1f');
  Key += SrcText;
  Key.push_back('\x1f');
  Key += Tgt.canonical();
  return Key;
}

bool VerifyCache::peek(const std::string &Key, VerifyResult &Out) {
  VerdictBackingTier *Tier;
  {
    std::lock_guard<std::mutex> L(M);
    // An injected miss behaves as if the entry were evicted. Deterministic
    // per key, so every thread asking for this key takes the same path.
    bool Injected = Faults && Faults->shouldInject(FaultSite::CacheMiss, Key);
    auto It = Injected ? Index.end() : Index.find(Key);
    if (It != Index.end()) {
      LRU.splice(LRU.begin(), LRU, It->second); // touch
      ++Stats.Hits;
      hitCounter().inc();
      Out = It->second->second;
      return true;
    }
    ++Stats.Misses;
    missCounter().inc();
    if (Faults || !Store)
      return false;
    Tier = Store;
  }
  // Read-through: probe the durable tier outside the cache mutex (the tier
  // does its own locking) and memoize a hit, so repeated peeks of a warm
  // key stop paying the store index lookup. Verification is deterministic
  // and the store only admits deterministic verdicts, so a stored result is
  // bit-identical to recomputing. Skipped entirely under fault injection
  // (trust model: chaos runs neither read nor warm the store).
  if (!Tier->lookup(Key, Out))
    return false;
  seed(Key, Out);
  return true;
}

void VerifyCache::seed(const std::string &Key, const VerifyResult &R) {
  VerdictBackingTier *Tier = nullptr;
  {
    std::lock_guard<std::mutex> L(M);
    if (Faults && Faults->shouldInject(FaultSite::CacheMiss, Key))
      return;
    if (!Faults)
      Tier = Store;
    if (!Index.count(Key)) {
      LRU.emplace_front(Key, R);
      Index.emplace(LRU.front().first, LRU.begin());
      while (Capacity && LRU.size() > Capacity) {
        Index.erase(LRU.back().first);
        LRU.pop_back();
        ++Stats.Evictions;
        evictionCounter().inc();
      }
    }
  }
  // Write-behind: the tier buffers and batches its own journal appends, so
  // this is an in-memory append here. The tier dedupes (a key it already
  // holds is a no-op), so seeding a store-served result does not re-journal
  // it.
  if (Tier)
    Tier->put(Key, R);
}

VerifyCache::Counters VerifyCache::counters() const {
  std::lock_guard<std::mutex> L(M);
  return Stats;
}

size_t VerifyCache::size() const {
  std::lock_guard<std::mutex> L(M);
  return LRU.size();
}

void VerifyCache::clear() {
  std::lock_guard<std::mutex> L(M);
  Index.clear();
  LRU.clear();
  Stats = Counters();
}

} // namespace veriopt
