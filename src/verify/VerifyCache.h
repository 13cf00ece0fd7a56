//===- VerifyCache.h - Memoized candidate verification -----------*- C++ -*-=//
//
// A thread-safe LRU memo of verdicts for BatchVerifier, the one path that
// turns candidate text into a verdict. GRPO's small action space makes many
// rollouts byte-identical across steps (and the Copy action exactly
// reproduces the prompt), so the same (source, candidate) pair is verified
// over and over; one symbolic-encode + CDCL call can stand in for all of
// them.
//
// Keys are the source text plus the candidate's canonical text (its parse
// printed with every value and block numbered, Candidate.h), so whitespace
// or value-numbering variants of the same IR share an entry; unparseable
// candidates key on their raw text. The full VerifyOptions budget is part
// of the key: results under different budgets are never conflated, and a
// cached result is bit-identical to what a fresh verifyCandidateText call
// would return (verification is deterministic).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_VERIFY_VERIFYCACHE_H
#define VERIOPT_VERIFY_VERIFYCACHE_H

#include "support/FaultInjector.h"
#include "verify/AliveLite.h"
#include "verify/Candidate.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace veriopt {

/// A durable tier under the in-memory memo (the persistent VerdictStore in
/// src/store/ is the one implementation). The cache consults it on a memo
/// miss (read-through) and reports freshly computed verdicts back to it
/// (write-behind). Implementations must be thread-safe; they are never
/// called while the cache's own mutex would create a lock cycle (the tier
/// must not call back into the cache).
class VerdictBackingTier {
public:
  virtual ~VerdictBackingTier() = default;
  /// Fetch the persisted verdict for \p Key. Returns false when absent.
  virtual bool lookup(const std::string &Key, VerifyResult &Out) = 0;
  /// Persist \p R for \p Key (the tier applies its own eligibility rules).
  virtual void put(const std::string &Key, const VerifyResult &R) = 0;
};

class VerifyCache {
public:
  /// \p Capacity entries before LRU eviction. 0 means "unbounded".
  explicit VerifyCache(size_t Capacity = 4096) : Capacity(Capacity) {}

  /// The cache key for a query: every budget knob, the source text, and the
  /// candidate's canonical text. Public so the batch verifier can
  /// pre-compute group keys (and dedupe canonical-equal candidates).
  static std::string makeKey(const std::string &SrcText, const Candidate &Tgt,
                             const VerifyOptions &Opts);
  /// The same key for candidate text, parsed afresh.
  static std::string makeKey(const std::string &SrcText,
                             const std::string &TgtText,
                             const VerifyOptions &Opts);

  /// Look \p Key up. A memo hit counts a hit and makes the entry most
  /// recently used; anything else counts a miss. On a memo miss the backing
  /// store is consulted, and a store hit is memoized (and returned). Honors
  /// the CacheMiss fault site: an injected key misses as if evicted.
  bool peek(const std::string &Key, VerifyResult &Out);

  /// Insert the computed result \p R for \p Key and report it to the
  /// backing store. No-op when the key is resident or its CacheMiss fault
  /// fires; evictions count normally.
  void seed(const std::string &Key, const VerifyResult &R);

  struct Counters {
    uint64_t Hits = 0;      ///< peeks served from the memo
    uint64_t Misses = 0;    ///< peeks the memo could not serve
    uint64_t Evictions = 0; ///< LRU entries dropped at capacity
    uint64_t lookups() const { return Hits + Misses; }
    double hitRate() const {
      return lookups() ? static_cast<double>(Hits) / lookups() : 0.0;
    }
  };
  Counters counters() const;

  size_t size() const;
  void clear();

  /// Optional deterministic fault injection: when set and the CacheMiss site
  /// fires for a key, both the lookup and the store are skipped — the entry
  /// behaves as if evicted. Used by the fault-tolerance tests to prove the
  /// trainer's results do not depend on cache residency.
  ///
  /// Trust-model consequence (docs/PERSISTENCE.md): while an injector is
  /// attached, the backing store is bypassed entirely — no probes, no
  /// write-behind — so chaos runs neither warm the durable store nor read
  /// warmth the injected-miss scenario is supposed to deny.
  void setFaultInjector(FaultInjector *FI) {
    std::lock_guard<std::mutex> L(M);
    Faults = FI;
  }

  /// Attach a durable tier under the memo (null detaches). Read-through on
  /// memo misses, write-behind on seeded verdicts. The tier must outlive
  /// the cache or be detached first.
  void setBackingStore(VerdictBackingTier *S) {
    std::lock_guard<std::mutex> L(M);
    Store = S;
  }

private:
  using LRUList = std::list<std::pair<std::string, VerifyResult>>;

  size_t Capacity;
  mutable std::mutex M;
  LRUList LRU; ///< front = most recently used
  /// Keys view the key strings of LRU's nodes, so each key is stored once;
  /// an entry is erased before its node.
  std::unordered_map<std::string_view, LRUList::iterator> Index;
  Counters Stats;
  FaultInjector *Faults = nullptr;
  VerdictBackingTier *Store = nullptr;
};

} // namespace veriopt

#endif // VERIOPT_VERIFY_VERIFYCACHE_H
