//===- VerifyCacheTest.cpp - Verification memo unit tests ------------------===//

#include "verify/VerifyCache.h"

#include "ir/Parser.h"
#include "oracle/Pins.h"
#include "support/ThreadPool.h"
#include "verify/BatchVerifier.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

const char *SrcIR = "define i32 @f(i32 %x) {\n  %y = mul i32 %x, 2\n"
                    "  ret i32 %y\n}\n";
const char *GoodTgt = "define i32 @f(i32 %x) {\n  %y = shl i32 %x, 1\n"
                      "  ret i32 %y\n}\n";
const char *BadTgt = "define i32 @f(i32 %x) {\n  %y = mul i32 %x, 3\n"
                     "  ret i32 %y\n}\n";

struct Fixture {
  std::unique_ptr<Module> M;
  Function *Src;
  Fixture() {
    auto P = parseModule(SrcIR);
    EXPECT_TRUE(P.hasValue());
    M = P.takeValue();
    Src = M->getMainFunction();
  }
};

/// The cache's one usage pattern (BatchVerifier's per-rung step): peek,
/// and on a miss compute and seed.
VerifyResult lookup(VerifyCache &Cache, const Function &Src,
                    const std::string &Tgt, const VerifyOptions &Opts) {
  std::string Key = VerifyCache::makeKey(SrcIR, Tgt, Opts);
  VerifyResult R;
  if (Cache.peek(Key, R))
    return R;
  R = verifyCandidateText(Src, Tgt, Opts);
  Cache.seed(Key, R);
  return R;
}

void expectSameResult(const VerifyResult &A, const VerifyResult &B) {
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Diagnostic, B.Diagnostic);
  EXPECT_EQ(A.BoundedOnly, B.BoundedOnly);
  EXPECT_EQ(A.FoundByFalsification, B.FoundByFalsification);
  EXPECT_EQ(A.SolverConflicts, B.SolverConflicts);
  ASSERT_EQ(A.Counterexample.size(), B.Counterexample.size());
  for (size_t I = 0; I < A.Counterexample.size(); ++I) {
    EXPECT_EQ(A.Counterexample[I].Name, B.Counterexample[I].Name);
    EXPECT_EQ(A.Counterexample[I].Value, B.Counterexample[I].Value);
  }
}

TEST(VerifyCache, HitMissSemantics) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;

  auto R1 = lookup(Cache, *F.Src, GoodTgt, Opts);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Hits, 0u);

  auto R2 = lookup(Cache, *F.Src, GoodTgt, Opts);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Hits, 1u);
  expectSameResult(R1, R2);

  // A different candidate is a fresh miss.
  lookup(Cache, *F.Src, BadTgt, Opts);
  EXPECT_EQ(Cache.counters().Misses, 2u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(VerifyCache, MatchesUncachedResults) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;
  for (const char *Tgt : {GoodTgt, BadTgt, "syntactically broken"}) {
    VerifyResult Plain = verifyCandidateText(*F.Src, Tgt, Opts);
    VerifyResult Miss = lookup(Cache, *F.Src, Tgt, Opts);
    VerifyResult Hit = lookup(Cache, *F.Src, Tgt, Opts);
    expectSameResult(Plain, Miss);
    expectSameResult(Plain, Hit);
  }
}

TEST(VerifyCache, CanonicalKeyCollapsesCosmeticVariants) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;
  lookup(Cache, *F.Src, GoodTgt, Opts);
  // Same IR with different whitespace and value names: one entry.
  std::string Renamed = "define i32 @f(i32 %x)  {\n\n  %zz = shl i32 %x, 1\n"
                        "  ret i32   %zz\n}\n";
  auto R = lookup(Cache, *F.Src, Renamed, Opts);
  EXPECT_EQ(Cache.counters().Hits, 1u);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(R.Status, VerifyStatus::Equivalent);
}

TEST(VerifyCache, OptionsArePartOfTheKey) {
  Fixture F;
  VerifyCache Cache;
  VerifyOptions A, B;
  B.FalsifyTrials = A.FalsifyTrials + 1;
  lookup(Cache, *F.Src, BadTgt, A);
  lookup(Cache, *F.Src, BadTgt, B);
  EXPECT_EQ(Cache.counters().Misses, 2u);
}

/// Bit-identity pin over the cache keys of the pinned decodes (answers and
/// think-attempts, parseable or not) at every rung of the default ladder.
/// The key is also the verdict journal's record key, so these bytes must
/// not move when the key is assembled differently.
TEST(VerifyCache, KeysArePinned) {
  const RobustVerifyOptions Ladder;
  pins::Fnv1a D;
  for (const pins::Decode &X : pins::decodes())
    for (const std::string *Text : {&X.C.AnswerIR, &X.C.ThinkAttemptIR}) {
      if (Text->empty())
        continue;
      for (unsigned Tier = 0; Tier < 3; ++Tier)
        D.addStr(VerifyCache::makeKey(X.S->SrcText, *Text,
                                      tierOptions(Ladder, Tier)));
    }
  EXPECT_EQ(D.H, 0xac9d2c57e5b0bc07ULL);
}

TEST(VerifyCache, EvictsLeastRecentlyUsed) {
  Fixture F;
  VerifyCache Cache(/*Capacity=*/2);
  VerifyOptions Opts;
  const char *Tgt3 = "define i32 @f(i32 %x) {\n  %y = add i32 %x, %x\n"
                     "  ret i32 %y\n}\n";
  lookup(Cache, *F.Src, GoodTgt, Opts); // miss
  lookup(Cache, *F.Src, BadTgt, Opts);  // miss
  lookup(Cache, *F.Src, GoodTgt, Opts); // hit: GoodTgt now MRU
  lookup(Cache, *F.Src, Tgt3, Opts);    // miss: evicts BadTgt
  EXPECT_EQ(Cache.counters().Evictions, 1u);
  EXPECT_EQ(Cache.size(), 2u);
  lookup(Cache, *F.Src, GoodTgt, Opts); // still resident
  EXPECT_EQ(Cache.counters().Hits, 2u);
  lookup(Cache, *F.Src, BadTgt, Opts); // evicted: a miss again
  EXPECT_EQ(Cache.counters().Misses, 4u);
  // The re-inserted key is resident: its index entry views the new node.
  lookup(Cache, *F.Src, BadTgt, Opts);
  EXPECT_EQ(Cache.counters().Hits, 3u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(VerifyCache, ConcurrentLookupsAgree) {
  // Concurrent peek/seed of the same keys: every caller sees the right
  // verdict, every lookup is counted once, and each key is resident once.
  Fixture F;
  VerifyCache Cache;
  VerifyOptions Opts;
  VerifyResult Expected[2] = {verifyCandidateText(*F.Src, GoodTgt, Opts),
                              verifyCandidateText(*F.Src, BadTgt, Opts)};

  constexpr size_t N = 64;
  std::vector<VerifyResult> Results(N);
  ThreadPool Pool(4);
  Pool.parallelFor(N, [&](size_t I) {
    const char *Tgt = (I % 2) ? BadTgt : GoodTgt;
    Results[I] = lookup(Cache, *F.Src, Tgt, Opts);
  });

  for (size_t I = 0; I < N; ++I)
    expectSameResult(Results[I], Expected[I % 2]);
  auto C = Cache.counters();
  EXPECT_EQ(C.lookups(), N);
  EXPECT_GE(C.Misses, 2u);
  EXPECT_DOUBLE_EQ(C.hitRate(), static_cast<double>(C.Hits) / N);
  EXPECT_EQ(Cache.size(), 2u);
}

} // namespace
} // namespace veriopt
