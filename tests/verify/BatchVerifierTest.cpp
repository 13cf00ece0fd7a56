//===- BatchVerifierTest.cpp - Group verification vs the plain ladder -----===//
//
// BatchVerifier is the one path that turns candidate text into a verdict.
// Its contract is bit-identity with the plain ladder (oracle::verifyLadder:
// verifyCandidateText at each rung's tierOptions): for every candidate,
// verdict, diagnostic kind and text, counterexample, summed solver
// conflicts, fuel spent, and retry tier must match — for concurrent groups
// of distinct sources, under fault injection, and with arbitrary cache-hit
// interleavings.
//
// The RobustVerifier suite checks the retry ladder itself on groups of one.
//
//===----------------------------------------------------------------------===//

#include "verify/BatchVerifier.h"

#include "ir/Parser.h"
#include "oracle/Oracle.h"
#include "support/ThreadPool.h"
#include "trace/Metrics.h"
#include "trace/Trace.h"
#include "verify/RefinementQuery.h"

#include <gtest/gtest.h>

namespace veriopt {
namespace {

struct Parsed {
  std::unique_ptr<Module> M;
  const Function *F;
  std::string Text;
  explicit Parsed(const std::string &Src) : Text(Src) {
    auto R = parseModule(Src);
    EXPECT_TRUE(R.hasValue()) << R.error().render();
    M = R.takeValue();
    F = M->getMainFunction();
  }
};

const char *AddSrc = "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                     "  ret i32 %y\n}\n";
const char *WrongAdd = "define i32 @f(i32 %x) {\n  %y = add i32 %x, 2\n"
                       "  ret i32 %y\n}\n";
const char *MulSrc = "define i32 @f(i32 %x, i32 %y) {\n"
                     "  %m = mul i32 %x, %y\n  ret i32 %m\n}\n";
const char *MulTgt = "define i32 @f(i32 %x, i32 %y) {\n"
                     "  %m = mul i32 %y, %x\n  ret i32 %m\n}\n";
const char *PtrSrc = "define i32 @f(ptr %p) {\n  ret i32 0\n}\n";

/// A representative GRPO group: correct rewrites, a renamed duplicate, a
/// wrong candidate, a byte-identical repeat, unparseable text, and a
/// candidate whose verdict needs real SMT search.
std::vector<std::string> addGroup() {
  return {
      // equivalent: x+1 via different instruction name (renaming dup)
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n",
      "define i32 @f(i32 %x) {\n  %z = add i32 %x, 1\n  ret i32 %z\n}\n",
      // equivalent: 1+x (commuted, needs the solver or falsification)
      "define i32 @f(i32 %x) {\n  %y = add i32 1, %x\n  ret i32 %y\n}\n",
      // wrong: x+2, counterexample expected
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 2\n  ret i32 %y\n}\n",
      // byte-identical repeat of the first candidate
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n",
      // unparseable
      "define i32 @f(i32 %x) {\n  %y = frobnicate i32 %x\n  ret i32 %y\n}\n",
      // sub of negative constant (equivalent, different opcode)
      "define i32 @f(i32 %x) {\n  %y = sub i32 %x, -1\n  ret i32 %y\n}\n",
      // wrong: returns the input
      "define i32 @f(i32 %x) {\n  ret i32 %x\n}\n",
  };
}

std::vector<std::string> mulGroup() {
  return {
      "define i32 @f(i32 %x, i32 %y) {\n  %m = mul i32 %x, %y\n"
      "  ret i32 %m\n}\n",
      // commuted: UNSAT proof needs real conflicts under a small budget
      "define i32 @f(i32 %x, i32 %y) {\n  %m = mul i32 %y, %x\n"
      "  ret i32 %m\n}\n",
      // wrong: add instead of mul
      "define i32 @f(i32 %x, i32 %y) {\n  %m = add i32 %x, %y\n"
      "  ret i32 %m\n}\n",
  };
}

/// The oracle: the plain ladder, one candidate at a time.
std::vector<VerifyResult> sequentialOracle(const Parsed &Src,
                                           const std::vector<std::string> &Ts,
                                           const RobustVerifyOptions &O,
                                           FaultInjector *FI = nullptr) {
  std::vector<VerifyResult> Out;
  for (const std::string &T : Ts)
    Out.push_back(oracle::verifyLadder(Src.Text, *Src.F, T, O, FI));
  return Out;
}

void expectSame(const VerifyResult &Got, const VerifyResult &Want,
                size_t I = 0) {
  EXPECT_EQ(Got.Status, Want.Status) << "candidate " << I;
  EXPECT_EQ(Got.Kind, Want.Kind) << "candidate " << I;
  EXPECT_EQ(Got.Diagnostic, Want.Diagnostic) << "candidate " << I;
  EXPECT_EQ(Got.BoundedOnly, Want.BoundedOnly) << "candidate " << I;
  EXPECT_EQ(Got.FoundByFalsification, Want.FoundByFalsification)
      << "candidate " << I;
  EXPECT_EQ(Got.SolverConflicts, Want.SolverConflicts) << "candidate " << I;
  EXPECT_EQ(Got.FuelSpent, Want.FuelSpent) << "candidate " << I;
  EXPECT_EQ(Got.RetryTier, Want.RetryTier) << "candidate " << I;
  ASSERT_EQ(Got.Counterexample.size(), Want.Counterexample.size())
      << "candidate " << I;
  for (size_t J = 0; J < Got.Counterexample.size(); ++J) {
    EXPECT_EQ(Got.Counterexample[J].Name, Want.Counterexample[J].Name);
    EXPECT_EQ(Got.Counterexample[J].Value, Want.Counterexample[J].Value);
  }
}

void expectIdentical(const std::vector<VerifyResult> &Got,
                     const std::vector<VerifyResult> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    expectSame(Got[I], Want[I], I);
}

RobustVerifyOptions defaultLadder() {
  RobustVerifyOptions O;
  O.MaxTiers = 3;
  O.BudgetGrowth = 4;
  return O;
}

BatchVerifier makeVerifier(const RobustVerifyOptions &O,
                           VerifyCache *Cache = nullptr,
                           FaultInjector *FI = nullptr) {
  BatchVerifier::Options BO;
  BO.Robust = O;
  return BatchVerifier(BO, Cache, FI);
}

TEST(BatchVerifier, MatchesSequentialOracleBitForBit) {
  Parsed Src(AddSrc);
  RobustVerifyOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, addGroup(), O);

  VerifyCache Cache(256);
  BatchVerifier BV = makeVerifier(O, &Cache);
  BatchVerifier::GroupStats GS;
  auto Got = BV.verifyGroup(Src.Text, *Src.F, addGroup(), &GS);

  expectIdentical(Got, Want);
  EXPECT_EQ(GS.Candidates, 8u);
  // The byte-identical repeat and the renamed duplicate both collapse.
  EXPECT_EQ(GS.Unique, 6u);
  EXPECT_EQ(GS.CacheHits, 0u); // cold cache
  EXPECT_GT(GS.Computed, 0u);
}

TEST(BatchVerifier, EscalatingLadderMatchesSequential) {
  // Starved tier 0 forces escalations; RetryTier and the summed conflict /
  // fuel accounting must match the plain ladder exactly.
  Parsed Src(MulSrc);
  RobustVerifyOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 60;
  O.MaxTiers = 3;
  O.BudgetGrowth = 16;
  auto Want = sequentialOracle(Src, mulGroup(), O);
  bool SawEscalation = false;
  for (const auto &R : Want)
    SawEscalation |= (R.RetryTier > 0);
  EXPECT_TRUE(SawEscalation) << "corpus no longer exercises the ladder";

  VerifyCache Cache(256);
  auto Got = makeVerifier(O, &Cache).verifyGroup(Src.Text, *Src.F, mulGroup());
  expectIdentical(Got, Want);
}

/// Commuted adds at i8: none folds to the source's term, so each one runs
/// the solver (cheaply, at this width).
const char *Add8Src = "define i8 @f(i8 %x, i8 %y) {\n"
                      "  %m = add i8 %x, %y\n  ret i8 %m\n}\n";
std::vector<std::string> add8Group() {
  return {
      "define i8 @f(i8 %x, i8 %y) {\n  %m = add i8 %y, %x\n  ret i8 %m\n}\n",
      "define i8 @f(i8 %x, i8 %y) {\n  %t = add i8 %y, %x\n"
      "  %m = xor i8 %t, 0\n  ret i8 %m\n}\n",
      "define i8 @f(i8 %x, i8 %y) {\n  %t = add i8 %y, %x\n"
      "  %m = or i8 %t, 0\n  ret i8 %m\n}\n",
      "define i8 @f(i8 %x, i8 %y) {\n  %t = add i8 %y, %x\n"
      "  %m = add i8 %t, 0\n  ret i8 %m\n}\n"};
}

TEST(BatchVerifier, ThreadCountInvariance) {
  // Evaluation shards call verifyGroup concurrently, one task per source,
  // through one verifier and one cache. Each task here verifies its group
  // twice (the second pass replays the cache). From a 4-thread pool, every
  // verdict and every group's stats equal serial calls'.
  RobustVerifyOptions O = defaultLadder();
  std::vector<Parsed> Srcs;
  for (const char *Text : {AddSrc, WrongAdd, Add8Src, PtrSrc})
    Srcs.emplace_back(Text);
  const std::vector<std::vector<std::string>> Groups = {
      addGroup(), addGroup(), add8Group(), {PtrSrc, PtrSrc}};

  struct TaskOut {
    std::vector<VerifyResult> First, Again;
    BatchVerifier::GroupStats FirstStats, AgainStats;
  };
  auto run = [&](const BatchVerifier &BV, size_t I, TaskOut &Out) {
    const Parsed &Src = Srcs[I];
    Out.First = BV.verifyGroup(Src.Text, *Src.F, Groups[I], &Out.FirstStats);
    Out.Again = BV.verifyGroup(Src.Text, *Src.F, Groups[I], &Out.AgainStats);
  };

  VerifyCache C1(256);
  BatchVerifier Serial = makeVerifier(O, &C1);
  std::vector<TaskOut> Want(Srcs.size());
  for (size_t I = 0; I < Srcs.size(); ++I)
    run(Serial, I, Want[I]);

  ThreadPool Pool(4);
  VerifyCache C4(256);
  BatchVerifier Shared = makeVerifier(O, &C4);
  std::vector<TaskOut> Got(Srcs.size());
  Pool.parallelFor(Srcs.size(), [&](size_t I) { run(Shared, I, Got[I]); });

  auto expectSameStats = [](const BatchVerifier::GroupStats &G,
                            const BatchVerifier::GroupStats &W) {
    EXPECT_EQ(G.Candidates, W.Candidates);
    EXPECT_EQ(G.Unique, W.Unique);
    EXPECT_EQ(G.CacheHits, W.CacheHits);
    EXPECT_EQ(G.Computed, W.Computed);
  };
  for (size_t I = 0; I < Srcs.size(); ++I) {
    SCOPED_TRACE("source " + std::to_string(I));
    expectIdentical(Got[I].First, Want[I].First);
    expectIdentical(Got[I].Again, Want[I].Again);
    expectSameStats(Got[I].FirstStats, Want[I].FirstStats);
    expectSameStats(Got[I].AgainStats, Want[I].AgainStats);
    EXPECT_EQ(Got[I].AgainStats.Computed, 0u);
  }
  EXPECT_EQ(C4.counters().Hits, C1.counters().Hits);
  EXPECT_EQ(C4.counters().Misses, C1.counters().Misses);
}

TEST(BatchVerifier, SeedsCacheSoScoringReplaysWithoutComputing) {
  // Every rung a group computes is seeded into the cache, so asking for any
  // member again — here one at a time — replays the ladder from the cache:
  // every rung hits, nothing is computed, and the outcome is unchanged.
  Parsed Src(AddSrc);
  RobustVerifyOptions O = defaultLadder();
  VerifyCache Cache(256);
  BatchVerifier BV = makeVerifier(O, &Cache);
  auto Batch = BV.verifyGroup(Src.Text, *Src.F, addGroup());

  uint64_t MissesBefore = Cache.counters().Misses;
  std::vector<std::string> Group = addGroup();
  for (size_t I = 0; I < Group.size(); ++I) {
    BatchVerifier::GroupStats GS;
    auto Again = BV.verifyGroup(Src.Text, *Src.F, {Group[I]}, &GS);
    expectSame(Again[0], Batch[I], I);
    EXPECT_EQ(GS.Computed, 0u) << "candidate " << I;
    EXPECT_GT(GS.CacheHits, 0u) << "candidate " << I;
  }
  EXPECT_EQ(Cache.counters().Misses, MissesBefore)
      << "a replay recomputed a rung the group should have seeded";
}

TEST(BatchVerifier, CacheHitInterleavingsStayIdentical) {
  // Pre-warm the cache with a *subset* of the group, then verify the full
  // group: served-from-cache and computed members must both match the
  // oracle.
  Parsed Src(AddSrc);
  RobustVerifyOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, addGroup(), O);

  VerifyCache Cache(256);
  BatchVerifier BV = makeVerifier(O, &Cache);
  std::vector<std::string> Group = addGroup();
  BV.verifyOne(Src.Text, *Src.F, Group[2]);
  BV.verifyOne(Src.Text, *Src.F, Group[3]);

  BatchVerifier::GroupStats GS;
  auto Got = BV.verifyGroup(Src.Text, *Src.F, Group, &GS);
  expectIdentical(Got, Want);
  EXPECT_GT(GS.CacheHits, 0u);

  // A second pass over the same group is served entirely from the cache.
  BatchVerifier::GroupStats GS2;
  auto Again = BV.verifyGroup(Src.Text, *Src.F, Group, &GS2);
  expectIdentical(Again, Want);
  EXPECT_EQ(GS2.Computed, 0u);
}

TEST(BatchVerifier, OracleBudgetFaultMirrorsSequential) {
  Parsed Src(AddSrc);
  RobustVerifyOptions O = defaultLadder();
  FaultInjector FIa(5), FIb(5);
  FIa.enable(FaultSite::OracleBudget, 0.5);
  FIb.enable(FaultSite::OracleBudget, 0.5);
  auto Want = sequentialOracle(Src, addGroup(), O, &FIa);

  VerifyCache Cache(256);
  auto Got =
      makeVerifier(O, &Cache, &FIb).verifyGroup(Src.Text, *Src.F, addGroup());
  expectIdentical(Got, Want);
  // At 50% some queries must actually have been injected (seed-dependent
  // but deterministic; guards against the fault site silently not firing).
  EXPECT_GT(FIb.counters().injected(FaultSite::OracleBudget), 0u);
}

TEST(BatchVerifier, VerdictFlipFaultMirrorsSequential) {
  Parsed Src(AddSrc);
  RobustVerifyOptions O = defaultLadder();
  FaultInjector FIa(7), FIb(7);
  FIa.enable(FaultSite::VerdictFlip, 1.0);
  FIb.enable(FaultSite::VerdictFlip, 1.0);
  auto Want = sequentialOracle(Src, addGroup(), O, &FIa);

  VerifyCache Cache(256);
  auto Got =
      makeVerifier(O, &Cache, &FIb).verifyGroup(Src.Text, *Src.F, addGroup());
  expectIdentical(Got, Want);
  EXPECT_GT(FIb.counters().injected(FaultSite::VerdictFlip), 0u);
}

TEST(BatchVerifier, FaultDecisionsIgnoreMemberOrder) {
  // Two renamings of one candidate are one query: whichever comes first in
  // the group, the fault sites must decide for both the same way.
  Parsed Src(AddSrc);
  const std::string Y =
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n  ret i32 %y\n}\n";
  const std::string Z =
      "define i32 @f(i32 %x) {\n  %z = add i32 %x, 1\n  ret i32 %z\n}\n";
  RobustVerifyOptions O = defaultLadder();
  for (FaultSite Site : {FaultSite::OracleBudget, FaultSite::VerdictFlip}) {
    for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
      FaultInjector FI(Seed);
      FI.enable(Site, 0.5);
      BatchVerifier BV = makeVerifier(O, nullptr, &FI);
      auto YZ = BV.verifyGroup(Src.Text, *Src.F, {Y, Z});
      auto ZY = BV.verifyGroup(Src.Text, *Src.F, {Z, Y});
      SCOPED_TRACE(std::string(faultSiteName(Site)) + " seed " +
                   std::to_string(Seed));
      expectSame(YZ[0], ZY[1]);
      expectSame(YZ[1], ZY[0]);
    }
  }
}

TEST(BatchVerifier, InjectedCacheMissesDoNotChangeVerdicts) {
  Parsed Src(AddSrc);
  RobustVerifyOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, addGroup(), O);

  FaultInjector FI(11);
  FI.enable(FaultSite::CacheMiss, 0.5);
  VerifyCache Cache(256);
  Cache.setFaultInjector(&FI);
  BatchVerifier BV = makeVerifier(O, &Cache, &FI);
  auto Got = BV.verifyGroup(Src.Text, *Src.F, addGroup());
  expectIdentical(Got, Want);
  // And the poisoned cache still replays correct verdicts one by one.
  std::vector<std::string> Group = addGroup();
  for (size_t I = 0; I < Group.size(); ++I)
    expectSame(BV.verifyOne(Src.Text, *Src.F, Group[I]), Want[I], I);
}

TEST(BatchVerifier, PointerSourceStaysInconclusive) {
  // Unsupported sources short-circuit before any encoding is shared; the
  // batch must not crash on a group whose source has no QueryPrefix.
  Parsed Src(PtrSrc);
  RobustVerifyOptions O = defaultLadder();
  auto Want = sequentialOracle(Src, {Src.Text, Src.Text}, O);
  VerifyCache Cache(64);
  auto Got = makeVerifier(O, &Cache).verifyGroup(Src.Text, *Src.F,
                                                 {Src.Text, Src.Text});
  expectIdentical(Got, Want);
  EXPECT_EQ(Got[0].Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Got[0].Kind, DiagKind::Unsupported);
}

TEST(BatchVerifier, FuelStarvedLaddersMatchSequential) {
  // Fuel exhaustion must land on exactly the same charge in the shared
  // encoding's replay as in a fresh sequential run (the fuel-trace
  // mechanism), across tiers that progressively unstarve.
  Parsed Src(AddSrc);
  RobustVerifyOptions O;
  O.Base.FuelBudget = 8; // dies during falsification at tier 0
  O.MaxTiers = 3;
  O.BudgetGrowth = 100000;
  auto Want = sequentialOracle(Src, addGroup(), O);
  VerifyCache Cache(256);
  auto Got = makeVerifier(O, &Cache).verifyGroup(Src.Text, *Src.F, addGroup());
  expectIdentical(Got, Want);
}

//===--- Kept source halves and the on-demand prefix ------------------------===//

/// A source with an external call, and candidates against it. The second
/// candidate adds a call only when x == 0x12345678, which no falsification
/// trial samples, so the solver finds the mismatch — after its encoding
/// created the call-return variable call:get#1 in the kept context.
const char *CallSrc = "declare i32 @get()\n"
                      "define i32 @f(i32 %x) {\n"
                      "  %v = call i32 @get()\n"
                      "  %r = add i32 %v, %x\n"
                      "  ret i32 %r\n}\n";

std::vector<std::vector<std::string>> callGroups() {
  const std::string Renamed = "declare i32 @get()\n"
                              "define i32 @f(i32 %x) {\n"
                              "  %w = call i32 @get()\n"
                              "  %s = add i32 %x, %w\n"
                              "  ret i32 %s\n}\n";
  const std::string ExtraCall = "declare i32 @get()\n"
                                "define i32 @f(i32 %x) {\n"
                                "entry:\n"
                                "  %v = call i32 @get()\n"
                                "  %c = icmp eq i32 %x, 305419896\n"
                                "  br i1 %c, label %extra, label %done\n"
                                "extra:\n"
                                "  %u = call i32 @get()\n"
                                "  br label %done\n"
                                "done:\n"
                                "  %r = add i32 %v, %x\n"
                                "  ret i32 %r\n}\n";
  const std::string Wrong = "declare i32 @get()\n"
                            "define i32 @f(i32 %x) {\n"
                            "  %v = call i32 @get()\n"
                            "  %r = sub i32 %v, %x\n"
                            "  ret i32 %r\n}\n";
  const std::string Dropped = "declare i32 @get()\n"
                              "define i32 @f(i32 %x) {\n"
                              "  ret i32 %x\n}\n";
  return {{Renamed, ExtraCall}, {Wrong, Dropped, Renamed}, {ExtraCall}};
}

/// One Candidate per text, for the Candidate overload of verifyGroup.
std::vector<const Candidate *> candidates(CandidateSet &Set,
                                          const std::vector<std::string> &Ts) {
  std::vector<const Candidate *> Out;
  for (const std::string &T : Ts)
    Out.push_back(&Set.get(T));
  return Out;
}

int64_t counterValue(const char *Name) {
  return static_cast<int64_t>(
      MetricsRegistry::global().counter(Name).value());
}

TEST(BatchVerifier, KeptHalfAcrossGroupsMatchesFresh) {
  Parsed Src(CallSrc);
  RobustVerifyOptions O = defaultLadder();
  BatchVerifier BV = makeVerifier(O); // no cache: every group computes
  std::unique_ptr<SourceEncoding> Kept;
  int64_t Builds = 0; // the oracle builds fresh halves; count ours only
  bool SawSolverCallMismatch = false;
  for (const std::vector<std::string> &Group : callGroups()) {
    CandidateSet Set;
    const int64_t Builds0 = counterValue("verify.source_builds");
    auto Got = BV.verifyGroup(Src.Text, *Src.F, candidates(Set, Group),
                              nullptr, &Kept);
    Builds += counterValue("verify.source_builds") - Builds0;
    expectIdentical(Got, sequentialOracle(Src, Group, O));
    for (const VerifyResult &R : Got)
      SawSolverCallMismatch |= R.Kind == DiagKind::CallMismatch &&
                               !R.FoundByFalsification;
    // The group left the kept half exactly as its build did.
    ASSERT_NE(Kept, nullptr);
    EXPECT_EQ(Kept->Ctx.mark(), Kept->Built);
    EXPECT_EQ(Kept->Prefix, nullptr);
  }
  EXPECT_TRUE(SawSolverCallMismatch)
      << "no candidate reached the solver with an extra call";
  EXPECT_EQ(Builds, 1);

  // A pointer-parameter source has no usable encoding; a kept half of it
  // stays Inconclusive on every group.
  Parsed Ptr(PtrSrc);
  std::unique_ptr<SourceEncoding> KeptPtr;
  for (int Round = 0; Round < 2; ++Round) {
    const Candidate Copy(Ptr.Text);
    auto Got = BV.verifyGroup(Ptr.Text, *Ptr.F, {&Copy}, nullptr, &KeptPtr);
    expectIdentical(Got, sequentialOracle(Ptr, {Ptr.Text}, O));
    EXPECT_EQ(Got[0].Status, VerifyStatus::Inconclusive);
    EXPECT_EQ(Got[0].Kind, DiagKind::Unsupported);
  }
}

TEST(BatchVerifier, PrefixBlastedOnlyWhenSatRuns) {
  RobustVerifyOptions O = defaultLadder();

  // Settled without SAT: copies whose terms fold to the source's (constant
  // false constraint) and wrong rewrites the falsifier refutes.
  Parsed Add(AddSrc);
  const std::vector<std::string> NoSat = {
      AddSrc,
      "define i32 @f(i32 %x) {\n  %z = add i32 1, %x\n  ret i32 %z\n}\n",
      WrongAdd, "define i32 @f(i32 %x) {\n  ret i32 %x\n}\n"};
  auto Want = sequentialOracle(Add, NoSat, O);
  int64_t Prefixes0 = counterValue("smt.prefix_builds");
  int64_t Queries0 = counterValue("smt.queries");
  int64_t Builds0 = counterValue("verify.source_builds");
  auto Got = makeVerifier(O).verifyGroup(Add.Text, *Add.F, NoSat);
  EXPECT_EQ(counterValue("verify.source_builds") - Builds0, 1);
  EXPECT_EQ(counterValue("smt.queries") - Queries0, 0);
  EXPECT_EQ(counterValue("smt.prefix_builds") - Prefixes0, 0);
  expectIdentical(Got, Want);

  // Several members reach SAT: one prefix for the group.
  Parsed Add8(Add8Src);
  const std::vector<std::string> Sat = add8Group();
  Want = sequentialOracle(Add8, Sat, O);
  Prefixes0 = counterValue("smt.prefix_builds");
  Queries0 = counterValue("smt.queries");
  Got = makeVerifier(O).verifyGroup(Add8.Text, *Add8.F, Sat);
  EXPECT_GE(counterValue("smt.queries") - Queries0, 4);
  EXPECT_EQ(counterValue("smt.prefix_builds") - Prefixes0, 1);
  expectIdentical(Got, Want);
}

//===--- The retry ladder, on groups of one ---------------------------------===//

/// verify.retry.* counter deltas over one call.
struct RetryDelta {
  uint64_t Queries = 0, Escalations = 0, Rescued = 0, Terminal = 0;
};

template <typename Fn> RetryDelta retryDelta(Fn &&F) {
  MetricsRegistry &Reg = MetricsRegistry::global();
  Counter &Q = Reg.counter("verify.retry.queries");
  Counter &E = Reg.counter("verify.retry.escalations");
  Counter &R = Reg.counter("verify.retry.rescued");
  Counter &T = Reg.counter("verify.retry.terminal_inconclusive");
  RetryDelta Before{Q.value(), E.value(), R.value(), T.value()};
  F();
  return {Q.value() - Before.Queries, E.value() - Before.Escalations,
          R.value() - Before.Rescued, T.value() - Before.Terminal};
}

/// The verify.tier instants (one per rung run) recorded during \p F.
template <typename Fn> std::vector<TraceEvent> tierEvents(Fn &&F) {
  TraceRecorder &Rec = TraceRecorder::instance();
  Rec.clear();
  Rec.enable();
  F();
  Rec.disable();
  std::vector<TraceEvent> Out;
  for (TraceEvent &E : Rec.snapshot())
    if (E.Name == "verify.tier")
      Out.push_back(std::move(E));
  Rec.clear();
  return Out;
}

int64_t intArg(const TraceEvent &E, const char *Key) {
  for (const TraceArg &A : E.Args)
    if (A.Key == Key)
      return A.I;
  ADD_FAILURE() << "verify.tier without '" << Key << "'";
  return -1;
}

bool injectedArg(const TraceEvent &E) {
  for (const TraceArg &A : E.Args)
    if (A.Key == "injected")
      return A.I != 0;
  ADD_FAILURE() << "verify.tier without 'injected'";
  return false;
}

TEST(RobustVerifier, TierOptionsScaleGeometrically) {
  RobustVerifyOptions O;
  O.Base.SolverConflictBudget = 10;
  O.Base.FuelBudget = 100;
  O.Base.FalsifyTrials = 7;
  O.BudgetGrowth = 4;
  O.MaxTiers = 3;
  EXPECT_EQ(tierOptions(O, 0).SolverConflictBudget, 10u);
  EXPECT_EQ(tierOptions(O, 1).SolverConflictBudget, 40u);
  EXPECT_EQ(tierOptions(O, 2).SolverConflictBudget, 160u);
  EXPECT_EQ(tierOptions(O, 0).FuelBudget, 100u);
  EXPECT_EQ(tierOptions(O, 2).FuelBudget, 1600u);
  // Only the budget knobs scale; semantics knobs stay fixed.
  EXPECT_EQ(tierOptions(O, 2).FalsifyTrials, 7u);
  EXPECT_EQ(tierOptions(O, 2).MaxPaths, O.Base.MaxPaths);
}

TEST(RobustVerifier, UnlimitedBudgetsStayUnlimited) {
  RobustVerifyOptions O;
  O.Base.SolverConflictBudget = 0;
  O.Base.FuelBudget = 0;
  O.BudgetGrowth = 16;
  EXPECT_EQ(tierOptions(O, 2).SolverConflictBudget, 0u);
  EXPECT_EQ(tierOptions(O, 2).FuelBudget, 0u);
}

TEST(RobustVerifier, ScalingSaturatesInsteadOfOverflowing) {
  RobustVerifyOptions O;
  O.Base.SolverConflictBudget = UINT64_MAX / 2;
  O.BudgetGrowth = 1000;
  EXPECT_EQ(tierOptions(O, 3).SolverConflictBudget, UINT64_MAX);
}

TEST(RobustVerifier, DefinitiveVerdictNeverEscalates) {
  Parsed Src(AddSrc);
  BatchVerifier BV = makeVerifier(RobustVerifyOptions());

  VerifyResult Eq, Ne;
  std::vector<TraceEvent> Tiers;
  RetryDelta D = retryDelta([&] {
    Tiers = tierEvents([&] {
      Eq = BV.verifyOne(Src.Text, *Src.F, AddSrc);
      Ne = BV.verifyOne(Src.Text, *Src.F, WrongAdd);
    });
  });
  EXPECT_EQ(Eq.Status, VerifyStatus::Equivalent);
  EXPECT_EQ(Eq.RetryTier, 0u);
  EXPECT_EQ(Ne.Status, VerifyStatus::NotEquivalent);
  EXPECT_EQ(Ne.RetryTier, 0u);
  EXPECT_EQ(Tiers.size(), 2u); // one rung each
  EXPECT_EQ(D.Queries, 2u);
  EXPECT_EQ(D.Escalations, 0u);
  EXPECT_EQ(D.Terminal, 0u);
}

TEST(RobustVerifier, NonBudgetInconclusiveNeverRetried) {
  // Unsupported: a bigger budget cannot make pointer params verifiable.
  Parsed Src(PtrSrc);
  RobustVerifyOptions O;
  O.MaxTiers = 3;
  VerifyResult Out;
  RetryDelta D = retryDelta(
      [&] { Out = makeVerifier(O).verifyOne(Src.Text, *Src.F, Src.Text); });
  EXPECT_EQ(Out.Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Out.Kind, DiagKind::Unsupported);
  EXPECT_EQ(Out.RetryTier, 0u);
  EXPECT_EQ(D.Escalations, 0u);
  EXPECT_EQ(D.Terminal, 0u);
}

TEST(RobustVerifier, EscalationRescuesFuelExhaustion) {
  Parsed Src(AddSrc);
  RobustVerifyOptions O;
  O.Base.FuelBudget = 8; // too small even for the falsification pre-pass
  O.BudgetGrowth = 100000;
  O.MaxTiers = 3;
  VerifyResult Out;
  std::vector<TraceEvent> Tiers;
  RetryDelta D = retryDelta([&] {
    Tiers = tierEvents(
        [&] { Out = makeVerifier(O).verifyOne(Src.Text, *Src.F, AddSrc); });
  });
  ASSERT_GE(Tiers.size(), 2u);
  VerifyResult Tier0 = verifyCandidateText(*Src.F, AddSrc, tierOptions(O, 0));
  EXPECT_EQ(Tier0.Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Tier0.Kind, DiagKind::ResourceExhausted);
  EXPECT_EQ(Out.Status, VerifyStatus::Equivalent) << Out.Diagnostic;
  EXPECT_GE(Out.RetryTier, 1u);
  EXPECT_EQ(Tiers.size(), Out.RetryTier + 1);
  EXPECT_EQ(D.Queries, 1u);
  EXPECT_EQ(D.Escalations, 1u);
  EXPECT_EQ(D.Rescued, 1u);
  EXPECT_EQ(D.Terminal, 0u);
}

TEST(RobustVerifier, TerminalInconclusiveWhenTopTierStillTooSmall) {
  Parsed Src(MulSrc);
  RobustVerifyOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 2;
  O.BudgetGrowth = 2; // 2, 4, 8 conflicts: all hopeless for a 32x32 mul
  O.MaxTiers = 3;
  VerifyResult Out;
  std::vector<TraceEvent> Tiers;
  RetryDelta D = retryDelta([&] {
    Tiers = tierEvents(
        [&] { Out = makeVerifier(O).verifyOne(Src.Text, *Src.F, MulTgt); });
  });
  EXPECT_EQ(Out.Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(Out.Kind, DiagKind::SolverTimeout);
  EXPECT_EQ(Out.RetryTier, 2u);
  ASSERT_EQ(Tiers.size(), 3u);

  // Telemetry is summed over every rung actually run.
  int64_t Sum = 0;
  for (const TraceEvent &T : Tiers)
    Sum += intArg(T, "conflicts");
  EXPECT_EQ(Out.SolverConflicts, static_cast<uint64_t>(Sum));

  EXPECT_EQ(D.Escalations, 1u);
  EXPECT_EQ(D.Rescued, 0u);
  EXPECT_EQ(D.Terminal, 1u);
}

TEST(RobustVerifier, SingleTierLadderMatchesPlainVerifier) {
  Parsed Src(MulSrc);
  RobustVerifyOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 5;
  O.MaxTiers = 1;
  VerifyResult Out;
  RetryDelta D = retryDelta(
      [&] { Out = makeVerifier(O).verifyOne(Src.Text, *Src.F, MulTgt); });
  expectSame(Out, verifyCandidateText(*Src.F, MulTgt, O.Base));
  EXPECT_EQ(D.Escalations, 0u);
  EXPECT_EQ(D.Terminal, 1u);
}

TEST(RobustVerifier, CacheHitReplaysIdenticalTelemetry) {
  // A cached replay of the ladder must report the same per-tier outcomes
  // and summed conflicts as the fresh run — each tier is its own cache key,
  // so low-tier Inconclusives never mask high-tier work.
  Parsed Src(AddSrc);
  VerifyCache Cache(64);
  RobustVerifyOptions O;
  O.Base.FuelBudget = 8;
  O.BudgetGrowth = 100000;
  O.MaxTiers = 3;
  BatchVerifier BV = makeVerifier(O, &Cache);

  BatchVerifier::GroupStats FreshGS, ReplayGS;
  VerifyResult Fresh, Replay;
  auto FreshTiers = tierEvents([&] {
    Fresh = BV.verifyGroup(Src.Text, *Src.F, {AddSrc}, &FreshGS)[0];
  });
  auto ReplayTiers = tierEvents([&] {
    Replay = BV.verifyGroup(Src.Text, *Src.F, {AddSrc}, &ReplayGS)[0];
  });
  EXPECT_EQ(ReplayGS.Computed, 0u);
  EXPECT_EQ(ReplayGS.CacheHits, FreshGS.Computed);
  EXPECT_GT(Cache.counters().Hits, 0u);

  ASSERT_EQ(ReplayTiers.size(), FreshTiers.size());
  for (size_t I = 0; I < FreshTiers.size(); ++I)
    EXPECT_EQ(ReplayTiers[I].Args, FreshTiers[I].Args) << "tier " << I;
  expectSame(Replay, Fresh);
}

TEST(RobustVerifier, OracleBudgetFaultForcesEscalationAndRecovers) {
  Parsed Src(AddSrc);
  FaultInjector FI(5);
  FI.enable(FaultSite::OracleBudget, 1.0);
  RobustVerifyOptions O;
  O.MaxTiers = 3;
  VerifyResult Out;
  std::vector<TraceEvent> Tiers;
  RetryDelta D = retryDelta([&] {
    Tiers = tierEvents([&] {
      Out = makeVerifier(O, nullptr, &FI).verifyOne(Src.Text, *Src.F, AddSrc);
    });
  });
  ASSERT_GE(Tiers.size(), 2u);
  EXPECT_TRUE(injectedArg(Tiers[0]));
  EXPECT_EQ(intArg(Tiers[0], "conflicts"), 0);
  EXPECT_FALSE(injectedArg(Tiers[1]));
  EXPECT_EQ(Out.Status, VerifyStatus::Equivalent);
  EXPECT_EQ(Out.RetryTier, 1u);
  EXPECT_EQ(FI.counters().injected(FaultSite::OracleBudget), 1u);
  EXPECT_EQ(D.Rescued, 1u);
}

TEST(RobustVerifier, VerdictFlipFaultFlipsDefinitiveVerdicts) {
  Parsed Src(AddSrc);
  FaultInjector FI(5);
  FI.enable(FaultSite::VerdictFlip, 1.0);
  BatchVerifier BV = makeVerifier(RobustVerifyOptions(), nullptr, &FI);

  VerifyResult Eq = BV.verifyOne(Src.Text, *Src.F, AddSrc);
  EXPECT_EQ(Eq.Status, VerifyStatus::NotEquivalent);
  EXPECT_NE(Eq.Diagnostic.find("injected verdict flip"), std::string::npos);

  VerifyResult Ne = BV.verifyOne(Src.Text, *Src.F, WrongAdd);
  EXPECT_EQ(Ne.Status, VerifyStatus::Equivalent);
  EXPECT_TRUE(Ne.Counterexample.empty());
  EXPECT_EQ(FI.counters().injected(FaultSite::VerdictFlip), 2u);
}

TEST(RobustVerifier, InconclusiveVerdictsAreNeverFlipped) {
  Parsed Src(PtrSrc);
  FaultInjector FI(5);
  FI.enable(FaultSite::VerdictFlip, 1.0);
  VerifyResult Out = makeVerifier(RobustVerifyOptions(), nullptr, &FI)
                         .verifyOne(Src.Text, *Src.F, Src.Text);
  EXPECT_EQ(Out.Status, VerifyStatus::Inconclusive);
  EXPECT_EQ(FI.counters().injected(FaultSite::VerdictFlip), 0u);
}

TEST(RobustVerifier, DeterministicAcrossInstancesAndRepeats) {
  Parsed Src(MulSrc);
  RobustVerifyOptions O;
  O.Base.FalsifyTrials = 0;
  O.Base.SolverConflictBudget = 2;
  O.BudgetGrowth = 2;
  O.MaxTiers = 3;
  BatchVerifier A = makeVerifier(O), B = makeVerifier(O);
  VerifyResult OutA, OutB, OutA2;
  auto TiersA =
      tierEvents([&] { OutA = A.verifyOne(Src.Text, *Src.F, MulTgt); });
  auto TiersB =
      tierEvents([&] { OutB = B.verifyOne(Src.Text, *Src.F, MulTgt); });
  auto TiersA2 =
      tierEvents([&] { OutA2 = A.verifyOne(Src.Text, *Src.F, MulTgt); });
  ASSERT_EQ(TiersA.size(), TiersB.size());
  ASSERT_EQ(TiersA.size(), TiersA2.size());
  for (size_t I = 0; I < TiersA.size(); ++I) {
    EXPECT_EQ(TiersA[I].Args, TiersB[I].Args);
    EXPECT_EQ(TiersA[I].Args, TiersA2[I].Args);
  }
  expectSame(OutA, OutB);
  expectSame(OutA, OutA2);
}

} // namespace
} // namespace veriopt
