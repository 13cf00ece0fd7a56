//===- FaultInjectorTest.cpp - Deterministic fault injection ------------------//

#include "support/FaultInjector.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <vector>

using namespace veriopt;

TEST(FaultInjector, DisabledByDefault) {
  FaultInjector FI(42);
  for (unsigned S = 0; S < static_cast<unsigned>(FaultSite::NumSites); ++S)
    for (uint64_t K = 0; K < 100; ++K)
      EXPECT_FALSE(FI.shouldInject(static_cast<FaultSite>(S), K));
  EXPECT_EQ(FI.counters().totalInjected(), 0u);
}

TEST(FaultInjector, RateOneAlwaysFires) {
  FaultInjector FI(42);
  FI.enable(FaultSite::OracleBudget, 1.0);
  for (uint64_t K = 0; K < 100; ++K)
    EXPECT_TRUE(FI.shouldInject(FaultSite::OracleBudget, K));
  EXPECT_EQ(FI.counters().injected(FaultSite::OracleBudget), 100u);
  EXPECT_EQ(FI.counters().checked(FaultSite::OracleBudget), 100u);
}

TEST(FaultInjector, DecisionIsPureFunctionOfSeedSiteKey) {
  FaultInjector A(7), B(7);
  A.enable(FaultSite::VerdictFlip, 0.3);
  B.enable(FaultSite::VerdictFlip, 0.3);
  for (uint64_t K = 0; K < 1000; ++K)
    EXPECT_EQ(A.shouldInject(FaultSite::VerdictFlip, K),
              B.shouldInject(FaultSite::VerdictFlip, K));
  // Re-asking the same key gives the same answer (no counter dependence).
  for (uint64_t K = 0; K < 50; ++K) {
    bool First = A.shouldInject(FaultSite::VerdictFlip, K);
    EXPECT_EQ(First, A.shouldInject(FaultSite::VerdictFlip, K));
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultInjector A(1), B(2);
  A.enable(FaultSite::CacheMiss, 0.5);
  B.enable(FaultSite::CacheMiss, 0.5);
  unsigned Diffs = 0;
  for (uint64_t K = 0; K < 1000; ++K)
    Diffs += A.shouldInject(FaultSite::CacheMiss, K) !=
             B.shouldInject(FaultSite::CacheMiss, K);
  EXPECT_GT(Diffs, 100u);
}

TEST(FaultInjector, SitesAreIndependent) {
  FaultInjector FI(9);
  FI.enable(FaultSite::OracleBudget, 1.0);
  // Other sites stay silent.
  EXPECT_TRUE(FI.shouldInject(FaultSite::OracleBudget, 5));
  EXPECT_FALSE(FI.shouldInject(FaultSite::VerdictFlip, 5));
  EXPECT_FALSE(FI.shouldInject(FaultSite::IoRename, 5));
}

TEST(FaultInjector, RateControlsFrequencyRoughly) {
  FaultInjector FI(1234);
  FI.enable(FaultSite::CacheMiss, 0.25);
  unsigned Fired = 0;
  const unsigned N = 4000;
  for (uint64_t K = 0; K < N; ++K)
    Fired += FI.shouldInject(FaultSite::CacheMiss, K);
  double Rate = static_cast<double>(Fired) / N;
  EXPECT_NEAR(Rate, 0.25, 0.05);
}

TEST(FaultInjector, StringKeysHashStably) {
  FaultInjector FI(3);
  FI.enable(FaultSite::IoRename, 0.5);
  bool A = FI.shouldInject(FaultSite::IoRename, std::string("alpha"));
  EXPECT_EQ(A, FI.shouldInject(FaultSite::IoRename,
                               FaultInjector::hashKey("alpha")));
}

TEST(FaultInjector, ThreadSafeAndScheduleIndependent) {
  FaultInjector FI(77);
  FI.enable(FaultSite::CacheMiss, 0.5);

  // Reference decisions, computed serially.
  std::vector<char> Expected(2000);
  {
    FaultInjector Ref(77);
    Ref.enable(FaultSite::CacheMiss, 0.5);
    for (uint64_t K = 0; K < Expected.size(); ++K)
      Expected[K] = Ref.shouldInject(FaultSite::CacheMiss, K);
  }

  std::vector<char> Got(Expected.size());
  ThreadPool Pool(4);
  Pool.parallelFor(Got.size(), [&](size_t K) {
    Got[K] = FI.shouldInject(FaultSite::CacheMiss, K);
  });
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(FI.counters().checked(FaultSite::CacheMiss), Expected.size());
}

TEST(FaultInjector, SiteNamesAreDistinct) {
  EXPECT_STRNE(faultSiteName(FaultSite::OracleBudget),
               faultSiteName(FaultSite::VerdictFlip));
  EXPECT_STRNE(faultSiteName(FaultSite::CacheMiss),
               faultSiteName(FaultSite::IoRename));
}
