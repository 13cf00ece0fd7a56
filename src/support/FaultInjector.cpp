//===- FaultInjector.cpp - Deterministic fault injection ----------------------//

#include "support/FaultInjector.h"

#include <cstring>

namespace veriopt {

const char *faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::OracleBudget:
    return "oracle-budget";
  case FaultSite::VerdictFlip:
    return "verdict-flip";
  case FaultSite::CacheMiss:
    return "cache-miss";
  case FaultSite::WorkerCrash:
    return "worker-crash";
  case FaultSite::WorkerHang:
    return "worker-hang";
  case FaultSite::WorkerCorrupt:
    return "worker-corrupt-result";
  case FaultSite::IoOpen:
    return "io-open";
  case FaultSite::IoWrite:
    return "io-write";
  case FaultSite::IoShortWrite:
    return "io-short-write";
  case FaultSite::IoFsync:
    return "io-fsync";
  case FaultSite::IoRename:
    return "io-rename";
  case FaultSite::IoFlock:
    return "io-flock";
  case FaultSite::NumSites:
    break;
  }
  return "unknown";
}

static uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

static double doubleOf(uint64_t B) {
  double D;
  std::memcpy(&D, &B, sizeof(D));
  return D;
}

void FaultInjector::enable(FaultSite S, double Rate) {
  if (Rate < 0)
    Rate = 0;
  if (Rate > 1)
    Rate = 1;
  RateBits[static_cast<size_t>(S)].store(bitsOf(Rate),
                                         std::memory_order_relaxed);
}

double FaultInjector::rate(FaultSite S) const {
  return doubleOf(RateBits[static_cast<size_t>(S)].load(
      std::memory_order_relaxed));
}

uint64_t FaultInjector::hashKey(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  return H;
}

/// SplitMix64 finalizer over (seed, site, key): a full-avalanche mix so
/// nearby keys decide independently.
static uint64_t mix(uint64_t Seed, unsigned Site, uint64_t Key) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Site + 1) + Key;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

bool FaultInjector::shouldInject(FaultSite S, uint64_t Key) {
  size_t I = static_cast<size_t>(S);
  Checked[I].fetch_add(1, std::memory_order_relaxed);
  double R = rate(S);
  if (R <= 0)
    return false;
  double U = static_cast<double>(mix(Seed, static_cast<unsigned>(S), Key) >>
                                 11) *
             (1.0 / 9007199254740992.0);
  bool Inject = U < R;
  if (Inject)
    Injected[I].fetch_add(1, std::memory_order_relaxed);
  return Inject;
}

FaultInjector::Counters FaultInjector::counters() const {
  Counters C;
  for (size_t I = 0; I < NumSites; ++I) {
    C.Checked[I] = Checked[I].load(std::memory_order_relaxed);
    C.Injected[I] = Injected[I].load(std::memory_order_relaxed);
  }
  return C;
}

} // namespace veriopt
