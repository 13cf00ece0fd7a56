//===- RunDiff.cpp - A/B comparison of two traced runs ------------------------//

#include "report/RunDiff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace veriopt {

namespace {

std::string fmt(const char *F, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), F, V);
  return Buf;
}

/// Signed delta with an explicit '+' so zero deltas read as "+0".
std::string signedInt(int64_t D) {
  return (D >= 0 ? "+" : "") + std::to_string(D);
}

std::string signedF(const char *F, double D) {
  return (D >= 0 ? "+" : "") + fmt(F, D);
}

std::string pad(const std::string &S, size_t W) {
  return S + std::string(S.size() < W ? W - S.size() : 1, ' ');
}

/// Union of the keys of two maps, in key order.
template <typename M> std::vector<typename M::key_type> unionKeys(
    const M &A, const M &B) {
  std::vector<typename M::key_type> Keys;
  for (const auto &[K, _] : A)
    Keys.push_back(K);
  for (const auto &[K, _] : B)
    if (!A.count(K))
      Keys.push_back(K);
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

template <typename M>
uint64_t lookupOr0(const M &Map, const typename M::key_type &K) {
  auto It = Map.find(K);
  return It == Map.end() ? 0 : It->second;
}

/// One "name  A -> B  (delta)" count row with share-shift percentage
/// points when totals are meaningful.
void countShiftRow(std::ostringstream &OS, const std::string &Label,
                   uint64_t CA, uint64_t CB, uint64_t TotalA,
                   uint64_t TotalB) {
  OS << "  " << pad(Label, 36) << CA << " -> " << CB << "  ("
     << signedInt(static_cast<int64_t>(CB) - static_cast<int64_t>(CA));
  if (TotalA && TotalB) {
    double ShareA = 100.0 * static_cast<double>(CA) / static_cast<double>(TotalA);
    double ShareB = 100.0 * static_cast<double>(CB) / static_cast<double>(TotalB);
    OS << ", " << signedF("%.1f", ShareB - ShareA) << " pp";
  }
  OS << ")\n";
}

} // namespace

RunDiff diffRuns(RunSummary A, RunSummary B) {
  RunDiff D;
  D.A = std::move(A);
  D.B = std::move(B);

  for (const std::string &K :
       unionKeys(D.A.DeterministicKeys, D.B.DeterministicKeys)) {
    uint64_t CA = lookupOr0(D.A.DeterministicKeys, K);
    uint64_t CB = lookupOr0(D.B.DeterministicKeys, K);
    if (CA == CB)
      continue;
    D.DeterministicDeltas.push_back({K, CA, CB});
    if (CA > CB)
      D.DeterministicOnlyA += CA - CB;
    else
      D.DeterministicOnlyB += CB - CA;
  }
  return D;
}

std::string renderRunDiff(const RunDiff &D, unsigned TopN) {
  const RunSummary &A = D.A, &B = D.B;
  std::ostringstream OS;

  OS << "================================================================\n"
     << "LLM-VeriOpt run diff (A -> B)\n"
     << "================================================================\n\n";

  OS << "-- events --------------------------------------------------------\n"
     << "A: " << A.Events << " events  (spans " << A.Spans << ", counters "
     << A.Counters << ", instants " << A.Instants << ")\n"
     << "B: " << B.Events << " events  (spans " << B.Spans << ", counters "
     << B.Counters << ", instants " << B.Instants << ")\n\n";

  //--- Deterministic plane --------------------------------------------------
  // Checked first and separately from every timing section below: for two
  // same-seed runs this must be IDENTICAL at any thread count, while the
  // wall-time sections are expected to move.
  OS << "-- deterministic plane (multiset of (name, ph, args)) ------------\n";
  if (D.deterministicPlaneIdentical()) {
    OS << "IDENTICAL: " << A.DeterministicEvents
       << " events match exactly (same-seed contract holds)\n";
  } else {
    OS << "DIVERGED: " << D.DeterministicDeltas.size()
       << " distinct keys differ (surplus A " << D.DeterministicOnlyA
       << ", surplus B " << D.DeterministicOnlyB << ")\n";
    size_t N = std::min<size_t>(TopN, D.DeterministicDeltas.size());
    for (size_t I = 0; I < N; ++I) {
      const RunDiff::KeyDelta &K = D.DeterministicDeltas[I];
      OS << "  x" << K.CountA << " -> x" << K.CountB << "  " << K.Key << "\n";
    }
    if (N < D.DeterministicDeltas.size())
      OS << "  ... " << (D.DeterministicDeltas.size() - N)
         << " more (rerun with --top to widen)\n";
  }
  OS << "\n";

  //--- Reward curves --------------------------------------------------------
  OS << "-- GRPO reward-curve deltas (per stage) --------------------------\n";
  if (A.Stages.empty() && B.Stages.empty())
    OS << "no grpo.step events in either trace\n";
  for (const std::string &Stage : unionKeys(A.Stages, B.Stages)) {
    auto ItA = A.Stages.find(Stage), ItB = B.Stages.find(Stage);
    if (ItA == A.Stages.end() || ItB == B.Stages.end()) {
      OS << Stage << ": only in " << (ItA != A.Stages.end() ? "A" : "B")
         << " (" << (ItA != A.Stages.end() ? ItA : ItB)->second.size()
         << " steps)\n";
      continue;
    }
    const auto &SA = ItA->second, &SB = ItB->second;
    const RunSummary::StepRow &LA = SA.back(), &LB = SB.back();
    OS << Stage << ": steps " << SA.size() << " -> " << SB.size() << "\n";
    OS << "  final mean reward  " << fmt("%.3f", LA.Mean) << " -> "
       << fmt("%.3f", LB.Mean) << "  ("
       << signedF("%.3f", LB.Mean - LA.Mean) << ")\n";
    OS << "  final EMA reward   " << fmt("%.3f", LA.Ema) << " -> "
       << fmt("%.3f", LB.Ema) << "  (" << signedF("%.3f", LB.Ema - LA.Ema)
       << ")\n";
    OS << "  equivalent-rate    " << fmt("%.1f%%", 100 * LA.EqRate) << " -> "
       << fmt("%.1f%%", 100 * LB.EqRate) << "  ("
       << signedF("%.1f", 100 * (LB.EqRate - LA.EqRate)) << " pp)\n";
  }
  OS << "\n";

  //--- Verdict mix ----------------------------------------------------------
  OS << "-- verdict-mix shift (status / DiagKind) -------------------------\n";
  if (A.VerifyQueries == 0 && B.VerifyQueries == 0) {
    OS << "no verify.candidate events in either trace\n";
  } else {
    OS << "queries: " << A.VerifyQueries << " -> " << B.VerifyQueries
       << "  ("
       << signedInt(static_cast<int64_t>(B.VerifyQueries) -
                    static_cast<int64_t>(A.VerifyQueries))
       << ")\n";
    for (const auto &Key : unionKeys(A.Verdicts, B.Verdicts)) {
      std::string Label = Key.first +
                          (Key.second.empty() || Key.second == "none"
                               ? ""
                               : " / " + Key.second);
      countShiftRow(OS, Label, lookupOr0(A.Verdicts, Key),
                    lookupOr0(B.Verdicts, Key), A.VerifyQueries,
                    B.VerifyQueries);
    }
  }
  OS << "\n";

  //--- DiagKind mix ---------------------------------------------------------
  OS << "-- DiagKind shift ------------------------------------------------\n";
  if (A.DiagCounts.empty() && B.DiagCounts.empty()) {
    OS << "no verify.candidate events in either trace\n";
  } else {
    for (const std::string &Diag : unionKeys(A.DiagCounts, B.DiagCounts))
      countShiftRow(OS, Diag, lookupOr0(A.DiagCounts, Diag),
                    lookupOr0(B.DiagCounts, Diag), A.VerifyQueries,
                    B.VerifyQueries);
  }
  OS << "\n";

  //--- Retry ladder ---------------------------------------------------------
  OS << "-- retry-ladder deltas -------------------------------------------\n";
  if (A.TierOutcomes.empty() && B.TierOutcomes.empty()) {
    OS << "no verify.tier events in either trace\n";
  } else {
    for (int64_t Tier : unionKeys(A.TierOutcomes, B.TierOutcomes)) {
      static const std::map<std::string, uint64_t> Empty;
      auto ItA = A.TierOutcomes.find(Tier);
      auto ItB = B.TierOutcomes.find(Tier);
      const auto &TA = ItA == A.TierOutcomes.end() ? Empty : ItA->second;
      const auto &TB = ItB == B.TierOutcomes.end() ? Empty : ItB->second;
      OS << "  tier " << Tier << ":";
      for (const std::string &Status : unionKeys(TA, TB)) {
        uint64_t CA = lookupOr0(TA, Status), CB = lookupOr0(TB, Status);
        OS << "  " << Status << " " << CA << "->" << CB << " ("
           << signedInt(static_cast<int64_t>(CB) - static_cast<int64_t>(CA))
           << ")";
      }
      OS << "\n";
    }
  }
  OS << "\n";

  //--- Cache efficacy -------------------------------------------------------
  OS << "-- verify-cache efficacy deltas ----------------------------------\n";
  {
    auto M = [](const RunSummary &S, const char *K) {
      auto It = S.Metrics.find(K);
      return It == S.Metrics.end() ? 0.0 : It->second;
    };
    double HA = M(A, "verify.cache.hit"), MA = M(A, "verify.cache.miss");
    double HB = M(B, "verify.cache.hit"), MB = M(B, "verify.cache.miss");
    if (HA + MA == 0 && HB + MB == 0) {
      OS << "no cache metrics in either trace\n";
    } else {
      double RateA = HA + MA > 0 ? 100.0 * HA / (HA + MA) : 0;
      double RateB = HB + MB > 0 ? 100.0 * HB / (HB + MB) : 0;
      OS << "  lookups   " << static_cast<uint64_t>(HA + MA) << " -> "
         << static_cast<uint64_t>(HB + MB) << "\n";
      OS << "  hit-rate  " << fmt("%.1f%%", RateA) << " -> "
         << fmt("%.1f%%", RateB) << "  (" << signedF("%.1f", RateB - RateA)
         << " pp)\n";
      OS << "  evictions "
         << static_cast<uint64_t>(M(A, "verify.cache.eviction")) << " -> "
         << static_cast<uint64_t>(M(B, "verify.cache.eviction")) << "\n";
    }
  }
  OS << "\n";

  //--- Per-span wall time ---------------------------------------------------
  // Timings live on the nondeterministic plane: deltas here are expected
  // between runs/machines and are reported as regressions to *investigate*,
  // never as identity violations.
  OS << "-- per-span wall-time deltas (nondeterministic plane) ------------\n";
  {
    struct Row {
      std::string Name;
      uint64_t CountA, CountB;
      double MsA, MsB;
    };
    std::vector<Row> Rows;
    static const RunSummary::SpanAgg Zero;
    for (const std::string &Name : unionKeys(A.SpansByName, B.SpansByName)) {
      auto ItA = A.SpansByName.find(Name);
      auto ItB = B.SpansByName.find(Name);
      const auto &SA = ItA == A.SpansByName.end() ? Zero : ItA->second;
      const auto &SB = ItB == B.SpansByName.end() ? Zero : ItB->second;
      Rows.push_back({Name, SA.Count, SB.Count, SA.TotalMs, SB.TotalMs});
    }
    if (Rows.empty())
      OS << "no spans in either trace\n";
    // Largest absolute regression first; ties break on the (unique) name,
    // so the ordering is a pure function of the two inputs.
    std::sort(Rows.begin(), Rows.end(), [](const Row &X, const Row &Y) {
      double DX = std::fabs(X.MsB - X.MsA), DY = std::fabs(Y.MsB - Y.MsA);
      if (DX != DY)
        return DX > DY;
      return X.Name < Y.Name;
    });
    size_t N = std::min<size_t>(TopN, Rows.size());
    for (size_t I = 0; I < N; ++I) {
      const Row &R = Rows[I];
      OS << "  " << pad(R.Name, 24) << "x" << R.CountA << " -> x" << R.CountB
         << "  " << fmt("%.1f", R.MsA) << " -> " << fmt("%.1f", R.MsB)
         << " ms  (" << signedF("%.1f", R.MsB - R.MsA) << " ms";
      if (R.MsA > 0)
        OS << ", " << fmt("%.2f", R.MsB / R.MsA) << "x";
      OS << ")\n";
    }
    if (N < Rows.size())
      OS << "  ... " << (Rows.size() - N)
         << " more (rerun with --top to widen)\n";
  }

  return OS.str();
}

} // namespace veriopt
