//===- RunSummary.h - One-pass aggregation of a trace ------------*- C++ -*-=//
//
// The aggregate half of the report library: one pass over a validated
// TraceLog buckets everything the renderers need — per-stage reward curves,
// verdict/DiagKind mixes, the retry ladder, per-span wall-time totals,
// metrics, eval/driver rows — plus the canonical *deterministic-plane key
// multiset* that makes two same-seed runs comparable: the multiset of
// (name, ph, args) with args serialized canonically, excluding every
// nondeterministic field (ts_ns/dur_ns/tid/seq/meta; see the plane split in
// docs/OBSERVABILITY.md).
//
// Aggregation is pure and deterministic: two identical logs always produce
// identical summaries, so reports and diffs rendered from them are
// golden-testable.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_REPORT_RUNSUMMARY_H
#define VERIOPT_REPORT_RUNSUMMARY_H

#include "report/TraceData.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace veriopt {

/// Everything the run/diff renderers read, precomputed in one pass.
struct RunSummary {
  //--- event totals ---------------------------------------------------------
  size_t Events = 0, Spans = 0, Counters = 0, Instants = 0;

  /// Per span-name count, summed wall ms and summed self ms
  /// (nondeterministic plane). A span's self time is its duration minus
  /// the durations of its direct children on the same thread.
  struct SpanAgg {
    uint64_t Count = 0;
    double TotalMs = 0;
    double SelfMs = 0;
  };
  std::map<std::string, SpanAgg> SpansByName;

  //--- GRPO reward curves ---------------------------------------------------
  /// Per-stage step rows, sorted by step number (stable on ties).
  struct StepRow {
    double Step = 0, Mean = 0, Ema = 0, EqRate = 0;
  };
  std::map<std::string, std::vector<StepRow>> Stages;

  //--- verification ---------------------------------------------------------
  uint64_t VerifyQueries = 0;
  /// (status, diag) -> count.
  std::map<std::pair<std::string, std::string>, uint64_t> Verdicts;
  /// status -> count and diag -> count, for the diff's mix-shift tables.
  std::map<std::string, uint64_t> StatusCounts, DiagCounts;
  /// verify.candidate rows in file order (render sorts by duration).
  struct CandidateRow {
    double DurMs = 0;
    std::string Status, Diag;
    uint64_t Conflicts = 0, Fuel = 0;
  };
  std::vector<CandidateRow> Candidates;
  /// tier -> status -> count.
  std::map<int64_t, std::map<std::string, uint64_t>> TierOutcomes;

  //--- metrics / rule fires -------------------------------------------------
  std::map<std::string, double> Metrics; ///< appended "metric" lines
  std::map<std::string, uint64_t> RuleFires;

  //--- sharded evaluation ---------------------------------------------------
  struct EvalRunRow {
    uint64_t Shards = 0, Samples = 0, Correct = 0, Inconclusive = 0;
    double DurMs = 0;
  };
  std::vector<EvalRunRow> EvalRuns; ///< file order
  struct EvalShardRow {
    uint64_t Shard = 0, Begin = 0, End = 0, Samples = 0, Correct = 0,
             Inconclusive = 0;
    double DurMs = 0;
  };
  std::vector<EvalShardRow> EvalShards; ///< file order (render sorts)

  //--- multi-process driver -------------------------------------------------
  struct DriverRunRow {
    uint64_t Shards = 0, Spawned = 0, Retried = 0, Salvaged = 0,
             Quarantined = 0;
    double DurMs = 0;
  };
  std::vector<DriverRunRow> DriverRuns; ///< file order
  std::map<std::string, uint64_t> WorkerOutcomes;

  //--- deterministic plane --------------------------------------------------
  /// Canonical (name, ph, args) key -> multiplicity. For a fixed seed this
  /// multiset is identical at any thread count (the plane-split contract),
  /// so two same-seed runs diff to zero here while their timings differ.
  std::map<std::string, uint64_t> DeterministicKeys;
  uint64_t DeterministicEvents = 0;
};

/// Serialize one event's deterministic plane — name, ph, and the args
/// object with sorted keys and round-tripping number formatting. Events
/// that only differ in ts_ns/dur_ns/tid/seq/meta map to the same key.
std::string deterministicEventKey(const JsonValue &Event);

/// True for events whose *args* are wall-clock-derived — metric exports of
/// `*_ms` instruments (the naming convention for timing) — and which
/// therefore live on the timing plane, outside the deterministic-key
/// multiset, even though their args differ between same-seed runs.
bool isTimingPlaneEvent(const JsonValue &Event);

/// Aggregate \p Log (assumed schema-valid) into a RunSummary.
RunSummary aggregateRun(const TraceLog &Log);

} // namespace veriopt

#endif // VERIOPT_REPORT_RUNSUMMARY_H
