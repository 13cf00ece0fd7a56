//===- RunReport.h - Single-run report rendering -----------------*- C++ -*-=//
//
// Renders the human-readable end-of-run report from an aggregated
// RunSummary: span totals and self time per span, per-stage reward curves,
// verdict breakdown by DiagKind, the retry-ladder summary, top-N slowest
// verification queries, cache efficacy, batch/shard/driver sections, and
// InstCombine rule-fire counts.
//
// Rendering is deterministic for a given log — wall-clock values are read
// from the events, never from the environment — so the output is
// golden-file tested (tests/report).
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_REPORT_RUNREPORT_H
#define VERIOPT_REPORT_RUNREPORT_H

#include "report/RunSummary.h"

#include <string>

namespace veriopt {

/// Render the end-of-run report from a pre-aggregated summary.
std::string renderRunReport(const RunSummary &S, unsigned TopN = 10);

/// Convenience overload: aggregate + render.
std::string renderRunReport(const TraceLog &Log, unsigned TopN = 10);

} // namespace veriopt

#endif // VERIOPT_REPORT_RUNREPORT_H
