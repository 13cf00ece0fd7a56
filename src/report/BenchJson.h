//===- BenchJson.h - The BENCH_<name>.json schema ----------------*- C++ -*-=//
//
// The machine-readable result file every bench emits and the comparator
// consumes. This header is the single source of truth for the schema — the
// writer (`benchReportToJson`, called by bench::writeBenchJson) and the
// validator (`parseBenchJson`) live side by side so they cannot drift, and
// docs/OBSERVABILITY.md documents exactly what this file enforces.
//
// Schema (version 1):
//
//   {"bench":   <nonempty string>,          // bench name
//    "schema":  1,                          // version; bump on change
//    "metrics": {
//      "counters":   {name: uint},          // non-negative integers
//      "gauges":     {name: number | "<16 hex chars>"},
//                                           // a 16-hex-digit string is an
//                                           // IEEE-754 bit-hex double (the
//                                           // checkpoint discipline): the
//                                           // exact channel, able to carry
//                                           // NaN and full-precision values
//      "histograms": {name:
//        {"bounds": [strictly increasing numbers],
//         "counts": [uints, len == len(bounds)+1],  // last = overflow
//         "count":  uint == sum(counts),
//         "sum":    number}}}}
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_REPORT_BENCHJSON_H
#define VERIOPT_REPORT_BENCHJSON_H

#include "trace/Metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace veriopt {

/// The documented schema version this library reads and writes.
inline constexpr int BenchJsonSchemaVersion = 1;

/// A parsed, validated BENCH_<name>.json.
struct BenchReport {
  std::string Bench;
  int Schema = BenchJsonSchemaVersion;
  std::map<std::string, uint64_t> Counters;
  /// Gauge values; bit-hex strings are decoded, so NaN is representable.
  std::map<std::string, double> Gauges;
  struct Hist {
    std::vector<double> Bounds;
    std::vector<uint64_t> Counts; ///< Bounds.size() + 1 entries
    uint64_t Count = 0;
    double Sum = 0;
  };
  std::map<std::string, Hist> Histograms;
};

/// Parse + formally validate one BENCH_<name>.json document. On failure
/// \p Err carries a typed message naming the offending field and rule.
bool parseBenchJson(const std::string &Text, BenchReport &Out,
                    std::string *Err);

/// Read + parse + validate a file.
bool loadBenchJson(const std::string &Path, BenchReport &Out,
                   std::string *Err);

/// Serialize a metrics snapshot as a schema-valid document (sorted keys,
/// deterministic formatting). This is what bench::writeBenchJson emits.
std::string benchReportToJson(const std::string &Name,
                              const MetricsRegistry::Snapshot &S);

} // namespace veriopt

#endif // VERIOPT_REPORT_BENCHJSON_H
