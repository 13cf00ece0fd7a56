//===- BenchJson.cpp - The BENCH_<name>.json schema ---------------------------//

#include "report/BenchJson.h"

#include "trace/Json.h"

#include <fstream>
#include <sstream>

namespace veriopt {

namespace {

bool fail(std::string *Err, const std::string &Why) {
  if (Err)
    *Err = Why;
  return false;
}

bool parseGauge(const JsonValue &V, double &Out) {
  if (V.isNumber()) {
    Out = V.number();
    return true;
  }
  // The exact channel: a 16-hex-char string is the IEEE-754 bit pattern.
  return V.isString() && parseHexDouble(V.str(), Out);
}

bool parseHist(const std::string &Name, const JsonValue &V,
               BenchReport::Hist &Out, std::string *Err) {
  if (!V.isObject())
    return fail(Err, "histogram '" + Name + "' is not an object");
  const JsonValue *Bounds = V.get("bounds");
  if (!Bounds || !Bounds->isArray())
    return fail(Err, "histogram '" + Name + "' missing 'bounds' array");
  for (const JsonValue &B : Bounds->array()) {
    if (!B.isNumber())
      return fail(Err, "histogram '" + Name + "' has a non-numeric bound");
    if (!Out.Bounds.empty() && B.number() <= Out.Bounds.back())
      return fail(Err,
                  "histogram '" + Name + "' bounds not strictly increasing");
    Out.Bounds.push_back(B.number());
  }
  const JsonValue *Counts = V.get("counts");
  if (!Counts || !Counts->isArray())
    return fail(Err, "histogram '" + Name + "' missing 'counts' array");
  uint64_t Total = 0;
  for (const JsonValue &C : Counts->array()) {
    uint64_t N;
    if (!jsonUnsigned(&C, N))
      return fail(Err, "histogram '" + Name +
                           "' has a negative/non-integer bucket count");
    Out.Counts.push_back(N);
    Total += N;
  }
  if (Out.Counts.size() != Out.Bounds.size() + 1)
    return fail(Err, "histogram '" + Name +
                         "' needs len(counts) == len(bounds)+1 (overflow "
                         "bucket)");
  if (!jsonUnsigned(V.get("count"), Out.Count))
    return fail(Err, "histogram '" + Name + "' missing integer 'count'");
  if (Out.Count != Total)
    return fail(Err, "histogram '" + Name +
                         "' count does not equal the bucket-count sum");
  const JsonValue *Sum = V.get("sum");
  if (!Sum || !Sum->isNumber())
    return fail(Err, "histogram '" + Name + "' missing numeric 'sum'");
  Out.Sum = Sum->number();
  return true;
}

} // namespace

bool parseBenchJson(const std::string &Text, BenchReport &Out,
                    std::string *Err) {
  Out = BenchReport();
  JsonValue Doc;
  std::string JErr;
  if (!parseJson(Text, Doc, &JErr))
    return fail(Err, "malformed JSON: " + JErr);
  if (!Doc.isObject())
    return fail(Err, "top level is not a JSON object");

  const JsonValue *Bench = Doc.get("bench");
  if (!Bench || !Bench->isString() || Bench->str().empty())
    return fail(Err, "missing nonempty string 'bench'");
  Out.Bench = Bench->str();

  uint64_t Schema;
  if (!jsonUnsigned(Doc.get("schema"), Schema))
    return fail(Err, "missing integer 'schema' version");
  Out.Schema = static_cast<int>(Schema);
  if (Out.Schema != BenchJsonSchemaVersion)
    return fail(Err, "unsupported schema version " +
                         std::to_string(Out.Schema) + " (this build reads " +
                         std::to_string(BenchJsonSchemaVersion) + ")");

  const JsonValue *Metrics = Doc.get("metrics");
  if (!Metrics || !Metrics->isObject())
    return fail(Err, "missing 'metrics' object");
  const JsonValue *Counters = Metrics->get("counters");
  const JsonValue *Gauges = Metrics->get("gauges");
  const JsonValue *Hists = Metrics->get("histograms");
  if (!Counters || !Counters->isObject())
    return fail(Err, "metrics missing 'counters' object");
  if (!Gauges || !Gauges->isObject())
    return fail(Err, "metrics missing 'gauges' object");
  if (!Hists || !Hists->isObject())
    return fail(Err, "metrics missing 'histograms' object");

  for (const auto &[Name, V] : Counters->object())
    if (!jsonUnsigned(&V, Out.Counters[Name]))
      return fail(Err, "counter '" + Name +
                           "' is not a non-negative integer");
  for (const auto &[Name, V] : Gauges->object()) {
    double D;
    if (!parseGauge(V, D))
      return fail(Err, "gauge '" + Name +
                           "' is neither a number nor a 16-hex-char "
                           "bit-hex double");
    Out.Gauges[Name] = D;
  }
  for (const auto &[Name, V] : Hists->object())
    if (!parseHist(Name, V, Out.Histograms[Name], Err))
      return false;
  return true;
}

bool loadBenchJson(const std::string &Path, BenchReport &Out,
                   std::string *Err) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return fail(Err, "cannot open " + Path);
  std::ostringstream SS;
  SS << IS.rdbuf();
  std::string PErr;
  if (!parseBenchJson(SS.str(), Out, &PErr))
    return fail(Err, Path + ": " + PErr);
  return true;
}

std::string benchReportToJson(const std::string &Name,
                              const MetricsRegistry::Snapshot &S) {
  std::string Out = "{\"bench\":" + jsonString(Name) +
                    ",\"schema\":" + std::to_string(BenchJsonSchemaVersion) +
                    ",\"metrics\":" + MetricsRegistry::toJson(S) + "}\n";
  return Out;
}

} // namespace veriopt
