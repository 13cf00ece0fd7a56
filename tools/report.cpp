//===- report.cpp - Run reports, A/B diffs, and bench regression gates ------===//
//
// The comparison CLI (workflow doc: docs/COMPARISON.md):
//
//   report <trace.jsonl> [--top N]           validate, then print the report
//   report <trace.jsonl> --validate          schema validation only
//   report --diff A.jsonl B.jsonl [--top N] [--gate-deterministic]
//   report --bench-diff BASE.json CUR.json [--tolerance-file T.json]
//          [--verbose]
//   report --help
//
// Exit codes (stable — CI scripts key on them):
//   0   success / no regression
//   64  usage error (unknown flag, missing operand)
//   2   input failure: unreadable file, malformed JSON/JSONL (including a
//       truncated trace), or a schema violation
//   3   regression: --bench-diff found an out-of-tolerance instrument, or
//       --gate-deterministic found a deterministic-plane divergence
//
//===----------------------------------------------------------------------===//

#include "report/BenchDiff.h"
#include "report/RunDiff.h"
#include "report/RunReport.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace veriopt;

namespace {

constexpr int ExitOk = 0;
constexpr int ExitUsage = 64;
constexpr int ExitInput = 2;
constexpr int ExitRegression = 3;

const char *HelpText = R"(usage:
  report <trace.jsonl> [--top N]      render the run report for one trace
  report <trace.jsonl> --validate     schema-validate only (CI gate)
  report --diff A.jsonl B.jsonl [--top N] [--gate-deterministic]
                                      compare two runs: deterministic-plane
                                      identity, reward curves, verdict/diag
                                      mix, retry ladder, cache efficacy, and
                                      per-span wall-time deltas
  report --bench-diff BASELINE.json CURRENT.json
         [--tolerance-file T.json] [--verbose]
                                      validate both BENCH_<name>.json files
                                      and compare under tolerance rules
  report --help                       this text

exit codes:
  0   success / no regression
  64  usage error
  2   unreadable or schema-invalid input (including truncated JSONL)
  3   regression (--bench-diff out of tolerance, or --gate-deterministic
      with diverged deterministic planes)

docs: docs/COMPARISON.md (workflow), docs/OBSERVABILITY.md (schemas)
)";

int usage(const char *Argv0, const char *Why) {
  if (Why)
    std::fprintf(stderr, "%s: %s\n", Argv0, Why);
  std::fprintf(stderr, "usage: %s --help\n", Argv0);
  return ExitUsage;
}

/// Load + schema-validate one trace, mapping both failure kinds to the
/// input exit code with a path-prefixed message.
bool loadRun(const std::string &Path, TraceLog &Log) {
  std::string Err;
  if (!loadTraceJsonl(Path, Log, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return false;
  }
  if (!validateTraceLog(Log, &Err)) {
    std::fprintf(stderr, "error: %s: schema violation: %s\n", Path.c_str(),
                 Err.c_str());
    return false;
  }
  return true;
}

int runReport(const std::string &Path, bool ValidateOnly, unsigned TopN) {
  TraceLog Log;
  if (!loadRun(Path, Log))
    return ExitInput;
  if (ValidateOnly) {
    std::printf("OK: %zu events conform to the trace schema\n",
                Log.Events.size());
    return ExitOk;
  }
  std::fputs(renderRunReport(Log, TopN).c_str(), stdout);
  return ExitOk;
}

int runDiff(const std::string &PathA, const std::string &PathB, unsigned TopN,
            bool GateDeterministic) {
  TraceLog LogA, LogB;
  if (!loadRun(PathA, LogA) || !loadRun(PathB, LogB))
    return ExitInput;
  RunDiff D = diffRuns(aggregateRun(LogA), aggregateRun(LogB));
  std::fputs(renderRunDiff(D, TopN).c_str(), stdout);
  if (GateDeterministic && !D.deterministicPlaneIdentical()) {
    std::fprintf(stderr,
                 "error: deterministic planes diverged (%zu keys differ); "
                 "same-seed runs must match\n",
                 D.DeterministicDeltas.size());
    return ExitRegression;
  }
  return ExitOk;
}

int runBenchDiff(const std::string &BasePath, const std::string &CurPath,
                 const std::string &TolPath, bool Verbose) {
  std::string Err;
  BenchReport Base, Cur;
  if (!loadBenchJson(BasePath, Base, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitInput;
  }
  if (!loadBenchJson(CurPath, Cur, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitInput;
  }
  ToleranceSpec Tol;
  if (!TolPath.empty() && !loadToleranceSpec(TolPath, Tol, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitInput;
  }
  BenchDiff D;
  if (!compareBenchReports(Base, Cur, Tol, D, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitInput;
  }
  std::fputs(renderBenchDiff(D, Verbose).c_str(), stdout);
  return D.hasRegression() ? ExitRegression : ExitOk;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Positional;
  bool ValidateOnly = false, DiffMode = false, BenchDiffMode = false;
  bool GateDeterministic = false, Verbose = false;
  unsigned TopN = 10;
  std::string TolPath;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      std::fputs(HelpText, stdout);
      return ExitOk;
    } else if (std::strcmp(Arg, "--validate") == 0) {
      ValidateOnly = true;
    } else if (std::strcmp(Arg, "--diff") == 0) {
      DiffMode = true;
    } else if (std::strcmp(Arg, "--bench-diff") == 0) {
      BenchDiffMode = true;
    } else if (std::strcmp(Arg, "--gate-deterministic") == 0) {
      GateDeterministic = true;
    } else if (std::strcmp(Arg, "--verbose") == 0) {
      Verbose = true;
    } else if (std::strcmp(Arg, "--tolerance-file") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0], "--tolerance-file needs a path");
      TolPath = argv[++I];
    } else if (std::strcmp(Arg, "--top") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0], "--top needs a count");
      if (!parseUnsignedArg(argv[++I], TopN) || TopN == 0)
        return usage(argv[0], "--top needs a positive count");
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      std::string Why = std::string("unknown flag '") + Arg + "'";
      return usage(argv[0], Why.c_str());
    } else {
      Positional.push_back(Arg);
    }
  }

  if (DiffMode && BenchDiffMode)
    return usage(argv[0], "--diff and --bench-diff are mutually exclusive");

  if (BenchDiffMode) {
    if (GateDeterministic || ValidateOnly)
      return usage(argv[0], "flag does not apply to --bench-diff");
    if (Positional.size() != 2)
      return usage(argv[0], "--bench-diff needs BASELINE.json CURRENT.json");
    return runBenchDiff(Positional[0], Positional[1], TolPath, Verbose);
  }
  if (DiffMode) {
    if (ValidateOnly || Verbose || !TolPath.empty())
      return usage(argv[0], "flag does not apply to --diff");
    if (Positional.size() != 2)
      return usage(argv[0], "--diff needs A.jsonl B.jsonl");
    return runDiff(Positional[0], Positional[1], TopN, GateDeterministic);
  }
  if (GateDeterministic || Verbose || !TolPath.empty())
    return usage(argv[0], "flag requires --diff or --bench-diff");
  if (Positional.size() != 1)
    return usage(argv[0], "need exactly one <trace.jsonl>");
  return runReport(Positional[0], ValidateOnly, TopN);
}
