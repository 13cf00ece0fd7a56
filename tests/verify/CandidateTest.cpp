//===- CandidateTest.cpp - One parse per answer, from key to verdict ------===//
//
// A Candidate stands in for its text everywhere the text used to be parsed
// again: the cache key, the guard chain and verification. The guard chain
// over a Candidate must give exactly what the text path (a fresh parse)
// gives, and Candidates shared across pool threads must be safe to read at
// once.
//
//===----------------------------------------------------------------------===//

#include "verify/Candidate.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/ThreadPool.h"
#include "verify/VerifyCache.h"
#include "verify/RefinementQuery.h"

#include <gtest/gtest.h>

#include <set>

namespace veriopt {
namespace {

const char *SrcIR = "define i32 @f(i32 %x) {\n  %y = add i32 %x, 1\n"
                    "  ret i32 %y\n}\n";

std::unique_ptr<Module> parseOk(const std::string &Text) {
  auto M = parseModule(Text);
  EXPECT_TRUE(M.hasValue()) << M.error().render();
  return M.takeValue();
}

void expectSame(const VerifyResult &A, const VerifyResult &B,
                const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Diagnostic, B.Diagnostic);
  EXPECT_EQ(A.Counterexample.size(), B.Counterexample.size());
  EXPECT_EQ(A.BoundedOnly, B.BoundedOnly);
  EXPECT_EQ(A.FoundByFalsification, B.FoundByFalsification);
  EXPECT_EQ(A.SolverConflicts, B.SolverConflicts);
  EXPECT_EQ(A.FuelSpent, B.FuelSpent);
}

TEST(Candidate, KeepsNamesAndPrintsCanonically) {
  const std::string Text = "define i32 @f(i32 %x) {\nentry:\n"
                           "  %sum = add i32 %x, 1\n  ret i32 %sum\n}\n";
  const Candidate C(Text);
  ASSERT_NE(C.module(), nullptr);
  ASSERT_NE(C.function(), nullptr);
  EXPECT_TRUE(C.parseError().empty());
  EXPECT_EQ(C.text(), Text);
  // The parse keeps its names: the copy check prints it as written.
  EXPECT_EQ(printFunction(*C.function()), Text);
  EXPECT_EQ(C.canonical(), "define i32 @f(i32 %0) {\n1:\n"
                           "  %2 = add i32 %0, 1\n  ret i32 %2\n}\n");
  // Whitespace and naming variants share the canonical text.
  EXPECT_EQ(Candidate("define i32 @f(i32 %a) {\n  %b = add i32   %a, 1\n"
                      "  ret i32 %b\n}\n")
                .canonical(),
            C.canonical());
}

TEST(Candidate, UnparsedTextIsItsOwnCanonicalText) {
  for (const std::string Text : {"not ir at all", "define i32 @f(",
                                 "define i32 @f() {\n  ret i37 0\n}\n"}) {
    const Candidate C(Text);
    EXPECT_EQ(C.module(), nullptr) << Text;
    EXPECT_EQ(C.function(), nullptr) << Text;
    EXPECT_EQ(C.canonical(), Text);
    auto M = parseModule(Text);
    ASSERT_FALSE(M.hasValue()) << Text;
    EXPECT_EQ(C.parseError(), M.error().render());
  }
  // A module with no definition, the empty one too, parses but has no
  // function.
  const Candidate Decl("declare i32 @g(i32)\n"), Empty("");
  EXPECT_NE(Decl.module(), nullptr);
  EXPECT_EQ(Decl.function(), nullptr);
  EXPECT_EQ(Decl.canonical(), "declare i32 @g(i32)\n");
  EXPECT_NE(Empty.module(), nullptr);
  EXPECT_EQ(Empty.function(), nullptr);
  EXPECT_EQ(Empty.canonical(), "");
}

/// Texts reaching every rung of the guard chain, then both verdicts.
std::vector<std::string> guardCases(VerifyOptions &Opts) {
  Opts.MaxCandidateBytes = 400;
  Opts.MaxCandidateInsts = 6;
  std::string Long = "define i32 @f(i32 %x) {\n";
  for (int I = 0; I < 8; ++I)
    Long += "  %v" + std::to_string(I) + " = add i32 %x, " +
            std::to_string(I) + "\n";
  Long += "  ret i32 %x\n}\n";
  return {
      std::string(SrcIR) + std::string(400, ' '),        // size guard
      std::string(SrcIR).substr(0, 30),                  // parse error
      "declare i32 @g(i32)\n",                           // no function
      Long,                                              // too many insts
      "define i32 @f(i32 %x) {\n  ret i32 %y\n}\n",      // undefined value
      "define i32 @f(i32 %x) {\n  %z = add i32 1, %x\n"  // equivalent
      "  ret i32 %z\n}\n",
      "define i32 @f(i32 %x) {\n  %y = add i32 %x, 2\n"  // not equivalent
      "  ret i32 %y\n}\n",
      "define i64 @f(i64 %x) {\n  ret i64 %x\n}\n",      // signature
  };
}

TEST(Candidate, GuardChainMatchesTheTextPath) {
  auto Src = parseOk(SrcIR);
  VerifyOptions Opts;
  std::vector<std::string> Cases = guardCases(Opts);
  std::set<std::string> Kinds;
  for (const std::string &Text : Cases) {
    VerifyResult ByText = verifyCandidateText(*Src->getMainFunction(), Text,
                                              Opts);
    std::unique_ptr<SourceEncoding> SC;
    VerifyResult ByCand = verifyCandidateOn(SC, *Src->getMainFunction(),
                                            Candidate(Text), Opts);
    expectSame(ByCand, ByText, Text);
    Kinds.insert(diagKindName(ByText.Kind));
  }
  // Size, parse and no-function guards give parse-error; the instruction
  // and well-formedness guards structure-error; then real verdicts.
  EXPECT_GE(Kinds.size(), 4u);
}

TEST(Candidate, SharedAcrossPoolThreads) {
  // Candidates are read concurrently: the reward reads one answer's
  // Candidate from every rollout that gave that answer, on the scoring
  // pool's threads. Every concurrent read (a verdict, a cache key, a print)
  // must see what a serial read sees.
  auto Src = parseOk(SrcIR);
  const Function &F = *Src->getMainFunction();
  const std::string SrcText = printFunction(F);
  VerifyOptions Opts;
  std::vector<std::string> Cases = guardCases(Opts);
  // Every answer twice, as a GRPO group repeats them: a repeated text gets
  // its first Candidate.
  CandidateSet Set;
  std::vector<const Candidate *> Group;
  for (int Round = 0; Round < 2; ++Round)
    for (const std::string &Text : Cases)
      Group.push_back(&Set.get(Text));
  for (size_t I = 0; I < Cases.size(); ++I)
    ASSERT_EQ(Group[I], Group[I + Cases.size()]);

  struct Read {
    VerifyResult Verdict;
    std::string Key, Printed;
  };
  auto readOne = [&](const Candidate &C) {
    Read R;
    std::unique_ptr<SourceEncoding> SC; // a private half per read
    R.Verdict = verifyCandidateOn(SC, F, C, Opts);
    R.Key = VerifyCache::makeKey(SrcText, C, Opts);
    if (C.function())
      R.Printed = printFunction(*C.function());
    return R;
  };
  std::vector<Read> Serial;
  for (const Candidate *C : Group)
    Serial.push_back(readOne(*C));

  ThreadPool Pool(4);
  std::vector<Read> Parallel(Group.size());
  Pool.parallelFor(Group.size(),
                   [&](size_t I) { Parallel[I] = readOne(*Group[I]); });
  for (size_t I = 0; I < Group.size(); ++I) {
    expectSame(Parallel[I].Verdict, Serial[I].Verdict,
               Cases[I % Cases.size()]);
    EXPECT_EQ(Parallel[I].Key, Serial[I].Key);
    EXPECT_EQ(Parallel[I].Printed, Serial[I].Printed);
  }
}

} // namespace
} // namespace veriopt
