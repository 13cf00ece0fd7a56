//===- TraceTest.cpp - TraceRecorder + sink tests --------------------------===//
//
// Covers the tentpole contracts: the determinism plane (same seed, any
// thread count => identical multiset of (Name, Phase, Args)), JSONL writer
// escaping and failure atomicity, and the Chrome exporter.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "rl/Trainer.h"
#include "support/ThreadPool.h"
#include "trace/Json.h"
#include "trace/Metrics.h"
#include "verify/BatchVerifier.h"
#include "report/TraceData.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace veriopt {
namespace {

/// Deterministic-plane key of one event: name, phase, and args — exactly
/// the fields the cross-thread-count contract covers (no ts/dur/tid/seq,
/// no meta).
std::string detKey(const TraceEvent &E) {
  std::string K = E.Name;
  K.push_back('|');
  K.push_back(static_cast<char>(E.Phase));
  for (const TraceArg &A : E.Args) {
    K.push_back('|');
    K += A.Key;
    K.push_back('=');
    switch (A.K) {
    case TraceArg::Kind::Int:
    case TraceArg::Kind::Bool:
      K += std::to_string(A.I);
      break;
    case TraceArg::Kind::Float:
      K += jsonNumber(A.F);
      break;
    case TraceArg::Kind::Str:
      K += A.S;
      break;
    }
  }
  return K;
}

std::multiset<std::string> detMultiset(const std::vector<TraceEvent> &Evs) {
  std::multiset<std::string> Out;
  for (const TraceEvent &E : Evs)
    Out.insert(detKey(E));
  return Out;
}

const Dataset &tinyDataset() {
  static Dataset DS = [] {
    DatasetOptions O;
    O.TrainCount = 8;
    O.ValidCount = 0;
    O.Seed = 33;
    return buildDataset(O);
  }();
  return DS;
}

/// One short traced GRPO run at the given thread count; cache off so the
/// event stream depends only on the (deterministic) verification work.
std::vector<TraceEvent> tracedRun(unsigned Threads) {
  // Build the (static) dataset before enabling the recorder, so its own
  // InstCombine rule fires don't leak into only the first traced run.
  const Dataset &DS = tinyDataset();

  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();

  RewritePolicyModel Model(presetQwen3B());
  ThreadPool Pool(Threads);
  BatchVerifier::Options BO;
  BO.Robust.Base.FalsifyTrials = 8;
  BO.Robust.MaxTiers = 1;
  BatchVerifier Verifier(BO, nullptr);
  GRPOOptions G;
  G.GroupSize = 4;
  G.PromptsPerStep = 2;
  G.Seed = 17;
  G.Pool = &Pool;
  G.TraceLabel = "stage1";
  RewardFn Reward = [](const Sample &S, const Completion &C,
                       const RolloutAnswer &Answer, const RolloutVerdicts &V) {
    RewardBreakdown B = answerReward(S, C, Answer, V.Answer);
    RolloutScore Sc;
    Sc.Reward = B.Total;
    Sc.Equivalent = B.Equivalent;
    Sc.IsCopy = B.IsCopy;
    Sc.AnswerVerify = B.Verify;
    return Sc;
  };
  GRPOTrainer Trainer(Model, Verifier, Reward, G);
  Trainer.train(DS.Train, 3);

  R.disable();
  std::vector<TraceEvent> Out = R.snapshot();
  R.clear();
  return Out;
}

TEST(Trace, DisabledRecordsNothing) {
  TraceRecorder &R = TraceRecorder::instance();
  R.disable();
  R.clear();
  { TRACE_SPAN("verify.encode"); }
  R.instant("verify.tier", {TraceArg::ofInt("tier", 0)});
  EXPECT_EQ(R.eventCount(), 0u);
}

TEST(Trace, SpanRecordsArgsAndDuration) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  {
    TraceSpan S("grpo.step");
    ASSERT_TRUE(S.active());
    S.arg(TraceArg::ofInt("step", 3));
    S.meta(TraceArg::ofFloat("score_wall_ms", 1.5));
  }
  R.disable();
  std::vector<TraceEvent> Evs = R.snapshot();
  R.clear();
  ASSERT_EQ(Evs.size(), 1u);
  EXPECT_EQ(Evs[0].Name, "grpo.step");
  EXPECT_EQ(Evs[0].Phase, TracePhase::Complete);
  ASSERT_EQ(Evs[0].Args.size(), 1u);
  EXPECT_EQ(Evs[0].Args[0].Key, "step");
  ASSERT_EQ(Evs[0].Meta.size(), 1u);
  EXPECT_EQ(Evs[0].Meta[0].Key, "score_wall_ms");
}

TEST(Trace, DeterministicEventMultisetAcrossThreadCounts) {
  // The tentpole guarantee: for a fixed seed the multiset of
  // (Name, Phase, Args) is identical at any thread count. Timing fields
  // and Meta may differ arbitrarily; scheduling must not leak into Args.
  std::multiset<std::string> Serial = detMultiset(tracedRun(1));
  std::multiset<std::string> Threaded = detMultiset(tracedRun(4));
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Threaded);

  // Sanity: the run actually exercised the instrumented layers.
  auto CountPrefix = [&](const std::string &P) {
    return std::count_if(Serial.begin(), Serial.end(),
                         [&](const std::string &K) {
                           return K.compare(0, P.size(), P) == 0;
                         });
  };
  EXPECT_EQ(CountPrefix("grpo.step|"), 3);
  EXPECT_EQ(CountPrefix("grpo.score|"), 3);
  EXPECT_GT(CountPrefix("verify.candidate|"), 0);
}

TEST(Trace, JsonlEscapingRoundTrips) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  const std::string Nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01";
  R.instant("verify.tier", {TraceArg::ofStr("status", Nasty),
                            TraceArg::ofInt("tier", 1)});
  R.disable();

  const std::string Path = ::testing::TempDir() + "trace_escape.jsonl";
  ASSERT_TRUE(R.writeJsonl(Path));
  R.clear();

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_EQ(Log.Events.size(), 1u);
  const JsonValue *Status = Log.Events[0].get("args")->get("status");
  ASSERT_NE(Status, nullptr);
  EXPECT_EQ(Status->str(), Nasty);
  std::remove(Path.c_str());
}

TEST(Trace, BitHexCodecAndUnsignedReader) {
  // The one codec shard results, checkpoints, the verdict store and
  // BENCH_*.json share: 16 lowercase hex digits, bit-exact both ways.
  EXPECT_EQ(hexU64(0x1F), "000000000000001f");
  EXPECT_EQ(hexDouble(1.0), "3ff0000000000000");
  uint64_t U = 0;
  ASSERT_TRUE(parseHexU64(hexU64(UINT64_MAX), U));
  EXPECT_EQ(U, UINT64_MAX);
  double D = 0;
  ASSERT_TRUE(parseHexDouble(hexDouble(-0.0), D));
  EXPECT_TRUE(std::signbit(D));
  for (const char *Bad : {"3FF0000000000000", "3ff000000000000",
                          "3ff00000000000000", "3ff000000000000g", ""})
    EXPECT_FALSE(parseHexU64(Bad, U)) << Bad;

  auto readUnsigned = [&](const char *Text) {
    JsonValue V;
    std::string Err;
    EXPECT_TRUE(parseJson(Text, V, &Err)) << Err;
    return jsonUnsigned(&V, U);
  };
  EXPECT_TRUE(readUnsigned("42"));
  EXPECT_EQ(U, 42u);
  for (const char *Bad : {"-1", "1.5", "1e20", "18446744073709551616",
                          "\"7\"", "null"})
    EXPECT_FALSE(readUnsigned(Bad)) << Bad;
  EXPECT_FALSE(jsonUnsigned(nullptr, U));
}

TEST(Trace, JsonlWriteFailureLeavesOldFileIntact) {
  // Atomic write-then-rename: a failed write must not clobber the previous
  // trace, and must not leave a stray .tmp behind.
  const std::string Dir = ::testing::TempDir();
  const std::string Path = Dir + "trace_atomic.jsonl";
  {
    std::ofstream OS(Path);
    OS << "previous contents\n";
  }
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  R.instant("verify.tier", {TraceArg::ofInt("tier", 0)});
  R.disable();

  const std::string Bad = Dir + "no_such_dir_xyz/trace.jsonl";
  EXPECT_FALSE(R.writeJsonl(Bad));

  // Success path replaces atomically and cleans up the temp file.
  ASSERT_TRUE(R.writeJsonl(Path));
  R.clear();
  std::ifstream IS(Path);
  std::string First;
  std::getline(IS, First);
  EXPECT_NE(First, "previous contents");
  EXPECT_FALSE(std::ifstream(Path + ".tmp").good());
  std::remove(Path.c_str());
}

TEST(Trace, MetricsLinesAppendedAndSchemaValid) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  R.instant("verify.tier", {TraceArg::ofInt("tier", 0),
                            TraceArg::ofStr("status", "equivalent"),
                            TraceArg::ofStr("diag", "none")});
  R.disable();

  MetricsRegistry M;
  M.counter("verify.cache.hit").inc(7);
  M.histogram("verify.conflicts", {1.0, 4.0}).observe(2.0);

  const std::string Path = ::testing::TempDir() + "trace_metrics.jsonl";
  ASSERT_TRUE(R.writeJsonl(Path, &M));
  R.clear();

  TraceLog Log;
  std::string Err;
  ASSERT_TRUE(loadTraceJsonl(Path, Log, &Err)) << Err;
  ASSERT_TRUE(validateTraceLog(Log, &Err)) << Err;
  ASSERT_EQ(Log.Events.size(), 3u); // tier + metric + metric.hist
  bool SawCounter = false, SawHist = false;
  for (const JsonValue &E : Log.Events) {
    if (E.get("name")->str() == "metric") {
      SawCounter = true;
      EXPECT_EQ(E.get("args")->get("key")->str(), "verify.cache.hit");
      EXPECT_DOUBLE_EQ(E.get("args")->get("value")->number(), 7.0);
    } else if (E.get("name")->str() == "metric.hist") {
      SawHist = true;
      EXPECT_EQ(E.get("args")->get("key")->str(), "verify.conflicts");
      EXPECT_DOUBLE_EQ(E.get("args")->get("count")->number(), 1.0);
    }
  }
  EXPECT_TRUE(SawCounter);
  EXPECT_TRUE(SawHist);
  std::remove(Path.c_str());
}

TEST(Trace, ChromeExportIsLoadableJson) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  {
    TraceSpan S("verify.encode");
    S.arg(TraceArg::ofInt("n", 1));
  }
  R.instant("verify.tier", {TraceArg::ofInt("tier", 2)});
  R.disable();

  const std::string Path = ::testing::TempDir() + "trace_chrome.json";
  ASSERT_TRUE(R.writeChromeTrace(Path));
  R.clear();

  std::ifstream IS(Path);
  std::stringstream SS;
  SS << IS.rdbuf();
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(SS.str(), V, &Err)) << Err;
  const JsonValue *Evs = V.get("traceEvents");
  ASSERT_NE(Evs, nullptr);
  ASSERT_EQ(Evs->array().size(), 2u);
  const JsonValue &Span = Evs->array()[0];
  EXPECT_EQ(Span.get("ph")->str(), "X");
  EXPECT_NE(Span.get("dur"), nullptr); // microseconds, Chrome field name
  EXPECT_NE(Span.get("pid"), nullptr);
  std::remove(Path.c_str());
}

TEST(Trace, SnapshotOrderedByTidThenSeq) {
  TraceRecorder &R = TraceRecorder::instance();
  R.clear();
  R.enable();
  for (int I = 0; I < 5; ++I)
    R.instant("verify.tier", {TraceArg::ofInt("tier", I)});
  R.disable();
  std::vector<TraceEvent> Evs = R.snapshot();
  R.clear();
  ASSERT_EQ(Evs.size(), 5u);
  for (size_t I = 1; I < Evs.size(); ++I) {
    bool Ordered = Evs[I - 1].Tid < Evs[I].Tid ||
                   (Evs[I - 1].Tid == Evs[I].Tid &&
                    Evs[I - 1].Seq < Evs[I].Seq);
    EXPECT_TRUE(Ordered) << "snapshot not sorted at index " << I;
  }
}

} // namespace
} // namespace veriopt
