//===- Trace.cpp - Structured tracing for the training runtime ----------------//

#include "trace/Trace.h"

#include "support/AtomicFile.h"
#include "trace/Json.h"
#include "trace/Metrics.h"

#include <algorithm>
#include <chrono>

namespace veriopt {

TraceRecorder &TraceRecorder::instance() {
  static TraceRecorder R;
  return R;
}

static uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TraceRecorder::enable() {
  EpochNs.store(steadyNs(), std::memory_order_relaxed);
  Enabled.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  Enabled.store(false, std::memory_order_release);
}

uint64_t TraceRecorder::nowNs() const {
  return steadyNs() - EpochNs.load(std::memory_order_relaxed);
}

TraceRecorder::ThreadBuf &TraceRecorder::localBuf() {
  // The shared_ptr in the registry keeps the buffer alive after the thread
  // exits, so a snapshot after a ThreadPool worker died still sees its events.
  thread_local std::shared_ptr<ThreadBuf> Local;
  if (!Local) {
    Local = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> L(RegistryM);
    Local->Tid = NextTid++;
    Buffers.push_back(Local);
  }
  return *Local;
}

void TraceRecorder::record(TraceEvent E) {
  if (!enabled())
    return;
  ThreadBuf &B = localBuf();
  std::lock_guard<std::mutex> L(B.M); // uncontended except during snapshot
  E.Tid = B.Tid;
  E.Seq = B.NextSeq++;
  B.Events.push_back(std::move(E));
}

void TraceRecorder::instant(std::string Name, std::vector<TraceArg> Args) {
  if (!enabled())
    return;
  TraceEvent E;
  E.Name = std::move(Name);
  E.Phase = TracePhase::Instant;
  E.Args = std::move(Args);
  E.TsNs = nowNs();
  record(std::move(E));
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  {
    std::lock_guard<std::mutex> L(RegistryM);
    Bufs = Buffers;
  }
  std::vector<TraceEvent> Out;
  for (const auto &B : Bufs) {
    std::lock_guard<std::mutex> L(B->M);
    Out.insert(Out.end(), B->Events.begin(), B->Events.end());
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.Tid != B.Tid ? A.Tid < B.Tid : A.Seq < B.Seq;
                   });
  return Out;
}

void TraceRecorder::clear() {
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  {
    std::lock_guard<std::mutex> L(RegistryM);
    Bufs = Buffers;
  }
  for (const auto &B : Bufs) {
    std::lock_guard<std::mutex> L(B->M);
    B->Events.clear();
  }
}

size_t TraceRecorder::eventCount() const {
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  {
    std::lock_guard<std::mutex> L(RegistryM);
    Bufs = Buffers;
  }
  size_t N = 0;
  for (const auto &B : Bufs) {
    std::lock_guard<std::mutex> L(B->M);
    N += B->Events.size();
  }
  return N;
}

//===--- Serialization --------------------------------------------------------//

static void appendArgValue(std::string &Out, const TraceArg &A) {
  switch (A.K) {
  case TraceArg::Kind::Int:
    Out += std::to_string(A.I);
    break;
  case TraceArg::Kind::Float:
    Out += jsonNumber(A.F);
    break;
  case TraceArg::Kind::Str:
    Out += jsonString(A.S);
    break;
  case TraceArg::Kind::Bool:
    Out += A.I ? "true" : "false";
    break;
  }
}

static void appendArgObject(std::string &Out,
                            const std::vector<TraceArg> &Args) {
  Out.push_back('{');
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out.push_back(',');
    Out += jsonString(Args[I].Key);
    Out.push_back(':');
    appendArgValue(Out, Args[I]);
  }
  Out.push_back('}');
}

/// One JSONL line (no trailing newline). The field set is the documented
/// schema: name/ph/args are the deterministic plane; ts_ns/dur_ns/tid/seq
/// the timing plane; meta (optional) the declared-nondeterministic plane.
static std::string eventToJsonl(const TraceEvent &E) {
  std::string Out = "{\"name\":" + jsonString(E.Name) + ",\"ph\":\"";
  Out.push_back(static_cast<char>(E.Phase));
  Out += "\",\"ts_ns\":" + std::to_string(E.TsNs);
  if (E.Phase == TracePhase::Complete)
    Out += ",\"dur_ns\":" + std::to_string(E.DurNs);
  Out += ",\"tid\":" + std::to_string(E.Tid) +
         ",\"seq\":" + std::to_string(E.Seq) + ",\"args\":";
  appendArgObject(Out, E.Args);
  if (!E.Meta.empty()) {
    Out += ",\"meta\":";
    appendArgObject(Out, E.Meta);
  }
  Out.push_back('}');
  return Out;
}

static std::string joinNums(const std::vector<double> &Xs) {
  std::string Out;
  for (size_t I = 0; I < Xs.size(); ++I) {
    if (I)
      Out.push_back(',');
    Out += jsonNumber(Xs[I]);
  }
  return Out;
}

static std::string joinCounts(const std::vector<uint64_t> &Xs) {
  std::string Out;
  for (size_t I = 0; I < Xs.size(); ++I) {
    if (I)
      Out.push_back(',');
    Out += std::to_string(Xs[I]);
  }
  return Out;
}

static void appendMetricsLines(std::string &Out,
                               const MetricsRegistry &Metrics) {
  MetricsRegistry::Snapshot S = Metrics.snapshot();
  for (const auto &[Name, V] : S.Counters) {
    TraceEvent E;
    E.Name = "metric";
    E.Phase = TracePhase::Counter;
    E.Args.push_back(TraceArg::ofStr("key", Name));
    E.Args.push_back(TraceArg::ofInt("value", static_cast<int64_t>(V)));
    Out += eventToJsonl(E);
    Out.push_back('\n');
  }
  for (const auto &[Name, V] : S.Gauges) {
    TraceEvent E;
    E.Name = "metric";
    E.Phase = TracePhase::Counter;
    E.Args.push_back(TraceArg::ofStr("key", Name));
    E.Args.push_back(TraceArg::ofFloat("value", V));
    Out += eventToJsonl(E);
    Out.push_back('\n');
  }
  for (const auto &[Name, H] : S.Histograms) {
    TraceEvent E;
    E.Name = "metric.hist";
    E.Phase = TracePhase::Counter;
    E.Args.push_back(TraceArg::ofStr("key", Name));
    E.Args.push_back(TraceArg::ofInt("count", static_cast<int64_t>(H.Count)));
    E.Args.push_back(TraceArg::ofFloat("sum", H.Sum));
    E.Args.push_back(TraceArg::ofStr("bounds", joinNums(H.Bounds)));
    E.Args.push_back(TraceArg::ofStr("counts", joinCounts(H.Counts)));
    Out += eventToJsonl(E);
    Out.push_back('\n');
  }
}

// File emission goes through the shared atomic+durable helper
// (support/AtomicFile.h, compiled into this bottom layer): a kill — or a
// power loss — mid-write leaves the previous file (or nothing), never a
// torn or renamed-but-empty JSONL.

bool TraceRecorder::writeJsonl(const std::string &Path,
                               const MetricsRegistry *Metrics) const {
  std::string Payload;
  for (const TraceEvent &E : snapshot()) {
    Payload += eventToJsonl(E);
    Payload.push_back('\n');
  }
  if (Metrics)
    appendMetricsLines(Payload, *Metrics);
  return writeFileAtomic(Path, Payload);
}

bool TraceRecorder::writeChromeTrace(const std::string &Path) const {
  std::string Payload = "{\"traceEvents\":[\n";
  bool First = true;
  for (const TraceEvent &E : snapshot()) {
    if (!First)
      Payload += ",\n";
    First = false;
    std::string Line = "{\"name\":" + jsonString(E.Name) + ",\"ph\":\"";
    Line.push_back(static_cast<char>(E.Phase));
    // Chrome traces use microsecond floats.
    Line += "\",\"pid\":1,\"tid\":" + std::to_string(E.Tid) +
            ",\"ts\":" + jsonNumber(static_cast<double>(E.TsNs) / 1000.0);
    if (E.Phase == TracePhase::Complete)
      Line += ",\"dur\":" + jsonNumber(static_cast<double>(E.DurNs) / 1000.0);
    Line += ",\"args\":";
    std::vector<TraceArg> All = E.Args;
    All.insert(All.end(), E.Meta.begin(), E.Meta.end());
    appendArgObject(Line, All);
    Line.push_back('}');
    Payload += Line;
  }
  Payload += "\n]}\n";
  return writeFileAtomic(Path, Payload);
}

} // namespace veriopt
