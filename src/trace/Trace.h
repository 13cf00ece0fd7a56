//===- Trace.h - Structured tracing for the training runtime -----*- C++ -*-=//
//
// A low-overhead, thread-safe structured observability layer. The process
// owns one TraceRecorder; instrumented code emits typed *spans* (timed
// regions: TRACE_SPAN("verify.encode")) and *instant* events into
// per-thread buffers, so the hot path never contends on a shared lock. Disabled tracing costs one relaxed atomic load per site and
// never touches the clock, preserving the < 2% overhead budget of the
// rollout-scoring path.
//
// Event content is split into two planes:
//  - Args: deterministic payload (ids, verdicts, deterministic counts).
//    For a fixed seed, the *multiset* of (Name, Phase, Args) is identical
//    at any thread count — asserted by TraceTest.
//  - Meta + timing (TsNs/DurNs/Tid/Seq): wall clock and scheduling
//    identity, isolated in separate fields so two traces of the same run
//    diff cleanly (`diff <(jq 'del(.ts_ns,.dur_ns,.tid,.seq,.meta)' a) ...`).
//
// Sinks: a JSONL writer (one event per line, atomic write-then-rename, the
// schema of docs/OBSERVABILITY.md) and a Chrome about:tracing / Perfetto
// compatible exporter.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TRACE_TRACE_H
#define VERIOPT_TRACE_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace veriopt {

class MetricsRegistry;

/// One typed key/value argument of an event. Kept scalar on purpose: flat
/// args keep the JSONL schema trivially diffable and validatable.
struct TraceArg {
  enum class Kind { Int, Float, Str, Bool };
  std::string Key;
  Kind K = Kind::Int;
  int64_t I = 0;
  double F = 0;
  std::string S;

  static TraceArg ofInt(std::string Key, int64_t V) {
    TraceArg A;
    A.Key = std::move(Key);
    A.K = Kind::Int;
    A.I = V;
    return A;
  }
  static TraceArg ofFloat(std::string Key, double V) {
    TraceArg A;
    A.Key = std::move(Key);
    A.K = Kind::Float;
    A.F = V;
    return A;
  }
  static TraceArg ofStr(std::string Key, std::string V) {
    TraceArg A;
    A.Key = std::move(Key);
    A.K = Kind::Str;
    A.S = std::move(V);
    return A;
  }
  static TraceArg ofBool(std::string Key, bool V) {
    TraceArg A;
    A.Key = std::move(Key);
    A.K = Kind::Bool;
    A.I = V ? 1 : 0;
    return A;
  }

  bool operator==(const TraceArg &O) const {
    return Key == O.Key && K == O.K && I == O.I && F == O.F && S == O.S;
  }
};

/// Event phases, mirroring the Chrome trace-event vocabulary.
enum class TracePhase : char {
  Complete = 'X', ///< a span: TsNs..TsNs+DurNs
  Counter = 'C',  ///< a sampled counter value
  Instant = 'i',  ///< a point event
};

struct TraceEvent {
  std::string Name;
  TracePhase Phase = TracePhase::Instant;
  /// Deterministic payload: part of the cross-run / cross-thread-count
  /// equality contract.
  std::vector<TraceArg> Args;
  /// Nondeterministic payload (wall-clock-derived rates etc.), excluded
  /// from the determinism contract but still schema-checked.
  std::vector<TraceArg> Meta;

  // Timing/identity plane (never part of the determinism contract).
  uint64_t TsNs = 0;  ///< steady-clock ns since recorder epoch
  uint64_t DurNs = 0; ///< span duration (Complete events only)
  uint32_t Tid = 0;   ///< logical thread id (registration order)
  uint64_t Seq = 0;   ///< per-thread sequence number
};

/// Process-wide recorder. All methods are thread-safe; record() is
/// contention-free (each thread appends to its own buffer; the buffer lock
/// is only ever contested by snapshot/clear).
class TraceRecorder {
public:
  static TraceRecorder &instance();

  /// Enabling resets the epoch so TsNs starts near 0 for the run.
  void enable();
  void disable();
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Append one event (fills Tid/Seq; TsNs must be set by the caller via
  /// nowNs(), or is left 0 for purely logical events). No-op when disabled.
  void record(TraceEvent E);

  /// Convenience emitter; a no-op when disabled.
  void instant(std::string Name, std::vector<TraceArg> Args = {});

  /// Steady-clock ns since the recorder epoch.
  uint64_t nowNs() const;

  /// Snapshot all events recorded so far, ordered by (Tid, Seq). Does not
  /// clear.
  std::vector<TraceEvent> snapshot() const;

  /// Drop all recorded events (buffers stay registered).
  void clear();

  size_t eventCount() const;

  /// Write all events as JSONL (docs/OBSERVABILITY.md schema), via atomic
  /// write-then-rename: a crash or failure leaves either the old file or
  /// the complete new one, never a torn prefix. A non-null \p Metrics
  /// appends one "metric" / "metric.hist" line per registered instrument.
  /// Returns false (old file intact) on any I/O error.
  bool writeJsonl(const std::string &Path,
                  const MetricsRegistry *Metrics = nullptr) const;

  /// Write a Chrome about:tracing / Perfetto compatible JSON array
  /// (chrome://tracing "Load" or https://ui.perfetto.dev). Timestamps are
  /// converted to microseconds as the format requires.
  bool writeChromeTrace(const std::string &Path) const;

private:
  TraceRecorder() = default;

  struct ThreadBuf {
    mutable std::mutex M; ///< uncontended except during snapshot/clear
    std::vector<TraceEvent> Events;
    uint64_t NextSeq = 0;
    uint32_t Tid = 0;
  };
  ThreadBuf &localBuf();

  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> EpochNs{0};

  mutable std::mutex RegistryM;
  std::vector<std::shared_ptr<ThreadBuf>> Buffers; ///< outlive their threads
  uint32_t NextTid = 0;
};

/// RAII span. Construct at region entry; args added before destruction land
/// on the Complete event. When tracing is disabled, construction is one
/// relaxed load and no clock is read.
class TraceSpan {
public:
  explicit TraceSpan(const char *Name) {
    TraceRecorder &R = TraceRecorder::instance();
    if (R.enabled()) {
      Active = true;
      E.Name = Name;
      E.Phase = TracePhase::Complete;
      E.TsNs = R.nowNs();
    }
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  ~TraceSpan() {
    if (!Active)
      return;
    TraceRecorder &R = TraceRecorder::instance();
    E.DurNs = R.nowNs() - E.TsNs;
    R.record(std::move(E));
  }

  bool active() const { return Active; }
  void arg(TraceArg A) {
    if (Active)
      E.Args.push_back(std::move(A));
  }
  void meta(TraceArg A) {
    if (Active)
      E.Meta.push_back(std::move(A));
  }

private:
  bool Active = false;
  TraceEvent E;
};

#define VERIOPT_TRACE_CAT2(A, B) A##B
#define VERIOPT_TRACE_CAT(A, B) VERIOPT_TRACE_CAT2(A, B)
/// Anonymous span covering the rest of the enclosing scope.
#define TRACE_SPAN(NAME)                                                       \
  ::veriopt::TraceSpan VERIOPT_TRACE_CAT(TraceSpan_, __LINE__)(NAME)

} // namespace veriopt

#endif // VERIOPT_TRACE_TRACE_H
