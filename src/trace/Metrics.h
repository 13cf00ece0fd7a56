//===- Metrics.h - Counters, gauges and histograms ---------------*- C++ -*-=//
//
// A process-wide registry of named instruments, absorbing the ad-hoc stats
// once hand-threaded through TrainLogEntry, PipelineArtifacts and
// VerifyCache::Counters into one queryable, serializable place. Instruments are created on first use and never
// removed (reset() zeroes values, so cached references stay valid — the
// intended hot-path idiom is a function-local
// `static Counter &C = MetricsRegistry::global().counter("...");`).
//
// Histograms use *fixed* bucket boundaries chosen at registration: the
// bucket layout is part of the documented schema (docs/OBSERVABILITY.md),
// so runs are comparable across PRs without re-binning.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_TRACE_METRICS_H
#define VERIOPT_TRACE_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace veriopt {

/// Monotonic event count.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-written value.
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0};
};

/// Fixed-boundary histogram. Bucket i counts observations x with
/// x <= Bounds[i] (and > Bounds[i-1]); one implicit overflow bucket counts
/// x > Bounds.back(). Boundary values therefore land in the bucket they
/// bound (inclusive upper edge), matching Prometheus `le` semantics.
class Histogram {
public:
  explicit Histogram(std::vector<double> Bounds);

  void observe(double X);

  const std::vector<double> &bounds() const { return Bounds; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> counts() const;
  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const;
  void reset();

private:
  std::vector<double> Bounds; ///< strictly increasing
  std::vector<std::atomic<uint64_t>> BucketCounts;
  std::atomic<uint64_t> N{0};
  std::atomic<double> Sum{0};
};

/// Common fixed layouts (documented in docs/OBSERVABILITY.md).
std::vector<double> latencyMsBounds();     ///< 0.01ms .. ~10s, x4 steps
std::vector<double> workUnitBounds();      ///< 1 .. 4^12 units, x4 steps

class MetricsRegistry {
public:
  /// The process-wide registry the instrumentation reports into.
  static MetricsRegistry &global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  /// \p Bounds is consulted only on first registration; later calls with
  /// the same name return the existing instrument unchanged.
  Histogram &histogram(const std::string &Name, std::vector<double> Bounds);

  /// Zero every instrument, keeping registrations (cached references stay
  /// valid). Tests and back-to-back bench configs use this.
  void reset();

  struct HistogramSnapshot {
    std::vector<double> Bounds;
    std::vector<uint64_t> Counts; ///< Bounds.size() + 1 entries
    uint64_t Count = 0;
    double Sum = 0;
  };
  struct Snapshot {
    std::map<std::string, uint64_t> Counters;
    std::map<std::string, double> Gauges;
    std::map<std::string, HistogramSnapshot> Histograms;
  };
  Snapshot snapshot() const;

  /// Serialize a snapshot as one stable, sorted JSON object — the shared
  /// BENCH_*.json schema the benches emit (see docs/OBSERVABILITY.md).
  static std::string toJson(const Snapshot &S);
  std::string toJson() const { return toJson(snapshot()); }

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

} // namespace veriopt

#endif // VERIOPT_TRACE_METRICS_H
