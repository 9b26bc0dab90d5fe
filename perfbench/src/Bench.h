//===- perfbench/src/Bench.h - Benchmark options, metrics, spans -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark driver: the run options, the metric
/// result every workload fills, percentile and memory helpers, and the
/// span tracer.
///
/// Spans are recorded by the benchmark around its own calls into each
/// layer's public functions, never inside the library. A span's name is
/// "<layer>.<call>"; its layer is the part before the first dot, so
/// "bench.*" spans (one per iteration, request window or run) hold the
/// benchmark's own time. A layer's self time is the summed duration of its
/// spans minus the part their child spans cover; the self times of all
/// layers then partition the traced wall time exactly, and "bench" self
/// time is what no layer call explains (bench.unattributed_ms).
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_PERFBENCH_BENCH_H
#define SEMCOMM_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Small inputs for the smoke test (fewer counted request windows,
  /// smaller transaction batches).
  bool Tiny = false;
  /// Invert the benchmark's expectation for the first unit of every
  /// iteration (the smoke test's proof that the gates can fail).
  bool CorruptExpectation = false;
  /// Where a traced run writes its spans (empty: not written).
  std::string TraceOut;
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload run hands back to main().
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// reconciliation).
  std::vector<std::string> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
};

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Times \p SetUp, which builds the workload's state from scratch, at
/// least 5 times and then until a second has passed (at most 200 times).
/// Returns the seconds of each; setup_s is their median.
template <typename Fn> std::vector<double> timeSetups(Fn &&SetUp) {
  std::vector<double> Seconds;
  Clock::time_point Start = Clock::now();
  while (Seconds.size() < 5 ||
         (msBetween(Start, Clock::now()) < 1e3 && Seconds.size() < 200)) {
    Clock::time_point T0 = Clock::now();
    SetUp();
    Seconds.push_back(msBetween(T0, Clock::now()) / 1e3);
  }
  return Seconds;
}

/// The \p Q quantile (0..1) of \p V by linear interpolation; 0 if empty.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Peak resident set size of this process so far (VmHWM), in MB.
double peakRssMb();

/// CPU time the hypervisor has taken from this machine's CPUs since boot
/// (the steal column of /proc/stat), in ms; 0 where it is not reported.
double hostStealMs();

/// Span recorder for the traced run. Single-threaded: spans are opened
/// and closed by the one client thread, so open spans form a stack.
class Tracer {
public:
  struct Span {
    std::string Name;
    uint64_t Id = 0;     ///< Iteration / window / run the span belongs to.
    int64_t Parent = -1; ///< Index of the enclosing span, -1 at the root.
    Clock::time_point Start, End;
  };

  /// Closes its span on destruction; inert when the tracer is off.
  class Scope {
  public:
    Scope(Tracer *T, size_t Index) : T(T), Index(Index) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() {
      if (T)
        T->close(Index);
    }

  private:
    Tracer *T;
    size_t Index;
  };

  bool on() const { return On; }
  void setOn(bool B) { On = B; }

  Scope span(const char *Name, uint64_t Id) {
    if (!On)
      return Scope(nullptr, 0);
    Span S;
    S.Name = Name;
    S.Id = Id;
    S.Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
    S.Start = Clock::now();
    Spans.push_back(std::move(S));
    Open.push_back(Spans.size() - 1);
    return Scope(this, Spans.size() - 1);
  }

  /// Self time per layer, in ms, over every recorded span.
  std::map<std::string, double> selfMillisByLayer() const;
  /// Summed duration of root spans, in ms (the traced wall time).
  double rootMillis() const;
  /// Durations, in ms, of every span named \p Name.
  std::vector<double> durations(const std::string &Name) const;
  /// Per-id sums of the durations of spans named \p Name.
  std::vector<double> sumsPerId(const std::string &Name) const;

  /// Writes the spans as JSON (times in microseconds from the first span).
  bool write(const std::string &Path) const;

private:
  void close(size_t Index) {
    Spans[Index].End = Clock::now();
    Open.pop_back();
  }

  bool On = false;
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// Adds the layer self times of \p T and the reconciliation against the
/// traced wall time to \p R: "<layer>.self_ms" for every layer that
/// recorded spans, bench.traced_wall_ms, bench.unattributed_ms and
/// bench.attributed_share.
void addSelfTimes(const Tracer &T, Result &R);

/// Adds bench.trace_overhead_ms / bench.trace_overhead_share: the median
/// workload unit (\p Unit names it in the note) with tracing on minus the
/// median with tracing off, both measured in this process. Also adds
/// bench.latency_ms_p90, the untraced unit's 90th percentile: the tail is
/// reported here rather than among the end-to-end metrics because on a
/// shared virtual machine its run-to-run spread exceeds any useful bound.
void addTraceOverhead(const std::vector<double> &Untraced,
                      const std::vector<double> &Traced, const char *Unit,
                      Result &R);

/// Adds setup_s: the median of the timed set-ups, in seconds.
void addSetup(const std::vector<double> &SetupSeconds, Result &R);

/// Adds the end-to-end median latency, throughput and peak memory,
/// plus a note with the sample count. \p RssMb is peakRssMb() read after
/// set-up and one pass over the workload's inputs, so that it does not
/// grow with the run's length or speed.
void addEndToEnd(const std::vector<double> &LatencyMs, double Work,
                 double BusySeconds, double RssMb, const std::string &UnitName,
                 Result &R);

// Workload entry points (one translation unit each).
Result runCatalogCertify(const Options &O);
Result runServeStream(const Options &O);
Result runTxn(const Options &O, bool HighContention);

} // namespace perfbench

#endif // SEMCOMM_PERFBENCH_BENCH_H
