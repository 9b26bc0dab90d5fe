//===- perfbench/src/Bench.cpp - Metrics, memory and span helpers ---------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream Fields(Line.substr(6));
      double Kb = 0;
      Fields >> Kb;
      return Kb / 1024.0;
    }
  return 0;
}

double hostStealMs() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double Field = 0, Steal = 0;
  In >> Cpu;
  for (int I = 0; I != 8 && In >> Field; ++I)
    Steal = Field; // user nice system idle iowait irq softirq steal
  long Hz = sysconf(_SC_CLK_TCK);
  return Cpu == "cpu" && Hz > 0 ? Steal * 1e3 / double(Hz) : 0;
}

static std::string layerOf(const std::string &SpanName) {
  return SpanName.substr(0, SpanName.find('.'));
}

std::map<std::string, double> Tracer::selfMillisByLayer() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = msBetween(Spans[I].Start, Spans[I].End);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= msBetween(S.Start, S.End);
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[layerOf(Spans[I].Name)] += Self[I];
  return Out;
}

double Tracer::rootMillis() const {
  double Ms = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Ms += msBetween(S.Start, S.End);
  return Ms;
}

std::vector<double> Tracer::durations(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(msBetween(S.Start, S.End));
  return Out;
}

std::vector<double> Tracer::sumsPerId(const std::string &Name) const {
  std::map<uint64_t, double> ById;
  for (const Span &S : Spans)
    if (S.Name == Name)
      ById[S.Id] += msBetween(S.Start, S.End);
  std::vector<double> Out;
  for (const auto &[Id, Ms] : ById)
    Out.push_back(Ms);
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  Clock::time_point Origin = Spans.empty() ? Clock::now() : Spans[0].Start;
  auto Us = [Origin](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  std::fprintf(Out, "{\"spans\": [\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "  {\"index\": %zu, \"name\": \"%s\", \"id\": %llu, "
                 "\"parent\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 I, S.Name.c_str(), static_cast<unsigned long long>(S.Id),
                 static_cast<long long>(S.Parent), Us(S.Start), Us(S.End),
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(Out, "]}\n");
  return std::fclose(Out) == 0;
}

void addSelfTimes(const Tracer &T, Result &R) {
  double Wall = T.rootMillis();
  double Attributed = 0;
  double Unattributed = 0;
  for (const auto &[Layer, Ms] : T.selfMillisByLayer()) {
    if (Layer == "bench") {
      Unattributed += Ms;
      continue;
    }
    R.add(Layer + ".self_ms", Ms, "ms");
    Attributed += Ms;
  }
  double Share = Wall > 0 ? Attributed / Wall : 0;
  R.add("bench.traced_wall_ms", Wall, "ms");
  R.add("bench.unattributed_ms", Unattributed, "ms");
  R.add("bench.attributed_share", Share, "share");
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "reconciliation: layer self times %.1f ms of %.1f ms traced "
                "wall (%.2f%%), unattributed %.1f ms: %s",
                Attributed, Wall, 100 * Share, Unattributed,
                Share >= 0.95 ? "within 5%" : "NOT within 5%");
  R.note(Line);
}

void addTraceOverhead(const std::vector<double> &Untraced,
                      const std::vector<double> &Traced, const char *Unit,
                      Result &R) {
  double Off = median(Untraced), On = median(Traced);
  R.add("bench.latency_ms_p90", quantile(Untraced, 0.9), "ms");
  R.add("bench.trace_overhead_ms", On - Off, "ms");
  R.add("bench.trace_overhead_share", Off > 0 ? (On - Off) / Off : 0, "share");
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "tracing overhead: median %s %.4f ms traced (n=%zu) vs "
                "%.4f ms untraced (n=%zu)",
                Unit, On, Traced.size(), Off, Untraced.size());
  R.note(Line);
}

void addSetup(const std::vector<double> &SetupSeconds, Result &R) {
  R.add("setup_s", median(SetupSeconds), "s");
  char Line[96];
  std::snprintf(Line, sizeof(Line), "setup_s: median of %zu set-ups",
                SetupSeconds.size());
  R.note(Line);
}

void addEndToEnd(const std::vector<double> &LatencyMs, double Work,
                 double BusySeconds, double RssMb, const std::string &UnitName,
                 Result &R) {
  R.add("latency_ms_p50", median(LatencyMs), "ms");
  R.add("throughput_per_s", BusySeconds > 0 ? Work / BusySeconds : 0, "1/s");
  R.add("peak_rss_mb", RssMb, "MB");
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "latency: one %s, n=%zu samples, p90 %.4f ms; "
                "throughput over %.3f s busy",
                UnitName.c_str(), LatencyMs.size(), quantile(LatencyMs, 0.9),
                BusySeconds);
  R.note(Line);
}

} // namespace perfbench
