//===- perfbench/src/ServeWorkload.cpp - serve_stream workload ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// A ShardedVerifyService (4 shards, 4 threads, pair routing, default
// ServiceConfig) serves a closed loop from one client: submit a window of
// 64 requests, drain, wait, repeat. Requests are drawn with the seed from
// the 510 catalog requests (170 pairs x 3 kinds): pairs Zipf-skewed with
// s = 1 over a fixed popularity ranking, kinds uniform. Every phase restarts
// the stream from the seed, so counts taken over its first windows repeat
// exactly.
//
// Set-up (repeated, median reported) builds the catalog and the service,
// which plans, encodes and imports the prefix, then serves one full
// catalog pass in one drain.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "DriverCore.h"
#include "service/ShardedVerifyService.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <unordered_map>

using namespace semcomm;
using namespace semcomm::service;

namespace perfbench {
namespace {

constexpr size_t Window = 64;
constexpr unsigned NumShards = 4;
/// Seed of the popularity ranking, fixed so that which pairs are hot (and
/// with it the cost mix) does not change with the run's seed.
constexpr uint32_t RankingSeed = 0x5EED;

std::string keyOf(const ServiceRequest &R) {
  return R.Family + "|" + R.Op1 + "|" + R.Op2 + "|" +
         std::to_string(static_cast<int>(R.Kind));
}

/// Unit-interval double from 53 random bits (library-independent).
double unit(std::mt19937_64 &Rng) {
  return static_cast<double>(Rng() >> 11) * 0x1.0p-53;
}

/// The seeded request stream, in universe indices (pair * 3 + kind).
class RequestStream {
public:
  RequestStream(size_t NumPairs, uint64_t Seed)
      : ByRank(NumPairs), Cdf(NumPairs), Rng(Seed) {
    std::iota(ByRank.begin(), ByRank.end(), 0);
    std::mt19937 RankRng(RankingSeed);
    for (size_t I = NumPairs; I > 1; --I)
      std::swap(ByRank[I - 1], ByRank[RankRng() % I]);
    for (size_t K = 0; K != NumPairs; ++K)
      Cdf[K] = Sum += 1.0 / static_cast<double>(K + 1);
  }

  uint32_t next() {
    double U = unit(Rng) * Sum;
    size_t Rank = std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    Rank = std::min(Rank, ByRank.size() - 1);
    uint32_t Kind = static_cast<uint32_t>(Rng() % 3);
    return ByRank[Rank] * 3 + Kind;
  }

private:
  std::vector<uint32_t> ByRank; ///< Pair index of each popularity rank.
  std::vector<double> Cdf;      ///< Cumulative Zipf weights by rank.
  double Sum = 0;
  std::mt19937_64 Rng;
};

} // namespace

Result runServeStream(const Options &O) {
  Result R;
  ShardedServiceConfig Cfg;
  Cfg.Shards = NumShards;
  Cfg.Threads = 4;
  Cfg.Route = RouteBy::Pair;

  std::string Error;
  std::vector<const Family *> Fams = driver::resolveFamilies({}, Error);

  std::unique_ptr<ExprFactory> F;
  std::unique_ptr<Catalog> C;
  std::unique_ptr<ShardedVerifyService> Svc;
  std::vector<ServiceRequest> Universe;
  std::unordered_map<std::string, uint32_t> IndexOf;

  // Serves one window and checks that every submitted request comes back
  // exactly once, verified (with CorruptExpectation the first request is
  // expected unverified). Returns the verdicts' failure count.
  std::vector<uint32_t> Want;
  auto check = [&](const uint32_t *Reqs, size_t N,
                   const std::vector<ServiceVerdict> &Got) {
    Want.assign(Universe.size(), 0);
    for (size_t I = 0; I != N; ++I)
      ++Want[Reqs[I]];
    uint64_t Failed = 0;
    bool CorruptPending = O.CorruptExpectation;
    for (const ServiceVerdict &V : Got) {
      auto It = IndexOf.find(keyOf(V.Req));
      if (It == IndexOf.end() || Want[It->second] == 0) {
        ++Failed;
        continue;
      }
      --Want[It->second];
      bool Expected = true;
      if (CorruptPending && It->second == Reqs[0]) {
        Expected = false;
        CorruptPending = false;
      }
      Failed += V.verified() != Expected;
    }
    for (uint32_t W : Want)
      Failed += W;
    return Failed;
  };

  std::vector<double> SetupSeconds = timeSetups([&] {
    Svc.reset();
    C.reset();
    F = std::make_unique<ExprFactory>();
    C = std::make_unique<Catalog>(*F);
    Svc = std::make_unique<ShardedVerifyService>(*C, Fams, Cfg);
    if (Universe.empty()) {
      for (const Family *Fam : Fams)
        for (const ConditionEntry &E : C->entries(*Fam))
          for (ConditionKind K : {ConditionKind::Before,
                                  ConditionKind::Between,
                                  ConditionKind::After})
            Universe.push_back({Fam->Name, E.op1().Name, E.op2().Name, K});
      for (uint32_t I = 0; I != Universe.size(); ++I)
        IndexOf[keyOf(Universe[I])] = I;
    }
    for (const ServiceRequest &Req : Universe)
      Svc->submit(Req, Error);
    std::vector<ServiceVerdict> Warm = Svc->drain();
    std::vector<uint32_t> All(Universe.size());
    std::iota(All.begin(), All.end(), 0);
    R.Attempted += All.size();
    R.Failed += check(All.data(), All.size(), Warm);
  });

  // Windows every phase serves at least, and over which the deterministic
  // counts and the memory reading are taken.
  const size_t CountWindows = O.Tiny ? 4 : 128;

  Tracer T;
  double RssMb = 0;
  struct DrainStats {
    std::vector<double> BusyMs = std::vector<double>(NumShards);
    std::vector<double> CountedRequests = std::vector<double>(NumShards);
    double CriticalMs = 0;
    uint64_t Drains = 0, TotalCounted = 0, CountedReuses = 0;
    uint64_t MaxCountedCompactions = 0, MaxCountedReleased = 0;
  } D;

  // One closed-loop phase of at least CountWindows windows; returns
  // per-request latencies (ms) and adds the summed window time to
  // BusySeconds.
  auto phase = [&](double Seconds, double &BusySeconds) {
    std::vector<double> Lat;
    auto PhaseSpan = T.span("bench.traced_phase", 0);
    ShardedServiceStats Prev, CountStart;
    if (T.on()) {
      auto S = T.span("service.stats", 0);
      Svc->resetPeakStats();
      Prev = CountStart = Svc->stats();
    }
    RequestStream Gen(Universe.size() / 3, O.Seed);
    uint32_t Reqs[Window];
    std::vector<Clock::time_point> SubmitAt(Window);
    Clock::time_point Start = Clock::now();
    for (uint64_t W = 0; W < CountWindows ||
                         msBetween(Start, Clock::now()) < Seconds * 1e3;
         ++W) {
      auto WinSpan = T.span("bench.window", W);
      for (uint32_t &Req : Reqs)
        Req = Gen.next();
      Clock::time_point W0 = Clock::now();
      for (size_t I = 0; I != Window; ++I) {
        auto S = T.span("service.submit", W);
        SubmitAt[I] = Clock::now();
        if (!Svc->submit(Universe[Reqs[I]], Error))
          ++R.Failed;
      }
      std::vector<ServiceVerdict> Got;
      {
        auto S = T.span("service.drain", W);
        Got = Svc->drain();
      }
      Clock::time_point End = Clock::now();
      for (Clock::time_point At : SubmitAt)
        Lat.push_back(msBetween(At, End));
      BusySeconds += msBetween(W0, End) / 1e3;
      R.Attempted += Window;
      R.Failed += check(Reqs, Window, Got);
      if (W + 1 == CountWindows)
        RssMb = peakRssMb();
      if (!T.on())
        continue;

      // Per-drain deltas of every shard's own accounting.
      ShardedServiceStats Now;
      {
        auto S = T.span("service.stats", W);
        Now = Svc->stats();
      }
      double Busiest = 0;
      for (unsigned Sh = 0; Sh != NumShards; ++Sh) {
        double Busy = Now.Shards[Sh].Stats.ServeMillis -
                      Prev.Shards[Sh].Stats.ServeMillis;
        D.BusyMs[Sh] += Busy;
        Busiest = std::max(Busiest, Busy);
      }
      D.CriticalMs += Busiest;
      ++D.Drains;
      Prev = std::move(Now);
      if (W + 1 == CountWindows) {
        for (unsigned Sh = 0; Sh != NumShards; ++Sh) {
          const ServiceStats &A = CountStart.Shards[Sh].Stats;
          const ServiceStats &B = Prev.Shards[Sh].Stats;
          D.CountedRequests[Sh] = double(B.Requests - A.Requests);
          D.TotalCounted += B.Requests - A.Requests;
          D.CountedReuses += B.BatchedReuses - A.BatchedReuses;
          D.MaxCountedCompactions = std::max(
              D.MaxCountedCompactions,
              B.Session.BridgeCompactions - A.Session.BridgeCompactions);
          D.MaxCountedReleased = std::max(
              D.MaxCountedReleased,
              B.Session.ReleasedSelectors - A.Session.ReleasedSelectors);
        }
      }
    }
    return Lat;
  };

  if (!O.Trace) {
    double Busy = 0;
    std::vector<double> Lat = phase(O.Seconds, Busy);
    addSetup(SetupSeconds, R);
    addEndToEnd(Lat, double(Lat.size()), Busy, RssMb,
                "request, from submit until the drain that returns it", R);
    return R;
  }

  double UntracedBusy = 0, TracedBusy = 0;
  std::vector<double> Untraced = phase(O.Seconds / 2, UntracedBusy);
  T.setOn(true);
  std::vector<double> Traced = phase(O.Seconds / 2, TracedBusy);
  T.setOn(false);

  addSelfTimes(T, R);
  addTraceOverhead(Untraced, Traced, "request latency", R);
  R.add("service.req_latency_ms_p99", quantile(Untraced, 0.99), "ms");

  std::vector<double> Submits = T.durations("service.submit");
  double SubmitMs = std::accumulate(Submits.begin(), Submits.end(), 0.0);
  R.add("service.submit_us",
        Submits.empty() ? 0 : 1e3 * SubmitMs / double(Submits.size()), "us");
  std::vector<double> Drains = T.durations("service.drain");
  double DrainMs = std::accumulate(Drains.begin(), Drains.end(), 0.0);
  R.add("service.drain_ms_p50", median(Drains), "ms");
  R.add("service.drain_ms_p99", quantile(Drains, 0.99), "ms");

  double TotalBusy = 0, MaxBusy = 0;
  for (unsigned Sh = 0; Sh != NumShards; ++Sh) {
    std::string S = std::to_string(Sh);
    R.add("service.shard_busy_ms." + S, D.BusyMs[Sh] / double(D.Drains), "ms");
    R.add("service.shard_requests." + S, D.CountedRequests[Sh], "count");
    TotalBusy += D.BusyMs[Sh];
    MaxBusy = std::max(MaxBusy, D.BusyMs[Sh]);
  }
  R.add("service.shard_imbalance",
        TotalBusy > 0 ? MaxBusy / (TotalBusy / NumShards) : 0, "ratio");
  R.add("service.critical_path_share",
        DrainMs > 0 ? D.CriticalMs / DrainMs : 0, "share");
  R.add("service.batch_reuse_share",
        D.TotalCounted ? double(D.CountedReuses) / double(D.TotalCounted) : 0,
        "share");

  ShardedServiceStats End = Svc->stats();
  uint64_t PeakVars = 0, PeakClauses = 0;
  for (const ShardStats &Sh : End.Shards) {
    PeakVars = std::max(PeakVars, Sh.Stats.Session.PeakLiveVars);
    PeakClauses = std::max(PeakClauses, Sh.Stats.Session.PeakLiveClauses);
  }
  R.add("smt.bridge_compactions", double(D.MaxCountedCompactions), "count");
  R.add("smt.released_selectors", double(D.MaxCountedReleased), "count");
  R.add("smt.peak_live_vars", double(PeakVars), "count");
  R.add("smt.peak_live_clauses", double(PeakClauses), "count");
  R.add("service.plan_ms", End.PlanMillis, "ms");
  R.add("service.warmup_scratch_ms", End.WarmupScratchMillis, "ms");
  R.add("service.warmup_import_ms", End.WarmupImportMillisAvg, "ms");
  R.note("serve: " + std::to_string(D.Drains) + " traced drains of " +
         std::to_string(Window) + " requests; counts over the first " +
         std::to_string(CountWindows) + " windows");

  if (!O.TraceOut.empty() && !T.write(O.TraceOut))
    R.note("could not write " + O.TraceOut);
  return R;
}

} // namespace perfbench
