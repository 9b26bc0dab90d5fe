//===- service/ShardedVerifyService.cpp - Sharded serving front-end ----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "service/ShardedVerifyService.h"

#include "support/Timing.h"

#include <algorithm>
#include <numeric>
#include <thread>

using namespace semcomm;
using namespace semcomm::service;

namespace {

/// The placement's cost model, in expression nodes (MethodPlan::Nodes).
/// Fitted on 14k pair groups of a serve_stream-like Zipf stream served one
/// at a time from built plans (Release, 4-CPU x86-64 host, two runs): a
/// group's serve time is about 0.12 ms + 0.0003 ms per node of its
/// requests' two methods (r = 0.84-0.88; the request count alone gives
/// r = 0.80-0.84). The fixed part — opening, prefixing and retiring the
/// pair scope — is GroupNodes.
constexpr uint64_t GroupNodes = 400;

/// What one method of a pair with no plan yet costs: its family's mean
/// MethodPlan::Nodes plus a sixth of the time planPair takes for the
/// family's pairs, in nodes (a group of all three kinds, as the first
/// catalog pass has, then pays the plan once).
uint64_t unplannedMethodNodes(StateKind Kind) {
  switch (Kind) {
  case StateKind::Counter:
    return 20;
  case StateKind::Set:
    return 40;
  case StateKind::Map:
    return 75;
  case StateKind::Seq:
    return 185;
  }
  return 0;
}

uint64_t groupCost(const PairGroup &G, StateKind Kind) {
  uint64_t Cost = GroupNodes;
  for (const ResolvedRequest *RR : G.Reqs) {
    if (!*G.Plan) {
      Cost += 2 * unplannedMethodNodes(Kind);
      continue;
    }
    size_t Sound = 2 * static_cast<size_t>(RR->Req.Kind);
    const std::vector<MethodPlan> &Ms = (*G.Plan)->Methods;
    Cost += Ms[Sound].Nodes + Ms[Sound + 1].Nodes;
  }
  return Cost;
}

} // namespace

ShardedVerifyService::ShardedVerifyService(
    const Catalog &C, const std::vector<const Family *> &Fams,
    const ShardedServiceConfig &Config)
    : C(C), Fams(Fams), Cfg(Config) {
  Cfg.Shards = std::max(Cfg.Shards, 1u);
  Cfg.Threads = std::max(Cfg.Threads, 1u);

  Stopwatch PlanTimer;
  {
    SymbolicEngine Planner(C.factory(), Cfg.Base.SeqLenBound,
                           Cfg.Base.ConflictBudget,
                           SolveMode::SharedCatalog);
    Plan = Planner.planCatalog(C, Fams);
  }
  PlanMillis = PlanTimer.millis();

  Shards.reserve(Cfg.Shards);
  WarmupMillis.resize(Cfg.Shards, 0);
  for (unsigned S = 0; S != Cfg.Shards; ++S) {
    Stopwatch WarmTimer;
    Shards.push_back(
        std::make_unique<VerifyService>(C, Fams, Cfg.Base, &Plan));
    WarmupMillis[S] = WarmTimer.millis();
  }

  // The caller drains too, and a worker beyond the shard count would
  // never get a shard.
  unsigned Workers = std::min(Cfg.Threads, Cfg.Shards) - 1;
  if (Workers > 0)
    Pool = std::make_unique<ThreadPool>(Workers);
}

bool ShardedVerifyService::submit(const ServiceRequest &R,
                                  std::string &Error) {
  // Every shard serves the same families over the same catalog, so
  // shard 0 resolves for all of them.
  ResolvedRequest RR;
  if (!Shards.front()->resolve(R, RR, Error))
    return false;
  Pending.push_back(std::move(RR));
  Error.clear();
  return true;
}

std::vector<unsigned>
ShardedVerifyService::place(const std::vector<PairGroup> &Groups) const {
  std::vector<uint64_t> Cost(Groups.size());
  for (size_t G = 0; G != Groups.size(); ++G)
    Cost[G] = groupCost(Groups[G], Fams[Groups[G].FamIdx]->Kind);
  // Largest first, the earlier group first among equals; each onto the
  // least-loaded shard, the lower id among equals.
  std::vector<size_t> Order(Groups.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(),
                   [&Cost](size_t A, size_t B) { return Cost[A] > Cost[B]; });
  std::vector<uint64_t> Load(Shards.size(), 0);
  std::vector<unsigned> ShardOf(Groups.size());
  for (size_t G : Order) {
    auto Least = std::min_element(Load.begin(), Load.end());
    *Least += Cost[G];
    ShardOf[G] = static_cast<unsigned>(Least - Load.begin());
  }
  return ShardOf;
}

std::vector<ServiceVerdict> ShardedVerifyService::drain() {
  std::vector<ServiceVerdict> Out(Pending.size());
  if (Pending.empty())
    return Out;
  Stopwatch Timer;
  ++Drains;

  // Before the fan-out: every group's plan-store entry exists, so the
  // shards only ever write the entries of their own groups.
  std::vector<PairGroup> Groups = groupByPair(Pending, &Plans);
  std::vector<unsigned> ShardOf = place(Groups);
  std::vector<std::vector<const PairGroup *>> Placed(Shards.size());
  for (size_t G = 0; G != Groups.size(); ++G)
    Placed[ShardOf[G]].push_back(&Groups[G]);

  // Thread T drains shards T, T + Threads, ...; the caller is thread 0,
  // and a pool thread whose shards got no group is not woken.
  size_t Threads = Pool ? Pool->threadCount() + 1 : 1;
  std::vector<double> Busy(Shards.size(), 0);
  auto DrainStripe = [&](size_t T) {
    for (size_t S = T; S < Shards.size(); S += Threads)
      Busy[S] = Shards[S]->serve(Placed[S], Out.data());
  };
  for (size_t T = 1; T < Threads; ++T)
    for (size_t S = T; S < Shards.size(); S += Threads)
      if (!Placed[S].empty()) {
        Pool->submit([&DrainStripe, T] { DrainStripe(T); });
        break;
      }
  DrainStripe(0);
  if (Pool)
    Pool->wait();

  Pending.clear();
  VerdictLog.insert(VerdictLog.end(), Out.begin(), Out.end());
  double Wall = Timer.millis();
  ServeMillis += Wall;
  DrainWallMillis += Wall;
  CriticalMillis += *std::max_element(Busy.begin(), Busy.end());
  return Out;
}

ShardedServiceStats ShardedVerifyService::stats() const {
  ShardedServiceStats S;
  S.Requests = VerdictLog.size();
  S.Drains = Drains;
  S.ServeMillis = ServeMillis;
  S.PlanMillis = PlanMillis;
  S.WarmupScratchMillis = PlanMillis + WarmupMillis[0];
  double LaterSum = 0;
  for (size_t I = 0; I != Shards.size(); ++I) {
    S.Shards.push_back({Shards[I]->stats(), WarmupMillis[I]});
    if (I > 0)
      LaterSum += WarmupMillis[I];
  }
  if (Shards.size() > 1)
    S.WarmupImportMillisAvg =
        LaterSum / static_cast<double>(Shards.size() - 1);
  if (DrainWallMillis > 0)
    S.CriticalPathShare = CriticalMillis / DrainWallMillis;
  return S;
}

json::Value ShardedVerifyService::statsJson() const {
  ShardedServiceStats SS = stats();
  json::Value Sh = json::Value::object();
  Sh.set("shards",
         json::Value::integer(static_cast<int64_t>(SS.Shards.size())));
  // Threads that drain: the caller's and the pool's.
  Sh.set("threads", json::Value::integer(static_cast<int64_t>(
                        std::min(Cfg.Threads, Cfg.Shards))));
  // Hardware context for the thread-scaling numbers: on a 1-CPU
  // container the req/s ratio across thread counts is pinned at ~1x no
  // matter how well the drain parallelizes.
  Sh.set("cpus", json::Value::integer(static_cast<int64_t>(
                     std::thread::hardware_concurrency())));
  Sh.set("plan_millis", json::Value::number(SS.PlanMillis));
  Sh.set("warmup_scratch_millis",
         json::Value::number(SS.WarmupScratchMillis));
  Sh.set("warmup_import_millis_avg",
         json::Value::number(SS.WarmupImportMillisAvg));
  Sh.set("critical_path_share", json::Value::number(SS.CriticalPathShare));
  json::Value ShardArr = json::Value::array();
  for (const ShardStats &St : SS.Shards) {
    json::Value Row = json::Value::object();
    Row.set("requests", json::Value::integer(
                            static_cast<int64_t>(St.Stats.Requests)));
    Row.set("busy_millis", json::Value::number(St.Stats.ServeMillis));
    Row.set("warmup_millis", json::Value::number(St.WarmupMillis));
    Row.set("plans_built", json::Value::integer(
                               static_cast<int64_t>(St.Stats.PlansBuilt)));
    Row.set("pair_plan_millis",
            json::Value::number(St.Stats.PairPlanMillis));
    Row.set("peak_live_vars", json::Value::integer(static_cast<int64_t>(
                                  St.Stats.Session.PeakLiveVars)));
    Row.set("peak_live_clauses", json::Value::integer(static_cast<int64_t>(
                                     St.Stats.Session.PeakLiveClauses)));
    ShardArr.push(std::move(Row));
  }
  Sh.set("per_shard", std::move(ShardArr));
  return Sh;
}

void ShardedVerifyService::resetPeakStats() {
  for (const auto &S : Shards)
    S->resetPeakStats();
}

proof::CertifySummary ShardedVerifyService::finishCertification() {
  proof::CertifySummary Out;
  for (const auto &S : Shards)
    Out.fold(S->finishCertification());
  return Out;
}

json::Value ShardedVerifyService::snapshot() const {
  json::Value V = json::Value::object();
  V.set("schema", json::Value::integer(2));
  V.set("shards", json::Value::integer(static_cast<int64_t>(Shards.size())));
  V.set("route", json::Value::string("pair"));
  V.set("drains", json::Value::integer(static_cast<int64_t>(Drains)));
  V.set("serve_millis", json::Value::number(ServeMillis));

  json::Value Log = json::Value::array();
  for (const ServiceVerdict &SV : VerdictLog)
    Log.push(snapshotLogRow(SV));
  V.set("log", std::move(Log));

  json::Value ShardSnaps = json::Value::array();
  for (const auto &S : Shards)
    ShardSnaps.push(S->snapshot());
  V.set("shard_snapshots", std::move(ShardSnaps));
  return V;
}

bool ShardedVerifyService::restore(const json::Value &V,
                                   std::string &Error) {
  if (!VerdictLog.empty() || Drains != 0 || pending() != 0) {
    Error = "restore requires a fresh service (no served or pending "
            "requests)";
    return false;
  }
  const json::Value *Schema = V.find("schema");
  if (Schema && Schema->isInt() && Schema->asInt() == 1) {
    Error = "snapshot schema 1 is a single-session image, which no longer "
            "restores; only sharded images (schema 2) do";
    return false;
  }
  if (!Schema || !Schema->isInt() || Schema->asInt() != 2) {
    Error = "unsupported sharded snapshot schema";
    return false;
  }
  const json::Value *NumShards = V.find("shards");
  if (!NumShards || !NumShards->isInt() ||
      NumShards->asInt() != static_cast<int64_t>(Shards.size())) {
    Error = "snapshot config field 'shards' is " +
            std::string(NumShards && NumShards->isInt()
                            ? std::to_string(NumShards->asInt())
                            : "missing") +
            " but the live service has " + std::to_string(Shards.size());
    return false;
  }
  // Images written with the family route, which no longer exists, are
  // refused by name.
  const json::Value *Route = V.find("route");
  if (!Route || !Route->isString() || Route->asString() != "pair") {
    Error = "snapshot config field 'route' does not match the live "
            "service's ('pair')";
    return false;
  }

  uint64_t RDrains;
  double RServeMillis;
  if (!readSnapshotCounter(V, "drains", RDrains, Error) ||
      !readSnapshotMillis(V, RServeMillis, Error))
    return false;

  // The shard images (config, family set, counters) come before the log,
  // so an image of another configuration is refused for that, not for
  // its first log row.
  const json::Value *ShardSnaps = V.find("shard_snapshots");
  if (!ShardSnaps || !ShardSnaps->isArray() ||
      ShardSnaps->size() != Shards.size()) {
    Error = "snapshot has no per-shard snapshots";
    return false;
  }
  std::vector<VerifyService::SnapshotImage> Images(Shards.size());
  for (size_t S = 0; S != Shards.size(); ++S)
    if (!Shards[S]->readSnapshot(ShardSnaps->at(S), Images[S], Error)) {
      Error = "shard " + std::to_string(S) + ": " + Error;
      return false;
    }

  const json::Value *Log = V.find("log");
  if (!Log || !Log->isArray()) {
    Error = "snapshot has no verdict log";
    return false;
  }
  // Every shard serves the same families over the same catalog, so
  // shard 0 can check any row.
  std::vector<ServiceVerdict> Restored;
  for (size_t I = 0; I != Log->size(); ++I) {
    ServiceVerdict SV;
    if (!Shards.front()->readLogRow(Log->at(I), I, SV, Error))
      return false;
    Restored.push_back(std::move(SV));
  }

  // A shard counts each request it serves once, as a pair group or as a
  // reuse of one, and discharges its two testing methods: counters that
  // contradict each other or the log are refused before any shard
  // installs its image.
  uint64_t Counted = 0;
  for (VerifyService::SnapshotImage &Img : Images) {
    Img.Requests = Img.PairGroups + Img.BatchedReuses;
    Counted += Img.Requests;
  }
  if (Counted != Restored.size()) {
    Error = "snapshot fields 'pair_groups' + 'batched_reuses' of the "
            "shards count " +
            std::to_string(Counted) + " requests, but the log has " +
            std::to_string(Restored.size()) + " rows";
    return false;
  }
  for (size_t S = 0; S != Shards.size(); ++S) {
    const VerifyService::SnapshotImage &Img = Images[S];
    if (Img.MethodsDischarged != 2 * Img.Requests) {
      Error = "shard " + std::to_string(S) +
              ": snapshot field 'methods_discharged' is " +
              std::to_string(Img.MethodsDischarged) +
              ", but its 'pair_groups' + 'batched_reuses' count " +
              std::to_string(Img.Requests) + " requests (two methods each)";
      return false;
    }
  }

  for (size_t S = 0; S != Shards.size(); ++S)
    Shards[S]->install(Images[S]);
  VerdictLog = std::move(Restored);
  Drains = RDrains;
  ServeMillis = RServeMillis;
  Error.clear();
  return true;
}
