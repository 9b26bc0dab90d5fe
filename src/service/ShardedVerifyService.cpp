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

using namespace semcomm;
using namespace semcomm::service;

namespace {

/// Stable 64-bit FNV-1a — the routing hash must not vary across runs,
/// platforms, or standard libraries.
uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (char Ch : S) {
    H ^= static_cast<unsigned char>(Ch);
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

ShardedVerifyService::ShardedVerifyService(
    const Catalog &C, const std::vector<const Family *> &Fams,
    const ShardedServiceConfig &Config)
    : C(C), Fams(Fams), Cfg(Config) {
  if (Cfg.Shards == 0)
    Cfg.Shards = 1;

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

  // A pool worker beyond the shard count would never get a drain task,
  // and with one worker a drain would only hop to it.
  unsigned Workers = std::min(Cfg.Threads, Cfg.Shards);
  if (Workers > 1)
    Pool = std::make_unique<ThreadPool>(Workers);
}

size_t ShardedVerifyService::shardOf(const ServiceRequest &R) const {
  uint64_t H = fnv1a(R.Op1 + "," + R.Op2,
                     fnv1a(R.Family) ^ 0x9e3779b97f4a7c15ull);
  return static_cast<size_t>(H % Shards.size());
}

bool ShardedVerifyService::submit(const ServiceRequest &R,
                                  std::string &Error) {
  return Shards[shardOf(R)]->submit(R, Error);
}

size_t ShardedVerifyService::pending() const {
  size_t N = 0;
  for (const auto &S : Shards)
    N += S->pending();
  return N;
}

std::vector<ServiceVerdict> ShardedVerifyService::drain() {
  Stopwatch Timer;
  std::vector<ServiceVerdict> Combined;
  if (pending() == 0)
    return Combined;
  ++Drains;

  std::vector<std::vector<ServiceVerdict>> PerShard(Shards.size());
  if (Pool) {
    for (size_t S = 0; S != Shards.size(); ++S)
      Pool->submit([this, &PerShard, S] { PerShard[S] = Shards[S]->drain(); });
    Pool->wait();
  } else {
    for (size_t S = 0; S != Shards.size(); ++S)
      PerShard[S] = Shards[S]->drain();
  }

  for (std::vector<ServiceVerdict> &Group : PerShard)
    for (ServiceVerdict &V : Group) {
      Combined.push_back(V);
      VerdictLog.push_back(std::move(V));
    }
  ServeMillis += Timer.millis();
  return Combined;
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
  return S;
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
  // shard 0 can check any row; the row's route gives its shard's count.
  std::vector<ServiceVerdict> Restored;
  for (size_t I = 0; I != Log->size(); ++I) {
    ServiceVerdict SV;
    if (!Shards.front()->readLogRow(Log->at(I), I, SV, Error))
      return false;
    ++Images[shardOf(SV.Req)].Requests;
    Restored.push_back(std::move(SV));
  }

  // A shard counts each request it serves once, as a pair group or as a
  // reuse of one, and discharges its two testing methods: counters that
  // contradict the requests the log routes to the shard are refused
  // before any shard installs its image.
  for (size_t S = 0; S != Shards.size(); ++S) {
    const VerifyService::SnapshotImage &Img = Images[S];
    std::string Where = "shard " + std::to_string(S) + ": snapshot ";
    std::string Routed = "the log routes " + std::to_string(Img.Requests) +
                         " requests to this shard";
    if (Img.PairGroups + Img.BatchedReuses != Img.Requests) {
      Error = Where + "fields 'pair_groups' + 'batched_reuses' are " +
              std::to_string(Img.PairGroups) + " + " +
              std::to_string(Img.BatchedReuses) + ", but " + Routed;
      return false;
    }
    if (Img.MethodsDischarged != 2 * Img.Requests) {
      Error = Where + "field 'methods_discharged' is " +
              std::to_string(Img.MethodsDischarged) + ", but " + Routed +
              " (two methods each)";
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
