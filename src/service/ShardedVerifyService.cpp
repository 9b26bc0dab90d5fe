//===- service/ShardedVerifyService.cpp - Sharded serving front-end ----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "service/ShardedVerifyService.h"

#include "support/Timing.h"

#include <cassert>

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

  if (Cfg.Threads > 1)
    Pool = std::make_unique<ThreadPool>(Cfg.Threads);
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
  for (const auto &S : Shards) {
    const proof::CertifySummary &Part = S->finishCertification();
    if (!Part.Checked)
      continue;
    Out.Checked = true;
    Out.Ok = Out.Ok && Part.Ok;
    Out.Steps += Part.Steps;
    Out.Queries += Part.Queries;
    Out.QueriesPassed += Part.QueriesPassed;
    Out.PeakClauses = std::max(Out.PeakClauses, Part.PeakClauses);
    if (Out.Error.empty() && !Part.Error.empty())
      Out.Error = Part.Error;
    for (const auto &[Tag, Passed] : Part.QueryOutcome)
      Out.QueryOutcome.emplace(Tag, Passed);
  }
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
  if (!VerdictLog.empty() || pending() != 0) {
    Error = "restore requires a fresh service (no served or pending "
            "requests)";
    return false;
  }
  const json::Value *Schema = V.find("schema");
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

  std::vector<ServiceVerdict> Restored;
  const json::Value *Log = V.find("log");
  if (!Log || !Log->isArray()) {
    Error = "snapshot has no verdict log";
    return false;
  }
  // Every shard serves the same families over the same catalog, so
  // shard 0 can check any row.
  for (size_t I = 0; I != Log->size(); ++I) {
    ServiceVerdict SV;
    if (!Shards.front()->readLogRow(Log->at(I), I, SV, Error))
      return false;
    Restored.push_back(std::move(SV));
  }

  const json::Value *ShardSnaps = V.find("shard_snapshots");
  if (!ShardSnaps || !ShardSnaps->isArray() ||
      ShardSnaps->size() != Shards.size()) {
    Error = "snapshot has no per-shard snapshots";
    return false;
  }
  // Check every shard's image before installing any.
  std::vector<VerifyService::SnapshotImage> Images(Shards.size());
  for (size_t S = 0; S != Shards.size(); ++S)
    if (!Shards[S]->readSnapshot(ShardSnaps->at(S), Images[S], Error)) {
      Error = "shard " + std::to_string(S) + ": " + Error;
      return false;
    }
  // The combined log interleaves the shard logs: each row must equal the
  // next unused row of the shard it routes to, and no shard row may be
  // left over.
  std::vector<size_t> Next(Shards.size(), 0);
  for (size_t I = 0; I != Restored.size(); ++I) {
    size_t S = shardOf(Restored[I].Req);
    const std::vector<ServiceVerdict> &ShardLog = Images[S].Log;
    if (Next[S] == ShardLog.size() ||
        snapshotLogRow(ShardLog[Next[S]]) != snapshotLogRow(Restored[I])) {
      Error = "snapshot log row " + std::to_string(I) +
              " does not match the next row of shard " + std::to_string(S) +
              "'s log";
      return false;
    }
    ++Next[S];
  }
  for (size_t S = 0; S != Shards.size(); ++S)
    if (Next[S] != Images[S].Log.size()) {
      Error = "shard " + std::to_string(S) + ": snapshot log row " +
              std::to_string(Next[S]) + " is not in the combined log";
      return false;
    }
  for (size_t S = 0; S != Shards.size(); ++S)
    Shards[S]->install(std::move(Images[S]));
  VerdictLog = std::move(Restored);
  Drains = RDrains;
  ServeMillis = RServeMillis;
  Error.clear();
  return true;
}
