//===- service/VerifyService.cpp - Warm catalog verification service --------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "service/VerifyService.h"

#include "support/Timing.h"

#include <cassert>
#include <utility>

using namespace semcomm;
using namespace semcomm::service;

const char *semcomm::service::serviceKindName(ConditionKind K) {
  switch (K) {
  case ConditionKind::Before:
    return "before";
  case ConditionKind::Between:
    return "between";
  case ConditionKind::After:
    return "after";
  }
  return "before";
}

bool semcomm::service::parseServiceKind(const std::string &Name,
                                        ConditionKind &K) {
  if (Name == "before")
    K = ConditionKind::Before;
  else if (Name == "between")
    K = ConditionKind::Between;
  else if (Name == "after")
    K = ConditionKind::After;
  else
    return false;
  return true;
}

json::Value semcomm::service::snapshotLogRow(const ServiceVerdict &V) {
  json::Value Row = json::Value::object();
  Row.set("family", json::Value::string(V.Req.Family));
  Row.set("op1", json::Value::string(V.Req.Op1));
  Row.set("op2", json::Value::string(V.Req.Op2));
  Row.set("kind", json::Value::string(serviceKindName(V.Req.Kind)));
  Row.set("sound", json::Value::boolean(V.Sound));
  Row.set("complete", json::Value::boolean(V.Complete));
  return Row;
}

bool semcomm::service::readSnapshotCounter(const json::Value &V,
                                           const char *Key, uint64_t &Out,
                                           std::string &Error) {
  const json::Value *Field = V.find(Key);
  if (!Field || !Field->isInt() || Field->asInt() < 0) {
    Error = std::string("snapshot field '") + Key + "' is " +
            (Field ? "not a non-negative integer" : "missing");
    return false;
  }
  Out = static_cast<uint64_t>(Field->asInt());
  return true;
}

bool semcomm::service::readSnapshotMillis(const json::Value &V, double &Out,
                                          std::string &Error) {
  const json::Value *Field = V.find("serve_millis");
  if (!Field || !Field->isNumber() || Field->asDouble() < 0) {
    Error = std::string("snapshot field 'serve_millis' is ") +
            (Field ? "not a non-negative number" : "missing");
    return false;
  }
  Out = Field->asDouble();
  return true;
}

VerifyService::VerifyService(const Catalog &C,
                             const std::vector<const Family *> &Fams,
                             const ServiceConfig &Cfg,
                             const CatalogPlan *SharedPlan)
    : C(C), Fams(Fams), Cfg(Cfg),
      Eng(C.factory(), Cfg.SeqLenBound, Cfg.ConflictBudget,
          SolveMode::SharedCatalog) {
  if (SharedPlan) {
    Plan = SharedPlan;
  } else {
    OwnedPlan = std::make_unique<CatalogPlan>(Eng.planCatalog(C, Fams));
    Plan = OwnedPlan.get();
  }
  for (size_t I = 0; I != Fams.size(); ++I)
    FamIdxByName.emplace(Fams[I]->Name, I);
  Sess = std::make_unique<CatalogSession>(C.factory(), *Plan,
                                          Cfg.ConflictBudget, Cfg.Certify,
                                          Cfg.CompactBridges,
                                          Cfg.CompactMinDead);
  Sess->configureClauseGc(true);
  Sess->session().setSelectorRelease(Cfg.ReleaseSelectors);
}

bool VerifyService::resolve(const ServiceRequest &R, ResolvedRequest &Out,
                            std::string &Error) const {
  auto FI = FamIdxByName.find(R.Family);
  if (FI == FamIdxByName.end()) {
    Error = "family '" + R.Family + "' is not served by this service";
    return false;
  }
  for (const ConditionEntry &E : C.entries(*Fams[FI->second]))
    if (E.op1().Name == R.Op1 && E.op2().Name == R.Op2) {
      Out = {R, FI->second, &E};
      return true;
    }
  Error = "no catalog entry for pair (" + R.Op1 + ", " + R.Op2 +
          ") in family " + R.Family;
  return false;
}

bool VerifyService::submit(const ServiceRequest &R, std::string &Error) {
  ResolvedRequest RR;
  if (!resolve(R, RR, Error))
    return false;
  Pending.push_back(std::move(RR));
  Error.clear();
  return true;
}

const PairPlan &VerifyService::planOf(const ConditionEntry *Entry) {
  auto It = Plans.find(Entry);
  if (It == Plans.end()) {
    It = Plans.emplace(Entry, Eng.planPair(*Entry)).first;
    ++PlansBuilt;
  }
  return It->second;
}

void VerifyService::serveOne(const ResolvedRequest &RR, const PairPlan &PP,
                             std::vector<ServiceVerdict> &Out,
                             std::vector<SymbolicResult> *Methods) {
  size_t KindIdx = static_cast<size_t>(RR.Req.Kind);
  ServiceVerdict V;
  V.Req = RR.Req;
  for (size_t Role = 0; Role != 2; ++Role) {
    const MethodPlan &MP = PP.Methods[2 * KindIdx + Role];
    SymbolicResult R;
    R.Verified = Sess->discharge(RR.FamIdx, PP.Key, MP, R);
    ++MethodsDischarged;
    (Role == 0 ? V.Sound : V.Complete) = R.Verified;
    if (Methods)
      Methods->push_back(std::move(R));
  }
  Out.push_back(V);
  VerdictLog.push_back(std::move(V));
}

std::vector<ServiceVerdict>
VerifyService::drain(std::vector<SymbolicResult> *Methods) {
  Stopwatch Timer;
  std::vector<ServiceVerdict> Out;
  if (Pending.empty())
    return Out;
  ++Drains;

  if (Cfg.Batch) {
    // Group pending requests by family, then by pair, both in
    // first-appearance order: every request of a (family, pair) group is
    // served against one warm pair scope, and the scope retires when its
    // group completes.
    struct Group {
      const ConditionEntry *Entry;
      std::vector<const ResolvedRequest *> Reqs;
    };
    std::vector<size_t> FamOrder;
    std::map<size_t, std::vector<Group>> Groups;
    for (const ResolvedRequest &RR : Pending) {
      std::vector<Group> &FamGroups = Groups[RR.FamIdx];
      if (FamGroups.empty())
        FamOrder.push_back(RR.FamIdx);
      Group *G = nullptr;
      for (Group &Cand : FamGroups)
        if (Cand.Entry == RR.Entry) {
          G = &Cand;
          break;
        }
      if (!G) {
        FamGroups.push_back({RR.Entry, {}});
        G = &FamGroups.back();
      }
      G->Reqs.push_back(&RR);
    }
    for (size_t FamIdx : FamOrder)
      for (const Group &G : Groups[FamIdx]) {
        const PairPlan &PP = planOf(G.Entry);
        ++PairGroups;
        BatchedReuses += G.Reqs.size() - 1;
        for (const ResolvedRequest *RR : G.Reqs)
          serveOne(*RR, PP, Out, Methods);
        Sess->retirePair(FamIdx, PP.Key);
      }
  } else {
    // FIFO baseline: arrival order, one pair scope per request, retired
    // immediately — every request pays the full prefix-assertion cost.
    for (const ResolvedRequest &RR : Pending) {
      const PairPlan &PP = planOf(RR.Entry);
      ++PairGroups;
      serveOne(RR, PP, Out, Methods);
      Sess->retirePair(RR.FamIdx, PP.Key);
    }
  }

  Pending.clear();
  ServeMillis += Timer.millis();
  return Out;
}

ServiceStats VerifyService::stats() const {
  ServiceStats S;
  S.Requests = VerdictLog.size();
  S.Drains = Drains;
  S.PairGroups = PairGroups;
  S.BatchedReuses = BatchedReuses;
  S.MethodsDischarged = MethodsDischarged;
  S.PlansBuilt = PlansBuilt;
  S.ServeMillis = ServeMillis;
  S.Session = Sess->stats();
  return S;
}

json::Value VerifyService::configJson() const {
  json::Value Config = json::Value::object();
  Config.set("batch", json::Value::boolean(Cfg.Batch));
  Config.set("compact_bridges", json::Value::boolean(Cfg.CompactBridges));
  Config.set("release_selectors",
             json::Value::boolean(Cfg.ReleaseSelectors));
  Config.set("certify", json::Value::boolean(Cfg.Certify));
  Config.set("seq_len_bound", json::Value::integer(Cfg.SeqLenBound));
  Config.set("conflict_budget", json::Value::integer(Cfg.ConflictBudget));
  Config.set("compact_min_dead",
             json::Value::integer(static_cast<int64_t>(Cfg.CompactMinDead)));
  return Config;
}

json::Value VerifyService::snapshot() const {
  json::Value Families = json::Value::array();
  for (const Family *F : Fams)
    Families.push(json::Value::string(F->Name));

  json::Value Log = json::Value::array();
  for (const ServiceVerdict &V : VerdictLog)
    Log.push(snapshotLogRow(V));

  json::Value V = json::Value::object();
  V.set("schema", json::Value::integer(1));
  V.set("config", configJson());
  V.set("families", std::move(Families));
  V.set("drains", json::Value::integer(static_cast<int64_t>(Drains)));
  V.set("pair_groups",
        json::Value::integer(static_cast<int64_t>(PairGroups)));
  V.set("batched_reuses",
        json::Value::integer(static_cast<int64_t>(BatchedReuses)));
  V.set("methods_discharged",
        json::Value::integer(static_cast<int64_t>(MethodsDischarged)));
  V.set("serve_millis", json::Value::number(ServeMillis));
  V.set("log", std::move(Log));
  return V;
}

bool VerifyService::readLogRow(const json::Value &Row, size_t Index,
                               ServiceVerdict &Out,
                               std::string &Error) const {
  std::string Where = "snapshot log row " + std::to_string(Index);
  if (!Row.isObject()) {
    Error = Where + " is not an object";
    return false;
  }
  auto Bad = [&](const char *Key, bool (json::Value::*Is)() const,
                 const char *Type) {
    const json::Value *F = Row.find(Key);
    if (F && (F->*Is)())
      return false;
    Error = Where + ": field '" + Key + "' is " +
            (F ? std::string("not a ") + Type : std::string("missing"));
    return true;
  };
  if (Bad("family", &json::Value::isString, "string") ||
      Bad("op1", &json::Value::isString, "string") ||
      Bad("op2", &json::Value::isString, "string") ||
      Bad("kind", &json::Value::isString, "string") ||
      Bad("sound", &json::Value::isBool, "boolean") ||
      Bad("complete", &json::Value::isBool, "boolean"))
    return false;
  Out.Req.Family = Row["family"].asString();
  Out.Req.Op1 = Row["op1"].asString();
  Out.Req.Op2 = Row["op2"].asString();
  if (!parseServiceKind(Row["kind"].asString(), Out.Req.Kind)) {
    Error = Where + ": field 'kind' is '" + Row["kind"].asString() +
            "', not before, between or after";
    return false;
  }
  Out.Sound = Row["sound"].asBool();
  Out.Complete = Row["complete"].asBool();
  ResolvedRequest RR;
  if (!resolve(Out.Req, RR, Error)) {
    Error = Where +
            (FamIdxByName.count(Out.Req.Family) ? ": fields 'op1', 'op2': "
                                                : ": field 'family': ") +
            Error;
    return false;
  }
  return true;
}

bool VerifyService::checkSnapshotConfig(const json::Value &V,
                                        std::string &Error) const {
  const json::Value *Config = V.find("config");
  if (!Config || !Config->isObject()) {
    Error = std::string("snapshot field 'config' is ") +
            (Config ? "not an object" : "missing");
    return false;
  }
  // Every key this service's snapshot() writes, with the kind it writes.
  // Batching shapes the restored counters, and the sequence bound and the
  // conflict budget shape the verdicts, so those three must also match.
  const json::Value LiveConfig = configJson();
  for (const auto &[Key, Live] : LiveConfig.members()) {
    const json::Value *Got = Config->find(Key);
    std::string Where = "snapshot config field '" + Key + "' is ";
    if (!Got || Got->kind() != Live.kind()) {
      Error = Where + (!Got            ? "missing"
                       : Live.isBool() ? "not a boolean"
                                       : "not an integer");
      return false;
    }
    if ((Key == "batch" || Key == "seq_len_bound" ||
         Key == "conflict_budget") &&
        *Got != Live) {
      Error = Where + Got->dump() + " but the live service was built with " +
              Key + "=" + Live.dump();
      return false;
    }
  }
  return true;
}

bool VerifyService::readSnapshot(const json::Value &V, SnapshotImage &Out,
                                 std::string &Error) const {
  const json::Value *Schema = V.find("schema");
  if (!Schema || !Schema->isInt() || Schema->asInt() != 1) {
    Error = "unsupported snapshot schema";
    return false;
  }
  if (!checkSnapshotConfig(V, Error))
    return false;
  const json::Value *Families = V.find("families");
  if (!Families || !Families->isArray() || Families->size() != Fams.size()) {
    Error = "snapshot family set does not match the service's";
    return false;
  }
  for (size_t I = 0; I != Fams.size(); ++I)
    if (!Families->at(I).isString() ||
        Families->at(I).asString() != Fams[I]->Name) {
      Error = "snapshot family set does not match the service's";
      return false;
    }

  if (!readSnapshotCounter(V, "drains", Out.Drains, Error) ||
      !readSnapshotCounter(V, "pair_groups", Out.PairGroups, Error) ||
      !readSnapshotCounter(V, "batched_reuses", Out.BatchedReuses, Error) ||
      !readSnapshotCounter(V, "methods_discharged", Out.MethodsDischarged,
                           Error) ||
      !readSnapshotMillis(V, Out.ServeMillis, Error))
    return false;

  const json::Value *Log = V.find("log");
  if (!Log || !Log->isArray()) {
    Error = "snapshot has no verdict log";
    return false;
  }
  Out.Log.clear();
  for (size_t I = 0; I != Log->size(); ++I) {
    ServiceVerdict SV;
    if (!readLogRow(Log->at(I), I, SV, Error))
      return false;
    Out.Log.push_back(std::move(SV));
  }
  Error.clear();
  return true;
}

void VerifyService::install(SnapshotImage Img) {
  assert(VerdictLog.empty() && Pending.empty() &&
         "installing a snapshot into a service that has served");
  VerdictLog = std::move(Img.Log);
  Drains = Img.Drains;
  PairGroups = Img.PairGroups;
  BatchedReuses = Img.BatchedReuses;
  MethodsDischarged = Img.MethodsDischarged;
  ServeMillis = Img.ServeMillis;
}

bool VerifyService::restore(const json::Value &V, std::string &Error) {
  if (!VerdictLog.empty() || !Pending.empty()) {
    Error = "restore requires a fresh service (no served or pending "
            "requests)";
    return false;
  }
  SnapshotImage Img;
  if (!readSnapshot(V, Img, Error))
    return false;
  install(std::move(Img));
  return true;
}
