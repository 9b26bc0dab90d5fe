//===- service/VerifyService.cpp - Warm catalog verification service --------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "service/VerifyService.h"

#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
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

std::vector<PairGroup>
semcomm::service::groupByPair(const std::vector<ResolvedRequest> &Pending,
                              PlanStore *Store) {
  // Families in first-appearance order, each with its groups in
  // first-appearance order; an entry belongs to one family, so it alone
  // locates its group.
  std::vector<size_t> FamOrder;
  std::vector<std::vector<PairGroup>> ByFam;
  std::unordered_map<const ConditionEntry *, std::pair<size_t, size_t>> At;
  for (const ResolvedRequest &RR : Pending) {
    auto [It, New] = At.try_emplace(RR.Entry);
    if (New) {
      size_t Fam = std::find(FamOrder.begin(), FamOrder.end(), RR.FamIdx) -
                   FamOrder.begin();
      if (Fam == FamOrder.size()) {
        FamOrder.push_back(RR.FamIdx);
        ByFam.emplace_back();
      }
      It->second = {Fam, ByFam[Fam].size()};
      ByFam[Fam].push_back({RR.FamIdx, RR.Entry, {}, 0, nullptr});
    }
    ByFam[It->second.first][It->second.second].Reqs.push_back(&RR);
  }

  std::vector<PairGroup> Groups;
  Groups.reserve(At.size());
  size_t Offset = 0;
  for (std::vector<PairGroup> &Fam : ByFam)
    for (PairGroup &G : Fam) {
      G.Offset = Offset;
      Offset += G.Reqs.size();
      if (Store)
        G.Plan = &(*Store)[G.Entry];
      Groups.push_back(std::move(G));
    }
  return Groups;
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

void VerifyService::serveOne(const ResolvedRequest &RR, const PairPlan &PP,
                             ServiceVerdict &Out, SymbolicResult *Methods) {
  size_t KindIdx = static_cast<size_t>(RR.Req.Kind);
  Out.Req = RR.Req;
  for (size_t Role = 0; Role != 2; ++Role) {
    const MethodPlan &MP = PP.Methods[2 * KindIdx + Role];
    SymbolicResult R;
    R.Verified = Sess->discharge(RR.FamIdx, PP.Key, MP, R);
    ++MethodsDischarged;
    (Role == 0 ? Out.Sound : Out.Complete) = R.Verified;
    if (Methods)
      Methods[Role] = std::move(R);
  }
  ++Requests;
}

void VerifyService::serveGroup(const PairGroup &G, ServiceVerdict *Out,
                               SymbolicResult *Methods) {
  // Without a store the plan lives for this group only.
  std::optional<PairPlan> Own;
  std::optional<PairPlan> &Plan = G.Plan ? *G.Plan : Own;
  if (!Plan) {
    Stopwatch Timer;
    Plan = Eng.planPair(*G.Entry);
    PairPlanMillis += Timer.millis();
    ++PlansBuilt;
  }
  ++PairGroups;
  BatchedReuses += G.Reqs.size() - 1;
  for (size_t I = 0; I != G.Reqs.size(); ++I)
    serveOne(*G.Reqs[I], *Plan, Out[I], Methods ? Methods + 2 * I : nullptr);
  Stopwatch Retire;
  Sess->retirePair(G.FamIdx, Plan->Key);
  RetireMillis += Retire.millis();
}

double VerifyService::serve(const std::vector<const PairGroup *> &Groups,
                            ServiceVerdict *Out, SymbolicResult *Methods) {
  if (Groups.empty())
    return 0;
  Stopwatch Timer;
  ++Drains;
  for (const PairGroup *G : Groups)
    serveGroup(*G, Out + G->Offset,
               Methods ? Methods + 2 * G->Offset : nullptr);
  double Millis = Timer.millis();
  ServeMillis += Millis;
  return Millis;
}

std::vector<ServiceVerdict>
VerifyService::drain(std::vector<SymbolicResult> *Methods) {
  std::vector<ServiceVerdict> Out(Pending.size());
  std::vector<PairGroup> Groups = groupByPair(Pending, nullptr);
  std::vector<const PairGroup *> All;
  for (const PairGroup &G : Groups)
    All.push_back(&G);
  SymbolicResult *MethodsOut = nullptr;
  if (Methods) {
    size_t Base = Methods->size();
    Methods->resize(Base + 2 * Out.size());
    MethodsOut = Methods->data() + Base;
  }
  serve(All, Out.data(), MethodsOut);
  Pending.clear();
  return Out;
}

ServiceStats VerifyService::stats() const {
  ServiceStats S;
  S.Requests = Requests;
  S.Drains = Drains;
  S.PairGroups = PairGroups;
  S.BatchedReuses = BatchedReuses;
  S.MethodsDischarged = MethodsDischarged;
  S.PlansBuilt = PlansBuilt;
  S.PairPlanMillis = PairPlanMillis;
  S.RetireMillis = RetireMillis;
  S.ServeMillis = ServeMillis;
  S.Session = Sess->stats();
  return S;
}

json::Value VerifyService::configJson() const {
  json::Value Config = json::Value::object();
  // Always true since the FIFO discipline was deleted: kept so that
  // checkSnapshotConfig refuses a FIFO image by name.
  Config.set("batch", json::Value::boolean(true));
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
  // A FIFO image (batch false) counted its pair groups differently, and
  // the sequence bound and the conflict budget shape the verdicts, so
  // those three must also match.
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
  Error.clear();
  return true;
}

void VerifyService::install(const SnapshotImage &Img) {
  assert(Requests == 0 && Drains == 0 && Pending.empty() &&
         "installing a snapshot into a service that has served");
  Requests = Img.Requests;
  Drains = Img.Drains;
  PairGroups = Img.PairGroups;
  BatchedReuses = Img.BatchedReuses;
  MethodsDischarged = Img.MethodsDischarged;
  ServeMillis = Img.ServeMillis;
}
