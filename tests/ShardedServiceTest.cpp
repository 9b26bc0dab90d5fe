//===- tests/ShardedServiceTest.cpp - Sharded verification service tests ----===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The sharded serving front-end, semcommute-serve's only one: every shard
// serves from the one shared catalog plan and pair plan store and encodes
// the catalog prefix itself, and each drain places whole pair groups on
// shards by plan cost. The load-bearing property: the combined verdict
// log is the standalone VerifyService reference's, in order, at any
// thread count, per-shard counters do not depend on the thread count,
// and a one-shard front-end is that reference.
//
//===----------------------------------------------------------------------===//

#include "service/ShardedVerifyService.h"

#include "DriverCore.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace semcomm;
using namespace semcomm::service;

namespace {

std::vector<const Family *> families(std::vector<std::string> Names) {
  std::string Error;
  std::vector<const Family *> Fams = driver::resolveFamilies(Names, Error);
  EXPECT_TRUE(Error.empty()) << Error;
  return Fams;
}

/// Every (entry, kind) request of the served families, catalog order.
std::vector<ServiceRequest>
allRequests(const Catalog &C, const std::vector<const Family *> &Fams) {
  std::vector<ServiceRequest> Reqs;
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : C.entries(*Fam))
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After})
        Reqs.push_back({Fam->Name, E.op1().Name, E.op2().Name, K});
  return Reqs;
}

std::string keyOf(const ServiceRequest &R) {
  return R.Family + "|" + R.Op1 + "," + R.Op2 + "|" +
         std::string(serviceKindName(R.Kind));
}

/// Every CatalogSessionStats field, in declaration order; the size check
/// makes a new field fail to compile here until it is added.
std::vector<uint64_t> sessionFields(const CatalogSessionStats &S) {
  static_assert(sizeof(CatalogSessionStats) == 20 * sizeof(uint64_t),
                "CatalogSessionStats changed: update sessionFields");
  return {S.Checks,            static_cast<uint64_t>(S.Conflicts),
          S.DbReductions,      S.ReclaimedClauses, S.FamiliesOpened,
          S.PairsOpened,       S.PairsRetired,     S.PrefixAsserts,
          S.PrefixReuses,      S.EvictedClauses,   S.PeakRetainedClauses,
          S.RecycledVars,      S.PeakLiveVars,     S.PeakLiveClauses,
          S.VarRequests,       S.BridgeCompactions, S.ReleasedAtomVars,
          S.ReleasedSelectors, S.LiveBridges,      S.PeakLiveBridges};
}

/// A shard's counters, solver accounting included.
std::vector<uint64_t> shardFields(const ServiceStats &S) {
  std::vector<uint64_t> Fields = {S.Requests,      S.Drains,
                                  S.PairGroups,    S.BatchedReuses,
                                  S.MethodsDischarged, S.PlansBuilt};
  for (uint64_t F : sessionFields(S.Session))
    Fields.push_back(F);
  return Fields;
}

// Four shards at 1 thread and at 8 threads must each produce the verdict
// log of a standalone VerifyService reference, elementwise and in order
// (the one-session order), and identical per-shard statistics — over a
// randomized stream with randomized drain points. Every shard serves from
// the front-end's one plan and asserts the same catalog prefix a
// standalone service does. A one-shard front-end is the reference itself:
// the same verdicts in the same order, and the same counters but for
// plans, which its store builds once per pair.
TEST(ShardedServiceTest, VerdictsInvariantAcrossThreadCounts) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});

  ShardedServiceConfig One;
  One.Base.CompactMinDead = 8;
  One.Shards = 4;
  One.Threads = 1;
  ShardedServiceConfig Eight = One;
  Eight.Threads = 8;

  ShardedServiceConfig Single = One;
  Single.Shards = 1;

  ShardedVerifyService A(C, Fams, One);
  ShardedVerifyService B(C, Fams, Eight);
  ShardedVerifyService S1(C, Fams, Single);
  VerifyService Ref(C, Fams, One.Base);
  std::vector<ServiceVerdict> RefLog;

  uint64_t RefPrefixAsserts = Ref.stats().Session.PrefixAsserts;
  EXPECT_GT(RefPrefixAsserts, 0u);
  for (ShardedVerifyService *Svc : {&A, &B})
    for (unsigned S = 0; S != 4; ++S) {
      VerifyService &Shard = Svc->shard(S);
      EXPECT_EQ(&Shard.plan(), &Svc->shard(0).plan()) << "shard " << S;
      EXPECT_EQ(Svc->stats().Shards[S].Stats.Session.PrefixAsserts,
                RefPrefixAsserts)
          << "shard " << S;
      // The same prefix encoding as the standalone service: variables,
      // stored clauses and bridge instances.
      EXPECT_EQ(Shard.session().solver().numVars(),
                Ref.session().solver().numVars())
          << "shard " << S;
      EXPECT_EQ(Shard.session().retainedClauses(),
                Ref.session().retainedClauses())
          << "shard " << S;
      EXPECT_EQ(Shard.session().liveBridges(), Ref.session().liveBridges())
          << "shard " << S;
    }

  std::vector<ServiceRequest> Universe = allRequests(C, Fams);
  std::mt19937 Rng(20110604);
  std::uniform_int_distribution<size_t> Pick(0, Universe.size() - 1);
  std::uniform_int_distribution<int> DrainNow(0, 8);

  std::string Error;
  for (int R = 0; R != 80; ++R) {
    const ServiceRequest &Req = Universe[Pick(Rng)];
    ASSERT_TRUE(A.submit(Req, Error)) << Error;
    ASSERT_TRUE(B.submit(Req, Error)) << Error;
    ASSERT_TRUE(S1.submit(Req, Error)) << Error;
    ASSERT_TRUE(Ref.submit(Req, Error)) << Error;
    if (DrainNow(Rng) == 0 || R == 79) {
      std::vector<ServiceVerdict> VA = A.drain();
      std::vector<ServiceVerdict> VB = B.drain();
      S1.drain();
      std::vector<ServiceVerdict> VR = Ref.drain();
      RefLog.insert(RefLog.end(), VR.begin(), VR.end());
      // Both thread counts: the reference's order and values.
      for (const std::vector<ServiceVerdict> *Got : {&VA, &VB}) {
        ASSERT_EQ(Got->size(), VR.size());
        for (size_t I = 0; I != VR.size(); ++I) {
          ASSERT_EQ(keyOf((*Got)[I].Req), keyOf(VR[I].Req))
              << "log order divergence at request " << R;
          ASSERT_EQ((*Got)[I].Sound, VR[I].Sound) << keyOf(VR[I].Req);
          ASSERT_EQ((*Got)[I].Complete, VR[I].Complete) << keyOf(VR[I].Req);
        }
      }
    }
  }
  ASSERT_EQ(A.log().size(), RefLog.size());
  for (size_t I = 0; I != RefLog.size(); ++I)
    EXPECT_EQ(keyOf(A.log()[I].Req), keyOf(RefLog[I].Req)) << "row " << I;

  // Placement never consults timing: every shard's counters match across
  // thread counts, and the shared store planned each pair once, as the
  // one-shard front-end's did.
  ShardedServiceStats SA = A.stats(), SB = B.stats();
  EXPECT_EQ(SA.Requests, SB.Requests);
  EXPECT_EQ(SA.Drains, SB.Drains);
  uint64_t PlansA = 0;
  for (size_t S = 0; S != 4; ++S) {
    EXPECT_EQ(shardFields(SA.Shards[S].Stats), shardFields(SB.Shards[S].Stats))
        << "shard " << S;
    PlansA += SA.Shards[S].Stats.PlansBuilt;
  }
  const ServiceStats Own = S1.stats().Shards[0].Stats;
  std::set<std::string> Pairs;
  for (const ServiceVerdict &V : RefLog)
    Pairs.insert(V.Req.Family + "|" + V.Req.Op1 + "," + V.Req.Op2);
  EXPECT_EQ(Own.PlansBuilt, Pairs.size());
  EXPECT_EQ(PlansA, Own.PlansBuilt);

  // The one-shard front-end: its combined log is the reference's drained
  // verdicts in order, and its shard's counters are the reference's —
  // but for plans, which the store-less reference builds for every group.
  ASSERT_EQ(S1.log().size(), RefLog.size());
  for (size_t I = 0; I != RefLog.size(); ++I) {
    EXPECT_EQ(keyOf(S1.log()[I].Req), keyOf(RefLog[I].Req)) << "row " << I;
    EXPECT_EQ(S1.log()[I].Sound, RefLog[I].Sound) << "row " << I;
    EXPECT_EQ(S1.log()[I].Complete, RefLog[I].Complete) << "row " << I;
  }
  ServiceStats RefStats = Ref.stats();
  EXPECT_EQ(RefStats.PlansBuilt, RefStats.PairGroups);
  RefStats.PlansBuilt = Own.PlansBuilt;
  EXPECT_EQ(shardFields(Own), shardFields(RefStats));
  // Every shard's solver survives its compacting drains.
  for (size_t S = 0; S != 4; ++S)
    EXPECT_TRUE(B.shard(S).session().solver().reasonInvariantHolds());
}

// The sharded snapshot round-trips through its textual form, restores
// the combined log and counters, and a front-end whose shard count,
// routing or family set differs refuses the image with an error naming
// the field. A schema-1 (single-session) image is refused by name.
// Snapshots from older writers — the retired "share_prefix" key, or a log
// copy in every shard image — restore too.
TEST(ShardedServiceTest, SnapshotRoundTripAndConfigMismatch) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});

  ShardedServiceConfig Cfg;
  Cfg.Shards = 2;
  ShardedVerifyService Svc(C, Fams, Cfg);

  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  for (const ServiceVerdict &V : Svc.drain())
    EXPECT_TRUE(V.verified()) << keyOf(V.Req);

  json::Value Image = Svc.snapshot();
  EXPECT_EQ(Image.find("share_prefix"), nullptr);
  std::optional<json::Value> Parsed = json::Value::parse(Image.dump(2));
  ASSERT_TRUE(Parsed.has_value());

  ShardedVerifyService Fresh(C, Fams, Cfg);
  ASSERT_TRUE(Fresh.restore(*Parsed, Error)) << Error;
  ASSERT_EQ(Fresh.log().size(), Svc.log().size());
  for (size_t I = 0; I != Fresh.log().size(); ++I) {
    EXPECT_EQ(keyOf(Fresh.log()[I].Req), keyOf(Svc.log()[I].Req));
    EXPECT_EQ(Fresh.log()[I].Sound, Svc.log()[I].Sound);
    EXPECT_EQ(Fresh.log()[I].Complete, Svc.log()[I].Complete);
  }
  EXPECT_EQ(Fresh.stats().Requests, Svc.stats().Requests);

  // The restored front-end keeps serving with the same verdicts.
  ASSERT_TRUE(Fresh.submit(Pass.front(), Error)) << Error;
  std::vector<ServiceVerdict> More = Fresh.drain();
  ASSERT_EQ(More.size(), 1u);
  EXPECT_TRUE(More.front().verified());

  // Older writers set "share_prefix" on the top level; restore ignores
  // it, and the restored front-end goes on serving.
  json::Value Legacy = *Parsed;
  Legacy.set("share_prefix", json::Value::boolean(true));
  std::optional<json::Value> LegacyParsed =
      json::Value::parse(Legacy.dump(2));
  ASSERT_TRUE(LegacyParsed.has_value());
  ShardedVerifyService FromLegacy(C, Fams, Cfg);
  ASSERT_TRUE(FromLegacy.restore(*LegacyParsed, Error)) << Error;
  EXPECT_EQ(FromLegacy.log().size(), Svc.log().size());
  ASSERT_TRUE(FromLegacy.submit(Pass.back(), Error)) << Error;
  std::vector<ServiceVerdict> Served = FromLegacy.drain();
  ASSERT_EQ(Served.size(), 1u);
  EXPECT_TRUE(Served.front().verified());
  EXPECT_EQ(FromLegacy.log().size(), Svc.log().size() + 1);

  // Older writers kept a second copy of the log in every shard image,
  // each shard's own rows. Restore ignores it, derives each shard's
  // request count from its counters, and goes on serving.
  json::Value ShardLogs = *Parsed;
  json::Value WithLogs = json::Value::array();
  size_t Row = 0;
  for (size_t S = 0; S != Cfg.Shards; ++S) {
    json::Value Log = json::Value::array();
    for (uint64_t R = 0; R != Svc.stats().Shards[S].Stats.Requests; ++R)
      Log.push(snapshotLogRow(Svc.log()[Row++]));
    json::Value Shard = (*Parsed)["shard_snapshots"].at(S);
    Shard.set("log", std::move(Log));
    WithLogs.push(std::move(Shard));
  }
  ShardLogs.set("shard_snapshots", std::move(WithLogs));
  ShardedVerifyService FromShardLogs(C, Fams, Cfg);
  ASSERT_TRUE(FromShardLogs.restore(ShardLogs, Error)) << Error;
  for (size_t S = 0; S != Cfg.Shards; ++S)
    EXPECT_EQ(FromShardLogs.stats().Shards[S].Stats.Requests,
              Svc.stats().Shards[S].Stats.Requests)
        << "shard " << S;
  ASSERT_TRUE(FromShardLogs.submit(Pass.back(), Error)) << Error;
  ASSERT_EQ(FromShardLogs.drain().size(), 1u);
  EXPECT_EQ(FromShardLogs.log().size(), Svc.log().size() + 1);

  // A schema-1 image is what the deleted single-session mode wrote: its
  // own config, families and counters beside the log, no shards.
  json::Value SingleSession = (*Parsed)["shard_snapshots"].at(0);
  SingleSession.set("log", (*Parsed)["log"]);
  ShardedVerifyService FromSingle(C, Fams, Cfg);
  EXPECT_FALSE(FromSingle.restore(SingleSession, Error));
  EXPECT_NE(Error.find("schema 1"), std::string::npos) << Error;
  EXPECT_NE(Error.find("single-session"), std::string::npos) << Error;
  EXPECT_TRUE(FromSingle.log().empty());

  // An image served with other families fails on its shard images, before
  // any log row is read.
  ShardedVerifyService SetSvc(C, families({"Set"}), Cfg);
  ASSERT_TRUE(SetSvc.submit({"Set", "add", "add", ConditionKind::Before},
                            Error))
      << Error;
  SetSvc.drain();
  ShardedVerifyService OtherFamilies(C, Fams, Cfg);
  EXPECT_FALSE(OtherFamilies.restore(SetSvc.snapshot(), Error));
  EXPECT_NE(Error.find("snapshot family set does not match"),
            std::string::npos)
      << Error;
  EXPECT_EQ(Error.find("log row"), std::string::npos) << Error;

  ShardedServiceConfig FewerShards = Cfg;
  FewerShards.Shards = 3;
  ShardedVerifyService Mismatched(C, Fams, FewerShards);
  EXPECT_FALSE(Mismatched.restore(*Parsed, Error));
  EXPECT_NE(Error.find("shards"), std::string::npos) << Error;

  // Shard counters that do not sum to the log's rows are refused, naming
  // the fields, and nothing is installed.
  json::Value Overcounted = *Parsed;
  json::Value Shard1 = Overcounted["shard_snapshots"].at(1);
  int64_t Groups1 = Shard1["pair_groups"].asInt();
  Shard1.set("pair_groups", json::Value::integer(Groups1 + 1));
  Shard1.set("methods_discharged",
             json::Value::integer(Shard1["methods_discharged"].asInt() + 2));
  json::Value Recounted = json::Value::array();
  Recounted.push(Overcounted["shard_snapshots"].at(0));
  Recounted.push(std::move(Shard1));
  Overcounted.set("shard_snapshots", std::move(Recounted));
  ShardedVerifyService Miscounted(C, Fams, Cfg);
  EXPECT_FALSE(Miscounted.restore(Overcounted, Error));
  EXPECT_NE(Error.find("'pair_groups' + 'batched_reuses' of the shards "
                       "count " +
                       std::to_string(Svc.log().size() + 1) +
                       " requests, but the log has " +
                       std::to_string(Svc.log().size()) + " rows"),
            std::string::npos)
      << Error;
  EXPECT_TRUE(Miscounted.log().empty());
  EXPECT_EQ(Miscounted.stats().Shards[1].Stats.Requests, 0u);

  // Images taken with the family route, which no longer exists, are
  // refused by name.
  json::Value FamilyRouted = *Parsed;
  FamilyRouted.set("route", json::Value::string("family"));
  ShardedVerifyService Rerouted(C, Fams, Cfg);
  EXPECT_FALSE(Rerouted.restore(FamilyRouted, Error));
  EXPECT_NE(Error.find("route"), std::string::npos) << Error;
  EXPECT_TRUE(Rerouted.log().empty());
}

// Placement weighs pair groups by plan cost, not by request count: one
// ArrayList group (three requests of a pair that costs several Set pairs)
// among many one-request Set groups gets a shard with the fewest other
// groups, whether its plan is not built yet (the family default) or built
// (its node counts). The report names every shard's busy time and the
// drains' critical path share.
TEST(ShardedServiceTest, PlacementBalancesByPlanCost) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Set", "ArrayList"});
  ShardedServiceConfig Cfg;
  Cfg.Shards = 4;
  ShardedVerifyService Svc(C, Fams, Cfg);

  const ConditionEntry *Heavy = nullptr;
  for (const ConditionEntry &E : C.entries(arrayListFamily()))
    if (E.op1().Name == "add_at" && E.op2().Name == "set_")
      Heavy = &E;
  ASSERT_NE(Heavy, nullptr);
  std::vector<ServiceRequest> Stream;
  const std::vector<ConditionEntry> &Sets = C.entries(setFamily());
  for (size_t I = 0; I != 24; ++I)
    Stream.push_back({"Set", Sets[I].op1().Name, Sets[I].op2().Name,
                      ConditionKind::Before});
  for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                          ConditionKind::After})
    Stream.insert(Stream.begin() + 8, {"ArrayList", Heavy->op1().Name,
                                       Heavy->op2().Name, K});

  std::string Error;
  std::vector<ServiceStats> Before(4);
  for (int Drain = 0; Drain != 2; ++Drain) {
    for (size_t S = 0; S != 4; ++S)
      Before[S] = Svc.stats().Shards[S].Stats;
    for (const ServiceRequest &R : Stream)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);

    // The heavy group is the drain's only group with batched reuses.
    std::vector<uint64_t> Groups(4);
    size_t HeavyShard = 4;
    for (size_t S = 0; S != 4; ++S) {
      const ServiceStats Now = Svc.stats().Shards[S].Stats;
      Groups[S] = Now.PairGroups - Before[S].PairGroups;
      if (Now.BatchedReuses - Before[S].BatchedReuses == 2)
        HeavyShard = S;
    }
    ASSERT_LT(HeavyShard, 4u) << "drain " << Drain;
    for (size_t S = 0; S != 4; ++S) {
      if (S == HeavyShard)
        continue;
      EXPECT_LT(Groups[HeavyShard] - 1, Groups[S])
          << "drain " << Drain << ": shard " << S;
    }
  }

  json::Value Report = Svc.statsJson();
  double Share = Report["critical_path_share"].asDouble();
  EXPECT_GT(Share, 0.0);
  EXPECT_LE(Share, 1.0);
  ASSERT_EQ(Report["per_shard"].size(), 4u);
  double ServeMillis = Svc.stats().ServeMillis;
  for (size_t S = 0; S != 4; ++S) {
    const json::Value &Row = Report["per_shard"].at(S);
    const json::Value *Busy = Row.find("busy_millis");
    ASSERT_NE(Busy, nullptr) << "shard " << S;
    EXPECT_GT(Busy->asDouble(), 0.0) << "shard " << S;
    EXPECT_LE(Busy->asDouble(), ServeMillis) << "shard " << S;
    // Planning and retirement are stages of the shard's serving time.
    const json::Value *Plan = Row.find("pair_plan_millis");
    const json::Value *Retire = Row.find("retire_millis");
    ASSERT_NE(Plan, nullptr) << "shard " << S;
    ASSERT_NE(Retire, nullptr) << "shard " << S;
    EXPECT_GT(Retire->asDouble(), 0.0) << "shard " << S;
    EXPECT_LE(Plan->asDouble() + Retire->asDouble(), Busy->asDouble())
        << "shard " << S;
  }
}

// Certify mode works shard-locally: every shard logs its own proof trace
// (its own prefix encoding included), and the folded summary accepts.
TEST(ShardedServiceTest, PerShardCertificationStillPasses) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});

  ShardedServiceConfig Cfg;
  Cfg.Base.Certify = true;
  Cfg.Base.CompactMinDead = 4;
  Cfg.Shards = 2;
  ShardedVerifyService Svc(C, Fams, Cfg);
  ASSERT_TRUE(Svc.certifying());

  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (int P = 0; P != 2; ++P) {
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  }

  proof::CertifySummary Cert = Svc.finishCertification();
  EXPECT_TRUE(Cert.Checked);
  EXPECT_TRUE(Cert.Ok) << Cert.Error;
  EXPECT_GT(Cert.Queries, 0u);
  EXPECT_EQ(Cert.Queries, Cert.QueriesPassed);
}

} // namespace
