//===- tests/ShardedServiceTest.cpp - Sharded verification service tests ----===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The sharded serving front-end: every shard serves from the one shared
// catalog plan and encodes the catalog prefix itself. The load-bearing
// property: verdicts and the combined verdict log are invariant across
// thread counts and equal to the single-session VerifyService reference.
//
//===----------------------------------------------------------------------===//

#include "service/ShardedVerifyService.h"

#include "DriverCore.h"

#include <gtest/gtest.h>

#include <random>

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

// The sharded front-end at 1 worker thread and at 8 worker threads must
// produce elementwise-identical verdict logs (the determinism contract),
// identical per-shard statistics, and verdict values equal to a
// single-session VerifyService reference — over a randomized stream with
// randomized drain points. Every shard serves from the front-end's one
// plan and asserts the same catalog prefix a standalone service does.
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

  ShardedVerifyService A(C, Fams, One);
  ShardedVerifyService B(C, Fams, Eight);
  VerifyService Ref(C, Fams, One.Base);

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
    EXPECT_EQ(A.shardOf(Req), B.shardOf(Req));
    ASSERT_TRUE(A.submit(Req, Error)) << Error;
    ASSERT_TRUE(B.submit(Req, Error)) << Error;
    ASSERT_TRUE(Ref.submit(Req, Error)) << Error;
    if (DrainNow(Rng) == 0 || R == 79) {
      std::vector<ServiceVerdict> VA = A.drain();
      std::vector<ServiceVerdict> VB = B.drain();
      std::vector<ServiceVerdict> VR = Ref.drain();
      ASSERT_EQ(VA.size(), VB.size());
      ASSERT_EQ(VA.size(), VR.size());
      // Thread counts: elementwise-identical order and values.
      for (size_t I = 0; I != VA.size(); ++I) {
        ASSERT_EQ(keyOf(VA[I].Req), keyOf(VB[I].Req))
            << "log order divergence at request " << R;
        ASSERT_EQ(VA[I].Sound, VB[I].Sound) << keyOf(VA[I].Req);
        ASSERT_EQ(VA[I].Complete, VB[I].Complete) << keyOf(VA[I].Req);
      }
      // Single-session reference: verdict values as maps (sharded group
      // order differs from the reference's batched order).
      std::map<std::string, std::pair<bool, bool>> MA, MR;
      for (const ServiceVerdict &V : VA)
        MA[keyOf(V.Req)] = {V.Sound, V.Complete};
      for (const ServiceVerdict &V : VR)
        MR[keyOf(V.Req)] = {V.Sound, V.Complete};
      ASSERT_EQ(MA, MR) << "verdict divergence at request " << R;
    }
  }

  ShardedServiceStats SA = A.stats(), SB = B.stats();
  EXPECT_EQ(SA.Requests, SB.Requests);
  EXPECT_EQ(SA.Drains, SB.Drains);
  for (size_t S = 0; S != 4; ++S)
    EXPECT_EQ(SA.Shards[S].Stats.Requests, SB.Shards[S].Stats.Requests);
  // Every shard's solver survives its compacting drains.
  for (size_t S = 0; S != 4; ++S)
    EXPECT_TRUE(B.shard(S).session().solver().reasonInvariantHolds());
}

// The sharded snapshot round-trips through its textual form, restores
// the combined log and counters, and a front-end whose shard count or
// routing differs refuses the image with an error naming the field.
// Snapshots that still carry the retired "share_prefix" config key
// restore too.
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

  ShardedServiceConfig FewerShards = Cfg;
  FewerShards.Shards = 3;
  ShardedVerifyService Mismatched(C, Fams, FewerShards);
  EXPECT_FALSE(Mismatched.restore(*Parsed, Error));
  EXPECT_NE(Error.find("shards"), std::string::npos) << Error;

  // Images taken with the family route, which no longer exists, are
  // refused by name.
  json::Value FamilyRouted = *Parsed;
  FamilyRouted.set("route", json::Value::string("family"));
  ShardedVerifyService Rerouted(C, Fams, Cfg);
  EXPECT_FALSE(Rerouted.restore(FamilyRouted, Error));
  EXPECT_NE(Error.find("route"), std::string::npos) << Error;
  EXPECT_TRUE(Rerouted.log().empty());
}

// Certify mode works shard-locally: every shard logs its own DRAT trace
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
