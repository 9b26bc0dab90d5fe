//===- tests/ShardedServiceTest.cpp - Sharded verification service tests ----===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The sharded serving front-end and its sharing mechanism: the
// pre-encoded catalog prefix image (byte-identical across independent
// builds, verdict-identical to encode-from-scratch). The load-bearing
// property: verdicts and the
// combined verdict log are invariant across thread counts and equal to
// the single-session VerifyService reference.
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

// Two independently built factories, catalogs, and warm sessions must
// export byte-identical prefix images: the image is a deterministic
// function of the catalog alone, which is what lets CI pin two separate
// processes' --dump-prefix outputs with cmp.
TEST(ShardedServiceTest, PrefixImageByteIdenticalAcrossIndependentBuilds) {
  std::string First, Second;
  for (std::string *Out : {&First, &Second}) {
    ExprFactory F;
    Catalog C(F);
    ServiceConfig Cfg;
    VerifyService Svc(C, families({"Accumulator", "Set"}), Cfg);
    PrefixImage Img = Svc.exportPrefix();
    ASSERT_FALSE(Img.empty());
    EXPECT_GT(Img.NumVars, 0);
    EXPECT_FALSE(Img.Atoms.empty());
    *Out = Img.serialize();
  }
  ASSERT_FALSE(First.empty());
  EXPECT_EQ(First, Second);
}

// A session that *loads* the prefix image serves the same verdicts, in
// the same order, as the session that encoded the prefix from scratch —
// over the full request universe, twice (the second pass crosses scope
// retirement and re-open epochs).
TEST(ShardedServiceTest, PrefixImportMatchesScratchEncoding) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});
  ServiceConfig Cfg;
  Cfg.CompactMinDead = 8;

  VerifyService Scratch(C, Fams, Cfg);
  PrefixImage Img = Scratch.exportPrefix();
  ASSERT_FALSE(Img.empty());
  VerifyService Loaded(C, Fams, Cfg, &Scratch.plan(), &Img);
  EXPECT_TRUE(Loaded.stats().Session.PrefixImageLoaded);
  EXPECT_FALSE(Scratch.stats().Session.PrefixImageLoaded);

  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (int P = 0; P != 2; ++P) {
    for (const ServiceRequest &R : Pass) {
      ASSERT_TRUE(Scratch.submit(R, Error)) << Error;
      ASSERT_TRUE(Loaded.submit(R, Error)) << Error;
    }
    std::vector<ServiceVerdict> A = Scratch.drain();
    std::vector<ServiceVerdict> B = Loaded.drain();
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I != A.size(); ++I) {
      EXPECT_EQ(keyOf(A[I].Req), keyOf(B[I].Req)) << "at " << I;
      EXPECT_EQ(A[I].Sound, B[I].Sound) << keyOf(A[I].Req);
      EXPECT_EQ(A[I].Complete, B[I].Complete) << keyOf(A[I].Req);
    }
    ASSERT_TRUE(Loaded.session().solver().reasonInvariantHolds());
  }
}

// The sharded front-end at 1 worker thread and at 8 worker threads must
// produce elementwise-identical verdict logs (the determinism contract),
// identical per-shard statistics, and verdict values equal to a
// single-session VerifyService reference — over a randomized stream with
// randomized drain points.
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

  for (unsigned S = 1; S != 4; ++S) {
    EXPECT_TRUE(A.stats().Shards[S].PrefixImported);
    EXPECT_TRUE(B.stats().Shards[S].PrefixImported);
  }
  EXPECT_FALSE(A.stats().Shards[0].PrefixImported);

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

  ShardedServiceConfig FewerShards = Cfg;
  FewerShards.Shards = 3;
  ShardedVerifyService Mismatched(C, Fams, FewerShards);
  EXPECT_FALSE(Mismatched.restore(*Parsed, Error));
  EXPECT_NE(Error.find("shards"), std::string::npos) << Error;

  ShardedServiceConfig OtherRoute = Cfg;
  OtherRoute.Route = RouteBy::Family;
  ShardedVerifyService Rerouted(C, Fams, OtherRoute);
  EXPECT_FALSE(Rerouted.restore(*Parsed, Error));
  EXPECT_NE(Error.find("route"), std::string::npos) << Error;
}

// Certify mode works shard-locally: every shard logs its own DRAT trace
// (prefix-image replay included), and the folded summary accepts.
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
