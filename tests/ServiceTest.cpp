//===- tests/ServiceTest.cpp - Warm verification service tests --------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The verification service over a warm catalog session: request routing,
// prefix-batched drains, pair retirement + selector release keeping the
// session bounded across passes, an atom universe that is complete after
// one catalog pass, snapshot/reload through the one-shard front-end, and
// — the load-bearing property — verdict equality between a
// selector-releasing service and a non-releasing reference under
// randomized request/retire orders.
//
//===----------------------------------------------------------------------===//

#include "service/VerifyService.h"

#include "DriverCore.h"
#include "proof/ProofChecker.h"
#include "service/ShardedVerifyService.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
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

TEST(ServiceTest, SubmitValidatesFamilyAndPair) {
  ExprFactory F;
  Catalog C(F);
  ServiceConfig Cfg;
  VerifyService Svc(C, families({"Accumulator"}), Cfg);

  std::string Error;
  EXPECT_FALSE(Svc.submit({"Set", "add", "add", ConditionKind::Before},
                          Error));
  EXPECT_NE(Error.find("not served"), std::string::npos) << Error;
  EXPECT_FALSE(Svc.submit(
      {"Accumulator", "increase", "nonesuch", ConditionKind::Before},
      Error));
  EXPECT_NE(Error.find("no catalog entry"), std::string::npos) << Error;
  EXPECT_TRUE(Svc.submit(
      {"Accumulator", "increase", "read", ConditionKind::After}, Error));
  EXPECT_EQ(Svc.pending(), 1u);
}

TEST(ServiceTest, BatchingGroupsSamePairRequests) {
  ExprFactory F;
  Catalog C(F);
  ServiceConfig Cfg;
  VerifyService Svc(C, families({"Accumulator"}), Cfg);

  // Three kinds of one pair, interleaved with another pair: batching must
  // serve them as two pair groups, not five scope opens.
  std::string Error;
  for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                          ConditionKind::After})
    ASSERT_TRUE(Svc.submit({"Accumulator", "increase", "increase", K},
                           Error))
        << Error;
  for (ConditionKind K : {ConditionKind::Before, ConditionKind::After})
    ASSERT_TRUE(
        Svc.submit({"Accumulator", "increase", "read", K}, Error))
        << Error;

  std::vector<ServiceVerdict> Verdicts = Svc.drain();
  ASSERT_EQ(Verdicts.size(), 5u);
  for (const ServiceVerdict &V : Verdicts)
    EXPECT_TRUE(V.verified()) << keyOf(V.Req);

  ServiceStats S = Svc.stats();
  EXPECT_EQ(S.Drains, 1u);
  EXPECT_EQ(S.PairGroups, 2u);
  EXPECT_EQ(S.BatchedReuses, 3u);
  EXPECT_EQ(S.MethodsDischarged, 10u);
  EXPECT_TRUE(Svc.session().solver().reasonInvariantHolds());
}

// A pair's plan is a pure function of the catalog: the front-end's plan
// store (here one shard's) builds it on the pair's first request and
// serves every later drain from the store. Repeated drains plan nothing
// new and repeat the first drain's verdicts exactly. A standalone
// service, which has no store, plans every group afresh and keeps no plan
// past it, with the same verdicts.
TEST(ServiceTest, PlansPersistAcrossDrains) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::set<std::string> Pairs;
  for (const ServiceRequest &R : Pass)
    Pairs.insert(R.Family + "|" + R.Op1 + "," + R.Op2);

  ShardedServiceConfig Cfg;
  ShardedVerifyService Svc(C, Fams, Cfg);
  VerifyService Storeless(C, Fams, Cfg.Base);
  std::string Error;
  std::vector<ServiceVerdict> First;
  double PlanMillis = 0;
  for (int D = 0; D != 3; ++D) {
    for (const ServiceRequest &R : Pass) {
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
      ASSERT_TRUE(Storeless.submit(R, Error)) << Error;
    }
    std::vector<ServiceVerdict> Got = Svc.drain();
    std::vector<ServiceVerdict> Fresh = Storeless.drain();
    const ServiceStats Shard = Svc.stats().Shards[0].Stats;
    EXPECT_EQ(Shard.PlansBuilt, Pairs.size()) << "drain " << D;
    EXPECT_EQ(Storeless.stats().PlansBuilt, (D + 1) * Pairs.size())
        << "drain " << D;
    ASSERT_EQ(Fresh.size(), Got.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_EQ(keyOf(Fresh[I].Req), keyOf(Got[I].Req));
      EXPECT_EQ(Fresh[I].verified(), Got[I].verified()) << keyOf(Got[I].Req);
    }
    if (D == 0) {
      // Only the first drain plans, so only it adds planning time.
      PlanMillis = Shard.PairPlanMillis;
      EXPECT_GT(PlanMillis, 0.0);
      First = Got;
      continue;
    }
    EXPECT_EQ(Shard.PairPlanMillis, PlanMillis) << "drain " << D;
    ASSERT_EQ(Got.size(), First.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_EQ(keyOf(Got[I].Req), keyOf(First[I].Req));
      EXPECT_EQ(Got[I].Sound, First[I].Sound) << keyOf(Got[I].Req);
      EXPECT_EQ(Got[I].Complete, First[I].Complete) << keyOf(Got[I].Req);
    }
  }
  ServiceStats S = Svc.stats().Shards[0].Stats;
  EXPECT_EQ(S.PairGroups, 3 * Pairs.size());
  EXPECT_EQ(S.PairGroups + S.BatchedReuses, S.Requests);
}

// The tentpole property: a selector-releasing service and a reference
// whose retired selectors stay pinned false reach identical verdicts on a
// randomized request stream with randomized drain points — and the
// releasing session's solver invariants hold after every drain.
TEST(ServiceTest, FuzzSelectorReleaseMatchesReference) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams =
      families({"Accumulator", "Set", "Map", "ArrayList"});

  VerifyService Svc(C, Fams, ServiceConfig{});
  VerifyService Ref(C, Fams, ServiceConfig{});
  Ref.session().setSelectorRelease(false);

  std::vector<ServiceRequest> Universe = allRequests(C, Fams);
  std::mt19937 Rng(20110604);
  std::uniform_int_distribution<size_t> Pick(0, Universe.size() - 1);
  std::uniform_int_distribution<int> DrainNow(0, 6);

  std::map<std::string, std::pair<bool, bool>> Served;
  std::string Error;
  for (int R = 0; R != 60; ++R) {
    const ServiceRequest &Req = Universe[Pick(Rng)];
    ASSERT_TRUE(Svc.submit(Req, Error)) << Error;
    ASSERT_TRUE(Ref.submit(Req, Error)) << Error;
    if (DrainNow(Rng) == 0 || R == 59) {
      std::vector<ServiceVerdict> A = Svc.drain();
      std::vector<ServiceVerdict> B = Ref.drain();
      ASSERT_TRUE(Svc.session().solver().reasonInvariantHolds())
          << "after drain at request " << R;
      ASSERT_TRUE(Ref.session().solver().reasonInvariantHolds())
          << "after drain at request " << R;
      ASSERT_EQ(A.size(), B.size());
      std::map<std::string, std::pair<bool, bool>> MA, MB;
      for (const ServiceVerdict &V : A)
        MA[keyOf(V.Req)] = {V.Sound, V.Complete};
      for (const ServiceVerdict &V : B)
        MB[keyOf(V.Req)] = {V.Sound, V.Complete};
      ASSERT_EQ(MA, MB) << "verdict divergence at request " << R;
      for (const auto &KV : MA)
        Served.insert(KV);
    }
  }

  // Repeated requests must be stable across re-open epochs too.
  for (const auto &KV : Served) {
    EXPECT_TRUE(KV.second.first && KV.second.second)
        << KV.first << " failed verification";
  }
  // The stream retires enough scopes to release selectors, and only the
  // releasing session releases any.
  EXPECT_GT(Svc.stats().Session.ReleasedSelectors, 0u);
  EXPECT_EQ(Ref.stats().Session.ReleasedSelectors, 0u);
}

// Three full catalog passes through one warm session: the per-pass
// live-vars / live-clauses / live-bridges peaks must plateau (pass 3
// within 5% of pass 2).
TEST(ServiceTest, LivePeaksPlateauAcrossPasses) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});

  VerifyService Svc(C, Fams, ServiceConfig{});
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);

  struct Peaks {
    uint64_t Vars, Clauses, Bridges;
  };
  std::vector<Peaks> PassPeaks;
  std::string Error;
  for (int P = 0; P != 3; ++P) {
    Svc.resetPeakStats();
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
    ASSERT_TRUE(Svc.session().solver().reasonInvariantHolds());
    ServiceStats S = Svc.stats();
    PassPeaks.push_back({S.Session.PeakLiveVars, S.Session.PeakLiveClauses,
                         S.Session.PeakLiveBridges});
  }

  EXPECT_LE(static_cast<double>(PassPeaks[2].Vars),
            1.05 * static_cast<double>(PassPeaks[1].Vars));
  EXPECT_LE(static_cast<double>(PassPeaks[2].Clauses),
            1.05 * static_cast<double>(PassPeaks[1].Clauses));
  EXPECT_LE(static_cast<double>(PassPeaks[2].Bridges),
            1.05 * static_cast<double>(PassPeaks[1].Bridges));

  EXPECT_GT(Svc.stats().Session.ReleasedSelectors, 0u);
}

// Every theory atom a warm session can meet comes from the catalog's
// finite, hash-consed vocabulary, and the registries only grow. So one
// full catalog pass registers the whole atom universe: random drains
// after it add no bridge, and the live and peak bridge counts stay at
// their values after the pass.
TEST(ServiceTest, AtomUniverseIsCompleteAfterOnePass) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams =
      families({"Accumulator", "Set", "Map", "ArrayList"});
  VerifyService Svc(C, Fams, ServiceConfig{});
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  for (const ServiceVerdict &V : Svc.drain())
    EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  const int64_t Live = Svc.session().liveBridges();
  const uint64_t Peak = Svc.stats().Session.PeakLiveBridges;
  EXPECT_GT(Live, 0);

  std::mt19937 Rng(33);
  std::uniform_int_distribution<size_t> Pick(0, Pass.size() - 1);
  for (int D = 0; D != 20; ++D) {
    for (int R = 0; R != 32; ++R)
      ASSERT_TRUE(Svc.submit(Pass[Pick(Rng)], Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req) << " in drain " << D;
    EXPECT_EQ(Svc.session().liveBridges(), Live) << "drain " << D;
    EXPECT_EQ(Svc.stats().Session.PeakLiveBridges, Peak) << "drain " << D;
  }
}

// Live solver state plateaus (above), and so must the shared expression
// factory, up to what a warm loop cannot avoid: every pass opens fresh
// epoch-named selectors, one per pair group and one per discharged
// method. Nothing else a steady pass asserts or checks may intern a new
// node; selector-path wrapper formulas once added ~3 more per selector.
TEST(ServiceTest, FactoryGrowsOnlyBySelectorsInASteadyPass) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams =
      families({"Accumulator", "Set", "Map", "ArrayList"});
  ShardedVerifyService Svc(C, Fams, ShardedServiceConfig{});
  ASSERT_EQ(Svc.numShards(), 1u);
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  size_t NodesBefore = 0;
  ServiceStats Before;
  for (int P = 0; P != 3; ++P) {
    NodesBefore = F.numNodes();
    Before = Svc.stats().Shards[0].Stats;
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  }
  ServiceStats After = Svc.stats().Shards[0].Stats;
  uint64_t Selectors = (After.PairGroups - Before.PairGroups) +
                       (After.MethodsDischarged - Before.MethodsDischarged);
  EXPECT_EQ(Selectors, 170u + 2 * Pass.size());
  EXPECT_LE(F.numNodes() - NodesBefore, Selectors);
}

// A warm session still certifies across passes: pair retirement and
// selector release delete clauses out of the proof trace (Delete/Recycle
// steps), and the independent checker must accept the full trace. The
// method results drain() hands out carry the query numbers it checked.
TEST(ServiceTest, WarmSessionCertifies) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});

  ServiceConfig Cfg;
  Cfg.Certify = true;
  VerifyService Svc(C, Fams, Cfg);

  // Pass 0 drains without the method out-parameter and pass 1 with it:
  // the verdicts must not depend on it, and pass 1 also yields two method
  // results per verdict, soundness then completeness.
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  std::vector<ServiceVerdict> Drained[2];
  std::vector<SymbolicResult> Methods;
  for (int P = 0; P != 2; ++P) {
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    Drained[P] = Svc.drain(P == 1 ? &Methods : nullptr);
    for (const ServiceVerdict &V : Drained[P])
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  }
  ASSERT_EQ(Drained[1].size(), Drained[0].size());
  ASSERT_EQ(Methods.size(), 2 * Drained[1].size());
  for (size_t I = 0; I != Drained[1].size(); ++I) {
    const ServiceVerdict &V = Drained[1][I];
    EXPECT_EQ(keyOf(V.Req), keyOf(Drained[0][I].Req));
    EXPECT_EQ(V.Sound, Drained[0][I].Sound) << keyOf(V.Req);
    EXPECT_EQ(V.Complete, Drained[0][I].Complete) << keyOf(V.Req);
    EXPECT_EQ(Methods[2 * I].Verified, V.Sound) << keyOf(V.Req);
    EXPECT_EQ(Methods[2 * I + 1].Verified, V.Complete) << keyOf(V.Req);
    EXPECT_GT(Methods[2 * I].NumVcs, 0u) << keyOf(V.Req);
    EXPECT_GT(Methods[2 * I + 1].NumVcs, 0u) << keyOf(V.Req);
  }

  ASSERT_TRUE(Svc.certifying());
  const proof::CertifySummary &Cert = Svc.finishCertification();
  EXPECT_TRUE(Cert.Checked);
  EXPECT_TRUE(Cert.Ok) << Cert.Error;
  EXPECT_GT(Cert.Queries, 0u);
  EXPECT_EQ(Cert.Queries, Cert.QueriesPassed);
  // Every method result names certificates the checker passed.
  for (const SymbolicResult &R : Methods) {
    EXPECT_FALSE(R.ProofQueryIds.empty());
    EXPECT_TRUE(Cert.allPassed(R.ProofQueryIds));
  }
}

// One method discharged twice in a session logs two certificates, and each
// method result must name its own: a failed first certificate fails the
// first discharge's method alone, whatever its twin's certificate says.
TEST(ServiceTest, RepeatedDischargeKeepsCertificatesApart) {
  ExprFactory F;
  Catalog C(F);
  ServiceConfig Cfg;
  Cfg.Certify = true;
  VerifyService Svc(C, families({"Set"}), Cfg);
  const ConditionEntry &E = C.entries(setFamily()).front();
  ServiceRequest Req{"Set", E.op1().Name, E.op2().Name,
                     ConditionKind::Before};
  std::string Error;
  ASSERT_TRUE(Svc.submit(Req, Error)) << Error;
  ASSERT_TRUE(Svc.submit(Req, Error)) << Error;
  std::vector<SymbolicResult> Methods;
  std::vector<ServiceVerdict> Verdicts = Svc.drain(&Methods);
  ASSERT_EQ(Verdicts.size(), 2u);
  ASSERT_EQ(Methods.size(), 4u);

  // Replace the first Query's core by a literal nothing constrains.
  const proof::ProofTrace *Trace = Svc.session().proofTrace();
  ASSERT_NE(Trace, nullptr);
  ASSERT_EQ(Trace->numQueries(), 4u);
  int MaxVar = 0;
  for (proof::StepView St : *Trace)
    for (int L : St.Lits)
      MaxVar = std::max(MaxVar, std::abs(L));
  std::vector<int> Fresh = {MaxVar + 1};
  proof::ProofTrace Mutated;
  bool Corrupted = false;
  for (proof::StepView St : *Trace) {
    if (St.Kind == proof::StepKind::Query && !Corrupted) {
      St.Lits = Fresh;
      Corrupted = true;
    }
    Mutated.append(St);
  }
  proof::CheckResult R = proof::ProofChecker().check(Mutated);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_EQ(R.QueriesChecked, 4u);
  EXPECT_EQ(R.QueriesPassed, 3u);
  proof::CertifySummary Sum;
  Sum.fold(R);
  size_t Failed = 0;
  for (SymbolicResult &M : Methods) {
    ASSERT_EQ(M.ProofQueryIds.size(), 1u);
    stampCertification(Sum, M);
    EXPECT_EQ(M.ProofChecked, M.ProofQueryIds[0] != 0);
    Failed += !M.ProofChecked;
  }
  EXPECT_EQ(Failed, 1u);
}

TEST(ServiceTest, SnapshotRoundTripsAndResumesServing) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  ShardedServiceConfig Cfg; // One shard on one thread: the single session.
  ASSERT_EQ(Cfg.Shards, 1u);

  ShardedVerifyService Svc(C, Fams, Cfg);
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  json::Value Image = Svc.snapshot();
  // The verdicts are stored once, in the front-end's log; the shard image
  // keeps counters only.
  EXPECT_EQ(Image["log"].size(), Pass.size());
  EXPECT_EQ(Image["shard_snapshots"].at(0).find("log"), nullptr);

  // The image round-trips through its textual form.
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
  EXPECT_EQ(Fresh.stats().Drains, Svc.stats().Drains);
  // The shard's counters come back, its request count derived from its
  // pair groups and batched reuses.
  const ServiceStats Was = Svc.stats().Shards[0].Stats;
  const ServiceStats Now = Fresh.stats().Shards[0].Stats;
  EXPECT_EQ(Now.Requests, Was.Requests);
  EXPECT_EQ(Now.Drains, Was.Drains);
  EXPECT_EQ(Now.PairGroups, Was.PairGroups);
  EXPECT_EQ(Now.BatchedReuses, Was.BatchedReuses);
  EXPECT_EQ(Now.MethodsDischarged, Was.MethodsDischarged);

  // The restored service re-warms and keeps serving with the same
  // verdicts the original produced.
  ASSERT_TRUE(Fresh.submit(Pass.front(), Error)) << Error;
  std::vector<ServiceVerdict> More = Fresh.drain();
  ASSERT_EQ(More.size(), 1u);
  EXPECT_TRUE(More.front().verified());
  EXPECT_EQ(Fresh.stats().Shards[0].Stats.Requests, Was.Requests + 1);

  // Restoring into a service that has already served is rejected.
  EXPECT_FALSE(Fresh.restore(*Parsed, Error));
  // A mismatched family set is rejected.
  ShardedVerifyService Other(C, families({"Set"}), Cfg);
  EXPECT_FALSE(Other.restore(*Parsed, Error));
  EXPECT_NE(Error.find("family set"), std::string::npos) << Error;
}

// A snapshot taken under the FIFO discipline must not restore: every
// service now drains batched, and a FIFO image ordered its log and counted
// its pair groups differently, so silently accepting it would corrupt
// resume semantics. The image is a live one with its config's batch flag
// flipped, as a FIFO service wrote it; the rejection names the field.
TEST(ServiceTest, RestoreRejectsBatchMismatch) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});

  ShardedServiceConfig Cfg;
  ShardedVerifyService Svc(C, Fams, Cfg);
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  std::string Text = Svc.snapshot().dump();

  const std::string Batched = "\"batch\":true";
  size_t At = Text.find(Batched);
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, Batched.size(), "\"batch\":false");
  std::optional<json::Value> Fifo = json::Value::parse(Text);
  ASSERT_TRUE(Fifo.has_value());

  ShardedVerifyService Other(C, Fams, Cfg);
  EXPECT_FALSE(Other.restore(*Fifo, Error));
  EXPECT_NE(Error.find("snapshot config field 'batch' is false but the live "
                       "service was built with batch=true"),
            std::string::npos)
      << Error;
}

// Snapshot restore is an input boundary: a malformed log row or counter
// is rejected with an error naming the row and the field, by the one-shard
// front-end and a two-shard one alike. Each mutant rewrites the first
// match of a pattern in the compact snapshot text; that match lies in row
// 0 of the combined log, in the top-level counters, or in shard 0's config
// block.
TEST(ServiceTest, RestoreRejectsMalformedSnapshots) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;

  ShardedServiceConfig OneCfg, TwoCfg;
  TwoCfg.Shards = 2;
  ShardedVerifyService One(C, Fams, OneCfg);
  ShardedVerifyService Two(C, Fams, TwoCfg);
  for (const ServiceRequest &R : Pass) {
    ASSERT_TRUE(One.submit(R, Error)) << Error;
    ASSERT_TRUE(Two.submit(R, Error)) << Error;
  }
  One.drain();
  Two.drain();

  struct Target {
    const char *Name;
    std::string Snapshot;
    ShardedServiceConfig Cfg;
  };
  const Target Targets[] = {{"one shard", One.snapshot().dump(), OneCfg},
                            {"two shards", Two.snapshot().dump(), TwoCfg}};

  struct Mutant {
    std::string From, To, WantError;
  };
  const Mutant Mutants[] = {
      {"\"family\":\"Accumulator\",", "",
       "snapshot log row 0: field 'family' is missing"},
      {"\"sound\":true", "\"sound\":\"yes\"",
       "snapshot log row 0: field 'sound' is not a boolean"},
      {"\"family\":\"Accumulator\"", "\"family\":\"Set\"",
       "snapshot log row 0: field 'family': family 'Set' is not served"},
      {"\"op1\":\"", "\"op1\":\"no_",
       "snapshot log row 0: fields 'op1', 'op2': no catalog entry"},
      {"{\"family\"", "7,{\"family\"", "snapshot log row 0 is not an object"},
      {"\"drains\":1", "\"drains\":-1",
       "snapshot field 'drains' is not a non-negative integer"},
      {"\"config\":{", "\"settings\":{", "snapshot field 'config' is missing"},
      {"\"config\":{", "\"config\":7,\"settings\":{",
       "snapshot field 'config' is not an object"},
      {"\"certify\":false,", "",
       "snapshot config field 'certify' is missing"},
      {"\"batch\":true", "\"batch\":\"no\"",
       "snapshot config field 'batch' is not a boolean"},
      {"\"conflict_budget\":200000", "\"conflict_budget\":200000.5",
       "snapshot config field 'conflict_budget' is not an integer"},
      {"\"conflict_budget\":200000", "\"conflict_budget\":1",
       "snapshot config field 'conflict_budget' is 1 but the live service "
       "was built with conflict_budget=200000"},
      {"\"seq_len_bound\":3", "\"seq_len_bound\":4",
       "snapshot config field 'seq_len_bound' is 4 but the live service was "
       "built with seq_len_bound=3"},
  };

  // Shard counters that contradict the log or each other: every request
  // a shard serves is a pair group or a batched reuse, and discharges two
  // methods. Shard 0's image comes first in the snapshot, so these edit
  // shard 0.
  const ServiceStats Shard0 = Two.stats().Shards[0].Stats;
  ASSERT_GT(Shard0.Requests, 0u);
  const std::string Groups0 =
      "\"pair_groups\":" + std::to_string(Shard0.PairGroups) +
      ",\"batched_reuses\":" + std::to_string(Shard0.BatchedReuses);
  const std::string Methods0 =
      "\"methods_discharged\":" + std::to_string(Shard0.MethodsDischarged);
  const uint64_t Others = Pass.size() - Shard0.Requests;
  const Mutant CounterMutants[] = {
      {Groups0, "\"pair_groups\":999,\"batched_reuses\":0",
       "snapshot fields 'pair_groups' + 'batched_reuses' of the shards "
       "count " + std::to_string(999 + Others) + " requests, but the log "
       "has " + std::to_string(Pass.size()) + " rows"},
      {Methods0,
       "\"methods_discharged\":" +
           std::to_string(Shard0.MethodsDischarged + 1),
       "shard 0: snapshot field 'methods_discharged' is " +
           std::to_string(Shard0.MethodsDischarged + 1) +
           ", but its 'pair_groups' + 'batched_reuses' count " +
           std::to_string(Shard0.Requests) + " requests"},
  };

  for (const Target &T : Targets) {
    auto RestoreFresh = [&](const json::Value &V) {
      return ShardedVerifyService(C, Fams, T.Cfg).restore(V, Error);
    };
    std::optional<json::Value> Intact = json::Value::parse(T.Snapshot);
    ASSERT_TRUE(Intact.has_value());
    ASSERT_TRUE(RestoreFresh(*Intact)) << T.Name << ": " << Error;
    // Older images carry three more config keys; restore ignores them.
    std::string Old = T.Snapshot;
    const std::string Config = "\"config\":{";
    const std::string OldKeys = "\"compact_bridges\":true,"
                                "\"compact_min_dead\":64,"
                                "\"release_selectors\":true,";
    size_t Blocks = 0;
    for (size_t At = Old.find(Config); At != std::string::npos;
         At = Old.find(Config, At + Config.size() + OldKeys.size())) {
      Old.insert(At + Config.size(), OldKeys);
      ++Blocks;
    }
    EXPECT_EQ(Blocks, T.Cfg.Shards) << T.Name;
    std::optional<json::Value> OldImage = json::Value::parse(Old);
    ASSERT_TRUE(OldImage.has_value()) << T.Name;
    EXPECT_TRUE(RestoreFresh(*OldImage)) << T.Name << " (older image): "
                                         << Error;
    std::vector<Mutant> All(std::begin(Mutants), std::end(Mutants));
    if (T.Cfg.Shards == 2)
      All.insert(All.end(), std::begin(CounterMutants),
                 std::end(CounterMutants));
    for (const Mutant &M : All) {
      std::string Text = T.Snapshot;
      size_t At = Text.find(M.From);
      ASSERT_NE(At, std::string::npos) << T.Name << ": " << M.From;
      Text.replace(At, M.From.size(), M.To);
      std::optional<json::Value> Mutated = json::Value::parse(Text);
      ASSERT_TRUE(Mutated.has_value()) << T.Name << ": " << M.From;
      EXPECT_FALSE(RestoreFresh(*Mutated))
          << T.Name << " accepted the mutant " << M.From << " -> " << M.To;
      EXPECT_NE(Error.find(M.WantError), std::string::npos)
          << T.Name << ": " << Error;
    }
  }
}

} // namespace
