//===- tests/ServiceTest.cpp - Warm verification service tests --------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
//
// The verification service over a warm catalog session: request routing,
// prefix-batched drains, bridge compaction + selector release keeping the
// session bounded across passes, snapshot/reload, and — the load-bearing
// property — verdict equality between a compacting service and a
// no-compaction reference under randomized request/retire orders.
//
//===----------------------------------------------------------------------===//

#include "service/VerifyService.h"

#include "DriverCore.h"
#include "service/ShardedVerifyService.h"

#include <gtest/gtest.h>

#include <functional>
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

// A pair's plan is a pure function of the catalog: the service builds it
// on the pair's first request and serves every later drain from the
// store, under both disciplines. Repeated drains plan nothing new and
// repeat the first drain's verdicts exactly.
TEST(ServiceTest, PlansPersistAcrossDrains) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::set<std::string> Pairs;
  for (const ServiceRequest &R : Pass)
    Pairs.insert(R.Family + "|" + R.Op1 + "," + R.Op2);

  for (bool Batch : {true, false}) {
    ServiceConfig Cfg;
    Cfg.Batch = Batch;
    Cfg.CompactMinDead = 8; // Compactions between drains, too.
    VerifyService Svc(C, Fams, Cfg);
    std::string Error;
    std::vector<ServiceVerdict> First;
    for (int D = 0; D != 3; ++D) {
      for (const ServiceRequest &R : Pass)
        ASSERT_TRUE(Svc.submit(R, Error)) << Error;
      std::vector<ServiceVerdict> Got = Svc.drain();
      EXPECT_EQ(Svc.stats().PlansBuilt, Pairs.size())
          << "batch=" << Batch << " drain " << D;
      if (D == 0) {
        First = Got;
        continue;
      }
      ASSERT_EQ(Got.size(), First.size());
      for (size_t I = 0; I != Got.size(); ++I) {
        EXPECT_EQ(keyOf(Got[I].Req), keyOf(First[I].Req));
        EXPECT_EQ(Got[I].Sound, First[I].Sound) << keyOf(Got[I].Req);
        EXPECT_EQ(Got[I].Complete, First[I].Complete) << keyOf(Got[I].Req);
      }
    }
    ServiceStats S = Svc.stats();
    EXPECT_EQ(S.PairGroups, (Batch ? 3 * Pairs.size() : 3 * Pass.size()));
    EXPECT_GT(S.Session.BridgeCompactions, 0u);
  }
}

// The tentpole property: a compacting, selector-releasing, batched
// service and a no-compaction FIFO reference reach identical verdicts on
// a randomized request stream with randomized drain points — and the
// compacting session's solver invariants hold after every drain.
TEST(ServiceTest, FuzzCompactionMatchesReference) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams =
      families({"Accumulator", "Set", "Map", "ArrayList"});

  ServiceConfig Compacting;
  Compacting.CompactMinDead = 8; // Force frequent compaction passes.
  VerifyService Svc(C, Fams, Compacting);

  ServiceConfig Reference;
  Reference.Batch = false;
  Reference.CompactBridges = false;
  Reference.ReleaseSelectors = false;
  VerifyService Ref(C, Fams, Reference);

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
      ASSERT_EQ(A.size(), B.size());
      // Batched order differs from FIFO order; compare as verdict maps.
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
  // The stream retires enough scopes to exercise both growth killers.
  ServiceStats S = Svc.stats();
  EXPECT_GT(S.Session.BridgeCompactions, 0u);
  EXPECT_GT(S.Session.ReleasedSelectors, 0u);
}

// Three full catalog passes through one warm compacting session: the
// per-pass live-vars / live-clauses / live-bridges peaks must plateau
// (pass 3 within 5% of pass 2), while a no-compaction session's trail
// and atom universe would keep growing.
TEST(ServiceTest, LivePeaksPlateauAcrossPasses) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator", "Set"});

  ServiceConfig Cfg;
  Cfg.CompactMinDead = 8;
  VerifyService Svc(C, Fams, Cfg);
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

  ServiceStats S = Svc.stats();
  EXPECT_GT(S.Session.BridgeCompactions, 0u);
  EXPECT_GT(S.Session.ReleasedSelectors, 0u);
  EXPECT_GT(S.Session.ReleasedAtomVars, 0u);
}

// A compacting session still certifies: compaction deletes clauses out of
// the proof trace (Delete/Recycle steps), and the independent checker
// must accept the full trace including the re-emitted bridge Inputs.
TEST(ServiceTest, CompactingSessionCertifies) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});

  ServiceConfig Cfg;
  Cfg.Certify = true;
  Cfg.CompactMinDead = 4;
  VerifyService Svc(C, Fams, Cfg);

  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (int P = 0; P != 2; ++P) {
    for (const ServiceRequest &R : Pass)
      ASSERT_TRUE(Svc.submit(R, Error)) << Error;
    for (const ServiceVerdict &V : Svc.drain())
      EXPECT_TRUE(V.verified()) << keyOf(V.Req);
  }

  ASSERT_TRUE(Svc.certifying());
  const proof::CertifySummary &Cert = Svc.finishCertification();
  EXPECT_TRUE(Cert.Checked);
  EXPECT_TRUE(Cert.Ok) << Cert.Error;
  EXPECT_GT(Cert.Queries, 0u);
  EXPECT_EQ(Cert.Queries, Cert.QueriesPassed);
}

TEST(ServiceTest, SnapshotRoundTripsAndResumesServing) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  ServiceConfig Cfg;

  VerifyService Svc(C, Fams, Cfg);
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  json::Value Image = Svc.snapshot();

  // The image round-trips through its textual form.
  std::optional<json::Value> Parsed = json::Value::parse(Image.dump(2));
  ASSERT_TRUE(Parsed.has_value());

  VerifyService Fresh(C, Fams, Cfg);
  ASSERT_TRUE(Fresh.restore(*Parsed, Error)) << Error;
  ASSERT_EQ(Fresh.log().size(), Svc.log().size());
  for (size_t I = 0; I != Fresh.log().size(); ++I) {
    EXPECT_EQ(keyOf(Fresh.log()[I].Req), keyOf(Svc.log()[I].Req));
    EXPECT_EQ(Fresh.log()[I].Sound, Svc.log()[I].Sound);
    EXPECT_EQ(Fresh.log()[I].Complete, Svc.log()[I].Complete);
  }
  EXPECT_EQ(Fresh.stats().Requests, Svc.stats().Requests);
  EXPECT_EQ(Fresh.stats().Drains, Svc.stats().Drains);

  // The restored service re-warms and keeps serving with the same
  // verdicts the original produced.
  ASSERT_TRUE(Fresh.submit(Pass.front(), Error)) << Error;
  std::vector<ServiceVerdict> More = Fresh.drain();
  ASSERT_EQ(More.size(), 1u);
  EXPECT_TRUE(More.front().verified());

  // Restoring into a service that has already served is rejected.
  EXPECT_FALSE(Fresh.restore(*Parsed, Error));
  // A mismatched family set is rejected.
  VerifyService Other(C, families({"Set"}), Cfg);
  EXPECT_FALSE(Other.restore(*Parsed, Error));
  EXPECT_NE(Error.find("family set"), std::string::npos) << Error;
}

// A snapshot taken under one serving discipline must not restore into a
// service configured with the other: batched and FIFO logs are ordered
// differently, so silently accepting the image would corrupt resume
// semantics. The rejection names the mismatched field.
TEST(ServiceTest, RestoreRejectsBatchMismatch) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});

  ServiceConfig Batched;
  VerifyService Svc(C, Fams, Batched);
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;
  for (const ServiceRequest &R : Pass)
    ASSERT_TRUE(Svc.submit(R, Error)) << Error;
  Svc.drain();
  json::Value Image = Svc.snapshot();

  ServiceConfig Fifo = Batched;
  Fifo.Batch = false;
  VerifyService Other(C, Fams, Fifo);
  EXPECT_FALSE(Other.restore(Image, Error));
  EXPECT_NE(Error.find("batch"), std::string::npos) << Error;
}

// Snapshot restore is an input boundary: a malformed log row or counter
// is rejected with an error naming the row and the field, by the single
// session and the sharded front-end alike. Each mutant rewrites the first
// match of a pattern in the compact snapshot text; that match lies in log
// row 0 (the combined log's, for the sharded front-end), in the top-level
// counters, or in the config block (shard 0's, for the sharded front-end).
TEST(ServiceTest, RestoreRejectsMalformedSnapshots) {
  ExprFactory F;
  Catalog C(F);
  std::vector<const Family *> Fams = families({"Accumulator"});
  std::vector<ServiceRequest> Pass = allRequests(C, Fams);
  std::string Error;

  ServiceConfig Cfg;
  VerifyService Single(C, Fams, Cfg);
  ShardedServiceConfig SCfg;
  SCfg.Shards = 2;
  ShardedVerifyService Sharded(C, Fams, SCfg);
  for (const ServiceRequest &R : Pass) {
    ASSERT_TRUE(Single.submit(R, Error)) << Error;
    ASSERT_TRUE(Sharded.submit(R, Error)) << Error;
  }
  Single.drain();
  Sharded.drain();

  // The sharded log mutants: a flipped verdict in the combined log that
  // no shard served, and a combined log missing the last row its shard
  // served (the row text also ends that shard's log, but the combined
  // log comes first).
  const json::Value ShardedSnap = Sharded.snapshot();
  const std::string LastRow = snapshotLogRow(Sharded.log().back()).dump();
  std::string LeftOver;
  for (size_t S = 0; S != ShardedSnap["shard_snapshots"].size(); ++S) {
    const json::Value &Log = ShardedSnap["shard_snapshots"].at(S)["log"];
    if (Log.size() != 0 && Log.at(Log.size() - 1).dump() == LastRow)
      LeftOver = "shard " + std::to_string(S) + ": snapshot log row " +
                 std::to_string(Log.size() - 1) + " is not in the combined log";
  }
  ASSERT_FALSE(LeftOver.empty());

  struct Target {
    const char *Name;
    std::string Snapshot;
    std::function<bool(const json::Value &, std::string &)> RestoreFresh;
  };
  const Target Targets[] = {
      {"single", Single.snapshot().dump(),
       [&](const json::Value &V, std::string &E) {
         return VerifyService(C, Fams, Cfg).restore(V, E);
       }},
      {"sharded", ShardedSnap.dump(),
       [&](const json::Value &V, std::string &E) {
         return ShardedVerifyService(C, Fams, SCfg).restore(V, E);
       }},
  };

  struct Mutant {
    std::string From, To, WantError;
    bool ShardedOnly = false;
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
      {"\"compact_min_dead\":64", "\"compact_min_dead\":6.4",
       "snapshot config field 'compact_min_dead' is not an integer"},
      {"\"conflict_budget\":200000", "\"conflict_budget\":1",
       "snapshot config field 'conflict_budget' is 1 but the live service "
       "was built with conflict_budget=200000"},
      {"\"seq_len_bound\":3", "\"seq_len_bound\":4",
       "snapshot config field 'seq_len_bound' is 4 but the live service was "
       "built with seq_len_bound=3"},
      {"\"sound\":true", "\"sound\":false",
       "snapshot log row 0 does not match the next row of shard", true},
      {"," + LastRow + "]", "]", LeftOver, true},
  };

  for (const Target &T : Targets) {
    std::optional<json::Value> Intact = json::Value::parse(T.Snapshot);
    ASSERT_TRUE(Intact.has_value());
    ASSERT_TRUE(T.RestoreFresh(*Intact, Error)) << T.Name << ": " << Error;
    for (const Mutant &M : Mutants) {
      if (M.ShardedOnly && std::string(T.Name) != "sharded")
        continue;
      std::string Text = T.Snapshot;
      size_t At = Text.find(M.From);
      ASSERT_NE(At, std::string::npos) << T.Name << ": " << M.From;
      Text.replace(At, M.From.size(), M.To);
      std::optional<json::Value> Mutated = json::Value::parse(Text);
      ASSERT_TRUE(Mutated.has_value()) << T.Name << ": " << M.From;
      EXPECT_FALSE(T.RestoreFresh(*Mutated, Error))
          << T.Name << " accepted the mutant " << M.From << " -> " << M.To;
      EXPECT_NE(Error.find(M.WantError), std::string::npos)
          << T.Name << ": " << Error;
    }
  }
}

} // namespace
