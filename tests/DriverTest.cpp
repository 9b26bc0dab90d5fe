//===- tests/DriverTest.cpp - Parallel verification driver ------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// Pins down the semcommute-verify driver: the job enumeration covers the
/// complete catalog (the tr_full_catalog counts), a 1-thread run and an
/// N-thread run reach identical verdicts, and the JSON report writes every
/// row and field the Report holds.
///
//===----------------------------------------------------------------------===//

#include "DriverCore.h"

#include "commute/SymbolicEngine.h"
#include "inverse/InverseSpec.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

using namespace semcomm;
using namespace semcomm::driver;

namespace {

/// A scope strictly inside the default one: every scenario it enumerates is
/// also enumerated by the default scope, so all catalog verdicts remain
/// "verified" while tests run in a fraction of the time.
Scope smallScope() {
  Scope S;
  S.SetUniverse = 2;
  S.MapKeys = 2;
  S.MapVals = 2;
  S.SeqVals = 2;
  S.MaxSeqLen = 2;
  S.CounterRange = 1;
  return S;
}

struct DriverFixture {
  ExprFactory F;
  Catalog C{F};
};

//===----------------------------------------------------------------------===//
// Job enumeration completeness
//===----------------------------------------------------------------------===//

TEST(DriverEnumeration, CoversEveryPairKindAndRole) {
  DriverFixture Fx;
  DriverOptions Opts;
  std::vector<JobRecord> Jobs = enumerateJobs(Fx.C, Opts);

  // Per family: |ops|^2 ordered pairs x 3 kinds x 2 roles commutativity
  // jobs, plus that family's Table 5.10 inverse rows.
  std::vector<InverseSpec> Inverses = buildInverseSpecs();
  size_t Expected = 0;
  for (const Family *Fam : allFamilies()) {
    Expected += Fx.C.entries(*Fam).size() * 3 * 2;
    for (const InverseSpec &S : Inverses)
      if (S.Fam == Fam)
        ++Expected;
  }
  EXPECT_EQ(Jobs.size(), Expected);

  // Every job is distinct.
  std::set<std::string> Keys;
  for (const JobRecord &J : Jobs)
    Keys.insert(J.key());
  EXPECT_EQ(Keys.size(), Jobs.size());

  // The commutativity jobs cover the paper's 765 conditions (counted per
  // implementing structure) exactly: each condition contributes one
  // soundness and one completeness job, counted once per family.
  size_t PaperCount = 0;
  for (const Family *Fam : allFamilies()) {
    size_t FamJobs = 0;
    for (const JobRecord &J : Jobs)
      if (J.Family == Fam->Name && J.Category == "commutativity")
        ++FamJobs;
    EXPECT_EQ(FamJobs, Fx.C.entries(*Fam).size() * 6) << Fam->Name;
    PaperCount += FamJobs / 2 * Fam->StructureNames.size();
  }
  EXPECT_EQ(PaperCount, Fx.C.totalConditionsPaperCount());
  EXPECT_EQ(Fx.C.totalConditionsPaperCount(), 765u);

  // All eight Table 5.10 inverses appear.
  size_t InverseJobs = 0;
  for (const JobRecord &J : Jobs)
    if (J.Category == "inverse")
      ++InverseJobs;
  EXPECT_EQ(InverseJobs, Inverses.size());
  EXPECT_EQ(InverseJobs, 8u);
}

TEST(DriverEnumeration, FamilyFilterAndErrors) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Families = {"Set"};
  for (const JobRecord &J : enumerateJobs(Fx.C, Opts))
    EXPECT_EQ(J.Family, "Set");

  std::string Error;
  std::vector<const Family *> All = resolveFamilies({"all"}, Error);
  EXPECT_EQ(All.size(), 4u);
  EXPECT_TRUE(Error.empty());

  std::vector<const Family *> Bad = resolveFamilies({"Stack"}, Error);
  EXPECT_TRUE(Bad.empty());
  EXPECT_FALSE(Error.empty());

  std::vector<const Family *> Two = resolveFamilies({"Map", "Set"}, Error);
  ASSERT_EQ(Two.size(), 2u);
  // Presentation order is preserved regardless of request order.
  EXPECT_EQ(Two[0]->Name, "Set");
  EXPECT_EQ(Two[1]->Name, "Map");
}

//===----------------------------------------------------------------------===//
// Parallel runs: verdicts are independent of the thread count
//===----------------------------------------------------------------------===//

TEST(DriverParallel, OneThreadAndManyThreadsAgree) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();

  Opts.Threads = 1;
  Report Serial = runFullCatalog(Fx.C, Opts);
  Opts.Threads = 8;
  Report Parallel = runFullCatalog(Fx.C, Opts);

  EXPECT_TRUE(Serial.sameVerdicts(Parallel));
  EXPECT_TRUE(Parallel.sameVerdicts(Serial));
  EXPECT_EQ(Serial.failures(), 0u);
  EXPECT_EQ(Parallel.failures(), 0u);
  EXPECT_EQ(Serial.Results.size(), Parallel.Results.size());
  EXPECT_EQ(Parallel.Threads, 8u);

  // The small scope exercises every family.
  EXPECT_EQ(Serial.Families.size(), 4u);
  for (const FamilySummary &S : Serial.Families) {
    EXPECT_GT(S.Jobs, 0u) << S.Family;
    EXPECT_GT(S.Scenarios, 0u) << S.Family;
  }
}

TEST(DriverParallel, SubsetRunMatchesItsSlice) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Accumulator"};
  Opts.Threads = 4;

  Report R = runFullCatalog(Fx.C, Opts);
  EXPECT_EQ(R.failures(), 0u);
  ASSERT_EQ(R.Families.size(), 1u);
  EXPECT_EQ(R.Families[0].Family, "Accumulator");
  // 2 ops -> 4 ordered pairs x 3 kinds x 2 roles, plus the increase inverse.
  EXPECT_EQ(R.Results.size(),
            Fx.C.entries(accumulatorFamily()).size() * 6 + 1);
}

TEST(DriverParallel, CertifiedShardsCheckEveryProof) {
  // Four certifying shards intern through one factory at once; every
  // symbolic job must still carry checked proofs, and the certificate
  // count and verdicts must match the single certified shard.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.SymbolicSeqLenBound = 2;
  Opts.Certify = true;

  Opts.Threads = 1;
  Report Serial = runFullCatalog(Fx.C, Opts);
  Opts.Threads = 4;
  Report Sharded = runFullCatalog(Fx.C, Opts);

  ASSERT_EQ(Sharded.CatalogSessions.size(), 4u);
  EXPECT_EQ(Sharded.failures(), 0u);
  EXPECT_TRUE(Serial.sameVerdicts(Sharded));
  uint64_t SerialQueries = 0, ShardedQueries = 0;
  for (const JobRecord &J : Serial.Results)
    SerialQueries += J.ProofQueries;
  for (const JobRecord &J : Sharded.Results) {
    EXPECT_TRUE(J.ProofChecked) << J.key();
    ShardedQueries += J.ProofQueries;
  }
  EXPECT_GT(SerialQueries, 0u);
  EXPECT_EQ(ShardedQueries, SerialQueries);

  // Row S holds exactly entries S, S + 4, ... of every family: its pair
  // count and its VCs are those entries' own.
  std::map<std::string, size_t> EntryIdx;
  std::vector<unsigned> Pairs(4, 0);
  for (const Family *Fam : allFamilies()) {
    const std::vector<ConditionEntry> &All = Fx.C.entries(*Fam);
    for (size_t I = 0; I != All.size(); ++I) {
      EntryIdx[Fam->Name + "/" + All[I].op1().Name + "/" +
               All[I].op2().Name] = I;
      ++Pairs[I % 4];
    }
  }
  std::vector<uint64_t> Vcs(4, 0);
  for (const JobRecord &J : Sharded.Results)
    if (J.Category == "commutativity")
      Vcs[EntryIdx.at(J.Family + "/" + J.Op1 + "/" + J.Op2) % 4] += J.Vcs;
  for (size_t S = 0; S != 4; ++S) {
    EXPECT_EQ(Sharded.CatalogSessions[S].Pairs, Pairs[S]) << S;
    EXPECT_EQ(Sharded.CatalogSessions[S].Methods, 6 * Pairs[S]) << S;
    EXPECT_EQ(Sharded.CatalogSessions[S].Vcs, Vcs[S]) << S;
  }
}

//===----------------------------------------------------------------------===//
// Engine selection: the symbolic path must match the exhaustive one
//===----------------------------------------------------------------------===//

TEST(DriverEngines, EnumerationCoversBothEnginesExactlyOnce) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Both;
  std::vector<JobRecord> Jobs = enumerateJobs(Fx.C, Opts);

  Opts.Engine = EngineKind::Exhaustive;
  size_t ExOnly = enumerateJobs(Fx.C, Opts).size();
  Opts.Engine = EngineKind::Symbolic;
  size_t SymOnly = enumerateJobs(Fx.C, Opts).size();

  // "Both" doubles every job: the inverse catalog now runs under each
  // engine too (the symbolic inverse path cross-checks the concrete one).
  EXPECT_EQ(ExOnly, SymOnly);
  EXPECT_EQ(Jobs.size(), 2 * ExOnly);

  std::set<std::string> Keys;
  size_t SymbolicInverses = 0, ExhaustiveInverses = 0;
  for (const JobRecord &J : Jobs) {
    EXPECT_TRUE(J.Engine == "exhaustive" || J.Engine == "symbolic")
        << J.key();
    if (J.Category == "inverse") {
      if (J.Engine == "symbolic")
        ++SymbolicInverses;
      else
        ++ExhaustiveInverses;
    }
    Keys.insert(J.key());
  }
  EXPECT_EQ(Keys.size(), Jobs.size());
  size_t Inverses = buildInverseSpecs().size();
  EXPECT_EQ(SymbolicInverses, Inverses);
  EXPECT_EQ(ExhaustiveInverses, Inverses);
}

TEST(DriverEngines, SymbolicMatchesExhaustiveOnFullCatalog) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Engine = EngineKind::Both;
  Opts.SymbolicSeqLenBound = 2;
  Opts.Threads = 4;

  Report R = runFullCatalog(Fx.C, Opts);
  EXPECT_EQ(R.failures(), 0u);

  // Pair every symbolic verdict (commutativity and inverse) with its
  // exhaustive twin.
  std::map<std::string, bool> Exhaustive;
  for (const JobRecord &J : R.Results)
    if (J.Engine == "exhaustive")
      Exhaustive[J.Family + "/" + J.Category + "/" + J.Op1 + "/" + J.Op2 +
                 "/" + J.Kind + "/" + J.Role] = J.Verified;

  size_t SymbolicJobs = 0, SymbolicInverses = 0;
  uint64_t TotalVcs = 0;
  for (const JobRecord &J : R.Results) {
    if (J.Engine != "symbolic")
      continue;
    ++SymbolicJobs;
    SymbolicInverses += J.Category == "inverse";
    TotalVcs += J.Vcs;
    std::string Key = J.Family + "/" + J.Category + "/" + J.Op1 + "/" +
                      J.Op2 + "/" + J.Kind + "/" + J.Role;
    ASSERT_TRUE(Exhaustive.count(Key)) << Key;
    EXPECT_EQ(J.Verified, Exhaustive[Key]) << Key;
    EXPECT_GT(J.Vcs, 0u) << Key;
  }
  EXPECT_EQ(SymbolicJobs, Exhaustive.size());
  EXPECT_EQ(SymbolicInverses, buildInverseSpecs().size());
  EXPECT_GT(TotalVcs, SymbolicJobs); // ArrayList case splits multiply VCs.

  // Every symbolic (family, op-pair) is served by the catalog shards
  // (one per thread) with its six methods.
  ASSERT_EQ(R.CatalogSessions.size(), 4u);
  size_t PairEntries = 0, SessionPairs = 0, SessionMethods = 0;
  for (const Family *Fam : allFamilies())
    PairEntries += Fx.C.entries(*Fam).size();
  for (const CatalogStats &S : R.CatalogSessions) {
    SessionPairs += S.Pairs;
    SessionMethods += S.Methods;
  }
  EXPECT_EQ(SessionPairs, PairEntries);
  EXPECT_EQ(SessionMethods, 6 * PairEntries);
  // Trivial pairs (e.g. Accumulator read/read) may encode entirely to unit
  // clauses, which live on the trail; substantial pairs must show retained
  // clauses.
  bool AnyRetained = false;
  for (const JobRecord &J : R.Results)
    AnyRetained = AnyRetained || J.RetainedClauses > 0;
  EXPECT_TRUE(AnyRetained);
}

TEST(DriverEngines, SymbolicVerdictsAreThreadCountInvariant) {
  // One-shot jobs share nothing, so not only the verdicts but every
  // per-job solver statistic is a function of the job alone, whatever the
  // thread count.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.SymbolicMode = SolveMode::OneShot;
  Opts.SymbolicSeqLenBound = 2;

  Opts.Threads = 1;
  Report Serial = runFullCatalog(Fx.C, Opts);
  EXPECT_TRUE(Serial.CatalogSessions.empty());
  for (unsigned Threads : {2u, 8u}) {
    Opts.Threads = Threads;
    Report Parallel = runFullCatalog(Fx.C, Opts);

    EXPECT_TRUE(Serial.sameVerdicts(Parallel)) << Threads;
    EXPECT_TRUE(Parallel.sameVerdicts(Serial)) << Threads;
    EXPECT_EQ(Serial.failures(), 0u);
    EXPECT_EQ(Parallel.failures(), 0u);
    for (size_t I = 0; I != Serial.Results.size(); ++I) {
      EXPECT_EQ(Serial.Results[I].Vcs, Parallel.Results[I].Vcs)
          << Serial.Results[I].key();
      EXPECT_EQ(Serial.Results[I].Conflicts, Parallel.Results[I].Conflicts)
          << Serial.Results[I].key();
      EXPECT_EQ(Serial.Results[I].ProofCore, Parallel.Results[I].ProofCore)
          << Serial.Results[I].key();
      EXPECT_EQ(Parallel.Results[I].RetainedClauses, 0u)
          << Serial.Results[I].key();
    }
  }
}

TEST(DriverEngines, SolveModesAgreeOnDriverVerdicts) {
  // The one-shot oracle and the shared-catalog default reach the same
  // verdicts with the same VC counts (only the other statistics differ).
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.Families = {"Set"};
  Opts.Threads = 4;

  Report Catalog = runFullCatalog(Fx.C, Opts);
  Opts.SymbolicMode = SolveMode::OneShot;
  Report OneShot = runFullCatalog(Fx.C, Opts);

  EXPECT_EQ(Catalog.failures(), 0u);
  EXPECT_EQ(OneShot.failures(), 0u);
  EXPECT_TRUE(Catalog.sameVerdicts(OneShot));
  ASSERT_EQ(Catalog.Results.size(), OneShot.Results.size());
  for (size_t I = 0; I != Catalog.Results.size(); ++I)
    EXPECT_EQ(Catalog.Results[I].Vcs, OneShot.Results[I].Vcs)
        << Catalog.Results[I].key();
  // One catalog shard per thread, never more than the family's pairs.
  EXPECT_EQ(Catalog.CatalogSessions.size(),
            std::min<size_t>(Opts.Threads, Fx.C.entries(setFamily()).size()));
  EXPECT_TRUE(OneShot.CatalogSessions.empty());
}

TEST(DriverEngines, SharedCatalogAgreesWithOtherModes) {
  // The catalog tier must be invisible in the verdicts: shared-catalog
  // agrees with the one-shot oracle, and reports catalog_stats rows whose
  // retirement/recycling counters show the tier actually ran.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.Families = {"Set"};
  Opts.Threads = 4;

  Opts.SymbolicMode = SolveMode::OneShot;
  Report OneShot = runFullCatalog(Fx.C, Opts);
  Opts.SymbolicMode = SolveMode::SharedCatalog;
  Report CatalogRun = runFullCatalog(Fx.C, Opts);

  EXPECT_EQ(CatalogRun.failures(), 0u);
  EXPECT_TRUE(OneShot.sameVerdicts(CatalogRun));

  // One family at 4 threads: four shards of it. Each serves only that
  // family, evicts every pair it opened, and recycles variables; together
  // they serve every pair exactly once.
  size_t SetPairs = Fx.C.entries(setFamily()).size();
  ASSERT_EQ(CatalogRun.CatalogSessions.size(), 4u);
  size_t Pairs = 0, Methods = 0;
  for (const CatalogStats &CS : CatalogRun.CatalogSessions) {
    EXPECT_EQ(CS.FamilyNames, "Set");
    EXPECT_EQ(CS.Families, 1u);
    EXPECT_EQ(CS.Methods, 6 * CS.Pairs);
    EXPECT_EQ(CS.PairsRetired, CS.Pairs);
    EXPECT_GT(CS.EvictedClauses, 0u);
    EXPECT_GT(CS.PrefixReuses, 0u);
    EXPECT_GT(CS.PeakRetainedClauses, 0u);
    EXPECT_GT(CS.RecycledVars, 0u);
    EXPECT_GT(CS.PeakLiveVars, 0u);
    EXPECT_LT(CS.PeakLiveVars, CS.VarRequests);
    Pairs += CS.Pairs;
    Methods += CS.Methods;
  }
  EXPECT_EQ(Pairs, SetPairs);
  EXPECT_EQ(Methods, 6 * SetPairs);
}

/// Every session counter a catalog_stats row reports.
void expectSameSessionCounters(const CatalogSessionStats &A,
                               const CatalogSessionStats &B) {
  EXPECT_EQ(A.Checks, B.Checks);
  EXPECT_EQ(A.Conflicts, B.Conflicts);
  EXPECT_EQ(A.PrefixAsserts, B.PrefixAsserts);
  EXPECT_EQ(A.PrefixReuses, B.PrefixReuses);
  EXPECT_EQ(A.PairsRetired, B.PairsRetired);
  EXPECT_EQ(A.EvictedClauses, B.EvictedClauses);
  EXPECT_EQ(A.RecycledVars, B.RecycledVars);
  EXPECT_EQ(A.PeakLiveVars, B.PeakLiveVars);
  EXPECT_EQ(A.PeakLiveClauses, B.PeakLiveClauses);
  EXPECT_EQ(A.VarRequests, B.VarRequests);
  EXPECT_EQ(A.PeakRetainedClauses, B.PeakRetainedClauses);
}

/// Every field of a catalog_stats row except its times.
void expectSameCatalogStats(const CatalogStats &A, const CatalogStats &B) {
  EXPECT_EQ(A.FamilyNames, B.FamilyNames);
  EXPECT_EQ(A.Families, B.Families);
  EXPECT_EQ(A.Pairs, B.Pairs);
  EXPECT_EQ(A.Methods, B.Methods);
  EXPECT_EQ(A.Vcs, B.Vcs);
  expectSameSessionCounters(A, B);
}

TEST(DriverEngines, SharedCatalogVerdictsAreThreadCountInvariant) {
  // The acceptance bar of the catalog tier: on the full catalog,
  // shared-catalog verdicts and per-job VC counts are identical at 1, 2,
  // and 8 threads. At T threads min(T, pairs) shards split every
  // family's entries round-robin, so the other statistics depend on the
  // thread count — but at a fixed thread count they repeat exactly.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.SymbolicMode = SolveMode::SharedCatalog;
  Opts.SymbolicSeqLenBound = 2;
  size_t Entries = 0;
  for (const Family *Fam : allFamilies())
    Entries += Fx.C.entries(*Fam).size();

  Opts.Threads = 1;
  Report Serial = runFullCatalog(Fx.C, Opts);
  EXPECT_EQ(Serial.failures(), 0u);
  ASSERT_EQ(Serial.CatalogSessions.size(), 1u);
  EXPECT_EQ(Serial.CatalogSessions[0].Families, 4u);
  EXPECT_EQ(Serial.CatalogSessions[0].FamilyNames,
            "Accumulator,Set,Map,ArrayList");
  EXPECT_GT(Serial.CatalogSessions[0].RecycledVars, 0u);
  EXPECT_EQ(Serial.CatalogSessions[0].PairsRetired,
            Serial.CatalogSessions[0].Pairs);

  for (unsigned Threads : {1u, 2u, 8u}) {
    Opts.Threads = Threads;
    Report Run = runFullCatalog(Fx.C, Opts);
    EXPECT_EQ(Run.failures(), 0u) << Threads;
    EXPECT_TRUE(Serial.sameVerdicts(Run)) << Threads;
    ASSERT_EQ(Run.Results.size(), Serial.Results.size());
    for (size_t I = 0; I != Run.Results.size(); ++I)
      EXPECT_EQ(Run.Results[I].Vcs, Serial.Results[I].Vcs)
          << Threads << " " << Run.Results[I].key();

    // min(threads, pairs) shards serve every catalog entry exactly once,
    // each names exactly the families it served, and each evicts every
    // pair scope it opened.
    ASSERT_EQ(Run.CatalogSessions.size(),
              std::min<size_t>(Threads, Entries));
    size_t Pairs = 0, Methods = 0;
    for (const CatalogStats &S : Run.CatalogSessions) {
      EXPECT_GT(S.Pairs, 0u) << Threads;
      EXPECT_EQ(std::count(S.FamilyNames.begin(), S.FamilyNames.end(), ',') +
                    1,
                S.Families)
          << Threads;
      EXPECT_EQ(S.PairsRetired, S.Pairs) << Threads;
      Pairs += S.Pairs;
      Methods += S.Methods;
    }
    EXPECT_EQ(Pairs, Entries) << Threads;
    EXPECT_EQ(Methods, 6 * Entries) << Threads;

    // A second run at the same thread count repeats every statistic.
    Report Again = runFullCatalog(Fx.C, Opts);
    ASSERT_EQ(Again.CatalogSessions.size(), Run.CatalogSessions.size());
    for (size_t I = 0; I != Run.CatalogSessions.size(); ++I)
      expectSameCatalogStats(Run.CatalogSessions[I],
                             Again.CatalogSessions[I]);
    for (size_t I = 0; I != Run.Results.size(); ++I) {
      EXPECT_EQ(Run.Results[I].Vcs, Again.Results[I].Vcs)
          << Run.Results[I].key();
      EXPECT_EQ(Run.Results[I].Conflicts, Again.Results[I].Conflicts)
          << Run.Results[I].key();
      EXPECT_EQ(Run.Results[I].ProofCore, Again.Results[I].ProofCore)
          << Run.Results[I].key();
    }
  }
}

TEST(DriverEngines, ShardsNeverOutnumberThePairs) {
  // Accumulator has four pairs: eight threads open four shards of one
  // pair each, none of them empty.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.Families = {"Accumulator"};
  Opts.Threads = 8;

  Report R = runFullCatalog(Fx.C, Opts);
  EXPECT_EQ(R.failures(), 0u);
  size_t Pairs = Fx.C.entries(accumulatorFamily()).size();
  ASSERT_EQ(Pairs, 4u);
  ASSERT_EQ(R.CatalogSessions.size(), Pairs);
  for (const CatalogStats &S : R.CatalogSessions) {
    EXPECT_EQ(S.FamilyNames, "Accumulator");
    EXPECT_EQ(S.Pairs, 1u);
    EXPECT_EQ(S.Methods, 6u);
    EXPECT_EQ(S.Families, 1u);
    EXPECT_EQ(S.PairsRetired, 1u);
  }
}

TEST(DriverEngines, OneShardMatchesTheCatalogReference) {
  // At one thread the whole catalog runs on one VerifyService shard; its
  // job rows must equal SymbolicEngine::verifyCatalog, the reference that
  // perfbench and semcommute-serve --check-verdicts use, method by method,
  // and its catalog_stats row must equal the reference's session record:
  // both keep every family scope open and retire every pair, so the
  // solver sees one discharge sequence.
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.SymbolicSeqLenBound = 2;
  Opts.Inverses = false;
  Opts.Threads = 1;
  Report R = runFullCatalog(Fx.C, Opts);

  SymbolicEngine Ref(Fx.F, Opts.SymbolicSeqLenBound,
                     Opts.SymbolicConflictBudget);
  CatalogOutcome CO = Ref.verifyCatalog(Fx.C, allFamilies());
  std::vector<const SymbolicResult *> Methods;
  for (const FamilyOutcome &FO : CO.Families)
    for (const PairOutcome &PO : FO.Pairs)
      for (const SymbolicResult &M : PO.Methods)
        Methods.push_back(&M);
  ASSERT_EQ(R.Results.size(), Methods.size());
  for (size_t I = 0; I != Methods.size(); ++I) {
    const JobRecord &J = R.Results[I];
    const SymbolicResult &M = *Methods[I];
    std::string Core;
    for (const std::string &L : M.CoreLabels)
      Core += (Core.empty() ? "" : ";") + L;
    EXPECT_EQ(J.Verified, M.Verified) << J.key();
    EXPECT_EQ(J.Vcs, M.NumVcs) << J.key();
    EXPECT_EQ(J.Conflicts, M.SatConflicts) << J.key();
    EXPECT_EQ(J.MaxVcConflicts, M.MaxVcConflicts) << J.key();
    EXPECT_EQ(J.ProofCore, Core) << J.key();
  }
  ASSERT_EQ(R.CatalogSessions.size(), 1u);
  expectSameSessionCounters(CO.Stats, R.CatalogSessions[0]);
}

//===----------------------------------------------------------------------===//
// JSON report
//===----------------------------------------------------------------------===//

/// The keys of a JSON object, in the order they were written.
std::vector<std::string> keysOf(const json::Value &Obj) {
  std::vector<std::string> Keys;
  for (const auto &Member : Obj.members())
    Keys.push_back(Member.first);
  return Keys;
}

/// Checks one written families row, key by key, against its summary.
void expectFamilyRow(const json::Value &Row, const FamilySummary &S) {
  EXPECT_EQ(keysOf(Row),
            (std::vector<std::string>{
                "family", "jobs", "failures", "paper_conditions", "job_ms",
                "scenarios", "vcs", "sat_conflicts", "retained_clauses",
                "db_reductions", "reclaimed_clauses"}));
  EXPECT_EQ(Row["family"].asString(), S.Family);
  EXPECT_EQ(Row["jobs"].asInt(), S.Jobs);
  EXPECT_EQ(Row["failures"].asInt(), S.Failures);
  EXPECT_EQ(Row["paper_conditions"].asInt(), S.PaperConditions);
  EXPECT_EQ(Row["job_ms"].asDouble(), S.JobMillis);
  EXPECT_EQ(Row["scenarios"].asInt(), static_cast<int64_t>(S.Scenarios));
  EXPECT_EQ(Row["vcs"].asInt(), static_cast<int64_t>(S.Vcs));
  EXPECT_EQ(Row["sat_conflicts"].asInt(), S.Conflicts);
  EXPECT_EQ(Row["retained_clauses"].asInt(),
            static_cast<int64_t>(S.RetainedClauses));
  EXPECT_EQ(Row["db_reductions"].asInt(),
            static_cast<int64_t>(S.DbReductions));
  EXPECT_EQ(Row["reclaimed_clauses"].asInt(),
            static_cast<int64_t>(S.ReclaimedClauses));
}

/// Checks one written results row, key by key, against its job record.
/// Solver keys appear on symbolic rows only, proof keys on certified runs.
void expectJobRow(const json::Value &Row, const JobRecord &J,
                  bool Certified) {
  std::vector<std::string> Keys = {"family", "category", "engine",
                                   "op1",    "op2",      "kind",
                                   "role",   "verified", "scenarios",
                                   "ms"};
  if (J.Vcs != 0) {
    Keys.insert(Keys.end(),
                {"vcs", "sat_conflicts", "max_vc_conflicts",
                 "retained_clauses", "db_reductions", "reclaimed_clauses"});
    if (!J.ProofCore.empty())
      Keys.push_back("proof_core");
    if (Certified)
      Keys.insert(Keys.end(),
                  {"proof_queries", "proof_clauses", "proof_checked"});
  }
  if (!J.Note.empty())
    Keys.push_back("note");
  ASSERT_EQ(keysOf(Row), Keys) << J.key();
  EXPECT_EQ(Row["family"].asString(), J.Family);
  EXPECT_EQ(Row["category"].asString(), J.Category);
  EXPECT_EQ(Row["engine"].asString(), J.Engine);
  EXPECT_EQ(Row["op1"].asString(), J.Op1);
  EXPECT_EQ(Row["op2"].asString(), J.Op2);
  EXPECT_EQ(Row["kind"].asString(), J.Kind);
  EXPECT_EQ(Row["role"].asString(), J.Role);
  EXPECT_EQ(Row["verified"].asBool(), J.Verified);
  EXPECT_EQ(Row["scenarios"].asInt(), static_cast<int64_t>(J.Scenarios));
  EXPECT_EQ(Row["ms"].asDouble(), J.Millis);
  if (J.Vcs != 0) {
    EXPECT_EQ(Row["vcs"].asInt(), static_cast<int64_t>(J.Vcs));
    EXPECT_EQ(Row["sat_conflicts"].asInt(), J.Conflicts);
    EXPECT_EQ(Row["max_vc_conflicts"].asInt(), J.MaxVcConflicts);
    EXPECT_EQ(Row["retained_clauses"].asInt(),
              static_cast<int64_t>(J.RetainedClauses));
    EXPECT_EQ(Row["db_reductions"].asInt(),
              static_cast<int64_t>(J.DbReductions));
    EXPECT_EQ(Row["reclaimed_clauses"].asInt(),
              static_cast<int64_t>(J.ReclaimedClauses));
    if (!J.ProofCore.empty()) {
      EXPECT_EQ(Row["proof_core"].asString(), J.ProofCore);
    }
    if (Certified) {
      EXPECT_EQ(Row["proof_queries"].asInt(),
                static_cast<int64_t>(J.ProofQueries));
      EXPECT_EQ(Row["proof_clauses"].asInt(),
                static_cast<int64_t>(J.ProofClauses));
      EXPECT_EQ(Row["proof_checked"].asBool(), J.ProofChecked);
    }
  }
  if (!J.Note.empty()) {
    EXPECT_EQ(Row["note"].asString(), J.Note);
  }
}

/// Checks one written catalog_stats row, key by key, against the shard's
/// stats; pair_evictions is the session's PairsRetired.
void expectCatalogRow(const json::Value &Row, const CatalogStats &S) {
  EXPECT_EQ(keysOf(Row),
            (std::vector<std::string>{
                "family_names", "families", "pairs", "methods", "vcs",
                "checks", "sat_conflicts", "prefix_asserts", "prefix_reuses",
                "pair_evictions", "evicted_clauses", "recycled_vars",
                "peak_live_vars", "peak_live_clauses", "var_requests",
                "peak_retained_clauses", "pair_plan_ms", "retire_ms",
                "proof_check_ms", "ms"}));
  auto U = [](uint64_t N) { return static_cast<int64_t>(N); };
  EXPECT_EQ(Row["family_names"].asString(), S.FamilyNames);
  EXPECT_EQ(Row["families"].asInt(), S.Families);
  EXPECT_EQ(Row["pairs"].asInt(), S.Pairs);
  EXPECT_EQ(Row["methods"].asInt(), S.Methods);
  EXPECT_EQ(Row["vcs"].asInt(), U(S.Vcs));
  EXPECT_EQ(Row["checks"].asInt(), U(S.Checks));
  EXPECT_EQ(Row["sat_conflicts"].asInt(), S.Conflicts);
  EXPECT_EQ(Row["prefix_asserts"].asInt(), U(S.PrefixAsserts));
  EXPECT_EQ(Row["prefix_reuses"].asInt(), U(S.PrefixReuses));
  EXPECT_EQ(Row["pair_evictions"].asInt(), U(S.PairsRetired));
  EXPECT_EQ(Row["evicted_clauses"].asInt(), U(S.EvictedClauses));
  EXPECT_EQ(Row["recycled_vars"].asInt(), U(S.RecycledVars));
  EXPECT_EQ(Row["peak_live_vars"].asInt(), U(S.PeakLiveVars));
  EXPECT_EQ(Row["peak_live_clauses"].asInt(), U(S.PeakLiveClauses));
  EXPECT_EQ(Row["var_requests"].asInt(), U(S.VarRequests));
  EXPECT_EQ(Row["peak_retained_clauses"].asInt(), U(S.PeakRetainedClauses));
  EXPECT_EQ(Row["pair_plan_ms"].asDouble(), S.PairPlanMillis);
  EXPECT_EQ(Row["retire_ms"].asDouble(), S.RetireMillis);
  EXPECT_EQ(Row["proof_check_ms"].asDouble(), S.ProofCheckMillis);
  EXPECT_EQ(Row["ms"].asDouble(), S.Millis);
}

TEST(DriverReport, JsonRoundTrips) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Accumulator", "Set"};
  Opts.Threads = 2;

  Report R = runFullCatalog(Fx.C, Opts);
  json::Value Doc = R.toJson();

  // Serialized text parses back to the identical DOM, compact and pretty.
  for (int Indent : {-1, 2}) {
    std::optional<json::Value> Parsed = json::Value::parse(Doc.dump(Indent));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_TRUE(*Parsed == Doc);
    EXPECT_EQ(Parsed->dump(Indent), Doc.dump(Indent));
  }

  // The DOM holds the run's metadata and every row of the report.
  EXPECT_EQ(Doc["tool"].asString(), "semcommute-verify");
  EXPECT_EQ(Doc["threads"].asInt(), R.Threads);
  EXPECT_EQ(Doc["wall_ms"].asDouble(), R.WallMillis);
  EXPECT_EQ(Doc["catalog_plan_ms"].asDouble(), R.CatalogPlanMillis);
  EXPECT_EQ(Doc.find("certify"), nullptr);
  EXPECT_EQ(Doc.find("error"), nullptr);
  EXPECT_EQ(Doc["scope"]["set_universe"].asInt(), R.Bounds.SetUniverse);
  EXPECT_EQ(Doc["scope"]["counter_range"].asInt(), R.Bounds.CounterRange);
  ASSERT_EQ(Doc["families"].size(), R.Families.size());
  for (size_t I = 0; I != R.Families.size(); ++I)
    expectFamilyRow(Doc["families"].at(I), R.Families[I]);
  ASSERT_EQ(Doc["results"].size(), R.Results.size());
  for (size_t I = 0; I != R.Results.size(); ++I)
    expectJobRow(Doc["results"].at(I), R.Results[I], R.Certified);

  // Garbage is rejected, not mis-parsed.
  EXPECT_FALSE(json::Value::parse("{\"unterminated\": ").has_value());
  EXPECT_FALSE(json::Value::parse("[1, 2,]trailing").has_value());
  EXPECT_FALSE(json::Value::parse("1-2").has_value());
  EXPECT_FALSE(json::Value::parse("+1").has_value());
  EXPECT_FALSE(json::Value::parse("1e5e5").has_value());
  EXPECT_FALSE(json::Value::parse("1.").has_value());
  EXPECT_FALSE(json::Value::parse("[1-2]").has_value());
}

TEST(DriverReport, EngineAndSolverStatsRoundTrip) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Set"};
  Opts.Engine = EngineKind::Both;
  Opts.Threads = 2;

  Report R = runFullCatalog(Fx.C, Opts);
  json::Value Doc = R.toJson();
  // Both engines' rows, the symbolic ones with their solver statistics.
  ASSERT_EQ(Doc["results"].size(), R.Results.size());
  size_t Symbolic = 0;
  for (size_t I = 0; I != R.Results.size(); ++I) {
    expectJobRow(Doc["results"].at(I), R.Results[I], R.Certified);
    Symbolic += R.Results[I].Vcs != 0;
  }
  EXPECT_GT(Symbolic, 0u);
  EXPECT_LT(Symbolic, R.Results.size());
  ASSERT_EQ(Doc["families"].size(), R.Families.size());
  for (size_t I = 0; I != R.Families.size(); ++I)
    expectFamilyRow(Doc["families"].at(I), R.Families[I]);
  ASSERT_EQ(Doc["catalog_stats"].size(), R.CatalogSessions.size());
  for (size_t I = 0; I != R.CatalogSessions.size(); ++I)
    expectCatalogRow(Doc["catalog_stats"].at(I), R.CatalogSessions[I]);
}

TEST(DriverReport, CatalogStatsRoundTrip) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Engine = EngineKind::Symbolic;
  Opts.Families = {"Accumulator", "Set"};
  Opts.Threads = 1;
  Opts.Certify = true; // So the row carries a proof-check time.

  Report R = runFullCatalog(Fx.C, Opts);
  ASSERT_EQ(R.CatalogSessions.size(), 1u);
  const CatalogStats &S = R.CatalogSessions[0];
  EXPECT_EQ(S.FamilyNames, "Accumulator,Set");
  EXPECT_GT(S.PairPlanMillis, 0.0);
  EXPECT_GT(S.RetireMillis, 0.0);
  EXPECT_GT(S.ProofCheckMillis, 0.0);
  EXPECT_EQ(S.PairsRetired, S.Pairs);
  // The shared catalog plan is timed once, outside every shard's row.
  EXPECT_GT(R.CatalogPlanMillis, 0.0);
  json::Value Doc = R.toJson();
  EXPECT_EQ(Doc["catalog_plan_ms"].asDouble(), R.CatalogPlanMillis);
  EXPECT_TRUE(Doc["certify"].asBool());
  ASSERT_EQ(Doc["catalog_stats"].size(), 1u);
  expectCatalogRow(Doc["catalog_stats"].at(0), S);
  ASSERT_EQ(Doc["results"].size(), R.Results.size());
  for (size_t I = 0; I != R.Results.size(); ++I)
    expectJobRow(Doc["results"].at(I), R.Results[I], R.Certified);
}

TEST(DriverReport, BenchBaselineIndexStatsRoundTrips) {
  // bench/run_all.sh (schema 6) embeds perf_dynamic_check's index_summary
  // metrics as an index_stats section in BENCH_semcommute.json. The section
  // must survive our JSON parse/dump unchanged — CI and regression tooling
  // read the baseline back through this parser.
  const char *Doc = R"({
    "schema": 6,
    "tool": "bench/run_all.sh",
    "index_stats": {
      "indexed_speedup_x": 25.4,
      "constant_speedup_x": 118.7,
      "interpreted_ns": 642.1,
      "indexed_ns": 25.3,
      "constant_ns": 3.1,
      "raw_op_ns": 41.8,
      "constant_fraction": 0.2882,
      "total_slots": 680,
      "programs": 484,
      "constants": 196,
      "fallbacks": 0,
      "max_regs": 19,
      "total_instructions": 2683,
      "paper_conditions": 765
    }
  })";
  std::optional<json::Value> V = json::Value::parse(Doc);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)["schema"].asInt(), 6);

  const json::Value &Idx = (*V)["index_stats"];
  ASSERT_TRUE(Idx.isObject());
  EXPECT_DOUBLE_EQ(Idx["indexed_speedup_x"].asDouble(), 25.4);
  EXPECT_DOUBLE_EQ(Idx["constant_fraction"].asDouble(), 0.2882);
  EXPECT_EQ(Idx["total_slots"].asInt(), 680);
  EXPECT_EQ(Idx["programs"].asInt(), 484);
  EXPECT_EQ(Idx["constants"].asInt(), 196);
  EXPECT_EQ(Idx["fallbacks"].asInt(), 0);
  EXPECT_EQ(Idx["paper_conditions"].asInt(), 765);

  // Compact and pretty serializations both reparse to the identical DOM
  // and re-serialize byte-identically (objects preserve member order).
  for (int Indent : {-1, 2}) {
    std::optional<json::Value> Back = json::Value::parse(V->dump(Indent));
    ASSERT_TRUE(Back.has_value());
    EXPECT_TRUE(*Back == *V);
    EXPECT_EQ(Back->dump(Indent), V->dump(Indent));
  }

  // A pre-index baseline (schema 5, no index_stats) still reads cleanly:
  // the consumer distinguishes "absent" from "null" via find().
  std::optional<json::Value> Old =
      json::Value::parse(R"({"schema": 5, "tool": "bench/run_all.sh"})");
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(Old->find("index_stats"), nullptr);
}

TEST(DriverReport, BenchBaselineSpeculationStatsRoundTrips) {
  // bench/run_all.sh (schema 7) embeds perf_speculation's summary and grid
  // rows as a speculation_stats section in BENCH_semcommute.json. The
  // section must survive our JSON parse/dump unchanged — CI and regression
  // tooling read the baseline back through this parser.
  const char *Doc = R"({
    "schema": 7,
    "tool": "bench/run_all.sh",
    "speculation_stats": {
      "max_threads": 8,
      "thread_levels": 4,
      "gk_window": 16,
      "indexed_over_interpreted_x_high": 11.91,
      "indexed_over_interpreted_x_low": 4.28,
      "gk_ns_per_query_indexed_high": 47.0,
      "gk_ns_per_query_interpreted_high": 736.4,
      "scaling_1_to_max_low": 0.692,
      "scaling_1_to_max_high": 0.989,
      "ops_per_sec_1t_low": 1723096,
      "ops_per_sec_max_low": 1192889,
      "ops_per_sec_1t_high": 2340830,
      "ops_per_sec_max_high": 2314804,
      "sampled_const_hit_rate": 0.0156,
      "storm_undone_inverses": 1641,
      "storm_undone_snapshot": 1655,
      "all_completed": true,
      "grid": [
        {"mode": "replay", "threads": 1, "shards": 2, "contention": "high",
         "keys": 65536, "policy": "inverses", "path": "indexed",
         "abort_every": 0, "txns": 125, "ops": 12000, "wall_ms": 210.7,
         "ops_per_sec": 56963, "ops_executed": 15504, "commits": 125,
         "aborts": 43, "wounds": 43, "injected_aborts": 0,
         "abort_rate": 0.344, "undone_ops": 1843, "snapshots": 0,
         "gk_checks": 2731881, "gk_pass_rate": 0.9998,
         "gk_ns_per_query": 47.0, "checker_program_runs": 2650124,
         "checker_fallbacks": 0, "sampled_const_hit_rate": 0.0156,
         "completed": true},
        {"mode": "parallel", "threads": 8, "shards": 4,
         "contention": "high", "keys": 48, "policy": "snapshot",
         "path": "indexed", "abort_every": 1024, "txns": 313,
         "ops": 30048, "wall_ms": 15.6, "ops_per_sec": 1923412,
         "ops_executed": 31904, "commits": 313, "aborts": 31,
         "wounds": 2, "injected_aborts": 29, "abort_rate": 0.099,
         "undone_ops": 1849, "snapshots": 950, "gk_checks": 159,
         "gk_pass_rate": 0.56, "gk_ns_per_query": 48126.0,
         "checker_program_runs": 69, "checker_fallbacks": 0,
         "sampled_const_hit_rate": 0.0, "completed": true}
      ]
    }
  })";
  std::optional<json::Value> V = json::Value::parse(Doc);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ((*V)["schema"].asInt(), 7);

  const json::Value &Spec = (*V)["speculation_stats"];
  ASSERT_TRUE(Spec.isObject());
  EXPECT_DOUBLE_EQ(Spec["indexed_over_interpreted_x_high"].asDouble(), 11.91);
  EXPECT_DOUBLE_EQ(Spec["gk_ns_per_query_interpreted_high"].asDouble(),
                   736.4);
  EXPECT_EQ(Spec["max_threads"].asInt(), 8);
  EXPECT_EQ(Spec["gk_window"].asInt(), 16);
  EXPECT_EQ(Spec["storm_undone_inverses"].asInt(), 1641);
  EXPECT_TRUE(Spec["all_completed"].asBool());

  const json::Value &Grid = Spec["grid"];
  ASSERT_TRUE(Grid.isArray());
  ASSERT_EQ(Grid.size(), 2u);
  EXPECT_EQ(Grid.at(0)["mode"].asString(), "replay");
  EXPECT_EQ(Grid.at(0)["path"].asString(), "indexed");
  EXPECT_EQ(Grid.at(0)["gk_checks"].asInt(), 2731881);
  EXPECT_EQ(Grid.at(1)["mode"].asString(), "parallel");
  EXPECT_EQ(Grid.at(1)["policy"].asString(), "snapshot");
  EXPECT_EQ(Grid.at(1)["snapshots"].asInt(), 950);
  EXPECT_DOUBLE_EQ(Grid.at(1)["abort_rate"].asDouble(), 0.099);

  // Compact and pretty serializations both reparse to the identical DOM
  // and re-serialize byte-identically (objects preserve member order).
  for (int Indent : {-1, 2}) {
    std::optional<json::Value> Back = json::Value::parse(V->dump(Indent));
    ASSERT_TRUE(Back.has_value());
    EXPECT_TRUE(*Back == *V);
    EXPECT_EQ(Back->dump(Indent), V->dump(Indent));
  }

  // A pre-executor baseline (schema 6, no speculation_stats) still reads
  // cleanly: the consumer distinguishes "absent" from "null" via find().
  std::optional<json::Value> Old =
      json::Value::parse(R"({"schema": 6, "tool": "bench/run_all.sh"})");
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(Old->find("speculation_stats"), nullptr);
}

TEST(DriverReport, SameVerdictsDetectsDifferences) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Bounds = smallScope();
  Opts.Families = {"Accumulator"};

  Report A = runFullCatalog(Fx.C, Opts);
  Report B = A;
  EXPECT_TRUE(A.sameVerdicts(B));

  B.Results[0].Verified = !B.Results[0].Verified;
  EXPECT_FALSE(A.sameVerdicts(B));

  Report C = A;
  C.Results.pop_back();
  EXPECT_FALSE(A.sameVerdicts(C));
}

TEST(DriverReport, UnknownFamilyYieldsErrorReportNotSuccess) {
  DriverFixture Fx;
  DriverOptions Opts;
  Opts.Families = {"Sets"}; // typo: must not read as "verified everything"
  Report R = runFullCatalog(Fx.C, Opts);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_TRUE(R.Results.empty());
  EXPECT_GT(R.failures(), 0u);

  // The written report names the error and has no results.
  json::Value Doc = R.toJson();
  ASSERT_NE(Doc.find("error"), nullptr);
  EXPECT_EQ(Doc["error"].asString(), R.Error);
  EXPECT_EQ(Doc["results"].size(), 0u);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  std::atomic<int> Counter{0};
  {
    ThreadPool Pool(4);
    EXPECT_EQ(Pool.threadCount(), 4u);
    for (int I = 0; I != 1000; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Counter.load(), 1000);
    // The pool is reusable after wait().
    for (int I = 0; I != 100; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
    Pool.wait();
  }
  EXPECT_EQ(Counter.load(), 1100);
}

TEST(ThreadPool, TasksMaySubmitTasks) {
  std::atomic<int> Counter{0};
  ThreadPool Pool(3);
  for (int I = 0; I != 10; ++I)
    Pool.submit([&Pool, &Counter] {
      for (int J = 0; J != 10; ++J)
        Pool.submit([&Counter] { Counter.fetch_add(1); });
    });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversTheRange) {
  std::vector<std::atomic<int>> Hits(257);
  ThreadPool::parallelFor(Hits.size(), 4,
                          [&Hits](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << I;
}

} // namespace
