//===- tests/SessionPoolTest.cpp - Warm session and one-shot oracle tests ---===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// The warm shared session (CatalogSession) must be invisible in the
/// verdicts: selector literals isolate each method's scoped prefix inside
/// the shared clause database, scope retirement evicts without changing
/// any answer, and discharging any subset of a pair's methods in any order
/// through one session agrees with independent per-method sessions. The
/// fuzz sweeps below drive exactly those comparisons, including mutants
/// whose proofs fail.
///
//===----------------------------------------------------------------------===//

#include "commute/SymbolicEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace semcomm;

namespace {

struct PoolFixture {
  ExprFactory F;
  Catalog C{F};
};
PoolFixture &fixture() {
  static PoolFixture Fx;
  return Fx;
}

/// A catalog plan with one family and no common prefix: every plan's
/// prefix lives in its pair scope.
CatalogPlan oneFamilyPlan(const std::string &Name,
                          std::vector<ExprRef> FamilyCommon = {}) {
  CatalogPlan CP;
  CP.Families.push_back({Name, std::move(FamilyCommon)});
  return CP;
}

} // namespace

TEST(SharedSessionTest, SelectorsIsolateContradictoryScopedPrefixes) {
  // Two methods with mutually contradictory scoped prefixes must coexist
  // in one warm database: each proof sees only its own prefix.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("shared_x", Sort::Bool);

  MethodPlan PosPlan;
  PosPlan.Name = "scoped_pos";
  PosPlan.Scoped.push_back({X, "x"});
  PosPlan.Splits.push_back(
      VcSplit{{{Fx.F.lnot(X), "not-x"}}, ""}); // x ∧ ¬x: refuted.

  MethodPlan NegPlan;
  NegPlan.Name = "scoped_neg";
  NegPlan.Scoped.push_back({Fx.F.lnot(X), "not-x"});
  NegPlan.Splits.push_back(VcSplit{{{X, "x"}}, ""});

  CatalogPlan CP = oneFamilyPlan("iso");
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);
  SymbolicResult R1, R2;
  EXPECT_TRUE(Sess.discharge(0, "p", PosPlan, R1));
  EXPECT_TRUE(Sess.discharge(0, "p", NegPlan, R2));
  // Family + pair selector, plus one per method.
  EXPECT_EQ(Sess.numSelectors(), 4u);

  // Had either scoped prefix leaked into the global base, the database
  // would now be contradictory and this satisfiable plan would "verify".
  MethodPlan SatPlan;
  SatPlan.Name = "scoped_free";
  SatPlan.Splits.push_back(
      VcSplit{{{Fx.F.var("shared_y", Sort::Bool), "y"}}, ""});
  SymbolicResult R3;
  EXPECT_FALSE(Sess.discharge(0, "p", SatPlan, R3));
  EXPECT_EQ(R3.LastOutcome, SatResult::Sat);
}

TEST(SharedSessionTest, SameNameDifferentPlansGetDistinctSelectors) {
  // Two *different* plans that happen to share a name (e.g. a mutated
  // entry's methods keep the original names) must not share a selector:
  // the second plan would otherwise be proved against the first plan's
  // scoped prefix.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("dup_x", Sort::Bool);

  MethodPlan A;
  A.Name = "dup_method";
  A.Scoped.push_back({X, "x"});
  A.Splits.push_back(VcSplit{{{Fx.F.lnot(X), "not-x"}}, ""});

  MethodPlan B = A; // Same name, contradictory prefix.
  B.Scoped.clear();
  B.Scoped.push_back({Fx.F.lnot(X), "not-x"});

  CatalogPlan CP = oneFamilyPlan("dup");
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);
  SymbolicResult RA, RB, RA2;
  EXPECT_TRUE(Sess.discharge(0, "p", A, RA));
  // Under B's own prefix (¬x) the split ¬x is satisfiable — had B reused
  // A's selector (prefix x), it would wrongly verify.
  EXPECT_FALSE(Sess.discharge(0, "p", B, RB));
  EXPECT_EQ(RB.LastOutcome, SatResult::Sat);
  EXPECT_EQ(Sess.numSelectors(), 4u); // Family + pair + two methods.
  // Re-discharging A reuses its original selector.
  EXPECT_TRUE(Sess.discharge(0, "p", A, RA2));
  EXPECT_EQ(Sess.numSelectors(), 4u);
}

TEST(SharedSessionTest, UnsatCoreLabelsNameTheUsedAssumptions) {
  PoolFixture &Fx = fixture();
  ExprRef A = Fx.F.var("core_a", Sort::Bool);
  ExprRef B = Fx.F.var("core_b", Sort::Bool);

  MethodPlan Plan;
  Plan.Name = "core_demo";
  Plan.Scoped.push_back({Fx.F.implies(A, B), "a-implies-b"});
  // Assume a and ¬b: the refutation needs the selector (which activates
  // the implication) and both split literals — and nothing else.
  Plan.Splits.push_back(
      VcSplit{{{A, "a"}, {Fx.F.lnot(B), "not-b"},
               {Fx.F.var("core_unused", Sort::Bool), "unused"}},
              ""});

  CatalogPlan CP = oneFamilyPlan("core");
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);
  SymbolicResult R;
  ASSERT_TRUE(Sess.discharge(0, "p", Plan, R));
  auto Has = [&R](const char *L) {
    return std::find(R.CoreLabels.begin(), R.CoreLabels.end(), L) !=
           R.CoreLabels.end();
  };
  EXPECT_TRUE(Has("sel:core_demo"));
  EXPECT_TRUE(Has("a"));
  EXPECT_TRUE(Has("not-b"));
  EXPECT_FALSE(Has("unused"));
}

TEST(SharedSessionTest, UnsupportedPlanReportsItsNote) {
  PoolFixture &Fx = fixture();
  MethodPlan Plan;
  Plan.Name = "unsupported_demo";
  Plan.Unsupported = true;
  Plan.UnsupportedNote = "unsupported atom shape in bounded lowering";
  // Even a refutable final split must not count as a proof.
  Plan.Splits.push_back(VcSplit{{{Fx.F.falseExpr(), "false"}}, "n=0"});

  // Both the warm path and the one-shot oracle apply the rule.
  for (SolveMode Mode : {SolveMode::SharedCatalog, SolveMode::OneShot}) {
    SymbolicResult R;
    EXPECT_FALSE(dischargeAlone(Fx.F, Plan, Mode, "unsupported", "p",
                                /*Budget=*/-1, /*GcBudget=*/0,
                                /*Certify=*/false, R))
        << solveModeName(Mode);
    EXPECT_EQ(R.Countermodel, Plan.UnsupportedNote) << solveModeName(Mode);
  }
}

/// Fuzz: random subsets of a pair's six methods, in random order, through
/// one catalog session, against independent per-method sessions (each
/// method alone in a session of its own) — verdicts and VC counts must be
/// identical. Mutated entries mix failing proofs into the sequence.
class SharedPairFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedPairFuzzTest, RandomMethodSubsetsMatchPerMethodSessions) {
  PoolFixture &Fx = fixture();
  std::mt19937 Rng(GetParam());
  SymbolicEngine Engine(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);

  // Pool of entries spanning all four families.
  std::vector<const ConditionEntry *> Entries;
  for (const Family *Fam : allFamilies())
    for (const ConditionEntry &E : Fx.C.entries(*Fam))
      Entries.push_back(&E);

  for (int Trial = 0; Trial < 30; ++Trial) {
    const ConditionEntry &Real =
        *Entries[Rng() % Entries.size()];
    // Half of the trials weaken the conditions to "always commutes",
    // which fails soundness for most pairs — the shared session must not
    // let one method's failure contaminate another's verdict.
    ConditionEntry Mutant = Real;
    bool Mutated = (Rng() & 1) != 0;
    if (Mutated)
      Mutant.Before = Mutant.Between = Mutant.After = Fx.F.trueExpr();
    const ConditionEntry &E = Mutated ? Mutant : Real;

    // A random subset of the six methods, in random order.
    std::vector<std::pair<ConditionKind, MethodRole>> All;
    for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                            ConditionKind::After})
      for (MethodRole Role :
           {MethodRole::Soundness, MethodRole::Completeness})
        All.push_back({K, Role});
    std::shuffle(All.begin(), All.end(), Rng);
    size_t Take = 1 + Rng() % All.size();

    CatalogPlan CP = oneFamilyPlan(E.Fam->Name);
    CatalogSession Sess(Fx.F, CP, /*Budget=*/200000);
    for (size_t I = 0; I != Take; ++I) {
      TestingMethod M;
      M.Entry = &E;
      M.Kind = All[I].first;
      M.Role = All[I].second;

      SymbolicResult Got;
      Got.Verified = Sess.discharge(0, E.pairName(), Engine.plan(M), Got);
      SymbolicResult Want = Engine.verify(M);

      ASSERT_EQ(Got.Verified, Want.Verified)
          << "seed=" << GetParam() << " trial=" << Trial << " "
          << E.Fam->Name << " " << E.pairName() << " " << M.name()
          << (Mutated ? " (mutant)" : "");
      ASSERT_EQ(Got.NumVcs, Want.NumVcs) << M.name();
    }
    EXPECT_EQ(Sess.numSelectors(), Take + 2); // + family and pair.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPairFuzzTest,
                         ::testing::Values(17, 29, 71, 113));

TEST(FamilySessionTest, SelectorsNestAndRetireCleanly) {
  // Two "pairs" of one family with contradictory pair-common prefixes
  // coexist under their pair selectors; retiring one evicts its clauses
  // and leaves the other scope's proofs intact.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("fam_x", Sort::Bool);

  CatalogPlan CP = oneFamilyPlan("demo");
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);

  MethodPlan Pos;
  Pos.Name = "m";
  Pos.Common = {X};
  Pos.Splits.push_back(VcSplit{{{Fx.F.lnot(X), "not-x"}}, ""});
  MethodPlan Neg;
  Neg.Name = "m";
  Neg.Common = {Fx.F.lnot(X)};
  Neg.Splits.push_back(VcSplit{{{X, "x"}}, ""});

  SymbolicResult R1, R2;
  EXPECT_TRUE(Sess.discharge(0, "p1", Pos, R1));
  EXPECT_TRUE(Sess.discharge(0, "p2", Neg, R2));
  // The family selector, then pair selector + method selector per pair.
  EXPECT_EQ(Sess.numSelectors(), 5u);
  EXPECT_EQ(Sess.stats().PairsOpened, 2u);

  // The core names the pair scope, the method selector, and the split.
  auto Has = [&R1](const char *L) {
    return std::find(R1.CoreLabels.begin(), R1.CoreLabels.end(), L) !=
           R1.CoreLabels.end();
  };
  EXPECT_TRUE(Has("pair:p1"));
  EXPECT_TRUE(Has("not-x"));

  uint64_t Retained = Sess.retainedClauses();
  EXPECT_GT(Sess.retirePair(0, "p1"), 0u);
  EXPECT_LT(Sess.retainedClauses(), Retained);
  EXPECT_EQ(Sess.stats().PairsRetired, 1u);
  EXPECT_TRUE(Sess.session().solver().reasonInvariantHolds());

  // p2 still verifies after p1's eviction; p1 re-opens under a fresh
  // selector and verifies again.
  SymbolicResult R3, R4;
  EXPECT_TRUE(Sess.discharge(0, "p2", Neg, R3));
  EXPECT_TRUE(Sess.discharge(0, "p1", Pos, R4));
  EXPECT_EQ(Sess.stats().PairsOpened, 3u);
}

TEST(FamilySessionTest, FamilyCommonPrefixIsSharedAcrossPairs) {
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("famc_x", Sort::Bool);

  CatalogPlan CP = oneFamilyPlan("demo2", {X});
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);

  MethodPlan M;
  M.Name = "m";
  M.Common = {X}; // Already family base: counted as a reuse, not asserted.
  M.Splits.push_back(VcSplit{{{Fx.F.lnot(X), "not-x"}}, ""});
  SymbolicResult R1, R2;
  EXPECT_TRUE(Sess.discharge(0, "p1", M, R1));
  EXPECT_EQ(Sess.stats().PrefixAsserts, 1u); // Opening the family.
  EXPECT_TRUE(Sess.discharge(0, "p2", M, R2));
  EXPECT_EQ(Sess.stats().PrefixAsserts, 1u);
  EXPECT_EQ(Sess.stats().PrefixReuses, 2u);
}

TEST(SymbolicEngineTest, EvictionBoundsRetainedClausesAcrossAFamily) {
  // The point of pair eviction: the peak database stays near one live
  // pair's footprint instead of accumulating every pair's. The
  // no-eviction reference discharges the same plans through the same
  // kind of session without ever retiring a pair.
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);

  const Family &Fam = mapFamily();
  CatalogOutcome Evicting = Eng.verifyCatalog(Fx.C, {&Fam});

  CatalogPlan CP = Eng.planCatalog(Fx.C, {&Fam});
  CatalogSession NoEvict(Fx.F, CP, /*Budget=*/200000);
  for (const ConditionEntry &E : Fx.C.entries(Fam)) {
    PairPlan PP = Eng.planPair(E);
    for (const MethodPlan &MP : PP.Methods) {
      SymbolicResult R;
      NoEvict.discharge(0, PP.Key, MP, R);
    }
  }

  EXPECT_GT(Evicting.Stats.EvictedClauses, 0u);
  EXPECT_LT(Evicting.Stats.PeakRetainedClauses,
            NoEvict.stats().PeakRetainedClauses);
  // Not proportional to family size: the evicting peak stays well under
  // half of the accumulate-everything peak on the 49-pair Map family.
  EXPECT_LT(Evicting.Stats.PeakRetainedClauses,
            NoEvict.stats().PeakRetainedClauses / 2);
}

/// Eviction-soundness fuzz: random pair discharge / retire / re-verify
/// orders inside one family scope of a catalog session — including mutant
/// catalogs whose proofs fail — against the one-shot oracle. Verdicts must
/// match everywhere and the solver's reason invariant must survive every
/// eviction.
class FamilyEvictionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyEvictionFuzzTest, RandomRetireOrdersMatchNoEvictionReference) {
  PoolFixture &Fx = fixture();
  std::mt19937 Rng(GetParam());
  SymbolicEngine Planner(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);

  for (int Trial = 0; Trial < 12; ++Trial) {
    const Family *Fam = allFamilies()[Rng() % allFamilies().size()];
    const std::vector<ConditionEntry> &All = Fx.C.entries(*Fam);

    // A handful of pairs, half of the trials mutated to "always commutes"
    // (fails soundness for most pairs). Mutants keep their operations, so
    // the family's planned prefixes still apply to them.
    std::vector<PairPlan> Pairs;
    for (int I = 0; I < 4; ++I) {
      ConditionEntry E = All[Rng() % All.size()];
      if (Rng() & 1)
        E.Before = E.Between = E.After = Fx.F.trueExpr();
      Pairs.push_back(Planner.planPair(E));
    }
    CatalogPlan CP = Planner.planCatalog(Fx.C, {Fam});
    CatalogSession Sess(Fx.F, CP, /*Budget=*/200000);
    Sess.configureClauseGc(/*FirstLimit=*/64);

    // Random operation sequence over the picked pairs: discharge a random
    // method of a random pair (re-verification after retirement included),
    // or retire a random pair.
    for (int Step = 0; Step < 24; ++Step) {
      size_t PI = Rng() % Pairs.size();
      const PairPlan &PP = Pairs[PI];
      // Keys may repeat across picked entries; index the key by position
      // so a mutant and its original stay distinguishable to the test.
      std::string Key = PP.Key + "#" + std::to_string(PI);
      if (Rng() % 4 == 0) {
        Sess.retirePair(0, Key);
        ASSERT_TRUE(Sess.session().solver().reasonInvariantHolds())
            << "seed=" << GetParam() << " trial=" << Trial
            << " step=" << Step;
        continue;
      }
      const MethodPlan &MP = PP.Methods[Rng() % PP.Methods.size()];
      SymbolicResult Got;
      Got.Verified = Sess.discharge(0, Key, MP, Got);

      SymbolicResult Want;
      Want.Verified = dischargeOneShot(Fx.F, MP, /*Budget=*/200000,
                                       /*GcBudget=*/0, /*Certify=*/false,
                                       Want);

      ASSERT_EQ(Got.Verified, Want.Verified)
          << "seed=" << GetParam() << " trial=" << Trial << " step=" << Step
          << " " << Fam->Name << " " << PP.Key << " " << MP.Name;
      ASSERT_EQ(Got.NumVcs, Want.NumVcs) << MP.Name;
    }
    // Retire everything that is still live and confirm the solver state.
    for (size_t PI = 0; PI != Pairs.size(); ++PI)
      Sess.retirePair(0, Pairs[PI].Key + "#" + std::to_string(PI));
    ASSERT_TRUE(Sess.session().solver().reasonInvariantHolds());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FamilyEvictionFuzzTest,
                         ::testing::Values(23, 47, 89, 131));

TEST(CatalogSessionTest, FamilyScopesIsolateAndSubtreeRetire) {
  // Two families with contradictory family-common prefixes coexist under
  // their family selectors; retiring a pair's subtree in one family (pair
  // scope and method scopes, one solver pass) leaves the other family's
  // proofs intact and recycles the retired scopes' variables.
  PoolFixture &Fx = fixture();
  ExprRef X = Fx.F.var("cat_x", Sort::Bool);
  ExprRef W = Fx.F.var("cat_w", Sort::Bool);

  CatalogPlan CP;
  CP.Families.resize(2);
  CP.Families[0].FamilyName = "demoA";
  CP.Families[0].FamilyCommon = {X};
  CP.Families[1].FamilyName = "demoB";
  CP.Families[1].FamilyCommon = {Fx.F.lnot(X)};
  CatalogSession Sess(Fx.F, CP, /*Budget=*/-1);

  // Compound scoped/split formulas, so the pair scopes own Tseitin
  // definitions (the variables subtree retirement recycles).
  MethodPlan Pos;
  Pos.Name = "m";
  Pos.Scoped.push_back({Fx.F.disj({X, W}), "x-or-w"});
  Pos.Splits.push_back(
      VcSplit{{{Fx.F.conj({Fx.F.lnot(X), W}), "not-x-and-w"}}, ""});
  MethodPlan Neg;
  Neg.Name = "m";
  Neg.Splits.push_back(VcSplit{{{Fx.F.conj({X, W}), "x-and-w"}}, ""});

  SymbolicResult R1, R2;
  EXPECT_TRUE(Sess.discharge(0, "p", Pos, R1));
  EXPECT_TRUE(Sess.discharge(1, "p", Neg, R2));
  // Family + pair + method selector per family.
  EXPECT_EQ(Sess.numSelectors(), 6u);
  EXPECT_EQ(Sess.stats().FamiliesOpened, 2u);
  EXPECT_EQ(Sess.stats().PairsOpened, 2u);

  // The core names the family scope, the pair scope, and the split.
  auto Has = [&R1](const char *L) {
    return std::find(R1.CoreLabels.begin(), R1.CoreLabels.end(), L) !=
           R1.CoreLabels.end();
  };
  EXPECT_TRUE(Has("fam:demoA"));
  EXPECT_TRUE(Has("not-x-and-w"));

  uint64_t Retained = Sess.retainedClauses();
  int64_t RecycledBefore = Sess.session().recycledVars();
  EXPECT_GT(Sess.retirePair(0, "p"), 0u);
  EXPECT_LT(Sess.retainedClauses(), Retained);
  EXPECT_EQ(Sess.stats().PairsRetired, 1u);
  EXPECT_GT(Sess.session().recycledVars(), RecycledBefore);
  EXPECT_TRUE(Sess.session().solver().reasonInvariantHolds());

  // demoB still verifies after demoA's pair retired; demoA's pair re-opens
  // under a fresh selector in the family scope, which stayed open, and
  // verifies again.
  SymbolicResult R3, R4;
  EXPECT_TRUE(Sess.discharge(1, "p", Neg, R3));
  EXPECT_TRUE(Sess.discharge(0, "p", Pos, R4));
  EXPECT_EQ(Sess.stats().FamiliesOpened, 2u);
  EXPECT_EQ(Sess.stats().PairsOpened, 3u);
}

TEST(SymbolicEngineTest, VerifyCatalogMatchesSharedPairOnWholeCatalog) {
  // Sharing one session across the catalog is a pure performance choice:
  // every verdict equals the one a session shared by the pair alone
  // reaches (verifyPair), family by family, pair by pair, method by
  // method; every family scope opens once, every pair is retired; and the
  // session recycles variables.
  PoolFixture &Fx = fixture();
  SymbolicEngine CatEng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  SymbolicEngine Pair(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);

  CatalogOutcome CO = CatEng.verifyCatalog(Fx.C, allFamilies());
  ASSERT_EQ(CO.Families.size(), allFamilies().size());
  EXPECT_EQ(CO.Stats.FamiliesOpened, allFamilies().size());
  EXPECT_GT(CO.Stats.RecycledVars, 0u);
  EXPECT_LT(CO.Stats.PeakLiveVars, CO.Stats.VarRequests);

  uint64_t Pairs = 0;
  for (size_t FI = 0; FI != allFamilies().size(); ++FI) {
    const Family *Fam = allFamilies()[FI];
    const FamilyOutcome &FO = CO.Families[FI];
    const std::vector<ConditionEntry> &Entries = Fx.C.entries(*Fam);
    ASSERT_EQ(FO.Pairs.size(), Entries.size()) << Fam->Name;
    Pairs += Entries.size();
    for (size_t I = 0; I != Entries.size(); ++I) {
      EXPECT_EQ(FO.PairKeys[I], Entries[I].pairName());
      PairOutcome Want = Pair.verifyPair(Entries[I]);
      ASSERT_EQ(FO.Pairs[I].Methods.size(), Want.Methods.size());
      for (size_t M = 0; M != Want.Methods.size(); ++M) {
        EXPECT_EQ(FO.Pairs[I].Methods[M].Verified, Want.Methods[M].Verified)
            << Fam->Name << " " << Entries[I].pairName() << " method " << M;
        EXPECT_EQ(FO.Pairs[I].Methods[M].NumVcs, Want.Methods[M].NumVcs);
      }
    }
  }
  EXPECT_EQ(CO.Stats.PairsOpened, Pairs);
  EXPECT_EQ(CO.Stats.PairsRetired, Pairs);
}

TEST(SymbolicEngineTest, CatalogCommonPrefixHoistsSharedWellFormedness) {
  // The catalog plan hoists the well-formedness formulas every entry
  // either asserts itself or provably cannot mention: the shared v1/v2
  // non-null constraints qualify (Set and ArrayList assert them; the
  // families that skip them never mention those variables).
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  CatalogPlan CP = Eng.planCatalog(Fx.C, allFamilies());
  ASSERT_EQ(CP.Families.size(), 4u);
  EXPECT_FALSE(CP.CatalogCommon.empty());
  ExprRef V1NonNull =
      Fx.F.ne(Fx.F.var("v1", Sort::Obj), Fx.F.nullConst());
  EXPECT_TRUE(std::find(CP.CatalogCommon.begin(), CP.CatalogCommon.end(),
                        V1NonNull) != CP.CatalogCommon.end());
  // Every hoisted formula really is in some family's common prefix and in
  // no family's *negated* vocabulary: cross-check against per-pair
  // verdicts is covered by VerifyCatalogMatchesSharedPairOnWholeCatalog.
}

TEST(SymbolicEngineTest, CatalogRecyclingBoundsLiveVarsBelowDemand) {
  // The acceptance bound of variable recycling: the catalog session's
  // peak live variable count stays measurably below the cumulative
  // allocation a no-recycling run needs for the same discharge sequence.
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  CatalogPlan CP = Eng.planCatalog(Fx.C, allFamilies());

  auto RunAll = [&](CatalogSession &Sess) {
    unsigned Failures = 0;
    for (size_t FI = 0; FI != allFamilies().size(); ++FI) {
      for (const ConditionEntry &E : Fx.C.entries(*allFamilies()[FI])) {
        PairPlan PP = Eng.planPair(E);
        for (const MethodPlan &MP : PP.Methods) {
          SymbolicResult R;
          Failures += !Sess.discharge(FI, PP.Key, MP, R);
        }
        Sess.retirePair(FI, PP.Key);
      }
    }
    return Failures;
  };

  CatalogSession Rec(Fx.F, CP, /*Budget=*/200000);
  unsigned RecFailures = RunAll(Rec);

  CatalogSession NoRec(Fx.F, CP, /*Budget=*/200000);
  NoRec.session().solver().setVarRecycling(false);
  unsigned NoRecFailures = RunAll(NoRec);

  // Recycling is invisible in the verdicts...
  EXPECT_EQ(RecFailures, NoRecFailures);
  // ...and both runs make the same variable demand, but the recycling
  // session's peak live count is measurably below the no-recycling run's
  // cumulative allocation (its live == allocated count).
  CatalogSessionStats RecStats = Rec.stats(), NoRecStats = NoRec.stats();
  EXPECT_EQ(RecStats.VarRequests, NoRecStats.VarRequests);
  EXPECT_EQ(NoRecStats.RecycledVars, 0u);
  uint64_t NoRecAllocated =
      static_cast<uint64_t>(NoRec.session().solver().numVars());
  EXPECT_GT(RecStats.RecycledVars, 0u);
  EXPECT_LT(RecStats.PeakLiveVars, NoRecAllocated);
  // "Measurably": at least 15% of the cumulative allocation is recycled
  // away at bound 2; larger bounds only widen the gap.
  EXPECT_LT(RecStats.PeakLiveVars, NoRecAllocated * 85 / 100);
}

TEST(SymbolicEngineTest, LazyPlanningBoundsMaterializedSplits) {
  // verifyCatalog materializes each pair's splits just before discharge
  // and drops them after retirePair: the peak number of live splits is
  // one pair's worth, far below the whole family's.
  PoolFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  FamilyOutcome FO =
      Eng.verifyCatalog(Fx.C, {&arrayListFamily()}).Families.front();
  EXPECT_GT(FO.PeakMaterializedSplits, 0u);
  EXPECT_GT(FO.TotalSplits, FO.PeakMaterializedSplits * 10);

  // The peak equals the largest single pair's split count — exactly what
  // an eager planner would have materialized for that pair alone.
  uint64_t MaxPair = 0, Total = 0;
  for (const ConditionEntry &E : Fx.C.entries(arrayListFamily())) {
    uint64_t N = 0;
    for (const MethodPlan &MP : Eng.planPair(E).Methods)
      N += MP.Splits.size();
    MaxPair = std::max(MaxPair, N);
    Total += N;
  }
  EXPECT_EQ(FO.PeakMaterializedSplits, MaxPair);
  EXPECT_EQ(FO.TotalSplits, Total);
}
