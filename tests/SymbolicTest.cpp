//===- tests/SymbolicTest.cpp - Symbolic engine tests ----------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// The symbolic engine (the Jahob analogue) must agree with the exhaustive
/// engine everywhere: it verifies every catalog method and rejects every
/// mutant the exhaustive engine rejects. Together the two independent
/// verification paths cross-validate both the catalog and each other.
///
//===----------------------------------------------------------------------===//

#include "commute/ExhaustiveEngine.h"
#include "commute/SymbolicEngine.h"
#include "logic/Dsl.h"
#include "logic/Simplifier.h"
#include "logic/Printer.h"

#include <gtest/gtest.h>

using namespace semcomm;

namespace {
struct SymbolicFixture {
  ExprFactory F;
  Catalog C{F};
  SymbolicEngine Engine{F, /*SeqLenBound=*/3};
};
SymbolicFixture &fixture() {
  static SymbolicFixture Fx;
  return Fx;
}
} // namespace

class SymbolicFamilyVerification : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicFamilyVerification, AllMethodsVerifySymbolically) {
  SymbolicFixture &Fx = fixture();
  const Family &Fam = *allFamilies()[GetParam()];
  for (const TestingMethod &M : generateTestingMethods(Fx.C, Fam)) {
    SymbolicResult R = Fx.Engine.verify(M);
    EXPECT_TRUE(R.Verified)
        << Fam.Name << " " << M.name() << "\n  phi: "
        << printAbstract(M.Entry->get(M.Kind)) << "\n  countermodel: "
        << R.Countermodel;
    EXPECT_GT(R.NumVcs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SymbolicFamilyVerification,
                         ::testing::Range(0, 4));

TEST(SymbolicEngineTest, RejectsSetMutant) {
  SymbolicFixture &Fx = fixture();
  Vocab D(Fx.F);
  // Claim (contains; add) always commutes — soundness must fail with a
  // countermodel mentioning the membership atom.
  Catalog &C = Fx.C;
  const ConditionEntry &Real = C.entry(setFamily(), "contains", "add_");
  ConditionEntry Mutant = Real;
  Mutant.Before = Mutant.Between = Mutant.After = D.tru();
  TestingMethod M;
  M.Entry = &Mutant;
  M.Kind = ConditionKind::Before;
  M.Role = MethodRole::Soundness;
  SymbolicResult R = Fx.Engine.verify(M);
  EXPECT_FALSE(R.Verified);
  EXPECT_EQ(R.LastOutcome, SatResult::Sat);
  EXPECT_FALSE(R.Countermodel.empty());
}

TEST(SymbolicEngineTest, RejectsArrayListMutant) {
  SymbolicFixture &Fx = fixture();
  Vocab D(Fx.F);
  const ConditionEntry &Real =
      fixture().C.entry(arrayListFamily(), "add_at", "get");
  ConditionEntry Mutant = Real;
  // "get commutes with add_at whenever the indices differ" — wrong: reads
  // above the insertion point shift.
  Mutant.Before = Mutant.Between = Mutant.After = D.ne(D.I1, D.I2);
  TestingMethod M;
  M.Entry = &Mutant;
  M.Kind = ConditionKind::Before;
  M.Role = MethodRole::Soundness;
  SymbolicResult R = Fx.Engine.verify(M);
  EXPECT_FALSE(R.Verified);
}

TEST(SymbolicEngineTest, RejectsIncompleteMapMutant) {
  SymbolicFixture &Fx = fixture();
  Vocab D(Fx.F);
  const ConditionEntry &Real = Fx.C.entry(mapFamily(), "put_", "put_");
  ConditionEntry Mutant = Real;
  Mutant.Before = Mutant.Between = Mutant.After = D.ne(D.K1, D.K2);
  TestingMethod M;
  M.Entry = &Mutant;
  M.Kind = ConditionKind::Between;
  M.Role = MethodRole::Completeness;
  SymbolicResult R = Fx.Engine.verify(M);
  EXPECT_FALSE(R.Verified);
}

TEST(SymbolicEngineTest, WarmSessionReportsReuseStats) {
  SymbolicFixture &Fx = fixture();
  // An ArrayList method has many case splits; the warm session must carry
  // clauses across them.
  for (const TestingMethod &M :
       generateTestingMethods(Fx.C, arrayListFamily())) {
    SymbolicResult R = Fx.Engine.verify(M);
    ASSERT_TRUE(R.Verified) << M.name();
    EXPECT_GT(R.NumVcs, 1u) << M.name();
    EXPECT_GT(R.RetainedClauses, 0u) << M.name();
    EXPECT_GE(R.SatConflicts, R.MaxVcConflicts) << M.name();
    break; // One method suffices; the full sweep runs above.
  }
}

TEST(SymbolicEngineTest, AllSolveModesAgree) {
  // The warm session must be invisible in the verdicts: the catalog path
  // and the one-shot oracle both verify the full ArrayList suite (the
  // split-heavy family) and reject the same mutants.
  SymbolicFixture &Fx = fixture();
  SymbolicEngine OneShot(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                         SolveMode::OneShot);
  SymbolicEngine Warm(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                      SolveMode::SharedCatalog);
  for (const TestingMethod &M :
       generateTestingMethods(Fx.C, arrayListFamily())) {
    SymbolicResult A = OneShot.verify(M);
    SymbolicResult S = Warm.verify(M);
    EXPECT_TRUE(A.Verified) << M.name();
    EXPECT_EQ(A.Verified, S.Verified) << M.name();
    EXPECT_EQ(A.NumVcs, S.NumVcs) << M.name();
    EXPECT_EQ(A.RetainedClauses, 0u) << M.name();
  }

  Vocab D(Fx.F);
  const ConditionEntry &Real =
      Fx.C.entry(arrayListFamily(), "add_at", "get");
  ConditionEntry Mutant = Real;
  Mutant.Before = Mutant.Between = Mutant.After = D.ne(D.I1, D.I2);
  TestingMethod M;
  M.Entry = &Mutant;
  M.Kind = ConditionKind::Before;
  M.Role = MethodRole::Soundness;
  EXPECT_FALSE(OneShot.verify(M).Verified);
  EXPECT_FALSE(Warm.verify(M).Verified);
}

TEST(SymbolicEngineTest, VerifyPairSharesOneSessionAcrossSixMethods) {
  SymbolicFixture &Fx = fixture();
  SymbolicEngine Engine(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  const ConditionEntry &E =
      Fx.C.entry(arrayListFamily(), "add_at", "remove_at");
  PairOutcome O = Engine.verifyPair(E);
  ASSERT_EQ(O.Methods.size(), 6u);
  ASSERT_EQ(O.MethodMillis.size(), 6u);
  EXPECT_EQ(O.failures(), 0u);
  // Family and pair scope, plus one selector literal per method.
  EXPECT_EQ(O.Selectors, 8u);
  EXPECT_GT(O.RetainedClauses, 0u);
  uint64_t Vcs = 0;
  for (const SymbolicResult &R : O.Methods) {
    EXPECT_TRUE(R.Verified);
    Vcs += R.NumVcs;
  }
  EXPECT_EQ(O.Checks, Vcs); // Every VC went through the shared session.
}

TEST(SymbolicEngineTest, ProofCoresNameSelectorAndSplitLiterals) {
  // A verified method's unsat cores name the assumptions the refutations
  // used; the method's selector shows up whenever its scoped prefix
  // carried the proof.
  SymbolicFixture &Fx = fixture();
  SymbolicEngine Engine(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000);
  const ConditionEntry &E = Fx.C.entry(setFamily(), "add", "add");
  PairOutcome O = Engine.verifyPair(E);
  bool SawSelector = false, SawSplitLabel = false;
  for (const SymbolicResult &R : O.Methods) {
    ASSERT_TRUE(R.Verified);
    for (const std::string &L : R.CoreLabels) {
      SawSelector = SawSelector || L.rfind("sel:", 0) == 0;
      SawSplitLabel = SawSplitLabel || L.rfind("sel:", 0) != 0;
    }
  }
  EXPECT_TRUE(SawSelector);
  (void)SawSplitLabel; // Single-VC families carry the body in the prefix.
}

TEST(SymbolicEngineTest, EnginesAgreeOnRandomizedWeakenings) {
  // Drop one clause from every multi-clause set/map between condition and
  // confirm both engines give the same verdicts for both roles.
  SymbolicFixture &Fx = fixture();
  ExhaustiveEngine Ex;
  for (const Family *Fam : {&setFamily(), &mapFamily()}) {
    for (const ConditionEntry &E : Fx.C.entries(*Fam)) {
      std::vector<ExprRef> Clauses = collectDisjuncts(E.Between);
      if (Clauses.size() < 2)
        continue;
      std::vector<ExprRef> Dropped(Clauses.begin() + 1, Clauses.end());
      ConditionEntry Mutant = E;
      Mutant.Before = Mutant.Between = Mutant.After =
          Fx.F.disj(std::move(Dropped));
      for (MethodRole Role :
           {MethodRole::Soundness, MethodRole::Completeness}) {
        TestingMethod M;
        M.Entry = &Mutant;
        M.Kind = ConditionKind::Between;
        M.Role = Role;
        bool Symbolic = Fx.Engine.verify(M).Verified;
        bool Exhaustive =
            Ex.verifyCondition(*Fam, E.op1().Name, E.op2().Name,
                               ConditionKind::Between, Role, Mutant.Between)
                .Verified;
        EXPECT_EQ(Symbolic, Exhaustive)
            << Fam->Name << " " << E.pairName() << " "
            << methodRoleName(Role) << " on "
            << printAbstract(Mutant.Between);
      }
    }
  }
}
