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

#include <atomic>
#include <thread>

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
  EXPECT_EQ(O.failures(), 0u);
  for (const SymbolicResult &R : O.Methods) {
    EXPECT_TRUE(R.Verified);
    EXPECT_GT(R.Millis, 0.0); // CatalogSession::discharge timed it.
    // Every method's VCs went through the warm session: a one-shot
    // discharge retains no clauses.
    EXPECT_GT(R.RetainedClauses, 0u);
  }
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
          Fx.F.disj(Dropped);
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

// --- Plan pinning ------------------------------------------------------------
//
// Pair planning builds every VC the symbolic path discharges. These tests
// pin its output: a digest over the whole catalog's pair plans, the
// agreement between plan(M) and planPair, and the per-method early stop of
// the ArrayList lattice walk.

namespace {

/// Stable 64-bit FNV-1a over \p S, continuing from \p H.
uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (char Ch : S) {
    H ^= static_cast<unsigned char>(Ch);
    H *= 1099511628211ull;
  }
  return H;
}

/// A canonical text of \p P: name, Common, the Scoped labels and formulas,
/// each split's label and assumptions, and the Unsupported flag and note.
void dumpPlan(const MethodPlan &P, std::string &Out) {
  Out += "method " + P.Name + "\n";
  for (ExprRef E : P.Common)
    Out += "  common " + printAbstract(E) + "\n";
  for (const TaggedAssumption &A : P.Scoped)
    Out += "  scoped " + A.Label + ": " + printAbstract(A.E) + "\n";
  for (const VcSplit &S : P.Splits) {
    Out += "  split " + S.Label + "\n";
    for (const TaggedAssumption &A : S.Assumed)
      Out += "    " + A.Label + ": " + printAbstract(A.E) + "\n";
  }
  Out += "  unsupported " + std::to_string(P.Unsupported) + " " +
         P.UnsupportedNote + "\n";
}

/// The digest of every pair plan \p Eng builds for the full catalog.
uint64_t catalogPlanDigest(const SymbolicEngine &Eng, const Catalog &C) {
  uint64_t H = fnv1a("");
  for (const Family *Fam : allFamilies())
    for (const ConditionEntry &E : C.entries(*Fam)) {
      std::string Dump = "pair " + Fam->Name + " " + E.pairName() + "\n";
      for (const MethodPlan &MP : Eng.planPair(E).Methods)
        dumpPlan(MP, Dump);
      H = fnv1a(Dump, H);
    }
  return H;
}

/// The testing method planPair builds as its \p I-th plan.
TestingMethod pairMethod(const ConditionEntry &E, size_t I) {
  TestingMethod M;
  M.Entry = &E;
  M.Kind = static_cast<ConditionKind>(I / 2);
  M.Role = I % 2 == 0 ? MethodRole::Soundness : MethodRole::Completeness;
  return M;
}

/// Same formulas (pointer-equal: the factory hash-conses), labels and flags.
void expectSamePlan(const MethodPlan &A, const MethodPlan &B,
                    const std::string &Where) {
  EXPECT_EQ(A.Name, B.Name) << Where;
  EXPECT_EQ(A.Common, B.Common) << Where;
  auto SameAssumptions = [&](const std::vector<TaggedAssumption> &X,
                             const std::vector<TaggedAssumption> &Y) {
    ASSERT_EQ(X.size(), Y.size()) << Where;
    for (size_t I = 0; I != X.size(); ++I) {
      EXPECT_EQ(X[I].E, Y[I].E) << Where << " assumption " << X[I].Label;
      EXPECT_EQ(X[I].Label, Y[I].Label) << Where;
    }
  };
  SameAssumptions(A.Scoped, B.Scoped);
  ASSERT_EQ(A.Splits.size(), B.Splits.size()) << Where;
  for (size_t S = 0; S != A.Splits.size(); ++S) {
    EXPECT_EQ(A.Splits[S].Label, B.Splits[S].Label) << Where;
    SameAssumptions(A.Splits[S].Assumed, B.Splits[S].Assumed);
  }
  EXPECT_EQ(A.Unsupported, B.Unsupported) << Where;
  EXPECT_EQ(A.UnsupportedNote, B.UnsupportedNote) << Where;
}

} // namespace

TEST(PlanPinning, CatalogPlanDigestIsStable) {
  // Any change to what a plan builder emits moves one of these digests:
  // the formulas, the labels or the flags of any of the 1020 methods.
  SymbolicFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/3);
  EXPECT_EQ(catalogPlanDigest(Eng, Fx.C), 0x1773b5e710bd177eull);
  std::vector<HintScript> Hints = buildArrayListHintScripts(Fx.F);
  Eng.attachHints(&Hints);
  EXPECT_EQ(catalogPlanDigest(Eng, Fx.C), 0xbe82fd4ef60f14d9ull);
}

TEST(PlanPinning, ConcurrentWarmPlansMatchSerial) {
  // On a warm factory pair planning finds every node it interns. Four
  // threads planning the whole catalog at once through the shared factory
  // must build exactly the single-thread plans and add no node.
  SymbolicFixture &Fx = fixture();
  std::vector<const ConditionEntry *> Entries;
  for (const Family *Fam : allFamilies())
    for (const ConditionEntry &E : Fx.C.entries(*Fam))
      Entries.push_back(&E);
  std::vector<PairPlan> Serial;
  {
    SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/3);
    for (const ConditionEntry *E : Entries)
      Serial.push_back(Eng.planPair(*E));
  }
  size_t Nodes = Fx.F.numNodes();

  constexpr int NumThreads = 4;
  std::vector<std::vector<PairPlan>> Plans(NumThreads);
  std::atomic<int> Ready{0};
  {
    std::vector<std::thread> Threads;
    for (int T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&Fx, &Entries, &Plans, &Ready, T] {
        SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/3);
        Ready.fetch_add(1);
        while (Ready.load() != NumThreads)
          std::this_thread::yield();
        for (const ConditionEntry *E : Entries)
          Plans[T].push_back(Eng.planPair(*E));
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(Fx.F.numNodes(), Nodes);
  for (int T = 0; T < NumThreads; ++T) {
    ASSERT_EQ(Plans[T].size(), Serial.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      const PairPlan &Got = Plans[T][I], &Want = Serial[I];
      EXPECT_EQ(Got.Key, Want.Key);
      ASSERT_EQ(Got.Methods.size(), Want.Methods.size());
      for (size_t M = 0; M != Want.Methods.size(); ++M)
        expectSamePlan(Got.Methods[M], Want.Methods[M],
                       "thread " + std::to_string(T) + " " + Want.Key +
                           " method " + std::to_string(M));
    }
  }

  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/3);
  EXPECT_EQ(catalogPlanDigest(Eng, Fx.C), 0x1773b5e710bd177eull);
  std::vector<HintScript> Hints = buildArrayListHintScripts(Fx.F);
  Eng.attachHints(&Hints);
  EXPECT_EQ(catalogPlanDigest(Eng, Fx.C), 0xbe82fd4ef60f14d9ull);
}

TEST(PlanPinning, MethodPlansEqualPairPlans) {
  SymbolicFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/3);
  std::vector<HintScript> Hints = buildArrayListHintScripts(Fx.F);
  for (bool Hinted : {false, true}) {
    Eng.attachHints(Hinted ? &Hints : nullptr);
    for (const Family *Fam : allFamilies())
      for (const ConditionEntry &E : Fx.C.entries(*Fam)) {
        PairPlan PP = Eng.planPair(E);
        ASSERT_EQ(PP.Methods.size(), 6u);
        for (size_t I = 0; I != 6; ++I)
          expectSamePlan(Eng.plan(pairMethod(E, I)), PP.Methods[I],
                         Fam->Name + " " + E.pairName() + " method " +
                             std::to_string(I) +
                             (Hinted ? " (hinted)" : ""));
      }
  }
}

TEST(PlanPinning, UnsupportedConditionEndsOnlyItsOwnMethods) {
  // An equation over three indexOf terms is outside the bounded lowering:
  // the Between methods stop after their first split, unverified, while
  // the pair's other methods walk the whole lattice.
  SymbolicFixture &Fx = fixture();
  Vocab D(Fx.F);
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/3);
  const ConditionEntry &Real =
      Fx.C.entry(arrayListFamily(), "add_at", "get");
  ConditionEntry Mutant = Real;
  Mutant.Between =
      D.eq(D.add(D.idx(D.S1, D.V1), D.idx(D.S2, D.V2)), D.idx(D.S3, D.V1));
  PairPlan Want = Eng.planPair(Real);
  PairPlan Got = Eng.planPair(Mutant);
  ASSERT_EQ(Got.Methods.size(), 6u);
  for (size_t I = 0; I != 6; ++I) {
    const MethodPlan &MP = Got.Methods[I];
    if (pairMethod(Mutant, I).Kind == ConditionKind::Between) {
      EXPECT_EQ(MP.Splits.size(), 1u) << MP.Name;
      EXPECT_TRUE(MP.Unsupported) << MP.Name;
      EXPECT_EQ(MP.UnsupportedNote,
                "unsupported atom shape in bounded lowering");
      expectSamePlan(Eng.plan(pairMethod(Mutant, I)), MP, MP.Name);
    } else {
      EXPECT_GT(MP.Splits.size(), 1u) << MP.Name;
      expectSamePlan(MP, Want.Methods[I], MP.Name);
    }
  }
}
