//===- tests/SmtTest.cpp - smt/ module unit & property tests ---------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "logic/Dsl.h"
#include "smt/SmtSolver.h"
#include "smt/Tseitin.h"
#include "logic/Evaluator.h"
#include "logic/Printer.h"
#include "spec/AbstractState.h"

#include <gtest/gtest.h>

#include <random>
#include <tuple>

using namespace semcomm;

// --- SAT solver ---------------------------------------------------------------

TEST(SatSolverTest, TrivialInstances) {
  SatSolver S;
  int A = S.addVar();
  S.addClause({Lit(A, true)});
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(A));

  SatSolver S2;
  int B = S2.addVar();
  S2.addClause({Lit(B, true)});
  S2.addClause({Lit(B, false)});
  EXPECT_EQ(S2.solve(), SatResult::Unsat);
}

TEST(SatSolverTest, EmptyClauseIsUnsat) {
  SatSolver S;
  S.addVar();
  S.addClause({});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

/// Pigeonhole PHP(n+1, n) instances are classic small unsat cases that
/// exercise clause learning.
static SatResult pigeonhole(int Pigeons, int Holes) {
  SatSolver S;
  std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
  for (int P = 0; P < Pigeons; ++P)
    for (int H = 0; H < Holes; ++H)
      Var[P][H] = S.addVar();
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> C;
    for (int H = 0; H < Holes; ++H)
      C.push_back(Lit(Var[P][H], true));
    S.addClause(C);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause({Lit(Var[P1][H], false), Lit(Var[P2][H], false)});
  return S.solve();
}

TEST(SatSolverTest, Pigeonhole) {
  EXPECT_EQ(pigeonhole(4, 3), SatResult::Unsat);
  EXPECT_EQ(pigeonhole(5, 4), SatResult::Unsat);
  EXPECT_EQ(pigeonhole(4, 4), SatResult::Sat);
}

TEST(SatSolverTest, ConflictBudgetReportsUnknown) {
  SatSolver S;
  // A hard-enough pigeonhole with a tiny budget.
  std::vector<std::vector<int>> Var(7, std::vector<int>(6));
  for (auto &Row : Var)
    for (int &V : Row)
      V = S.addVar();
  for (int P = 0; P < 7; ++P) {
    std::vector<Lit> C;
    for (int H = 0; H < 6; ++H)
      C.push_back(Lit(Var[P][H], true));
    S.addClause(C);
  }
  for (int H = 0; H < 6; ++H)
    for (int P1 = 0; P1 < 7; ++P1)
      for (int P2 = P1 + 1; P2 < 7; ++P2)
        S.addClause({Lit(Var[P1][H], false), Lit(Var[P2][H], false)});
  EXPECT_EQ(S.solve(/*MaxConflicts=*/1), SatResult::Unknown);
}

// Property sweep: random 3-CNF instances cross-checked against brute force.
class SatFuzzTest : public ::testing::TestWithParam<int> {};

static bool bruteForce(int NVars, const std::vector<std::vector<int>> &Cls) {
  for (unsigned M = 0; M < (1u << NVars); ++M) {
    bool AllSat = true;
    for (const auto &C : Cls) {
      bool SatC = false;
      for (int L : C) {
        int V = L > 0 ? L : -L;
        if ((L > 0) == (((M >> (V - 1)) & 1) != 0)) {
          SatC = true;
          break;
        }
      }
      if (!SatC) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

TEST_P(SatFuzzTest, MatchesBruteForce) {
  std::mt19937 Rng(GetParam());
  for (int Iter = 0; Iter < 200; ++Iter) {
    int NV = 3 + static_cast<int>(Rng() % 9);
    int NC = 2 + static_cast<int>(Rng() % (NV * 5));
    std::vector<std::vector<int>> Cls;
    for (int C = 0; C < NC; ++C) {
      int Len = 1 + static_cast<int>(Rng() % 4);
      std::vector<int> Clause;
      for (int I = 0; I < Len; ++I) {
        int V = 1 + static_cast<int>(Rng() % NV);
        Clause.push_back((Rng() & 1) ? V : -V);
      }
      Cls.push_back(Clause);
    }
    SatSolver S;
    for (int V = 0; V < NV; ++V)
      S.addVar();
    for (const auto &Clause : Cls) {
      std::vector<Lit> Lits;
      for (int L : Clause)
        Lits.push_back(Lit(L > 0 ? L : -L, L > 0));
      S.addClause(Lits);
    }
    SatResult R = S.solve();
    ASSERT_NE(R, SatResult::Unknown);
    ASSERT_EQ(R == SatResult::Sat, bruteForce(NV, Cls))
        << "seed=" << GetParam() << " iter=" << Iter;
    if (R == SatResult::Sat) {
      for (const auto &Clause : Cls) {
        bool SatC = false;
        for (int L : Clause)
          if ((L > 0) == S.modelValue(L > 0 ? L : -L))
            SatC = true;
        ASSERT_TRUE(SatC) << "invalid model";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Incremental solving ------------------------------------------------------

namespace {

/// Builds PHP(Holes+1, Holes) with every clause gated behind \p Sel.
std::vector<std::vector<int>> gatedPigeonhole(SatSolver &S, int Holes,
                                              Lit Sel) {
  int Pigeons = Holes + 1;
  std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
  for (auto &Row : Var)
    for (int &V : Row)
      V = S.addVar();
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> C{Sel.negated()};
    for (int H = 0; H < Holes; ++H)
      C.push_back(Lit(Var[P][H], true));
    S.addClause(C);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause({Sel.negated(), Lit(Var[P1][H], false),
                     Lit(Var[P2][H], false)});
  return Var;
}

} // namespace

TEST(SatSolverIncremental, AssumptionsDoNotPersist) {
  SatSolver S;
  int A = S.addVar(), B = S.addVar();
  S.addClause({Lit(A, true), Lit(B, true)});
  EXPECT_EQ(S.solve({Lit(A, false), Lit(B, false)}), SatResult::Unsat);
  // The assumptions were per-call: the database itself is still Sat, in
  // both polarities.
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_EQ(S.solve({Lit(A, true)}), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_EQ(S.solve({Lit(A, false)}), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatSolverIncremental, ContradictoryAssumptions) {
  SatSolver S;
  int A = S.addVar();
  S.addVar();
  EXPECT_EQ(S.solve({Lit(A, true), Lit(A, false)}), SatResult::Unsat);
  // Both halves of the contradiction are in the core.
  const std::vector<Lit> &Core = S.unsatCore();
  EXPECT_EQ(Core.size(), 2u);
  EXPECT_TRUE(std::find(Core.begin(), Core.end(), Lit(A, true)) !=
              Core.end());
  EXPECT_TRUE(std::find(Core.begin(), Core.end(), Lit(A, false)) !=
              Core.end());
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolverIncremental, UnsatCoreIsRelevantSubset) {
  SatSolver S;
  int A = S.addVar(), B = S.addVar(), C = S.addVar(), X = S.addVar();
  S.addClause({Lit(A, false), Lit(X, true)});  // a -> x
  S.addClause({Lit(B, false), Lit(X, false)}); // b -> ~x
  ASSERT_EQ(S.solve({Lit(A, true), Lit(C, true), Lit(B, true)}),
            SatResult::Unsat);
  std::vector<Lit> Core = S.unsatCore();
  EXPECT_TRUE(std::find(Core.begin(), Core.end(), Lit(A, true)) !=
              Core.end());
  EXPECT_TRUE(std::find(Core.begin(), Core.end(), Lit(B, true)) !=
              Core.end());
  EXPECT_TRUE(std::find(Core.begin(), Core.end(), Lit(C, true)) ==
              Core.end());
  // The core alone reproduces the contradiction.
  EXPECT_EQ(S.solve(Core), SatResult::Unsat);
  // And without b the instance is satisfiable again.
  EXPECT_EQ(S.solve({Lit(A, true), Lit(C, true)}), SatResult::Sat);
}

TEST(SatSolverIncremental, LearnedClausesSurviveAcrossCalls) {
  SatSolver S;
  Lit Sel(S.addVar(), true);
  gatedPigeonhole(S, 4, Sel);

  int64_t Before = S.numConflicts();
  ASSERT_EQ(S.solve({Sel}), SatResult::Unsat);
  int64_t FirstRun = S.numConflicts() - Before;
  EXPECT_GT(FirstRun, 0);
  EXPECT_GT(S.numLearnedClauses(), 0);

  // The refutation lemmas are conditioned only on the activation literal,
  // so re-asking the same query is cheaper than deriving it cold.
  int64_t Learned = S.numLearnedClauses();
  Before = S.numConflicts();
  ASSERT_EQ(S.solve({Sel}), SatResult::Unsat);
  int64_t SecondRun = S.numConflicts() - Before;
  EXPECT_LT(SecondRun, FirstRun);
  EXPECT_GE(S.numLearnedClauses(), Learned);

  // Deactivated, the gated group is irrelevant.
  EXPECT_EQ(S.solve({Sel.negated()}), SatResult::Sat);
}

TEST(SatSolverIncremental, ClausesMayBeAddedBetweenSolves) {
  SatSolver S;
  int A = S.addVar(), B = S.addVar();
  S.addClause({Lit(A, true), Lit(B, true)});
  EXPECT_EQ(S.solve(), SatResult::Sat);
  S.addClause({Lit(A, false)});
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(B));
  S.addClause({Lit(B, false)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

// Property sweep: on random instances, solving under assumptions agrees
// with a fresh solver that carries the assumptions as unit clauses.
class SatIncrementalFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SatIncrementalFuzzTest, AssumptionsAgreeWithFreshSolver) {
  std::mt19937 Rng(GetParam());
  for (int Iter = 0; Iter < 60; ++Iter) {
    int NV = 3 + static_cast<int>(Rng() % 9);
    int NC = 2 + static_cast<int>(Rng() % (NV * 4));
    std::vector<std::vector<int>> Cls;
    for (int C = 0; C < NC; ++C) {
      int Len = 1 + static_cast<int>(Rng() % 4);
      std::vector<int> Clause;
      for (int I = 0; I < Len; ++I) {
        int V = 1 + static_cast<int>(Rng() % NV);
        Clause.push_back((Rng() & 1) ? V : -V);
      }
      Cls.push_back(Clause);
    }

    // One warm solver answers a sequence of assumption sets...
    SatSolver Warm;
    for (int V = 0; V < NV; ++V)
      Warm.addVar();
    for (const auto &Clause : Cls) {
      std::vector<Lit> Lits;
      for (int L : Clause)
        Lits.push_back(Lit(L > 0 ? L : -L, L > 0));
      Warm.addClause(Lits);
    }

    for (int Round = 0; Round < 8; ++Round) {
      std::vector<Lit> Assumps;
      int NA = static_cast<int>(Rng() % 4);
      for (int I = 0; I < NA; ++I) {
        int V = 1 + static_cast<int>(Rng() % NV);
        Assumps.push_back(Lit(V, (Rng() & 1) != 0));
      }
      SatResult Got = Warm.solve(Assumps);

      // ...a cold solver with the assumptions as units is the reference.
      SatSolver Fresh;
      for (int V = 0; V < NV; ++V)
        Fresh.addVar();
      for (const auto &Clause : Cls) {
        std::vector<Lit> Lits;
        for (int L : Clause)
          Lits.push_back(Lit(L > 0 ? L : -L, L > 0));
        Fresh.addClause(Lits);
      }
      for (Lit A : Assumps)
        Fresh.addClause({A});
      SatResult Want = Fresh.solve();

      ASSERT_EQ(Got, Want) << "seed=" << GetParam() << " iter=" << Iter
                           << " round=" << Round;
      if (Got == SatResult::Unsat && !Warm.unsatCore().empty()) {
        // The reported core must itself be contradictory.
        ASSERT_EQ(Warm.solve(Warm.unsatCore()), SatResult::Unsat);
      }
      if (Warm.solve() == SatResult::Unsat)
        break; // Database itself became Unsat; later rounds are trivial.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatIncrementalFuzzTest,
                         ::testing::Values(3, 7, 31, 127));

// --- Clause-database reduction ------------------------------------------------

TEST(SatSolverClauseGc, ReductionFiresAndPreservesPigeonholeAnswers) {
  // Conflict-heavy warm workload with an aggressive GC threshold: the
  // reduction must fire, reclaim clauses, and change no answer.
  SatSolver Gc, NoGc;
  NoGc.setClauseGc(false);
  Gc.setClauseGcLimit(50);
  Lit SelGc(Gc.addVar(), true), SelNo(NoGc.addVar(), true);
  gatedPigeonhole(Gc, 6, SelGc);
  gatedPigeonhole(NoGc, 6, SelNo);

  for (int Round = 0; Round < 4; ++Round) {
    ASSERT_EQ(Gc.solve({SelGc}), SatResult::Unsat) << Round;
    ASSERT_EQ(NoGc.solve({SelNo}), SatResult::Unsat) << Round;
    ASSERT_EQ(Gc.solve({SelGc.negated()}), SatResult::Sat) << Round;
    ASSERT_EQ(NoGc.solve({SelNo.negated()}), SatResult::Sat) << Round;
    EXPECT_TRUE(Gc.reasonInvariantHolds()) << Round;
  }
  EXPECT_GT(Gc.numDbReductions(), 0);
  EXPECT_GT(Gc.numReclaimedClauses(), 0);
  EXPECT_EQ(NoGc.numDbReductions(), 0);
  // The GC'd database is strictly smaller than the packrat one.
  EXPECT_LT(Gc.numClauses(), NoGc.numClauses());
}

TEST(SatSolverClauseGc, ManualReduceKeepsReasonClauses) {
  SatSolver S;
  Lit Sel(S.addVar(), true);
  gatedPigeonhole(S, 5, Sel);
  ASSERT_EQ(S.solve({Sel}), SatResult::Unsat);
  ASSERT_TRUE(S.reasonInvariantHolds());

  // Root-level reduction between solves: reasons of root-implied literals
  // survive, and the database still answers identically.
  size_t Before = S.numClauses();
  size_t Removed = S.reduceDb();
  EXPECT_EQ(S.numClauses(), Before - Removed);
  EXPECT_TRUE(S.reasonInvariantHolds());
  EXPECT_EQ(S.solve({Sel}), SatResult::Unsat);
  EXPECT_EQ(S.solve({Sel.negated()}), SatResult::Sat);
  EXPECT_TRUE(S.reasonInvariantHolds());
}

// Property sweep: a warm solver with forced-aggressive clause GC must agree
// with a no-GC reference on every answer of a random query sequence.
class SatClauseGcFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SatClauseGcFuzzTest, AggressiveGcAgreesWithNoGcReference) {
  std::mt19937 Rng(GetParam());
  for (int Iter = 0; Iter < 40; ++Iter) {
    int NV = 6 + static_cast<int>(Rng() % 10);
    int NC = 8 + static_cast<int>(Rng() % (NV * 4));
    std::vector<std::vector<int>> Cls;
    for (int C = 0; C < NC; ++C) {
      int Len = 2 + static_cast<int>(Rng() % 3);
      std::vector<int> Clause;
      for (int I = 0; I < Len; ++I) {
        int V = 1 + static_cast<int>(Rng() % NV);
        Clause.push_back((Rng() & 1) ? V : -V);
      }
      Cls.push_back(Clause);
    }

    SatSolver Gc, NoGc;
    Gc.setClauseGcLimit(4); // Absurdly aggressive: reduce all the time.
    NoGc.setClauseGc(false);
    for (SatSolver *S : {&Gc, &NoGc}) {
      for (int V = 0; V < NV; ++V)
        S->addVar();
      for (const auto &Clause : Cls) {
        std::vector<Lit> Lits;
        for (int L : Clause)
          Lits.push_back(Lit(L > 0 ? L : -L, L > 0));
        S->addClause(Lits);
      }
    }

    for (int Round = 0; Round < 10; ++Round) {
      std::vector<Lit> Assumps;
      int NA = static_cast<int>(Rng() % 4);
      for (int I = 0; I < NA; ++I) {
        int V = 1 + static_cast<int>(Rng() % NV);
        Assumps.push_back(Lit(V, (Rng() & 1) != 0));
      }
      SatResult Got = Gc.solve(Assumps);
      SatResult Want = NoGc.solve(Assumps);
      ASSERT_EQ(Got, Want) << "seed=" << GetParam() << " iter=" << Iter
                           << " round=" << Round;
      ASSERT_TRUE(Gc.reasonInvariantHolds());
      if (Got == SatResult::Sat) {
        // The GC'd solver's model still satisfies the original CNF.
        for (const auto &Clause : Cls) {
          bool SatC = false;
          for (int L : Clause)
            if ((L > 0) == Gc.modelValue(L > 0 ? L : -L))
              SatC = true;
          ASSERT_TRUE(SatC) << "invalid model after clause GC";
        }
      }
      if (Want == SatResult::Unsat && Assumps.empty())
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatClauseGcFuzzTest,
                         ::testing::Values(11, 42, 1009, 4099));

// --- Scope retirement ---------------------------------------------------------

TEST(SatSolverScopeRetire, EvictsScopeClausesAndPreservesAnswers) {
  SatSolver S;
  Lit SelA(S.addVar(), true), SelB(S.addVar(), true);
  gatedPigeonhole(S, 4, SelA);
  gatedPigeonhole(S, 4, SelB);
  ASSERT_EQ(S.solve({SelA}), SatResult::Unsat);
  ASSERT_EQ(S.solve({SelB}), SatResult::Unsat);
  ASSERT_EQ(S.solve(), SatResult::Sat);

  // Retiring A's scope drops its gated problem clauses (root-satisfied via
  // ~selA) and every learned clause touching the scope.
  size_t Before = S.numClauses();
  size_t Evicted = S.retireScope(SelA, {});
  EXPECT_GT(Evicted, 0u);
  EXPECT_EQ(S.numClauses(), Before - Evicted);
  EXPECT_EQ(S.numScopeRetirements(), 1);
  EXPECT_EQ(S.numEvictedClauses(), static_cast<int64_t>(Evicted));
  EXPECT_TRUE(S.reasonInvariantHolds());

  // The retired selector is permanently false; B's scope is untouched.
  EXPECT_EQ(S.solve({SelA}), SatResult::Unsat);
  EXPECT_EQ(S.unsatCore().size(), 1u);
  EXPECT_EQ(S.solve({SelB}), SatResult::Unsat);
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.reasonInvariantHolds());
}

TEST(SatSolverScopeRetire, DropsLearnedClausesOfScopeVars) {
  SatSolver S;
  Lit Sel(S.addVar(), true);
  std::vector<std::vector<int>> Var = gatedPigeonhole(S, 5, Sel);
  ASSERT_EQ(S.solve({Sel}), SatResult::Unsat);
  ASSERT_GT(S.numLearnedClauses(), 0);

  // Retire with the pigeonhole vars named as scope vars: every learned
  // clause mentions them, so the learned database empties.
  std::vector<int> ScopeVars;
  for (const auto &Row : Var)
    for (int V : Row)
      ScopeVars.push_back(V);
  S.retireScope(Sel, ScopeVars);
  EXPECT_TRUE(S.reasonInvariantHolds());
  EXPECT_EQ(S.numClauses(), 0u); // Everything was gated or learned.
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolverScopeRetire, SubtreeRetiresInOnePass) {
  // An interior selector node plus its nested selectors retire in ONE
  // retireScopes() call: every selector is falsified, every guarded and
  // scope-learned clause is evicted, and unrelated scopes are untouched.
  SatSolver S;
  Lit Outer(S.addVar(), true), Inner1(S.addVar(), true),
      Inner2(S.addVar(), true), Other(S.addVar(), true);
  gatedPigeonhole(S, 4, Inner1);
  gatedPigeonhole(S, 4, Inner2);
  gatedPigeonhole(S, 4, Other);
  // Nest the inner selectors under the outer one: outer -> inner_i would
  // activate them; here it is enough that they belong to one subtree.
  ASSERT_EQ(S.solve({Inner1}), SatResult::Unsat);
  ASSERT_EQ(S.solve({Inner2}), SatResult::Unsat);
  ASSERT_EQ(S.solve({Other}), SatResult::Unsat);

  int64_t RetireCallsBefore = S.numScopeRetirements();
  size_t Evicted = S.retireScopes({Outer, Inner1, Inner2}, {});
  EXPECT_GT(Evicted, 0u);
  EXPECT_EQ(S.numScopeRetirements(), RetireCallsBefore + 1);
  EXPECT_TRUE(S.reasonInvariantHolds());

  // All three subtree selectors are permanently false; the unrelated
  // scope still refutes.
  for (Lit Sel : {Outer, Inner1, Inner2}) {
    EXPECT_EQ(S.solve({Sel}), SatResult::Unsat);
    EXPECT_EQ(S.unsatCore().size(), 1u);
  }
  EXPECT_EQ(S.solve({Other}), SatResult::Unsat);
  EXPECT_EQ(S.solve(), SatResult::Sat);
}

TEST(SatSolverVarRecycling, RecycledIndicesResetActivityPhaseAndWatches) {
  SatSolver S;
  Lit Sel(S.addVar(), true);
  std::vector<std::vector<int>> Var = gatedPigeonhole(S, 4, Sel);
  // Solving bumps activity and saves phases on the pigeonhole vars.
  ASSERT_EQ(S.solve({Sel}), SatResult::Unsat);
  ASSERT_EQ(S.solve({Sel.negated()}), SatResult::Sat);

  std::vector<int> ScopeVars;
  for (const auto &Row : Var)
    for (int V : Row)
      ScopeVars.push_back(V);
  int AllocatedBefore = S.numVars();
  S.retireScopes({Sel}, ScopeVars);
  EXPECT_EQ(S.numRecycledVars(), static_cast<int64_t>(ScopeVars.size()));
  EXPECT_EQ(S.numLiveVars(), AllocatedBefore - S.numRecycledVars());

  // addVar() drains the free list: indices are reused (the array does not
  // grow) and every reused index presents clean search state.
  for (size_t I = 0; I != ScopeVars.size(); ++I) {
    int V = S.addVar();
    EXPECT_LE(V, AllocatedBefore) << I;
    EXPECT_TRUE(S.varStateIsClean(V)) << V;
  }
  EXPECT_EQ(S.numVars(), AllocatedBefore);
  // The next request grows the array again.
  EXPECT_EQ(S.addVar(), AllocatedBefore + 1);

  // A reused slot behaves like a fresh variable.
  int X = S.numVars();
  S.addClause({Lit(X, true)});
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.modelValue(X));
  EXPECT_TRUE(S.reasonInvariantHolds());
}

TEST(SatSolverVarRecycling, DisabledRecyclingKeepsAllocationCumulative) {
  SatSolver S;
  S.setVarRecycling(false);
  Lit Sel(S.addVar(), true);
  std::vector<std::vector<int>> Var = gatedPigeonhole(S, 3, Sel);
  ASSERT_EQ(S.solve({Sel}), SatResult::Unsat);
  std::vector<int> ScopeVars;
  for (const auto &Row : Var)
    for (int V : Row)
      ScopeVars.push_back(V);
  int Before = S.numVars();
  S.retireScopes({Sel}, ScopeVars);
  EXPECT_EQ(S.numRecycledVars(), 0);
  EXPECT_EQ(S.addVar(), Before + 1); // No index reuse.
}

/// Recycle fuzz: random gated scope groups are solved, retired (their
/// vars recycled), and re-created on the recycled indices, against a
/// reference solver with recycling disabled. Verdicts must agree on every
/// query and the reason invariant must hold after every recycle.
class SatVarRecycleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SatVarRecycleFuzzTest, RetireReopenCyclesMatchNoRecyclingReference) {
  std::mt19937 Rng(GetParam());
  for (int Iter = 0; Iter < 12; ++Iter) {
    SatSolver Rec, Ref;
    Ref.setVarRecycling(false);

    // A persistent random base over vars that never retire.
    int NBase = 4 + static_cast<int>(Rng() % 5);
    for (int V = 0; V < NBase; ++V) {
      Rec.addVar();
      Ref.addVar();
    }
    int NClauses = 2 + static_cast<int>(Rng() % 8);
    for (int Ci = 0; Ci < NClauses; ++Ci) {
      std::vector<Lit> C;
      int Len = 1 + static_cast<int>(Rng() % 3);
      for (int I = 0; I < Len; ++I) {
        int V = 1 + static_cast<int>(Rng() % NBase);
        C.push_back(Lit(V, (Rng() & 1) != 0));
      }
      Rec.addClause(C);
      Ref.addClause(C);
    }
    // A trivially unsatisfiable base makes every later answer Unsat and
    // every retirement a no-op; skip to a meaningful instance.
    if (Rec.solve() == SatResult::Unsat)
      continue;

    for (int Cycle = 0; Cycle < 6; ++Cycle) {
      // Open a scope: a selector plus a gated random group. Because both
      // solvers allocate the same *number* of vars and the recycler hands
      // indices deterministically, clauses are built per-solver from its
      // own returned indices.
      int Holes = 2 + static_cast<int>(Rng() % 3);
      int Pigeons = Holes + ((Rng() & 1) != 0 ? 1 : 0); // Unsat or Sat.
      auto BuildScope = [&](SatSolver &S, Lit &SelOut,
                            std::vector<int> &VarsOut) {
        SelOut = Lit(S.addVar(), true);
        VarsOut.clear();
        std::vector<std::vector<int>> Grid(
            static_cast<size_t>(Pigeons),
            std::vector<int>(static_cast<size_t>(Holes)));
        for (auto &Row : Grid)
          for (int &V : Row) {
            V = S.addVar();
            VarsOut.push_back(V);
          }
        for (int P = 0; P < Pigeons; ++P) {
          std::vector<Lit> C{SelOut.negated()};
          for (int H = 0; H < Holes; ++H)
            C.push_back(Lit(Grid[static_cast<size_t>(P)]
                                [static_cast<size_t>(H)],
                            true));
          S.addClause(C);
        }
        for (int H = 0; H < Holes; ++H)
          for (int P1 = 0; P1 < Pigeons; ++P1)
            for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
              S.addClause({SelOut.negated(),
                           Lit(Grid[static_cast<size_t>(P1)]
                                   [static_cast<size_t>(H)],
                               false),
                           Lit(Grid[static_cast<size_t>(P2)]
                                   [static_cast<size_t>(H)],
                               false)});
      };
      Lit RecSel, RefSel;
      std::vector<int> RecVars, RefVars;
      BuildScope(Rec, RecSel, RecVars);
      BuildScope(Ref, RefSel, RefVars);

      // Random queries mixing the scope selector with base literals.
      for (int Q = 0; Q < 4; ++Q) {
        std::vector<Lit> RecAssumps{RecSel}, RefAssumps{RefSel};
        int NA = static_cast<int>(Rng() % 3);
        for (int I = 0; I < NA; ++I) {
          int V = 1 + static_cast<int>(Rng() % NBase);
          bool Pos = (Rng() & 1) != 0;
          RecAssumps.push_back(Lit(V, Pos));
          RefAssumps.push_back(Lit(V, Pos));
        }
        ASSERT_EQ(Rec.solve(RecAssumps), Ref.solve(RefAssumps))
            << "seed=" << GetParam() << " iter=" << Iter
            << " cycle=" << Cycle << " q=" << Q;
      }

      // Retire the scope; the recycler reclaims the group's indices.
      Rec.retireScopes({RecSel}, RecVars);
      Ref.retireScopes({RefSel}, RefVars);
      ASSERT_TRUE(Rec.reasonInvariantHolds());
      ASSERT_TRUE(Ref.reasonInvariantHolds());
      ASSERT_EQ(Rec.solve(), Ref.solve());
    }
    // The recycler bounded the variable array; the reference grew it.
    EXPECT_LT(Rec.numVars(), Ref.numVars());
    EXPECT_GT(Rec.numRecycledVars(), 0);
    EXPECT_EQ(Rec.numVarRequests(), Ref.numVarRequests());
    EXPECT_LE(Rec.peakLiveVars(), Ref.peakLiveVars());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatVarRecycleFuzzTest,
                         ::testing::Values(13, 57, 911, 2025));

TEST(SmtSessionTest, ScopeTreeSubtreeRetireRecyclesDefinitionVars) {
  // A three-level scope tree (family -> pair -> method): retiring the
  // interior (pair) node retires the method scope with it, evicts the
  // pair layer's Tseitin definitions, and recycles their variables so a
  // re-opened scope reuses the indices instead of growing the solver.
  ExprFactory F;
  SmtSession S(F);
  ExprRef FamSel = F.var("tree_fam", Sort::Bool);
  ExprRef PairSel = F.var("tree_pair", Sort::Bool);
  ExprRef MSel = F.var("tree_m", Sort::Bool);
  ExprRef X = F.var("tree_x", Sort::Bool), Y = F.var("tree_y", Sort::Bool),
          Z = F.var("tree_z", Sort::Bool);

  SmtSession::ScopeId Fam =
      S.openScope(FamSel, SmtSession::RootScope, /*OwnLayer=*/true);
  SmtSession::ScopeId Pair = S.openScope(PairSel, Fam, /*OwnLayer=*/true);
  SmtSession::ScopeId M = S.openScope(MSel, Pair, /*OwnLayer=*/false);
  S.assertInScope(Fam, F.disj({X, Y}));
  S.assertInScope(Pair, F.implies(X, Z));
  S.assertInScope(M, F.conj({X, F.lnot(Y)}));
  // Under the whole path, x ∧ ¬y ∧ (x->z) refutes ¬z.
  ASSERT_EQ(S.check({FamSel, PairSel, MSel, F.lnot(Z)}, -1,
                    {FamSel, PairSel, MSel}),
            SatResult::Unsat);

  int LiveBefore = S.liveVars();
  size_t Evicted = S.retireScope(Pair);
  EXPECT_GT(Evicted, 0u);
  EXPECT_GT(S.recycledVars(), 0);
  EXPECT_LT(S.liveVars(), LiveBefore);
  EXPECT_TRUE(S.solver().reasonInvariantHolds());
  EXPECT_EQ(S.scopeRetirements(), 1);

  // The family scope survives; the retired subtree is gone, so the same
  // query without its prefix is satisfiable again.
  EXPECT_EQ(S.check({FamSel, F.lnot(Z)}, -1, {FamSel}), SatResult::Sat);

  // Re-opening a fresh pair scope re-asserts the content, reusing the
  // recycled indices: the variable array does not grow past its peak.
  int AllocAfterRetire = S.solver().numVars();
  ExprRef PairSel2 = F.var("tree_pair2", Sort::Bool);
  SmtSession::ScopeId Pair2 = S.openScope(PairSel2, Fam, /*OwnLayer=*/true);
  S.assertInScope(Pair2, F.implies(X, Z));
  S.assertInScope(Pair2, F.conj({X, F.lnot(Y)}));
  EXPECT_EQ(S.check({FamSel, PairSel2, F.lnot(Z)}, -1, {FamSel, PairSel2}),
            SatResult::Unsat);
  // Allowance: the fresh selector atom may claim one new slot; the
  // definition vars all come from the free list.
  EXPECT_LE(S.solver().numVars(), AllocAfterRetire + 1);

  // Retiring the family retires the re-opened pair subtree with it.
  S.retireScope(Fam);
  EXPECT_TRUE(S.solver().reasonInvariantHolds());
  EXPECT_EQ(S.check({F.lnot(Z)}), SatResult::Sat);
}

TEST(SmtSessionTest, CompactedIntAtomsReRegisterOnReuse) {
  // Each round's scope is the only owner of the atoms x=1 and x=2, so its
  // retirement compacts both out of the int-atom registry. The next round
  // asserts and checks the same formulas again, which the normalize memo
  // answers without minting the atoms: they must re-register anyway, or
  // the exclusivity bridge between x=1 and x=2 is never re-emitted and the
  // check turns Sat.
  ExprFactory F;
  SmtSession S(F);
  S.enableBridgeCompaction(1);
  ExprRef X = F.var("reuse_x", Sort::Int);
  for (int Round = 0; Round != 3; ++Round) {
    ExprRef Sel = F.var("reuse_sel" + std::to_string(Round), Sort::Bool);
    SmtSession::ScopeId Scope =
        S.openScope(Sel, SmtSession::RootScope, /*OwnLayer=*/true);
    S.assertInScope(Scope, F.eq(X, F.intConst(1)));
    EXPECT_EQ(S.check({Sel, F.eq(X, F.intConst(2))}, -1, Sel),
              SatResult::Unsat)
        << "round " << Round;
    S.retireScope(Scope);
    EXPECT_EQ(S.bridgeCompactions(), Round + 1) << "round " << Round;
    EXPECT_TRUE(S.solver().reasonInvariantHolds());
  }
}

TEST(SmtSessionTest, BridgesAreAtomClauses) {
  // Four object terms make four transitivity triples of three clauses
  // each, over the six equality atoms alone: the only other variable is
  // the disjunction's definition, the only other clauses its three
  // definition clauses.
  ExprFactory F;
  ExprRef A = F.var("ac_a", Sort::Obj), B = F.var("ac_b", Sort::Obj),
          C = F.var("ac_c", Sort::Obj), D = F.var("ac_d", Sort::Obj);
  SmtSession S(F);
  S.assertBase(F.disj({F.eq(A, B), F.eq(C, D)}));
  EXPECT_EQ(S.numAtoms(), 6);
  EXPECT_EQ(S.solver().numVars(), S.numAtoms() + 1);
  EXPECT_EQ(S.retainedClauses(), 15u);
  EXPECT_EQ(S.liveBridges(), 12);
  EXPECT_EQ(S.check({F.eq(A, C), F.eq(B, C), F.ne(A, B)}), SatResult::Unsat);
}

TEST(SmtSessionTest, CompactionLeavesTheFreshSessionLattice) {
  // Compaction evicts only the bridges over dead atoms and keeps every
  // other bridge in place: what survives a retired scope is exactly what
  // a fresh session asserting the surviving scope alone builds.
  ExprFactory F;
  ExprRef A = F.var("cl_a", Sort::Obj), B = F.var("cl_b", Sort::Obj),
          C = F.var("cl_c", Sort::Obj), D = F.var("cl_d", Sort::Obj),
          E = F.var("cl_e", Sort::Obj), X = F.var("cl_x", Sort::Int);
  ExprRef Sel1 = F.var("cl_sel1", Sort::Bool);
  ExprRef Sel2 = F.var("cl_sel2", Sort::Bool);
  auto AssertSecond = [&](SmtSession &S) {
    SmtSession::ScopeId Second =
        S.openScope(Sel2, SmtSession::RootScope, /*OwnLayer=*/true);
    S.assertInScope(Second, F.disj({F.eq(C, D), F.eq(D, E)}));
    S.assertInScope(Second, F.eq(X, F.intConst(1)));
  };

  SmtSession Compacted(F);
  Compacted.enableBridgeCompaction(1);
  SmtSession::ScopeId First =
      Compacted.openScope(Sel1, SmtSession::RootScope, /*OwnLayer=*/true);
  Compacted.assertInScope(First, F.disj({F.eq(A, B), F.eq(C, D)}));
  Compacted.assertInScope(First, F.lt(X, F.intConst(3)));
  AssertSecond(Compacted);
  Compacted.retireScope(First);
  ASSERT_EQ(Compacted.bridgeCompactions(), 1);
  EXPECT_TRUE(Compacted.solver().reasonInvariantHolds());

  SmtSession Fresh(F);
  AssertSecond(Fresh);
  EXPECT_EQ(Compacted.liveBridges(), Fresh.liveBridges());
  EXPECT_EQ(Compacted.liveVars(), Fresh.liveVars());
  EXPECT_EQ(Compacted.liveBridges(), 3);

  // The surviving triple (c, d, e) still carries transitivity.
  EXPECT_EQ(Compacted.check({Sel2, F.eq(C, D), F.eq(C, E), F.ne(D, E)}, -1,
                            Sel2),
            SatResult::Unsat);
}

TEST(SmtSessionTest, CompactionKeepsCongruenceOverDeadKeys) {
  // The key terms k1, k2 die with the first scope while both lookups live
  // on in the second. The congruence bridge m[k1], m[k2] names the dead
  // equality k1 = k2, so compaction evicts it — and must re-emit it, or
  // the second scope could no longer refute k1 = k2 ∧ a ≠ b.
  ExprFactory F;
  Vocab Dl(F);
  ExprRef A = F.var("ck_a", Sort::Obj), B = F.var("ck_b", Sort::Obj);
  ExprRef Sel1 = F.var("ck_sel1", Sort::Bool);
  ExprRef Sel2 = F.var("ck_sel2", Sort::Bool);
  SmtSession S(F);
  S.enableBridgeCompaction(1);
  SmtSession::ScopeId First =
      S.openScope(Sel1, SmtSession::RootScope, /*OwnLayer=*/true);
  S.assertInScope(First, F.eq(Dl.K1, Dl.K2));
  SmtSession::ScopeId Second =
      S.openScope(Sel2, SmtSession::RootScope, /*OwnLayer=*/true);
  S.assertInScope(Second, F.conj({F.eq(F.mapGet(Dl.S1, Dl.K1), A),
                                  F.eq(F.mapGet(Dl.S1, Dl.K2), B)}));
  S.retireScope(First);
  ASSERT_EQ(S.bridgeCompactions(), 1);
  EXPECT_GT(S.releasedAtomVars(), 0);

  EXPECT_EQ(S.check({Sel2, F.eq(Dl.K1, Dl.K2), F.ne(A, B)}, -1, Sel2),
            SatResult::Unsat);
}

TEST(SmtSessionTest, MemoizedIntAtomsReRegisterAfterCompaction) {
  // The normalize memo outlives bridge compaction. Scope A alone owns the
  // atoms x <= 0 and x = 1, so retiring it compacts both out of the
  // int-atom registry and releases their variables. Scope B's check then
  // normalizes both formulas from the memo, which does not mint the atoms
  // again: collectTheoryAtoms must re-register them, or the lattice
  // bridge x = 1 -> !(x <= 0) is never re-emitted and the check turns Sat.
  ExprFactory F;
  SmtSession S(F);
  S.enableBridgeCompaction(1);
  ExprRef X = F.var("memo_x", Sort::Int);
  ExprRef Le0 = F.le(X, F.intConst(0)), Eq1 = F.eq(X, F.intConst(1));
  ExprRef SelA = F.var("memo_a", Sort::Bool);
  ExprRef SelB = F.var("memo_b", Sort::Bool);
  SmtSession::ScopeId A =
      S.openScope(SelA, SmtSession::RootScope, /*OwnLayer=*/true);
  S.assertInScope(A, Le0);
  ASSERT_EQ(S.check({SelA, Eq1}, -1, SelA), SatResult::Unsat);
  S.retireScope(A);
  ASSERT_EQ(S.bridgeCompactions(), 1);
  EXPECT_EQ(S.releasedAtomVars(), 2);
  EXPECT_EQ(S.liveBridges(), 0);

  S.openScope(SelB, SmtSession::RootScope, /*OwnLayer=*/true);
  EXPECT_EQ(S.check({SelB, Eq1, Le0}, -1, SelB), SatResult::Unsat);
  EXPECT_EQ(S.liveBridges(), 1);
  EXPECT_TRUE(S.solver().reasonInvariantHolds());
}

TEST(SmtSessionTest, CountermodelVocabularyUnderNestedScopes) {
  // A Sat check reports the true atoms of the base, of its active scopes'
  // bodies and of its own assumptions, sorted by printed form, and
  // nothing else: not a sibling scope's atoms nor an earlier query's,
  // even when the model makes them true.
  ExprFactory F;
  auto B = [&F](const char *Name) { return F.var(Name, Sort::Bool); };
  ExprRef Fam = B("voc_fam"), Pair = B("voc_pair"), M = B("voc_m"),
          Sib = B("voc_sib");
  SmtSession S(F);
  S.assertBase(B("voc_base"));
  SmtSession::ScopeId FamS =
      S.openScope(Fam, SmtSession::RootScope, /*OwnLayer=*/true);
  SmtSession::ScopeId PairS = S.openScope(Pair, FamS, /*OwnLayer=*/true);
  SmtSession::ScopeId MS = S.openScope(M, PairS, /*OwnLayer=*/false);
  SmtSession::ScopeId SibS = S.openScope(Sib, FamS, /*OwnLayer=*/true);
  S.assertInScope(FamS, F.conj({B("voc_f"), F.lnot(B("voc_f_off"))}));
  S.assertInScope(PairS, B("voc_p"));
  S.assertInScope(MS, F.disj({B("voc_m1"), F.falseExpr()}));
  S.assertInScope(MS, F.trueExpr());
  S.assertInScope(SibS, F.conj({B("voc_s"), B("voc_early")}));

  ASSERT_EQ(S.check({Fam, Sib, B("voc_early")}, -1, {Fam, Sib}),
            SatResult::Sat);
  EXPECT_EQ(S.modelAtoms(),
            (std::vector<std::string>{"voc_base", "voc_early", "voc_f",
                                      "voc_fam", "voc_s", "voc_sib"}));

  ASSERT_EQ(S.check({Fam, Pair, M, Sib, B("voc_q")}, -1, {Fam, Pair, M}),
            SatResult::Sat);
  EXPECT_EQ(S.modelAtoms(),
            (std::vector<std::string>{"voc_base", "voc_f", "voc_fam", "voc_m",
                                      "voc_m1", "voc_p", "voc_pair", "voc_q",
                                      "voc_sib"}));

  // A retired scope's bodies leave the vocabulary with it.
  S.retireScope(PairS);
  ASSERT_EQ(S.check({Fam, B("voc_q")}, -1, {Fam, Pair}), SatResult::Sat);
  EXPECT_EQ(S.modelAtoms(), (std::vector<std::string>{"voc_base", "voc_f",
                                                      "voc_fam", "voc_q"}));
}

// --- Core-minimizing restarts -------------------------------------------------

TEST(SatSolverCoreMinimization, SolveOfCoreReachesSmallerFixpoint) {
  // Crafted so the first analyzeFinal core is {a, b, c} while {b, c}
  // suffices: the long clause (w | ~c | ~a | ~b) becomes ~c's reason
  // before the chain b -> z -> ~c is processed, but re-solving under the
  // core alone rediscovers the refutation through the chain.
  SatSolver S;
  int A = S.addVar(), B = S.addVar(), C = S.addVar(), W = S.addVar(),
      Z = S.addVar();
  S.addClause({Lit(B, false), Lit(Z, true)});                    // b -> z
  S.addClause({Lit(W, true), Lit(C, false), Lit(A, false),
               Lit(B, false)});                                  // long
  S.addClause({Lit(W, false)});
  S.addClause({Lit(Z, false), Lit(C, false)});                   // z -> ~c

  ASSERT_EQ(S.solve({Lit(A, true), Lit(B, true), Lit(C, true)}),
            SatResult::Unsat);
  std::vector<Lit> Core = S.unsatCore();
  // Iterate solve(unsatCore()) to a fixpoint by hand (the SmtSession does
  // this internally): the core shrinks to a strict subset.
  while (true) {
    ASSERT_EQ(S.solve(Core), SatResult::Unsat);
    if (S.unsatCore().size() >= Core.size())
      break;
    Core = S.unsatCore();
  }
  EXPECT_LT(Core.size(), 3u);
  for (Lit L : Core)
    EXPECT_NE(L.var(), A); // a is not needed: b -> z -> ~c refutes c.
}

TEST(SmtSessionTest, CoreMinimizationRecordsAnUnsatSubset) {
  ExprFactory F;
  SmtSession S(F);
  ExprRef A = F.var("cm_a", Sort::Bool), B = F.var("cm_b", Sort::Bool),
          C = F.var("cm_c", Sort::Bool), Z = F.var("cm_z", Sort::Bool);
  S.assertBase(F.implies(B, Z));
  S.assertBase(F.implies(Z, F.lnot(C)));
  S.assertBase(F.implies(F.conj({A, B, C}), F.falseExpr()));

  std::vector<ExprRef> Assumed = {A, B, C};
  ASSERT_EQ(S.check(Assumed), SatResult::Unsat);
  std::vector<size_t> Core = S.lastCoreAssumptionIndices();
  ASSERT_FALSE(Core.empty());

  // The recorded core is itself an unsat assumption set.
  std::vector<ExprRef> CoreFormulas;
  for (size_t I : Core)
    CoreFormulas.push_back(Assumed[I]);
  EXPECT_EQ(S.check(CoreFormulas), SatResult::Unsat);

  // Disabling minimization can only widen the core.
  SmtSession S2(F);
  S2.setCoreMinimizationRounds(0);
  S2.assertBase(F.implies(B, Z));
  S2.assertBase(F.implies(Z, F.lnot(C)));
  S2.assertBase(F.implies(F.conj({A, B, C}), F.falseExpr()));
  ASSERT_EQ(S2.check(Assumed), SatResult::Unsat);
  std::vector<size_t> Wide = S2.lastCoreAssumptionIndices();
  for (size_t I : Core)
    EXPECT_TRUE(std::find(Wide.begin(), Wide.end(), I) != Wide.end());
  EXPECT_EQ(S2.coreMinimizationSolves(), 0);
}

// --- Tseitin ------------------------------------------------------------------

TEST(TseitinTest, RoundTripSemantics) {
  // Encode a formula, enumerate its atoms' assignments via the solver, and
  // check consistency with direct evaluation under those assignments.
  ExprFactory F;
  ExprRef A = F.var("a", Sort::Bool), B = F.var("b", Sort::Bool),
          C = F.var("c", Sort::Bool);
  ExprRef Phi = F.iff(F.implies(A, B), F.disj({F.lnot(A), C}));

  SatSolver S;
  Tseitin T(S);
  T.assertTrue(Phi);
  ASSERT_EQ(S.solve(), SatResult::Sat);
  // The model satisfies Phi under direct evaluation.
  auto ValOf = [&](ExprRef V) { return S.modelValue(T.atoms().at(V)); };
  bool AV = ValOf(A), BV = ValOf(B), CV = ValOf(C);
  EXPECT_EQ((!AV || BV) == (!AV || CV), true);
}

TEST(TseitinTest, UnsatisfiableFormula) {
  ExprFactory F;
  ExprRef A = F.var("a", Sort::Bool);
  SatSolver S;
  Tseitin T(S);
  T.assertTrue(F.conj({F.iff(A, F.lnot(A))}));
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

// --- Guarded assertions -------------------------------------------------------

namespace {

/// An encoder over a proof-logging solver, with the discipline log a lint
/// replay attaches.
struct GuardRig {
  SatSolver Sat;
  proof::ProofTrace Trace;
  audit::Log Log;
  Tseitin Enc{Sat};
  GuardRig() {
    Sat.setProofTrace(&Trace);
    Enc.setAuditLog(&Log);
  }
};

/// The Define/Reference events of \p L: (kind, layer, active layer).
std::vector<std::tuple<int, unsigned, unsigned>>
layerEvents(const audit::Log &L) {
  std::vector<std::tuple<int, unsigned, unsigned>> Out;
  for (const audit::Event &E : L.Events)
    if (E.Kind == audit::EventKind::Define ||
        E.Kind == audit::EventKind::Reference)
      Out.emplace_back(static_cast<int>(E.Kind), E.Layer, E.ActiveLayer);
  return Out;
}

} // namespace

TEST(TseitinTest, GuardedAssertionMatchesTheImplicationChain) {
  // assertGuarded(path, body) must add exactly what asserting the formula
  // `s1 -> (s2 -> ... -> body)` adds: the same definitions, clauses and
  // cache events in the same order, so the certified trace serializes
  // byte for byte alike. Covered: one- and three-level paths, the bodies
  // the factory folds (true, false) and a composite one, and the same
  // body asserted twice under one path (a cache hit on the chain).
  ExprFactory F;
  ExprRef S1 = F.var("g_s1", Sort::Bool), S2 = F.var("g_s2", Sort::Bool),
          S3 = F.var("g_s3", Sort::Bool);
  ExprRef X = F.var("g_x", Sort::Bool), Y = F.var("g_y", Sort::Bool);
  auto Chain = [&F](const std::vector<ExprRef> &Path, ExprRef Body) {
    for (auto It = Path.rbegin(); It != Path.rend(); ++It)
      Body = F.implies(*It, Body);
    return Body;
  };
  for (ExprRef Body : {F.trueExpr(), F.falseExpr(), F.disj({X, F.lnot(Y)})}) {
    // A family-like layer asserting under one guard, then a nested layer
    // asserting under three: the outer guards are found in the ancestor.
    auto Scenario = [&](GuardRig &R, const auto &Assert) {
      R.Enc.setActiveLayer(R.Enc.pushLayer(Tseitin::RootLayer));
      Assert(R, std::vector<ExprRef>{S1}, Body);
      R.Enc.setActiveLayer(R.Enc.pushLayer(R.Enc.activeLayer()));
      Assert(R, std::vector<ExprRef>{S1, S2, S3}, Body);
      Assert(R, std::vector<ExprRef>{S1, S2, S3}, Body);
      Assert(R, std::vector<ExprRef>{S1}, Body);
    };
    GuardRig Ref, New;
    Scenario(Ref, [&](GuardRig &R, const std::vector<ExprRef> &Path,
                      ExprRef B) { R.Enc.assertTrue(Chain(Path, B)); });
    Scenario(New, [](GuardRig &R, const std::vector<ExprRef> &Path,
                     ExprRef B) { R.Enc.assertGuarded(Path, B); });
    std::string What = printAbstract(Body);
    EXPECT_EQ(New.Trace.serialize(), Ref.Trace.serialize()) << What;
    EXPECT_EQ(New.Sat.numVars(), Ref.Sat.numVars()) << What;
    EXPECT_EQ(layerEvents(New.Log), layerEvents(Ref.Log)) << What;
    // And the guard means what it says.
    SatResult Under = New.Sat.solve({New.Enc.atomLit(S1),
                                     New.Enc.atomLit(S2),
                                     New.Enc.atomLit(S3)});
    EXPECT_EQ(Under, Body->isFalse() ? SatResult::Unsat : SatResult::Sat)
        << What;
    EXPECT_EQ(New.Sat.solve({New.Enc.atomLit(S1).negated()}), SatResult::Sat)
        << What;
  }
}

// --- SmtSolver -----------------------------------------------------------------

TEST(SmtSolverTest, EqualityTransitivityChain) {
  ExprFactory F;
  ExprRef A = F.var("a", Sort::Obj), B = F.var("b", Sort::Obj),
          C = F.var("c", Sort::Obj), D = F.var("d", Sort::Obj);
  SmtSolver S(F);
  S.assertFormula(F.eq(A, B));
  S.assertFormula(F.eq(B, C));
  S.assertFormula(F.eq(C, D));
  S.assertFormula(F.ne(A, D));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

TEST(SmtSolverTest, MembershipCongruence) {
  ExprFactory F;
  Vocab Dl(F);
  // v1 = v2 and v1 in S0 and v2 ~in S0 is inconsistent.
  ExprRef S0 = F.var("S0", Sort::State);
  SmtSolver S(F);
  S.assertFormula(F.eq(Dl.V1, Dl.V2));
  S.assertFormula(F.setContains(S0, Dl.V1));
  S.assertFormula(F.lnot(F.setContains(S0, Dl.V2)));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

TEST(SmtSolverTest, MapLookupCongruence) {
  ExprFactory F;
  Vocab Dl(F);
  ExprRef M0 = F.var("M0", Sort::State);
  SmtSolver S(F);
  S.assertFormula(F.eq(Dl.K1, Dl.K2));
  S.assertFormula(F.eq(F.mapGet(M0, Dl.K1), Dl.V1));
  S.assertFormula(F.eq(F.mapGet(M0, Dl.K2), Dl.V2));
  S.assertFormula(F.ne(Dl.V1, Dl.V2));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

TEST(SmtSolverTest, LinearAtomCanonicalization) {
  ExprFactory F;
  ExprRef C0 = F.var("c0", Sort::Int), V = F.var("v", Sort::Int);
  SmtSolver S(F);
  // (c0 + v = c0) and (v ~= 0) must canonicalize to the same atom and
  // conflict.
  S.assertFormula(F.eq(F.add(C0, V), C0));
  S.assertFormula(F.ne(V, F.intConst(0)));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

TEST(SmtSolverTest, CommutedSumsAreIdentical) {
  ExprFactory F;
  ExprRef C0 = F.var("c0", Sort::Int);
  ExprRef V1 = F.var("n1", Sort::Int), V2 = F.var("n2", Sort::Int);
  SmtSolver S(F);
  // c0 + n1 + n2 != c0 + n2 + n1 is unsatisfiable by normalization alone.
  S.assertFormula(F.ne(F.add(F.add(C0, V1), V2), F.add(F.add(C0, V2), V1)));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

TEST(SmtSolverTest, IntEqualityExclusivity) {
  ExprFactory F;
  ExprRef X = F.var("x", Sort::Int);
  SmtSolver S(F);
  S.assertFormula(F.eq(X, F.intConst(1)));
  S.assertFormula(F.eq(X, F.intConst(2)));
  EXPECT_EQ(S.check(), SatResult::Unsat);

  SmtSolver S2(F);
  S2.assertFormula(F.eq(X, F.intConst(1)));
  S2.assertFormula(F.lnot(F.le(X, F.intConst(3))));
  EXPECT_EQ(S2.check(), SatResult::Unsat);
}

TEST(SmtSolverTest, SatisfiableWithModel) {
  ExprFactory F;
  Vocab Dl(F);
  SmtSolver S(F);
  S.assertFormula(F.ne(Dl.V1, Dl.V2));
  EXPECT_EQ(S.check(), SatResult::Sat);
  EXPECT_GE(S.numAtoms(), 1);
}

TEST(SmtSolverTest, ObjIteLowering) {
  ExprFactory F;
  Vocab Dl(F);
  ExprRef C = F.var("c", Sort::Bool);
  ExprRef T = F.ite(C, Dl.V1, Dl.V2);
  SmtSolver S(F);
  // ite(c, v1, v2) = v1 with c true is consistent; adding v1 ~= v1 is not.
  S.assertFormula(C);
  S.assertFormula(F.lnot(F.eq(T, Dl.V1)));
  EXPECT_EQ(S.check(), SatResult::Unsat);
}

// --- Differential fuzzing of the eager facade ------------------------------------

// Random boolean combinations over a small vocabulary of object-equality
// and membership atoms, decided by the facade and cross-checked against
// explicit enumeration of all interpretations (4 objects, all membership
// patterns).
class SmtFuzzTest : public ::testing::TestWithParam<int> {};

namespace {

ExprRef randomFormula(ExprFactory &F, std::mt19937 &Rng, int Depth) {
  const char *Objs[] = {"a", "b", "c", "d"};
  if (Depth == 0 || Rng() % 4 == 0) {
    ExprRef X = F.var(Objs[Rng() % 4], Sort::Obj);
    ExprRef Y = F.var(Objs[Rng() % 4], Sort::Obj);
    if (Rng() % 3 == 0)
      return F.setContains(F.var("S0", Sort::State), X);
    return F.eq(X, Y);
  }
  switch (Rng() % 4) {
  case 0:
    return F.lnot(randomFormula(F, Rng, Depth - 1));
  case 1:
    return F.conj({randomFormula(F, Rng, Depth - 1),
                   randomFormula(F, Rng, Depth - 1)});
  case 2:
    return F.disj({randomFormula(F, Rng, Depth - 1),
                   randomFormula(F, Rng, Depth - 1)});
  default:
    return F.implies(randomFormula(F, Rng, Depth - 1),
                     randomFormula(F, Rng, Depth - 1));
  }
}

/// Enumerates all interpretations: partitions of {a,b,c,d} encoded as
/// value ids, and membership of each of the 4 possible value ids.
bool satisfiableByEnumeration(ExprRef Phi) {
  AbstractState S = AbstractState::makeSet(); // membership oracle
  for (int IdA = 0; IdA < 1; ++IdA)
    for (int IdB = 0; IdB < 2; ++IdB)
      for (int IdC = 0; IdC < 3; ++IdC)
        for (int IdD = 0; IdD < 4; ++IdD)
          for (unsigned Mem = 0; Mem < 16; ++Mem) {
            AbstractState Set = AbstractState::makeSet();
            for (int V = 0; V < 4; ++V)
              if (Mem & (1u << V))
                Set.setInsert(Value::obj(V));
            Env E;
            E.bind("a", Value::obj(IdA));
            E.bind("b", Value::obj(IdB));
            E.bind("c", Value::obj(IdC));
            E.bind("d", Value::obj(IdD));
            E.bindState("S0", &Set);
            if (evaluateBool(Phi, E))
              return true;
          }
  return false;
}

} // namespace

TEST_P(SmtFuzzTest, FacadeAgreesWithEnumeration) {
  std::mt19937 Rng(GetParam());
  ExprFactory F;
  for (int Iter = 0; Iter < 120; ++Iter) {
    ExprRef Phi = randomFormula(F, Rng, 3);
    SmtSolver S(F);
    S.assertFormula(Phi);
    SatResult Got = S.check();
    ASSERT_NE(Got, SatResult::Unknown);
    bool Expected = satisfiableByEnumeration(Phi);
    // The eager encoding is complete for this fragment (equalities over
    // a closed term set + one membership predicate): verdicts must agree
    // exactly.
    ASSERT_EQ(Got == SatResult::Sat, Expected)
        << "seed=" << GetParam() << " iter=" << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtFuzzTest, ::testing::Values(11, 22, 33, 44));

// --- SmtSession: incremental facade ------------------------------------------

TEST(SmtSessionTest, QueriesDoNotContaminateLaterChecks) {
  ExprFactory F;
  ExprRef X = F.var("x", Sort::Int);
  SmtSession S(F);
  EXPECT_EQ(S.check({F.eq(X, F.intConst(1))}), SatResult::Sat);
  EXPECT_EQ(S.check({F.eq(X, F.intConst(2))}), SatResult::Sat);
  EXPECT_EQ(S.check({F.eq(X, F.intConst(1)), F.eq(X, F.intConst(2))}),
            SatResult::Unsat);
  // The failed query was per-call; the session is not poisoned.
  EXPECT_EQ(S.check({F.eq(X, F.intConst(1))}), SatResult::Sat);
}

TEST(SmtSessionTest, BaseFormulasPersistAcrossChecks) {
  ExprFactory F;
  Vocab Dl(F);
  SmtSession S(F);
  S.assertBase(F.ne(Dl.V1, Dl.V2));
  EXPECT_EQ(S.check({}), SatResult::Sat);
  EXPECT_EQ(S.check({F.eq(Dl.V1, Dl.V2)}), SatResult::Unsat);
  EXPECT_EQ(S.check({}), SatResult::Sat);
  // Base grows monotonically.
  S.assertBase(F.eq(Dl.V1, Dl.V2));
  EXPECT_EQ(S.check({}), SatResult::Unsat);
}

TEST(SmtSessionTest, RetainsEncodingAcrossChecks) {
  ExprFactory F;
  Vocab Dl(F);
  ExprRef S0 = F.var("S0", Sort::State);
  SmtSession S(F);
  S.assertBase(F.setContains(S0, Dl.V1));
  ASSERT_EQ(S.check({F.eq(Dl.V1, Dl.V2), F.lnot(F.setContains(S0, Dl.V2))}),
            SatResult::Unsat);
  size_t Retained = S.retainedClauses();
  EXPECT_GT(Retained, 0u);
  // Re-checking the same split re-uses the retained encoding: no new
  // clauses are needed at all.
  ASSERT_EQ(S.check({F.eq(Dl.V1, Dl.V2), F.lnot(F.setContains(S0, Dl.V2))}),
            SatResult::Unsat);
  EXPECT_EQ(S.retainedClauses(), Retained);
  EXPECT_EQ(S.numChecks(), 2u);
}

// The incremental session must agree with the one-shot facade (and hence
// with ground-truth enumeration) on every query of a long random sequence
// sharing one warm session — bridges and learned clauses accumulate, the
// verdicts must not drift.
class SmtSessionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SmtSessionFuzzTest, WarmSessionAgreesWithEnumeration) {
  std::mt19937 Rng(GetParam());
  ExprFactory F;
  SmtSession Session(F);
  for (int Iter = 0; Iter < 80; ++Iter) {
    ExprRef Phi = randomFormula(F, Rng, 3);
    SatResult Got = Session.check({Phi});
    ASSERT_NE(Got, SatResult::Unknown);
    bool Expected = satisfiableByEnumeration(Phi);
    ASSERT_EQ(Got == SatResult::Sat, Expected)
        << "seed=" << GetParam() << " iter=" << Iter;
  }
  EXPECT_EQ(Session.numChecks(), 80u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtSessionFuzzTest,
                         ::testing::Values(5, 55, 555));
