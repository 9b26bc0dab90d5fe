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

TEST(SatSolverScopeRetire, EvictsClausesSatisfiedByUnitsSinceTheLastOne) {
  // A clause stored before a variable is fixed at root becomes
  // root-satisfied when that variable's literal is true; the next
  // retirement evicts it, though it mentions no retired variable.
  SatSolver S;
  int A = S.addVar(), B = S.addVar(), C = S.addVar(), D = S.addVar();
  S.addClause({Lit(A, true), Lit(B, true), Lit(C, true)});
  S.addClause({Lit(A, false), Lit(B, true), Lit(D, true)});
  Lit First(S.addVar(), true), Second(S.addVar(), true);
  S.retireScopes({}, {}, {First}); // Nothing fixed yet: nothing to evict.
  EXPECT_EQ(S.numClauses(), 2u);
  S.addClause({Lit(A, true)}); // Satisfies the first clause at root.
  EXPECT_EQ(S.retireScopes({}, {}, {Second}), 1u);
  EXPECT_EQ(S.numClauses(), 1u);
  EXPECT_TRUE(S.watchInvariantHolds());
  // The surviving clause now reads (B | D) at root and still constrains.
  EXPECT_EQ(S.solve({Lit(B, false), Lit(D, false)}), SatResult::Unsat);
  EXPECT_EQ(S.solve({Lit(B, false)}), SatResult::Sat);
}

TEST(SatSolverScopeRetire, CostIsIndependentOfUnrelatedClauses) {
  // A retirement finds its victims through the occurrence lists of the
  // variables it names and of those fixed at root since the previous one,
  // so what it examines follows the retired scope: 200 small gated scopes
  // retire beside 10k live clauses over unrelated variables, and each
  // examines at most twice the occurrences of its own variables. A sweep
  // of the database would examine all 10k clauses every time.
  SatSolver S;
  const int Unrelated = 100;
  for (int V = 0; V < Unrelated; ++V)
    S.addVar();
  // (~a | ~b | c): satisfied by the all-false default phases, so no solve
  // learns anything or fixes an unrelated variable at root.
  size_t Added = 0;
  for (int A = 1; A <= Unrelated && Added < 10000; ++A)
    for (int B = A + 1; B <= Unrelated && Added < 10000; ++B)
      for (int C = 1; C <= Unrelated && Added < 10000; ++C)
        if (C != A && C != B) {
          S.addClause({Lit(A, false), Lit(B, false), Lit(C, true)});
          ++Added;
        }
  ASSERT_EQ(S.numClauses(), 10000u);

  std::vector<int> Vars(8);
  for (int Scope = 0; Scope < 200; ++Scope) {
    Lit Sel(S.addVar(), true);
    for (int &V : Vars)
      V = S.addVar();
    // A chain gated by the selector: three occurrences per clause.
    int64_t Occurrences = 0;
    for (size_t I = 0; I + 1 < Vars.size(); ++I) {
      S.addClause({Sel.negated(), Lit(Vars[I], false), Lit(Vars[I + 1], true)});
      Occurrences += 3;
    }
    ASSERT_EQ(S.solve({Sel, Lit(Vars[0], true)}), SatResult::Sat) << Scope;
    ASSERT_TRUE(S.modelValue(Vars.back())) << Scope;

    int64_t Before = S.numRetireVisits();
    EXPECT_EQ(S.retireScopes({}, Vars, {Sel}), Vars.size() - 1) << Scope;
    EXPECT_LE(S.numRetireVisits() - Before, 2 * Occurrences) << Scope;
  }
  // The unrelated database is intact, the scopes are gone, and their
  // variables and selectors recycled.
  EXPECT_EQ(S.numClauses(), 10000u);
  EXPECT_EQ(S.numEvictedClauses(), 200 * 7);
  EXPECT_EQ(S.numReleasedSelectors(), 200);
  EXPECT_EQ(S.numVars(), Unrelated + 9);
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.watchInvariantHolds());
  EXPECT_TRUE(S.reasonInvariantHolds());
}

/// Deletion fuzz: a solver with a proof trace attached and clause GC
/// forced (limit 5, plus explicit reduceDb() calls) against a reference
/// with neither GC nor recycling that never retires. Random steps add
/// base clauses (units included) and selector-gated scope clauses, open
/// scopes (some of them gated pigeonholes, whose refutations learn
/// clauses for the GC to reclaim), retire them (plain or releasable
/// selectors, the scope's variables recycled), solve under assumptions
/// and reduce the learned database. Every answer must match the
/// reference's, a Sat model must satisfy every live input clause, the
/// slot store's invariants must hold after every step, both deletion
/// paths must run, and the finished trace must pass the checker,
/// including its live-clause count at every query.
class SatDeletionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SatDeletionFuzzTest, ReduceAndRetireAgreeWithReference) {
  std::mt19937 Rng(GetParam());
  // Both deletion paths must actually run under the proof.
  int64_t Reclaimed = 0, Evicted = 0;
  for (int Iter = 0; Iter < 8; ++Iter) {
    proof::ProofTrace Trace;
    SatSolver Sub, Ref;
    Sub.setProofTrace(&Trace);
    Sub.setClauseGcLimit(5);
    Ref.setClauseGc(false);
    Ref.setVarRecycling(false);
    const int NBase = 5 + static_cast<int>(Rng() % 4);
    for (int V = 0; V < NBase; ++V) {
      Sub.addVar();
      Ref.addVar();
    }
    auto BaseLit = [&]() {
      return Lit(1 + static_cast<int>(Rng() % NBase), (Rng() & 1) != 0);
    };
    struct Scope {
      Lit SubSel, RefSel;
      std::vector<int> SubVars, RefVars;
      std::vector<std::vector<Lit>> SubClauses; ///< In Sub's indices.
      bool Releasable = false;
    };
    std::vector<Scope> Open;
    std::vector<std::vector<Lit>> BaseClauses;
    auto Satisfied = [&](const std::vector<Lit> &C) {
      for (Lit L : C)
        if (Sub.modelValue(L.var()) == L.positive())
          return true;
      return false;
    };

    for (int Step = 0; Step < 150; ++Step) {
      unsigned Op = Rng() % 10;
      if (Op == 0 || Open.empty()) {
        Scope Sc;
        Sc.SubSel = Lit(Sub.addVar(), true);
        Sc.RefSel = Lit(Ref.addVar(), true);
        // One scope in four is a gated pigeonhole (5 pigeons, 4 holes):
        // Unsat under its selector, after enough conflicts to learn the
        // long, high-glue clauses that reduceDb() reclaims.
        bool Pigeonhole = Rng() % 4 == 0;
        int Owned = Pigeonhole ? 20 : 2 + static_cast<int>(Rng() % 3);
        for (int I = 0; I < Owned; ++I) {
          Sc.SubVars.push_back(Sub.addVar());
          Sc.RefVars.push_back(Ref.addVar());
        }
        Sc.Releasable = (Rng() & 1) != 0;
        auto Gated = [&](const std::vector<std::pair<size_t, bool>> &Body) {
          std::vector<Lit> SubC{Sc.SubSel.negated()},
              RefC{Sc.RefSel.negated()};
          for (auto [K, Pos] : Body) {
            SubC.push_back(Lit(Sc.SubVars[K], Pos));
            RefC.push_back(Lit(Sc.RefVars[K], Pos));
          }
          Sub.addClause(SubC);
          Ref.addClause(RefC);
          Sc.SubClauses.push_back(SubC);
        };
        if (Pigeonhole) {
          for (size_t P = 0; P != 5; ++P)
            Gated({{4 * P, true},
                   {4 * P + 1, true},
                   {4 * P + 2, true},
                   {4 * P + 3, true}});
          for (size_t H = 0; H != 4; ++H)
            for (size_t P = 0; P != 5; ++P)
              for (size_t Q = P + 1; Q != 5; ++Q)
                Gated({{4 * P + H, false}, {4 * Q + H, false}});
        }
        Open.push_back(std::move(Sc));
      } else if (Op <= 3) {
        // A gated clause: the selector's negation, at least one of the
        // scope's own variables, and owned or base literals.
        Scope &Sc = Open[Rng() % Open.size()];
        std::vector<Lit> SubC{Sc.SubSel.negated()}, RefC{Sc.RefSel.negated()};
        int Len = 1 + static_cast<int>(Rng() % 3);
        for (int I = 0; I < Len; ++I) {
          bool Pos = (Rng() & 1) != 0;
          if (I == 0 || (Rng() & 1) != 0) {
            size_t K = Rng() % Sc.SubVars.size();
            SubC.push_back(Lit(Sc.SubVars[K], Pos));
            RefC.push_back(Lit(Sc.RefVars[K], Pos));
          } else {
            Lit L = BaseLit();
            SubC.push_back(L);
            RefC.push_back(L);
          }
        }
        Sub.addClause(SubC);
        Ref.addClause(RefC);
        Sc.SubClauses.push_back(SubC);
      } else if (Op == 4) {
        // Rarely a base clause; a unit fixes a variable at root, which
        // the next retirement must account for.
        std::vector<Lit> C;
        int Len = 1 + static_cast<int>(Rng() % 3);
        for (int I = 0; I < Len; ++I)
          C.push_back(BaseLit());
        Sub.addClause(C);
        Ref.addClause(C);
        BaseClauses.push_back(C);
      } else if (Op <= 7) {
        std::vector<Lit> SubA, RefA;
        for (const Scope &Sc : Open)
          if ((Rng() & 1) != 0) {
            SubA.push_back(Sc.SubSel);
            RefA.push_back(Sc.RefSel);
          }
        for (int I = static_cast<int>(Rng() % 3); I > 0; --I) {
          Lit L = BaseLit();
          SubA.push_back(L);
          RefA.push_back(L);
        }
        SatResult Got = Sub.solve(SubA);
        ASSERT_EQ(Got, Ref.solve(RefA))
            << "seed=" << GetParam() << " iter=" << Iter << " step=" << Step;
        if (Got == SatResult::Unsat) {
          Sub.logQueryProof(Sub.unsatCore());
        } else {
          for (const std::vector<Lit> &C : BaseClauses)
            ASSERT_TRUE(Satisfied(C)) << "model violates a base clause";
          for (const Scope &Sc : Open) {
            if (!Sub.modelValue(Sc.SubSel.var()))
              continue;
            for (const std::vector<Lit> &C : Sc.SubClauses)
              ASSERT_TRUE(Satisfied(C)) << "model violates a scope clause";
          }
        }
      } else if (Op == 8) {
        Sub.reduceDb();
      } else {
        // Retire one or two scopes in one call; a retired selector is
        // never assumed again. The reference keeps the scope's clauses,
        // which its selector, left free, makes vacuous.
        std::vector<Lit> Plain, Releasable;
        std::vector<int> Vars;
        for (int N = (Open.size() > 1 && (Rng() & 1) != 0) ? 2 : 1; N > 0;
             --N) {
          size_t K = Rng() % Open.size();
          Scope &Sc = Open[K];
          (Sc.Releasable ? Releasable : Plain).push_back(Sc.SubSel);
          Vars.insert(Vars.end(), Sc.SubVars.begin(), Sc.SubVars.end());
          Open.erase(Open.begin() + static_cast<std::ptrdiff_t>(K));
        }
        Sub.retireScopes(Plain, Vars, Releasable);
      }
      ASSERT_TRUE(Sub.reasonInvariantHolds()) << "step " << Step;
      ASSERT_TRUE(Sub.watchInvariantHolds()) << "step " << Step;
      ASSERT_TRUE(Ref.watchInvariantHolds()) << "step " << Step;
    }
    proof::CheckResult R = proof::ProofChecker().check(Trace);
    ASSERT_TRUE(R.Ok) << "seed=" << GetParam() << " iter=" << Iter << ": "
                      << R.Error << R.QueryError;
    EXPECT_EQ(R.QueriesPassed, R.QueriesChecked);
    Reclaimed += Sub.numReclaimedClauses();
    Evicted += Sub.numEvictedClauses();
  }
  EXPECT_GT(Reclaimed, 0);
  EXPECT_GT(Evicted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatDeletionFuzzTest,
                         ::testing::Values(17, 101, 2718, 31337));

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
