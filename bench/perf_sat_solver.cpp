//===- bench/perf_sat_solver.cpp - smt/ substrate throughput -----------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// Throughput of the from-scratch CDCL core and the eager SMT facade the
// symbolic engine discharges its verification conditions with — including
// the one-shot-vs-incremental comparisons the assumption-based session
// design is justified by: a warm solver keeps Tseitin definitions, theory
// bridges, and learned clauses across a family of near-identical queries,
// the shape of the catalog's ArrayList case splits.
//
//===----------------------------------------------------------------------===//

#include "logic/Dsl.h"
#include "smt/SmtSolver.h"

#include <benchmark/benchmark.h>

using namespace semcomm;

/// Unsatisfiable pigeonhole instances exercise clause learning.
static void BM_Pigeonhole(benchmark::State &State) {
  int Holes = static_cast<int>(State.range(0));
  int Pigeons = Holes + 1;
  for (auto _ : State) {
    SatSolver S;
    std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
    for (auto &Row : Var)
      for (int &V : Row)
        V = S.addVar();
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
    benchmark::DoNotOptimize(S.solve());
  }
}
BENCHMARK(BM_Pigeonhole)->Arg(5)->Arg(6)->Arg(7);

namespace {

/// PHP(Holes+1, Holes) with every clause gated behind a fresh selector —
/// the conflict-heavy *warm* workload: repeated Unsat/Sat queries on one
/// long-lived solver, where the learned database grows without bound
/// unless reduceDb() trims it.
int buildGatedPigeonhole(SatSolver &S, int Holes) {
  int Sel = S.addVar();
  int Pigeons = Holes + 1;
  std::vector<std::vector<int>> Var(Pigeons, std::vector<int>(Holes));
  for (auto &Row : Var)
    for (int &V : Row)
      V = S.addVar();
  for (int P = 0; P < Pigeons; ++P) {
    std::vector<Lit> C{Lit(Sel, false)};
    for (int H = 0; H < Holes; ++H)
      C.push_back(Lit(Var[P][H], true));
    S.addClause(C);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause({Lit(Sel, false), Lit(Var[P1][H], false),
                     Lit(Var[P2][H], false)});
  return Sel;
}

void runWarmPigeonhole(benchmark::State &State, bool GcEnabled) {
  int Holes = static_cast<int>(State.range(0));
  int64_t Retained = 0;
  for (auto _ : State) {
    SatSolver S;
    S.setClauseGc(GcEnabled);
    S.setClauseGcLimit(500); // Aggressive enough to fire at this scale.
    int Sel = buildGatedPigeonhole(S, Holes);
    for (int Round = 0; Round < 6; ++Round) {
      benchmark::DoNotOptimize(S.solve({Lit(Sel, true)}));
      benchmark::DoNotOptimize(S.solve({Lit(Sel, false)}));
    }
    Retained = static_cast<int64_t>(S.numClauses());
  }
  // RetainedClauses growth is the number clause-GC is meant to bound.
  State.counters["retained_clauses"] =
      benchmark::Counter(static_cast<double>(Retained));
}

} // namespace

/// Retirement cost against database size: a solver holding \p N live
/// clauses over 100 unrelated variables (each clause satisfied by the
/// all-false assignment that default phases pick, and watched on its two
/// negative literals, so no solve propagates through it) opens a gated
/// scope of 50 clauses over 16 fresh variables, solves under its selector
/// and retires it, recycling the scope's variables and releasing its
/// selector, as a warm service retires a pair scope. Each iteration does
/// the same work at every \p N; only a retirement that visits clauses
/// outside the scope grows with it.
static void BM_RetireSmallScope(benchmark::State &State) {
  const int Unrelated = 100, ScopeVars = 16, ScopeClauses = 50;
  auto N = static_cast<size_t>(State.range(0));
  SatSolver S;
  for (int V = 0; V < Unrelated; ++V)
    S.addVar();
  size_t Added = 0;
  for (int A = 1; A <= Unrelated && Added < N; ++A)
    for (int B = A + 1; B <= Unrelated && Added < N; ++B)
      for (int C = 1; C <= Unrelated && Added < N; ++C)
        if (C != A && C != B) {
          S.addClause({Lit(A, false), Lit(B, false), Lit(C, true)});
          ++Added;
        }
  std::vector<int> Vars(ScopeVars);
  for (auto _ : State) {
    Lit Sel(S.addVar(), true);
    for (int &V : Vars)
      V = S.addVar();
    for (int I = 0; I < ScopeClauses; ++I) {
      int X = Vars[static_cast<size_t>(I % ScopeVars)];
      int Y = Vars[static_cast<size_t>((I + 1 + I / ScopeVars) % ScopeVars)];
      S.addClause({Sel.negated(), Lit(X, false), Lit(Y, (I & 1) != 0)});
    }
    benchmark::DoNotOptimize(S.solve({Sel}));
    S.retireScopes({}, Vars, {Sel});
  }
  State.counters["live_clauses"] =
      benchmark::Counter(static_cast<double>(S.numClauses()));
}
BENCHMARK(BM_RetireSmallScope)->Arg(1000)->Arg(10000)->Arg(100000);

/// Long-lived solver without clause GC: the packrat baseline.
static void BM_WarmPigeonholeNoGc(benchmark::State &State) {
  runWarmPigeonhole(State, /*GcEnabled=*/false);
}
BENCHMARK(BM_WarmPigeonholeNoGc)->Arg(5)->Arg(6);

/// Same workload with activity-based clause-DB reduction.
static void BM_WarmPigeonholeGc(benchmark::State &State) {
  runWarmPigeonhole(State, /*GcEnabled=*/true);
}
BENCHMARK(BM_WarmPigeonholeGc)->Arg(5)->Arg(6);

namespace {

/// Builds the catalog-shaped CNF query base: N implication chains of
/// length L over a shared head variable. The driver's VC profile is
/// encoding-dominated — thousands of queries averaging under one conflict
/// each — so the interesting comparison is "rebuild the clause database
/// per query" versus "propagate on a warm solver".
struct ChainCnf {
  int Head = 0;
  std::vector<std::vector<int>> Chains;

  static ChainCnf build(SatSolver &S, int NumChains, int Len) {
    ChainCnf C;
    C.Head = S.addVar();
    C.Chains.assign(NumChains, {});
    for (int N = 0; N < NumChains; ++N) {
      int Prev = C.Head;
      for (int I = 0; I < Len; ++I) {
        int V = S.addVar();
        S.addClause({Lit(Prev, false), Lit(V, true)}); // Prev -> V.
        C.Chains[N].push_back(V);
        Prev = V;
      }
    }
    return C;
  }
};

} // namespace

/// Cold start per query: each of the NumChains queries (head on, some
/// chain's tail off — Unsat by propagation) pays variable allocation and
/// clause insertion for the whole base again.
static void BM_ChainCnfQueriesOneShot(benchmark::State &State) {
  int NumChains = static_cast<int>(State.range(0));
  const int Len = 50;
  for (auto _ : State)
    for (int Q = 0; Q < NumChains; ++Q) {
      SatSolver S;
      ChainCnf C = ChainCnf::build(S, NumChains, Len);
      benchmark::DoNotOptimize(
          S.solve({Lit(C.Head, true), Lit(C.Chains[Q].back(), false)}));
    }
}
BENCHMARK(BM_ChainCnfQueriesOneShot)->Arg(8)->Arg(16)->Arg(32);

/// Warm solver: the base is built once; every query is two assumption
/// literals and a propagation pass over retained clauses.
static void BM_ChainCnfQueriesIncremental(benchmark::State &State) {
  int NumChains = static_cast<int>(State.range(0));
  const int Len = 50;
  for (auto _ : State) {
    SatSolver S;
    ChainCnf C = ChainCnf::build(S, NumChains, Len);
    for (int Q = 0; Q < NumChains; ++Q)
      benchmark::DoNotOptimize(
          S.solve({Lit(C.Head, true), Lit(C.Chains[Q].back(), false)}));
  }
}
BENCHMARK(BM_ChainCnfQueriesIncremental)->Arg(8)->Arg(16)->Arg(32);

/// A representative set-theory VC: transitivity chains plus membership
/// congruence, as the symbolic engine emits for Set methods.
static void BM_EqualityChainVc(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    ExprFactory F;
    ExprRef S0 = F.var("S0", Sort::State);
    SmtSolver Solver(F);
    ExprRef First = F.var("x0", Sort::Obj);
    ExprRef Prev = First;
    for (int I = 1; I < N; ++I) {
      ExprRef Cur = F.var("x" + std::to_string(I), Sort::Obj);
      Solver.assertFormula(F.eq(Prev, Cur));
      Prev = Cur;
    }
    Solver.assertFormula(F.setContains(S0, First));
    Solver.assertFormula(F.lnot(F.setContains(S0, Prev)));
    benchmark::DoNotOptimize(Solver.check());
  }
}
BENCHMARK(BM_EqualityChainVc)->Arg(4)->Arg(8)->Arg(12);

namespace {

/// The catalog-shaped SMT query family: one shared equality-chain prefix
/// (the "symbolic execution" of the two orders), then one membership VC
/// per chain element (the "case splits").
struct ChainWorkload {
  ExprFactory F;
  std::vector<ExprRef> Base;
  std::vector<std::vector<ExprRef>> Queries;

  explicit ChainWorkload(int N) {
    ExprRef S0 = F.var("S0", Sort::State);
    std::vector<ExprRef> Xs;
    for (int I = 0; I < N; ++I)
      Xs.push_back(F.var("x" + std::to_string(I), Sort::Obj));
    for (int I = 1; I < N; ++I)
      Base.push_back(F.eq(Xs[I - 1], Xs[I]));
    for (int I = 1; I < N; ++I)
      Queries.push_back({F.setContains(S0, Xs[0]),
                         F.lnot(F.setContains(S0, Xs[I]))});
  }
};

} // namespace

/// Every case split pays Tseitin + bridge generation + CDCL from scratch.
static void BM_ChainSplitsOneShot(benchmark::State &State) {
  ChainWorkload W(static_cast<int>(State.range(0)));
  for (auto _ : State)
    for (const std::vector<ExprRef> &Q : W.Queries) {
      SmtSolver Solver(W.F);
      for (ExprRef B : W.Base)
        Solver.assertFormula(B);
      for (ExprRef E : Q)
        Solver.assertFormula(E);
      benchmark::DoNotOptimize(Solver.check());
    }
}
BENCHMARK(BM_ChainSplitsOneShot)->Arg(4)->Arg(8)->Arg(12);

/// The prefix is asserted once; each split is two assumption literals on
/// the warm session.
static void BM_ChainSplitsIncremental(benchmark::State &State) {
  ChainWorkload W(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    SmtSession Session(W.F);
    for (ExprRef B : W.Base)
      Session.assertBase(B);
    for (const std::vector<ExprRef> &Q : W.Queries)
      benchmark::DoNotOptimize(Session.check(Q));
  }
}
BENCHMARK(BM_ChainSplitsIncremental)->Arg(4)->Arg(8)->Arg(12);

BENCHMARK_MAIN();
