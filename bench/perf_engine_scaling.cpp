//===- bench/perf_engine_scaling.cpp - Engine scope scaling -------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// Verification cost versus scope for both engines, supporting DESIGN.md
// §4.1's small-scope argument: the verdicts stabilize by scope 3 while the
// cost grows combinatorially — the reason the default scope suffices.
//
// The symbolic section compares the two discharge strategies — the
// one-shot session-per-VC oracle and the shared catalog session
// (selector-tree scopes, pair and family subtrees retired when done,
// Tseitin variables recycled) — and emits machine-readable BENCH_JSON
// lines that bench/run_all.sh collects into BENCH_semcommute.json,
// including the catalog-over-oneshot speedup, the eviction counters, and a
// peak-live-variables series (peak live vs. cumulative variable demand,
// per bound) showing what index recycling buys.
//
// A second sweep varies the clause-GC budget
// (SymbolicEngine::setClauseGcBudget, i.e. SatSolver::setClauseGcLimit)
// over the catalog-session ArrayList suite so
// the default threshold is picked from measured peak-retention/time data
// instead of MiniSat folklore.
//
// A third run compares the catalog-session ArrayList suite with the §5.2.1
// proof-hint scripts attached against a hints-off baseline, emitting the
// conflict reduction (and the max single-VC conflict count, i.e. the
// budget the suite actually needs) so the ArrayList conflict budget is a
// measured choice.
//
//===----------------------------------------------------------------------===//

// With --quick the sweeps trim to a ~5s budget (exhaustive scope <= 4,
// symbolic bound <= 3, three GC budget points) — what bench/run_all.sh
// passes unless SEMCOMM_BENCH_FULL=1. Every BENCH_JSON metric name is
// emitted either way; the full sweep just adds the expensive rows.

#include "commute/ExhaustiveEngine.h"
#include "commute/ProofHints.h"
#include "commute/SymbolicEngine.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace semcomm;

namespace {

struct SymbolicRun {
  double Seconds = 0;
  uint64_t Vcs = 0;
  int64_t Conflicts = 0;
  int64_t MaxVcConflicts = 0;
  unsigned Failures = 0;
  unsigned Methods = 0;
  uint64_t RetainedClauses = 0;
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
};

/// One-shot discharge: one engine call per testing method, a cold session
/// per VC split.
SymbolicRun runOneShotSuite(ExprFactory &F, const Catalog &C, int Bound) {
  SymbolicEngine Engine(F, Bound, /*ConflictBudget=*/200000,
                        SolveMode::OneShot);
  SymbolicRun Out;
  Stopwatch W;
  for (const TestingMethod &M :
       generateTestingMethods(C, arrayListFamily())) {
    SymbolicResult R = Engine.verify(M);
    Out.Vcs += R.NumVcs;
    Out.Conflicts += R.SatConflicts;
    Out.MaxVcConflicts = std::max(Out.MaxVcConflicts, R.MaxVcConflicts);
    Out.DbReductions += R.DbReductions;
    Out.ReclaimedClauses += R.ReclaimedClauses;
    Out.Failures += !R.Verified;
    ++Out.Methods;
  }
  Out.Seconds = W.seconds();
  return Out;
}

/// Catalog-level discharge of the ArrayList workload: one CatalogSession
/// (selector-tree scopes, subtree retirement, variable recycling) serving
/// the family as its only shard. With \p Hints, the §5.2.1 scripts attach
/// as labeled split assumptions.
SymbolicRun runCatalogSuite(ExprFactory &F, const Catalog &C, int Bound,
                            int64_t GcBudget,
                            CatalogSessionStats *StatsOut = nullptr,
                            const std::vector<HintScript> *Hints = nullptr) {
  SymbolicEngine Engine(F, Bound, /*ConflictBudget=*/200000);
  Engine.setClauseGcBudget(GcBudget);
  Engine.attachHints(Hints);
  SymbolicRun Out;
  Stopwatch W;
  CatalogOutcome CO = Engine.verifyCatalog(C, {&arrayListFamily()});
  for (const FamilyOutcome &FO : CO.Families)
    for (const PairOutcome &O : FO.Pairs)
      for (const SymbolicResult &R : O.Methods) {
        Out.Vcs += R.NumVcs;
        Out.MaxVcConflicts = std::max(Out.MaxVcConflicts, R.MaxVcConflicts);
        Out.Failures += !R.Verified;
        ++Out.Methods;
      }
  Out.Conflicts = CO.Conflicts;
  Out.RetainedClauses = CO.Stats.PeakRetainedClauses;
  Out.DbReductions = CO.DbReductions;
  Out.ReclaimedClauses = CO.ReclaimedClauses;
  Out.Seconds = W.seconds();
  if (StatsOut)
    *StatsOut = CO.Stats;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
  const int MaxExhaustiveLen = Quick ? 4 : 5;
  const int MaxSymbolicBound = Quick ? 3 : 4;

  ExprFactory F;
  Catalog C(F);

  std::printf("Exhaustive engine, full ArrayList method suite by "
              "scope%s:\n\n", Quick ? " (--quick)" : "");
  std::printf("%8s %10s %12s %10s\n", "maxLen", "methods", "scenarios",
              "time(s)");
  for (int MaxLen = 2; MaxLen <= MaxExhaustiveLen; ++MaxLen) {
    Scope Sc;
    Sc.MaxSeqLen = MaxLen;
    ExhaustiveEngine Engine(Sc);
    Stopwatch W;
    uint64_t Scenarios = 0;
    unsigned Failures = 0, Methods = 0;
    for (const TestingMethod &M :
         generateTestingMethods(C, arrayListFamily())) {
      VerifyResult R = Engine.verify(M);
      Scenarios += R.ScenariosChecked;
      Failures += !R.Verified;
      ++Methods;
    }
    std::printf("%8d %10u %12llu %10.2f%s\n", MaxLen, Methods,
                (unsigned long long)Scenarios, W.seconds(),
                Failures ? "  FAILURES!" : "");
  }

  std::printf("\nSymbolic engine, full ArrayList method suite by length "
              "bound:\none-shot session-per-VC vs shared catalog session:"
              "\n\n");
  std::printf("%8s %10s %12s %12s %12s %9s\n", "bound", "methods", "VCs",
              "oneshot(s)", "catalog(s)", "speedup");
  for (int Bound = 2; Bound <= MaxSymbolicBound; ++Bound) {
    // Untimed warm-up: intern this bound's expressions into the shared
    // factory so no timed leg pays first-time allocation.
    runCatalogSuite(F, C, Bound, /*GcBudget=*/0);
    SymbolicRun OneShot = runOneShotSuite(F, C, Bound);
    CatalogSessionStats CatStats;
    SymbolicRun Cat = runCatalogSuite(F, C, Bound, /*GcBudget=*/0, &CatStats);
    double Speedup = Cat.Seconds > 0 ? OneShot.Seconds / Cat.Seconds : 0;
    unsigned Failures = OneShot.Failures + Cat.Failures;
    std::printf("%8d %10u %12llu %12.3f %12.3f %8.2fx%s\n", Bound,
                Cat.Methods, (unsigned long long)Cat.Vcs, OneShot.Seconds,
                Cat.Seconds, Speedup, Failures ? "  FAILURES!" : "");
    // The peak-live-variables series: what recycling buys at this bound.
    std::printf("%8s catalog vars: peak %llu live of %llu requested, "
                "%llu recycled, peak %llu live clauses\n", "",
                (unsigned long long)CatStats.PeakLiveVars,
                (unsigned long long)CatStats.VarRequests,
                (unsigned long long)CatStats.RecycledVars,
                (unsigned long long)CatStats.PeakLiveClauses);
    // Machine-readable line for bench/run_all.sh's aggregate baseline.
    std::printf("BENCH_JSON {\"bench\":\"perf_engine_scaling\","
                "\"metric\":\"symbolic_arraylist_suite\",\"bound\":%d,"
                "\"methods\":%u,\"vcs\":%llu,\"oneshot_s\":%.4f,"
                "\"shared_catalog_s\":%.4f,\"speedup\":%.3f,"
                "\"oneshot_conflicts\":%lld,"
                "\"shared_catalog_conflicts\":%lld,"
                "\"catalog_peak_retained_clauses\":%llu,"
                "\"catalog_evictions\":%llu,"
                "\"catalog_evicted_clauses\":%llu,"
                "\"catalog_prefix_reuses\":%llu,"
                "\"catalog_peak_live_vars\":%llu,"
                "\"catalog_var_requests\":%llu,"
                "\"catalog_recycled_vars\":%llu,"
                "\"catalog_peak_live_clauses\":%llu,"
                "\"failures\":%u}\n",
                Bound, Cat.Methods, (unsigned long long)Cat.Vcs,
                OneShot.Seconds, Cat.Seconds, Speedup,
                (long long)OneShot.Conflicts, (long long)Cat.Conflicts,
                (unsigned long long)CatStats.PeakRetainedClauses,
                (unsigned long long)CatStats.PairsRetired,
                (unsigned long long)CatStats.EvictedClauses,
                (unsigned long long)CatStats.PrefixReuses,
                (unsigned long long)CatStats.PeakLiveVars,
                (unsigned long long)CatStats.VarRequests,
                (unsigned long long)CatStats.RecycledVars,
                (unsigned long long)CatStats.PeakLiveClauses, Failures);
  }

  // Clause-GC budget sweep over the catalog-session ArrayList suite: the
  // default reduce threshold is whatever this data says, not folklore.
  // (A budget below the workload's live-lemma count trades re-derivation
  // conflicts for retention; a budget above it never fires.)
  std::printf("\nClause-GC budget sweep, catalog-session ArrayList suite "
              "(bound 3):\n\n");
  std::printf("%10s %10s %12s %14s %12s %12s\n", "budget", "time(s)",
              "conflicts", "peak-retained", "reductions", "reclaimed");
  runCatalogSuite(F, C, 3, 0); // Warm-up.
  std::vector<int64_t> GcBudgets =
      Quick ? std::vector<int64_t>{100, 500, 4000}
            : std::vector<int64_t>{100, 250, 500, 1000, 2000, 4000};
  for (int64_t Budget : GcBudgets) {
    SymbolicRun Run = runCatalogSuite(F, C, 3, Budget);
    std::printf("%10lld %10.3f %12lld %14llu %12llu %12llu%s\n",
                (long long)Budget, Run.Seconds, (long long)Run.Conflicts,
                (unsigned long long)Run.RetainedClauses,
                (unsigned long long)Run.DbReductions,
                (unsigned long long)Run.ReclaimedClauses,
                Run.Failures ? "  FAILURES!" : "");
    std::printf("BENCH_JSON {\"bench\":\"perf_engine_scaling\","
                "\"metric\":\"gc_budget_sweep\",\"bound\":3,"
                "\"gc_budget\":%lld,\"shared_catalog_s\":%.4f,"
                "\"conflicts\":%lld,\"peak_retained_clauses\":%llu,"
                "\"db_reductions\":%llu,\"reclaimed_clauses\":%llu,"
                "\"failures\":%u}\n",
                (long long)Budget, Run.Seconds, (long long)Run.Conflicts,
                (unsigned long long)Run.RetainedClauses,
                (unsigned long long)Run.DbReductions,
                (unsigned long long)Run.ReclaimedClauses, Run.Failures);
  }

  // Hint-guided budget measurement: the catalog-session ArrayList suite with
  // the §5.2.1 proof-hint scripts attached vs. the hints-off baseline. The
  // max single-VC conflict count is the budget the suite actually needs —
  // whether --symbolic conflict budgets can drop is a data question, so
  // both numbers land in the committed baseline.
  std::printf("\nHint-guided budget measurement, catalog-session ArrayList "
              "suite (bound 3):\n\n");
  std::printf("%10s %10s %12s %16s\n", "hints", "time(s)", "conflicts",
              "max-vc-conflicts");
  std::vector<HintScript> Scripts = buildArrayListHintScripts(F);
  SymbolicRun HintsOff = runCatalogSuite(F, C, 3, /*GcBudget=*/0);
  SymbolicRun HintsOn = runCatalogSuite(F, C, 3, /*GcBudget=*/0,
                                        /*StatsOut=*/nullptr, &Scripts);
  for (const auto &Leg : {std::make_pair("off", &HintsOff),
                          std::make_pair("on", &HintsOn)})
    std::printf("%10s %10.3f %12lld %16lld%s\n", Leg.first,
                Leg.second->Seconds, (long long)Leg.second->Conflicts,
                (long long)Leg.second->MaxVcConflicts,
                Leg.second->Failures ? "  FAILURES!" : "");
  double HintReduction =
      HintsOn.Conflicts > 0
          ? (double)HintsOff.Conflicts / (double)HintsOn.Conflicts
          : (HintsOff.Conflicts > 0 ? 0.0 : 1.0);
  std::printf("hint_conflict_reduction: %.3fx; the suite's conflict budget "
              "could drop to ~%lld (max single-VC count with hints %s)\n",
              HintReduction,
              (long long)std::max<int64_t>(HintsOn.MaxVcConflicts, 1),
              HintsOn.MaxVcConflicts <= HintsOff.MaxVcConflicts ? "attached"
                                                                : "off");
  std::printf("BENCH_JSON {\"bench\":\"perf_engine_scaling\","
              "\"metric\":\"hint_budget\",\"bound\":3,"
              "\"hints_off_s\":%.4f,\"hints_on_s\":%.4f,"
              "\"hints_off_conflicts\":%lld,\"hints_on_conflicts\":%lld,"
              "\"hints_off_max_vc_conflicts\":%lld,"
              "\"hints_on_max_vc_conflicts\":%lld,"
              "\"hint_conflict_reduction\":%.3f,"
              "\"failures\":%u}\n",
              HintsOff.Seconds, HintsOn.Seconds,
              (long long)HintsOff.Conflicts, (long long)HintsOn.Conflicts,
              (long long)HintsOff.MaxVcConflicts,
              (long long)HintsOn.MaxVcConflicts, HintReduction,
              HintsOff.Failures + HintsOn.Failures);
  return 0;
}
