//===- bench/perf_planning.cpp - Pair planning on a warm factory ----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// Pair planning compiles each catalog entry's six testing methods into the
// verification conditions the solver discharges (SymbolicEngine::planPair).
// A warm driver or service re-plans over a factory that already holds
// every node the plans use, so interning should find, not build, and what
// a pass allocates should be close to what its plans hold.
//
// BM_PlanFamilyWarm/<family> plans every entry of one family after a
// warm-up pass. A counting global operator new reports two counters:
//   allocs_per_pass  heap allocations of one planning pass;
//   copy_allocs      heap allocations of one deep copy of the plans the
//                    pass returned, the floor a pass that builds them
//                    cannot go below.
// BM_InternHit interns nodes that already exist and reports
// allocs_per_hit.
//
// Run: build/perf_planning [--benchmark_filter=...]
//
//===----------------------------------------------------------------------===//

#include "commute/SymbolicEngine.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};
} // namespace

// Every allocation in the process goes through here. The array forms and
// the nothrow forms call these. All three stay out of line, so that no
// caller sees malloc() pair with operator delete or operator new with
// free().
[[gnu::noinline]] void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

using namespace semcomm;

namespace {

uint64_t allocations() { return Allocations.load(std::memory_order_relaxed); }

/// The catalog and the engine every bench plans with: the driver's bound
/// and no proof hints, as `semcommute-verify` plans.
struct Planner {
  ExprFactory F;
  Catalog C{F};
  SymbolicEngine Eng{F, /*SeqLenBound=*/3};
};

Planner &planner() {
  static Planner P;
  return P;
}

std::vector<PairPlan> planFamily(const Planner &P, const Family &Fam) {
  const std::vector<ConditionEntry> &Entries = P.C.entries(Fam);
  std::vector<PairPlan> Plans;
  Plans.reserve(Entries.size());
  for (const ConditionEntry &E : Entries)
    Plans.push_back(P.Eng.planPair(E));
  return Plans;
}

void BM_PlanFamilyWarm(benchmark::State &State, const Family &Fam) {
  Planner &P = planner();
  std::vector<PairPlan> Plans = planFamily(P, Fam); // Warms the factory.
  uint64_t Before = allocations();
  for (auto _ : State) {
    Plans = planFamily(P, Fam);
    benchmark::DoNotOptimize(Plans.data());
    benchmark::ClobberMemory();
  }
  uint64_t PassAllocs = (allocations() - Before) / State.iterations();

  Before = allocations();
  std::vector<PairPlan> Copy = Plans;
  uint64_t CopyAllocs = allocations() - Before;
  benchmark::DoNotOptimize(Copy.data());

  State.counters["allocs_per_pass"] =
      benchmark::Counter(static_cast<double>(PassAllocs));
  State.counters["copy_allocs"] =
      benchmark::Counter(static_cast<double>(CopyAllocs));
  State.counters["pairs"] =
      benchmark::Counter(static_cast<double>(Plans.size()));
}
BENCHMARK_CAPTURE(BM_PlanFamilyWarm, Accumulator, accumulatorFamily())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PlanFamilyWarm, Set, setFamily())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PlanFamilyWarm, Map, mapFamily())
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PlanFamilyWarm, ArrayList, arrayListFamily())
    ->Unit(benchmark::kMicrosecond);

/// Eight smart-constructor calls per iteration, each returning a node the
/// factory already holds: a leaf, four binary and one unary operator, an
/// n-ary connective and a quantifier.
void BM_InternHit(benchmark::State &State) {
  ExprFactory &F = planner().F;
  ExprRef S = F.var("s1", Sort::State);
  ExprRef V1 = F.var("v1", Sort::Obj), V2 = F.var("v2", Sort::Obj);
  ExprRef I1 = F.var("i1", Sort::Int);
  ExprRef J = F.var("j", Sort::Int);
  ExprRef One = F.intConst(1);
  ExprRef Body = F.eq(F.seqAt(S, J), V1);
  ExprRef NotBody = F.lnot(Body), Same = F.eq(V1, V2);
  constexpr int HitsPerIteration = 8;
  uint64_t Before = allocations();
  for (auto _ : State) {
    benchmark::DoNotOptimize(F.var("v2", Sort::Obj));
    benchmark::DoNotOptimize(F.eq(V1, V2));
    benchmark::DoNotOptimize(F.lt(I1, One));
    benchmark::DoNotOptimize(F.add(I1, One));
    benchmark::DoNotOptimize(F.seqAt(S, J));
    benchmark::DoNotOptimize(F.lnot(Body));
    benchmark::DoNotOptimize(F.conj({Body, NotBody, Same}));
    benchmark::DoNotOptimize(F.forallInt("j", One, I1, Body));
  }
  uint64_t Hits = State.iterations() * HitsPerIteration;
  State.SetItemsProcessed(static_cast<int64_t>(Hits));
  State.counters["allocs_per_hit"] = benchmark::Counter(
      static_cast<double>(allocations() - Before) / static_cast<double>(Hits));
}
BENCHMARK(BM_InternHit);

} // namespace

BENCHMARK_MAIN();
