//===- tests/RuntimeTest.cpp - Dynamic checking, speculation, lattice ------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "impl/HashSet.h"
#include "impl/HashTable.h"
#include "runtime/Lattice.h"
#include "runtime/SpeculativeExecutor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

using namespace semcomm;

namespace {
struct RuntimeFixture {
  ExprFactory F;
  Catalog C{F};
};
RuntimeFixture &fixture() {
  static RuntimeFixture Fx;
  return Fx;
}

StructureFactory factoryFor(const std::string &Name) {
  for (const StructureFactory &F : allStructureFactories())
    if (F.Name == Name)
      return F;
  abort();
}
} // namespace

// --- DynamicChecker -------------------------------------------------------------

TEST(DynamicCheckerTest, ExactCheckMatchesGroundTruth) {
  // Against a live HashSet: contains(v1) then add(v2) commute iff
  // v1 != v2 or v1 was present (the paper's Fig. 2-2 condition).
  RuntimeFixture &Fx = fixture();
  DynamicChecker Checker(Fx.F, Fx.C);

  HashSet Before;
  Before.add(Value::obj(1));
  HashSet Live(Before); // contains() is pure, so s2 equals s1.
  Value R1Present = Value::boolean(true);

  // v1 = o1 present: commutes with add(o1).
  EXPECT_TRUE(Checker.commutesExact(Before, Live, "contains",
                                    {Value::obj(1)}, R1Present, "add_",
                                    {Value::obj(1)}));
  // v1 = o2 absent: conflicts with add(o2)...
  EXPECT_FALSE(Checker.commutesExact(Before, Live, "contains",
                                     {Value::obj(2)},
                                     Value::boolean(false), "add_",
                                     {Value::obj(2)}));
  // ...but commutes with add of a different element.
  EXPECT_TRUE(Checker.commutesExact(Before, Live, "contains",
                                    {Value::obj(2)}, Value::boolean(false),
                                    "add_", {Value::obj(3)}));
}

TEST(DynamicCheckerTest, ConservativeCheckIsSound) {
  // Whenever mayCommute says yes, the exact check agrees (dropping
  // s1-clauses only loses completeness, §4.1.2).
  RuntimeFixture &Fx = fixture();
  DynamicChecker Checker(Fx.F, Fx.C);
  std::mt19937 Rng(7);
  const Family &Fam = setFamily();

  for (int Trial = 0; Trial < 500; ++Trial) {
    HashSet Before;
    for (int I = 1; I <= 4; ++I)
      if (Rng() & 1)
        Before.add(Value::obj(I));
    const Operation &Op1 = Fam.Ops[Rng() % Fam.Ops.size()];
    ArgList A1, A2;
    if (!Op1.ArgSorts.empty())
      A1.push_back(Value::obj(1 + Rng() % 4));
    HashSet Live(Before);
    Value R1 = Live.invoke(Op1.CallName, A1);
    const Operation &Op2 = Fam.Ops[Rng() % Fam.Ops.size()];
    if (!Op2.ArgSorts.empty())
      A2.push_back(Value::obj(1 + Rng() % 4));

    if (Checker.mayCommute(Live, Op1.Name, A1, R1, Op2.Name, A2)) {
      EXPECT_TRUE(Checker.commutesExact(Before, Live, Op1.Name, A1, R1,
                                        Op2.Name, A2))
          << Op1.Name << " then " << Op2.Name;
    }
  }
}

// --- SpeculativeExecutor --------------------------------------------------------

namespace {

Transaction mapTxn(std::initializer_list<std::pair<int, int>> Puts) {
  Transaction T;
  for (auto [K, V] : Puts)
    T.push_back({"put", {Value::obj(K), Value::obj(V)}, 0});
  return T;
}

/// Replay-mode config: the seeded scheduler interleaves the transactions'
/// steps deterministically, so assertions about gatekeeper traffic and
/// conflicts are reproducible.
ExecutorConfig replayCfg(unsigned Threads, unsigned Shards = 1,
                         uint64_t Seed = 11) {
  ExecutorConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.Shards = Shards;
  Cfg.Mode = SchedulerMode::Replay;
  Cfg.ReplaySeed = Seed;
  return Cfg;
}

/// A mixed Map workload over a sharded key space: puts, removes, and gets
/// (all total operations, so the serial replay reference applies exactly).
std::vector<Transaction> mixedMapWorkload(unsigned NumTxns, unsigned OpsPerTxn,
                                          unsigned NumKeys, unsigned Shards,
                                          uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::vector<Transaction> Txns;
  for (unsigned T = 0; T != NumTxns; ++T) {
    Transaction Txn;
    for (unsigned I = 0; I != OpsPerTxn; ++I) {
      Value Key = Value::obj(1 + Rng() % NumKeys);
      unsigned Shard = SpeculativeExecutor::shardOf(Key, Shards);
      switch (Rng() % 4) {
      case 0:
        Txn.push_back({"get", {Key}, Shard});
        break;
      case 1:
        Txn.push_back({"remove", {Key}, Shard});
        break;
      default:
        Txn.push_back(
            {"put", {Key, Value::obj(static_cast<int>(Rng() % 100))}, Shard});
        break;
      }
    }
    Txns.push_back(std::move(Txn));
  }
  return Txns;
}

/// The deterministic slice of ExecutorStats (everything but wall-clock
/// nanos and the sampled estimates), for invariance comparisons.
std::vector<uint64_t> deterministicStats(const ExecutorStats &S) {
  return {S.OpsExecuted,    S.GatekeeperChecks, S.GatekeeperPasses,
          S.Wounds,         S.InjectedAborts,   S.Stalls,
          S.WaitRounds,     S.OpsUndone,        S.PreSkips,
          S.SnapshotsTaken, S.Commits,          S.CheckerProgramRuns,
          S.CheckerFallbacks};
}

void expectShardsMatchSerialReplay(const SpeculativeExecutor &Ex,
                                   const StructureFactory &Factory,
                                   const std::vector<Transaction> &Txns) {
  std::vector<std::unique_ptr<ConcreteStructure>> Ref =
      SpeculativeExecutor::replaySerial(Factory, Ex.numShards(), Txns,
                                        Ex.commitOrder());
  for (unsigned S = 0; S != Ex.numShards(); ++S)
    EXPECT_EQ(Ex.shard(S).abstraction(), Ref[S]->abstraction())
        << "shard " << S;
}

/// Transaction ids 0..N-1 in arrival order.
std::vector<uint32_t> arrivalOrder(size_t N) {
  std::vector<uint32_t> Ids(N);
  std::iota(Ids.begin(), Ids.end(), 0u);
  return Ids;
}

/// One compiled index shared by the executors built below, as one image
/// serves a whole benchmark grid; the matrix builds hundreds of them.
std::shared_ptr<const index::CommutativityIndex> sharedIndex() {
  static std::shared_ptr<const index::CommutativityIndex> Idx =
      std::make_shared<const index::CommutativityIndex>(
          index::CommutativityIndex::compile(fixture().C));
  return Idx;
}

/// An ArrayList workload over \p Shards lists. Indices are drawn from
/// [-1, 7] against lists of a few elements, so some operations fail their
/// index precondition: a skip placeholder in the executor's shard log, a
/// skip in replaySerial.
std::vector<Transaction> arrayListWorkload(unsigned NumTxns,
                                           unsigned OpsPerTxn,
                                           unsigned Shards, uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::vector<Transaction> Txns;
  for (unsigned T = 0; T != NumTxns; ++T) {
    Transaction Txn;
    for (unsigned I = 0; I != OpsPerTxn; ++I) {
      unsigned Shard = Rng() % Shards;
      Value Idx = Value::integer(static_cast<int64_t>(Rng() % 9) - 1);
      Value Obj = Value::obj(1 + Rng() % 5);
      switch (Rng() % 6) {
      case 0:
      case 1:
        Txn.push_back({"add_at", {Idx, Obj}, Shard});
        break;
      case 2:
        Txn.push_back({"get", {Idx}, Shard});
        break;
      case 3:
        Txn.push_back({"set", {Idx, Obj}, Shard});
        break;
      case 4:
        Txn.push_back({"remove_at", {Idx}, Shard});
        break;
      default:
        Txn.push_back({"indexOf", {Obj}, Shard});
        break;
      }
    }
    Txns.push_back(std::move(Txn));
  }
  return Txns;
}

} // namespace

TEST(SpeculativeExecutorTest, DisjointKeysRunWithoutAborts) {
  RuntimeFixture &Fx = fixture();
  SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("HashTable"), replayCfg(2));
  ExecutorStats Stats = Ex.run({mapTxn({{1, 10}, {2, 20}}),
                                mapTxn({{3, 30}, {4, 40}}),
                                mapTxn({{5, 50}, {6, 60}})});
  EXPECT_TRUE(Stats.Completed);
  EXPECT_EQ(Stats.aborts(), 0u);
  EXPECT_EQ(Stats.Commits, 3u);
  EXPECT_EQ(Stats.OpsExecuted, 6u);
  // The replay scheduler interleaves the transactions, so the gatekeeper
  // sees concurrent uncommitted puts — and admits all of them.
  EXPECT_GT(Stats.GatekeeperPasses, 0u);
  EXPECT_EQ(Stats.GatekeeperChecks, Stats.GatekeeperPasses);
  EXPECT_EQ(Ex.shard(0).size(), 6);
}

TEST(SpeculativeExecutorTest, ConflictingPutsConflictAndStillConverge) {
  RuntimeFixture &Fx = fixture();
  SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("HashTable"), replayCfg(2));
  // Same key, different values: put/put commutes only when values agree,
  // so one transaction's put is refused admission and it must wait or
  // roll back — yet both eventually commit.
  ExecutorStats Stats =
      Ex.run({mapTxn({{1, 10}, {2, 20}}), mapTxn({{1, 11}, {3, 30}})});
  EXPECT_GT(Stats.aborts() + Stats.Stalls + Stats.WaitRounds, 0u);
  EXPECT_GT(Stats.GatekeeperChecks, Stats.GatekeeperPasses);
  EXPECT_EQ(Stats.Commits, 2u);
  // Keys {1, 2, 3} are present; key 1 holds whichever committed last — a
  // serializable outcome.
  EXPECT_EQ(Ex.shard(0).size(), 3);
  Value K1 = Ex.shard(0).mapGet(Value::obj(1));
  EXPECT_TRUE(K1 == Value::obj(10) || K1 == Value::obj(11));
}

TEST(SpeculativeExecutorTest, InverseRollbackRestoresContribution) {
  // Forced-abort injection makes the writer roll back mid-flight; the
  // verified inverses must erase its partial contribution, and the final
  // committed state must still match the serial replay of the commit
  // order.
  RuntimeFixture &Fx = fixture();
  // AbortEvery=1 with a per-transaction cap of one: each transaction's
  // very first executed op self-aborts once (so the writer is guaranteed
  // to undo a mutating add), then both retry and complete.
  ExecutorConfig Cfg = replayCfg(2);
  Cfg.AbortEvery = 1;
  Cfg.MaxInjectedAbortsPerTxn = 1;
  SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("HashSet"), Cfg);
  std::vector<Transaction> Txns = {
      {{"contains", {Value::obj(2)}, 0}, {"contains", {Value::obj(2)}, 0}},
      {{"add", {Value::obj(1)}, 0},
       {"add", {Value::obj(2)}, 0},
       {"remove", {Value::obj(1)}, 0}}};
  ExecutorStats Stats = Ex.run(Txns);
  EXPECT_EQ(Stats.Commits, 2u);
  EXPECT_GT(Stats.InjectedAborts, 0u);
  EXPECT_GT(Stats.OpsUndone, 0u);
  // Final committed state: {2} (1 added then removed by the writer).
  EXPECT_FALSE(Ex.shard(0).contains(Value::obj(1)));
  EXPECT_TRUE(Ex.shard(0).contains(Value::obj(2)));
  expectShardsMatchSerialReplay(Ex, factoryFor("HashSet"), Txns);
}

TEST(SpeculativeExecutorTest, CommutativityIncreasesConcurrency) {
  // Four transactions adding disjoint element ranges. With the gatekeeper
  // the adds interleave freely (distinct adds commute); without it every
  // concurrent pair "conflicts" and the schedule degenerates to waiting
  // serialization.
  RuntimeFixture &Fx = fixture();
  std::vector<Transaction> Txns;
  for (int T = 0; T < 4; ++T) {
    Transaction Txn;
    for (int I = 0; I < 5; ++I)
      Txn.push_back({"add", {Value::obj(1 + T * 5 + I)}, 0});
    Txns.push_back(Txn);
  }

  SpeculativeExecutor With(Fx.F, Fx.C, factoryFor("HashSet"), replayCfg(2));
  ExecutorStats SWith = With.run(Txns);
  ExecutorConfig NoGkCfg = replayCfg(2);
  NoGkCfg.UseCommutativity = false;
  SpeculativeExecutor Without(Fx.F, Fx.C, factoryFor("HashSet"), NoGkCfg);
  ExecutorStats SWithout = Without.run(Txns);

  EXPECT_EQ(SWith.Commits, 4u);
  EXPECT_EQ(SWithout.Commits, 4u);
  // With the gatekeeper: full concurrency, no waiting, no rollbacks.
  EXPECT_EQ(SWith.aborts(), 0u);
  EXPECT_EQ(SWith.WaitRounds, 0u);
  EXPECT_GT(SWith.GatekeeperPasses, 0u);
  // Without: the same schedule serializes by waiting (and wounding when a
  // younger transaction got in first).
  EXPECT_GT(SWithout.WaitRounds, 0u);
  EXPECT_EQ(SWithout.GatekeeperPasses, 0u);
  // Either way the committed abstract state is identical.
  EXPECT_EQ(With.shard(0).abstraction(), Without.shard(0).abstraction());
}

TEST(SpeculativeExecutorTest, SnapshotPolicyUndoesCollateralWork) {
  RuntimeFixture &Fx = fixture();
  std::vector<Transaction> Txns = {mapTxn({{1, 10}, {2, 20}}),
                                   mapTxn({{1, 11}, {3, 30}})};
  ExecutorConfig Cfg = replayCfg(2);
  Cfg.Policy = RollbackPolicy::Snapshot;
  Cfg.AbortEvery = 2;
  Cfg.MaxInjectedAbortsPerTxn = 1;
  SpeculativeExecutor Snap(Fx.F, Fx.C, factoryFor("HashTable"), Cfg);
  ExecutorStats S = Snap.run(Txns);
  EXPECT_EQ(S.Commits, 2u);
  EXPECT_GT(S.SnapshotsTaken, 0u);
  EXPECT_GT(S.OpsUndone, 0u);
  EXPECT_EQ(Snap.shard(0).size(), 3);
}

TEST(SpeculativeExecutorTest, ReplayModeIsThreadCountInvariant) {
  // Satellite (a): in Replay mode the schedule is a pure function of the
  // seed, so final per-shard states, the commit order, and every
  // deterministic statistic must be identical at 1 and 8 threads.
  RuntimeFixture &Fx = fixture();
  std::vector<Transaction> Txns = mixedMapWorkload(
      /*NumTxns=*/10, /*OpsPerTxn=*/12, /*NumKeys=*/16, /*Shards=*/4,
      /*Seed=*/42);

  SpeculativeExecutor One(Fx.F, Fx.C, factoryFor("HashTable"),
                          replayCfg(1, /*Shards=*/4, /*Seed=*/99));
  ExecutorStats S1 = One.run(Txns);
  SpeculativeExecutor Eight(Fx.F, Fx.C, factoryFor("HashTable"),
                            replayCfg(8, /*Shards=*/4, /*Seed=*/99));
  ExecutorStats S8 = Eight.run(Txns);

  EXPECT_TRUE(S1.Completed);
  EXPECT_TRUE(S8.Completed);
  EXPECT_EQ(S1.Commits, 10u);
  EXPECT_EQ(deterministicStats(S1), deterministicStats(S8));
  EXPECT_EQ(One.commitOrder(), Eight.commitOrder());
  for (unsigned S = 0; S != One.numShards(); ++S)
    EXPECT_EQ(One.shard(S).abstraction(), Eight.shard(S).abstraction())
        << "shard " << S;
  expectShardsMatchSerialReplay(One, factoryFor("HashTable"), Txns);
}

TEST(SpeculativeExecutorTest, InverseAndSnapshotRollbackAgreeUnderAbortStorms) {
  // Satellite (b): under forced-abort storms both rollback policies must
  // leave each executor's shards exactly equal to the serial replay of
  // its own commit order (the policies may legitimately commit in
  // different orders, since snapshot admission is stricter).
  RuntimeFixture &Fx = fixture();
  std::vector<Transaction> Txns = mixedMapWorkload(
      /*NumTxns=*/8, /*OpsPerTxn=*/10, /*NumKeys=*/12, /*Shards=*/2,
      /*Seed=*/7);

  for (RollbackPolicy Policy :
       {RollbackPolicy::Inverses, RollbackPolicy::Snapshot}) {
    ExecutorConfig Cfg = replayCfg(4, /*Shards=*/2, /*Seed=*/5);
    Cfg.Policy = Policy;
    Cfg.AbortEvery = 6;
    Cfg.MaxInjectedAbortsPerTxn = 2;
    SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("HashTable"), Cfg);
    ExecutorStats S = Ex.run(Txns);
    EXPECT_TRUE(S.Completed);
    EXPECT_EQ(S.Commits, 8u);
    EXPECT_GT(S.InjectedAborts, 0u)
        << (Policy == RollbackPolicy::Inverses ? "inverses" : "snapshot");
    EXPECT_GT(S.OpsUndone, 0u);
    expectShardsMatchSerialReplay(Ex, factoryFor("HashTable"), Txns);
  }
}

TEST(SpeculativeExecutorTest, IndexedAndInterpretedGatekeepersAgree) {
  // Satellite (c): with the same seed and workload, the compiled-index
  // gatekeeper and the tree-interpreter reference must produce identical
  // schedules, stats, and final states — the index changes query cost,
  // never answers.
  RuntimeFixture &Fx = fixture();
  std::vector<Transaction> Txns = mixedMapWorkload(
      /*NumTxns=*/8, /*OpsPerTxn=*/10, /*NumKeys=*/6, /*Shards=*/2,
      /*Seed=*/21);

  ExecutorConfig IdxCfg = replayCfg(4, /*Shards=*/2, /*Seed=*/3);
  IdxCfg.CheckerPath = IndexedChecker::Path::Indexed;
  SpeculativeExecutor Indexed(Fx.F, Fx.C, factoryFor("HashTable"), IdxCfg);
  ExecutorStats SI = Indexed.run(Txns);

  ExecutorConfig InterpCfg = IdxCfg;
  InterpCfg.CheckerPath = IndexedChecker::Path::Interpreted;
  SpeculativeExecutor Interp(Fx.F, Fx.C, factoryFor("HashTable"), InterpCfg);
  ExecutorStats ST = Interp.run(Txns);

  EXPECT_GT(SI.GatekeeperChecks, 0u);
  // The shipped catalog lowers every condition, so the indexed path never
  // falls back; the interpreted path answers everything by fallback.
  EXPECT_EQ(SI.CheckerFallbacks, 0u);
  EXPECT_EQ(ST.CheckerFallbacks, ST.GatekeeperChecks);
  EXPECT_EQ(ST.CheckerProgramRuns, 0u);

  // Same verdicts → same schedule: compare everything except the checker
  // counters (which name the machinery, not the answers).
  std::vector<uint64_t> A = deterministicStats(SI), B = deterministicStats(ST);
  A.resize(11); // drop CheckerProgramRuns / CheckerFallbacks
  B.resize(11);
  EXPECT_EQ(A, B);
  EXPECT_EQ(Indexed.commitOrder(), Interp.commitOrder());
  for (unsigned S = 0; S != Indexed.numShards(); ++S)
    EXPECT_EQ(Indexed.shard(S).abstraction(), Interp.shard(S).abstraction());
}

TEST(SpeculativeExecutorTest, ParallelModeCommitsEverythingSerializably) {
  // Real concurrency (non-deterministic interleavings): every transaction
  // still commits exactly once and the result equals the serial replay of
  // the observed commit order.
  RuntimeFixture &Fx = fixture();
  std::vector<Transaction> Txns = mixedMapWorkload(
      /*NumTxns=*/16, /*OpsPerTxn=*/20, /*NumKeys=*/10, /*Shards=*/4,
      /*Seed=*/33);
  ExecutorConfig Cfg;
  Cfg.Threads = 8;
  Cfg.Shards = 4;
  Cfg.Mode = SchedulerMode::Parallel;
  SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("HashTable"), Cfg);
  ExecutorStats S = Ex.run(Txns);
  EXPECT_TRUE(S.Completed);
  EXPECT_EQ(S.Commits, 16u);
  EXPECT_EQ(Ex.commitOrder().size(), 16u);
  expectShardsMatchSerialReplay(Ex, factoryFor("HashTable"), Txns);
}

namespace {

enum class MatrixLoad { MapHighContention, MapLowContention, ArrayListPreFail };

struct MatrixCase {
  MatrixLoad Load;
  RollbackPolicy Policy;
  unsigned AbortEvery;
};

std::vector<MatrixCase> matrixCases() {
  std::vector<MatrixCase> Cases;
  for (MatrixLoad Load :
       {MatrixLoad::MapHighContention, MatrixLoad::MapLowContention,
        MatrixLoad::ArrayListPreFail})
    for (RollbackPolicy Policy :
         {RollbackPolicy::Inverses, RollbackPolicy::Snapshot})
      for (unsigned AbortEvery : {0u, 7u})
        Cases.push_back({Load, Policy, AbortEvery});
  return Cases;
}

std::string matrixCaseName(const ::testing::TestParamInfo<MatrixCase> &Info) {
  const MatrixCase &C = Info.param;
  std::string Name = C.Load == MatrixLoad::MapHighContention ? "MapHigh"
                     : C.Load == MatrixLoad::MapLowContention
                         ? "MapLow"
                         : "ArrayListPreFail";
  Name += C.Policy == RollbackPolicy::Inverses ? "_Inverses" : "_Snapshot";
  Name += "_AbortEvery" + std::to_string(C.AbortEvery);
  return Name;
}

class SpeculativeExecutorParallelTest
    : public ::testing::TestWithParam<MatrixCase> {};

} // namespace

TEST_P(SpeculativeExecutorParallelTest, CommitsEveryTxnOnceSerializably) {
  // Parallel mode at 8 threads, repeated over fresh workloads: whatever the
  // interleaving and however the admission window moves, every
  // transaction commits exactly once (a released slot never strands
  // unstarted transactions) and every shard equals the serial replay of
  // the observed commit order. Each run is a few hundred microseconds to
  // a few milliseconds, long enough for the pool's workers to overlap on
  // most hosts.
  const MatrixCase &Case = GetParam();
  RuntimeFixture &Fx = fixture();
  bool IsList = Case.Load == MatrixLoad::ArrayListPreFail;
  StructureFactory Factory = factoryFor(IsList ? "ArrayList" : "HashTable");
  unsigned Shards = Case.Load == MatrixLoad::MapHighContention ? 4
                    : Case.Load == MatrixLoad::MapLowContention ? 32
                                                                : 2;
  uint64_t PreSkips = 0;
  for (uint32_t Rep = 0; Rep != 20; ++Rep) {
    SCOPED_TRACE("repetition " + std::to_string(Rep));
    std::vector<Transaction> Txns =
        IsList ? arrayListWorkload(/*NumTxns=*/48, /*OpsPerTxn=*/24, Shards,
                                   /*Seed=*/100 + Rep)
               : mixedMapWorkload(
                     /*NumTxns=*/48, /*OpsPerTxn=*/32,
                     Case.Load == MatrixLoad::MapHighContention ? 48 : 8192,
                     Shards, /*Seed=*/100 + Rep);
    ExecutorConfig Cfg;
    Cfg.Threads = 8;
    Cfg.Shards = Shards;
    Cfg.Mode = SchedulerMode::Parallel;
    Cfg.Policy = Case.Policy;
    Cfg.AbortEvery = Case.AbortEvery;
    SpeculativeExecutor Ex(Fx.F, Fx.C, Factory, Cfg, sharedIndex());
    ExecutorStats S = Ex.run(Txns);
    ASSERT_TRUE(S.Completed);
    ASSERT_EQ(S.Commits, Txns.size());
    std::vector<uint32_t> Order = Ex.commitOrder();
    std::sort(Order.begin(), Order.end());
    ASSERT_EQ(Order, arrivalOrder(Txns.size()));
    expectShardsMatchSerialReplay(Ex, Factory, Txns);
    PreSkips += S.PreSkips;
  }
  if (IsList) {
    EXPECT_GT(PreSkips, 0u) << "no precondition failure was exercised";
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, SpeculativeExecutorParallelTest,
                         ::testing::ValuesIn(matrixCases()), matrixCaseName);

TEST(SpeculativeExecutorTest, WindowCeilingOfOneRunsTxnsInArrivalOrder) {
  // Every transaction overwrites the same two keys with its own value, so
  // every pair conflicts. With the window's ceiling at one a transaction
  // is admitted only after its predecessor committed: no conflict is ever
  // met, at any thread count. (The run is long enough for the pool's
  // workers to overlap: a short one is driven by whichever worker starts
  // first, which never meets a conflict whatever the window.)
  RuntimeFixture &Fx = fixture();
  std::vector<Transaction> Txns;
  for (int T = 0; T != 2048; ++T) {
    Transaction Txn;
    for (int I = 0; I != 32; ++I)
      Txn.push_back({"put", {Value::obj(1 + I % 2), Value::obj(100 + T)}, 0});
    Txns.push_back(std::move(Txn));
  }
  for (unsigned Threads : {1u, 8u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ExecutorConfig Cfg;
    Cfg.Threads = Threads;
    Cfg.Mode = SchedulerMode::Parallel;
    Cfg.AdmitWindow = 1;
    SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("HashTable"), Cfg,
                           sharedIndex());
    ExecutorStats S = Ex.run(Txns);
    EXPECT_TRUE(S.Completed);
    EXPECT_EQ(Ex.commitOrder(), arrivalOrder(Txns.size()));
    EXPECT_EQ(S.Wounds, 0u);
    EXPECT_EQ(S.Stalls, 0u);
    EXPECT_EQ(S.WaitRounds, 0u);
    EXPECT_EQ(Ex.shard(0).mapGet(Value::obj(1)), Value::obj(2147));
  }
}

TEST(SpeculativeExecutorTest, ArrayListAdmissionReadsOnlyCurrentState) {
  // A catalog condition reads the state right after the logged operation.
  // Once txn 1 has inserted o1 and then o2 at index 0, txn 0's
  // add_at(1, o1) commutes with the later insert — but not with the
  // first, after which the list held one element. Checking the first
  // insert against the live two-element list admitted the operation, and
  // rolling txn 1 back then left an element that the serial order skips.
  // In a positional family every foreign logged operation conflicts, so
  // the gatekeeper passes nothing. Replay schedules are deterministic, so
  // a sweep of seeds pins it.
  auto At = [](int64_t I) { return Value::integer(I); };
  std::vector<Transaction> Txns = {
      {{"add_at", {At(1), Value::obj(1)}, 0},
       {"set", {At(0), Value::obj(3)}, 0},
       {"add_at", {At(2), Value::obj(3)}, 0},
       {"add_at", {At(2), Value::obj(4)}, 0},
       {"add_at", {At(7), Value::obj(5)}, 0},
       {"remove_at", {At(5)}, 0}},
      {{"add_at", {At(0), Value::obj(1)}, 0},
       {"add_at", {At(0), Value::obj(2)}, 0},
       {"indexOf", {Value::obj(2)}, 0},
       {"add_at", {At(6), Value::obj(1)}, 0},
       {"set", {At(4), Value::obj(1)}, 0},
       {"add_at", {At(2), Value::obj(5)}, 0}}};
  RuntimeFixture &Fx = fixture();
  for (uint64_t Seed = 1; Seed != 40; ++Seed) {
    SCOPED_TRACE("replay seed " + std::to_string(Seed));
    SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("ArrayList"),
                           replayCfg(1, /*Shards=*/1, Seed), sharedIndex());
    ExecutorStats S = Ex.run(Txns);
    EXPECT_EQ(S.Commits, 2u);
    EXPECT_EQ(S.GatekeeperPasses, 0u);
    expectShardsMatchSerialReplay(Ex, factoryFor("ArrayList"), Txns);
  }
}

TEST(SpeculativeExecutorDeathTest, ReplaySerialRejectsOutOfRangeShard) {
  // The serializability reference must reject what run() rejects, not
  // wrap the shard id onto another shard.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<Transaction> Txns = {
      {{"put", {Value::obj(1), Value::obj(2)}, /*Shard=*/4}}};
  EXPECT_DEATH(SpeculativeExecutor::replaySerial(factoryFor("HashTable"),
                                                 /*Shards=*/4, Txns, {0}),
               "addresses shard 4 but there are 4 shards");
}

TEST(SpeculativeExecutorDeathTest, ShardAccessorRejectsOutOfRangeIndex) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RuntimeFixture &Fx = fixture();
  ExecutorConfig Cfg;
  Cfg.Shards = 2;
  SpeculativeExecutor Ex(Fx.F, Fx.C, factoryFor("HashTable"), Cfg,
                         sharedIndex());
  EXPECT_DEATH(Ex.shard(2), "index 2 out of range");
}

// --- Lattice --------------------------------------------------------------------

TEST(LatticeTest, FullConditionIsTopAndSubsetsAreSoundOnly) {
  RuntimeFixture &Fx = fixture();
  ExhaustiveEngine Engine;
  std::vector<LatticePoint> Points = buildLattice(
      Fx.F, Fx.C, Engine, setFamily(), "contains", "remove_");
  // Two clauses: 4 subsets.
  ASSERT_EQ(Points.size(), 4u);

  const LatticePoint *Top = nullptr, *Bottom = nullptr;
  for (const LatticePoint &P : Points) {
    // Dropping clauses preserves soundness (§5.1)...
    EXPECT_TRUE(P.Sound) << P.NumClauses;
    // ...and only the full condition is complete.
    if (P.NumClauses == 2)
      Top = &P;
    if (P.NumClauses == 0)
      Bottom = &P;
    EXPECT_EQ(P.Complete, P.NumClauses == 2);
  }
  ASSERT_NE(Top, nullptr);
  ASSERT_NE(Bottom, nullptr);
  EXPECT_TRUE(Bottom->Condition->isFalse());
  EXPECT_EQ(Bottom->AcceptRate, 0.0);
  EXPECT_GT(Top->AcceptRate, 0.5);

  // Monotone: more clauses never accept fewer scenarios.
  for (const LatticePoint &P : Points)
    EXPECT_LE(P.AcceptRate, Top->AcceptRate);
}

TEST(LatticeTest, AcceptanceRateOfTrueIsOne) {
  ExprFactory &F = fixture().F;
  EXPECT_EQ(acceptanceRate(setFamily(), "add_", "add_", F.trueExpr()), 1.0);
}
