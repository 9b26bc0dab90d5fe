//===- bench/perf_speculation.cpp - Speculative executor scaling -----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// The paper's usage scenario (§1.2) under load: worker threads execute
// transactions speculatively over sharded HashTable instances, the striped
// gatekeeper admitting each operation through the compiled commutativity
// index. This harness sweeps a threads x contention x rollback-policy x
// checker-path grid and reports, per configuration: throughput (committed
// ops/s), abort rate, undone-op counts, and gatekeeper ns/query — the
// numbers that decide whether verified commutativity actually buys
// parallelism.
//
// Grid shape per (threads, contention) cell — a partial cross, chosen so
// every axis is exercised without quadratic bench time:
//   inverses/indexed        the production configuration
//   inverses/interpreted    same workload, tree-interpreter gatekeeper
//                           (fewer ops: it is orders of magnitude slower)
//   inverses/indexed+storm  forced-abort injection, inverse rollback
//   snapshot/indexed+storm  forced-abort injection, snapshot baseline
//
// Every cell checks what it timed, outside the stopwatch: each shard's
// final state must equal replaySerial over the run's commit order. A cell
// that did not complete or is not serializable fails the bench (exit 1).
//
// Emits BENCH_JSON speculation_grid rows plus one speculation_summary
// line; bench/run_all.sh folds them into BENCH_semcommute.json as the
// schema-7 speculation_stats section.
//
//===----------------------------------------------------------------------===//

#include "runtime/SpeculativeExecutor.h"
#include "support/CommandLine.h"
#include "support/Timing.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

using namespace semcomm;

namespace {

StructureFactory factoryFor(const std::string &Name) {
  for (const StructureFactory &F : allStructureFactories())
    if (F.Name == Name)
      return F;
  abort();
}

/// One contention level of the grid: how wide the key space and the shard
/// array are relative to the transaction length.
struct Contention {
  const char *Name;
  unsigned Shards;
  unsigned Keys;
  unsigned OpsPerTxn;
};

/// A mixed put/remove/get workload over \p C's key space, shard-routed by
/// key hash so same-key operations always meet in the same shard log.
std::vector<Transaction> buildWorkload(const Contention &C, uint64_t TotalOps,
                                       uint32_t Seed) {
  std::mt19937 Rng(Seed);
  std::vector<Transaction> Txns;
  uint64_t Built = 0;
  while (Built < TotalOps) {
    Transaction Txn;
    for (unsigned I = 0; I != C.OpsPerTxn; ++I) {
      Value Key = Value::obj(static_cast<int>(1 + Rng() % C.Keys));
      unsigned Shard = SpeculativeExecutor::shardOf(Key, C.Shards);
      unsigned Roll = Rng() % 20;
      if (Roll < 14)
        Txn.push_back(
            {"put", {Key, Value::obj(static_cast<int>(Rng() % 1000))}, Shard});
      else if (Roll < 17)
        Txn.push_back({"remove", {Key}, Shard});
      else
        Txn.push_back({"get", {Key}, Shard});
    }
    Built += Txn.size();
    Txns.push_back(std::move(Txn));
  }
  return Txns;
}

struct RunResult {
  double WallMs = 0;
  double OpsPerSec = 0;
  ExecutorStats Stats;
  /// Every shard's final state equals replaySerial over commitOrder().
  bool Serializable = true;
};

RunResult runOne(ExprFactory &F, const Catalog &Cat,
                 const StructureFactory &Factory,
                 std::shared_ptr<const index::CommutativityIndex> Idx,
                 const ExecutorConfig &Cfg,
                 const std::vector<Transaction> &Txns, uint64_t TotalOps) {
  SpeculativeExecutor Ex(F, Cat, Factory, Cfg, std::move(Idx));
  Stopwatch W;
  RunResult R;
  R.Stats = Ex.run(Txns);
  R.WallMs = W.seconds() * 1e3;
  R.OpsPerSec = TotalOps / std::max(W.seconds(), 1e-9);
  std::vector<std::unique_ptr<ConcreteStructure>> Ref =
      SpeculativeExecutor::replaySerial(Factory, Cfg.Shards, Txns,
                                        Ex.commitOrder());
  for (unsigned S = 0; S != Ex.numShards(); ++S)
    R.Serializable &= Ex.shard(S).abstraction() == Ref[S]->abstraction();
  return R;
}

const char *policyName(RollbackPolicy P) {
  return P == RollbackPolicy::Inverses ? "inverses" : "snapshot";
}
const char *pathName(IndexedChecker::Path P) {
  return P == IndexedChecker::Path::Indexed ? "indexed" : "interpreted";
}
const char *modeName(SchedulerMode M) {
  return M == SchedulerMode::Parallel ? "parallel" : "replay";
}

void reportRow(const Contention &C, const ExecutorConfig &Cfg,
               uint64_t TotalOps, size_t NumTxns, const RunResult &R) {
  const ExecutorStats &S = R.Stats;
  // Aborts per attempt (perfbench's runtime.abort_per_attempt): every
  // attempt ends in a commit or an abort, so the share stays within [0, 1].
  uint64_t Attempts = S.Commits + S.aborts();
  double AbortRate = Attempts ? double(S.aborts()) / Attempts : 0.0;
  double GkPassRate =
      S.GatekeeperChecks ? double(S.GatekeeperPasses) / S.GatekeeperChecks
                         : 1.0;
  double GkNsPerQuery =
      S.GatekeeperChecks ? double(S.GatekeeperNanos) / S.GatekeeperChecks : 0.0;
  double ConstHitRate =
      S.SampledGkQueries ? double(S.SampledGkConstantHits) / S.SampledGkQueries
                         : 0.0;
  std::printf("  %-8s t=%-2u %-4s %-9s %-11s %9.1f ms %12.0f ops/s"
              "  abort %.3f  gk %.0f ns/q  undone %llu%s\n",
              modeName(Cfg.Mode), Cfg.Threads, C.Name, policyName(Cfg.Policy),
              pathName(Cfg.CheckerPath), R.WallMs, R.OpsPerSec, AbortRate,
              GkNsPerQuery, (unsigned long long)S.OpsUndone,
              R.Serializable ? "" : "  NOT SERIALIZABLE");
  std::printf(
      "BENCH_JSON {\"bench\":\"perf_speculation\","
      "\"metric\":\"speculation_grid\",\"mode\":\"%s\",\"threads\":%u,"
      "\"shards\":%u,"
      "\"contention\":\"%s\",\"keys\":%u,\"policy\":\"%s\",\"path\":\"%s\","
      "\"abort_every\":%u,\"txns\":%zu,\"ops\":%llu,\"wall_ms\":%.2f,"
      "\"ops_per_sec\":%.0f,\"ops_executed\":%llu,\"commits\":%llu,"
      "\"aborts\":%llu,\"wounds\":%llu,\"injected_aborts\":%llu,"
      "\"abort_rate\":%.4f,\"undone_ops\":%llu,\"snapshots\":%llu,"
      "\"gk_checks\":%llu,\"gk_pass_rate\":%.4f,\"gk_ns_per_query\":%.1f,"
      "\"checker_program_runs\":%llu,\"checker_fallbacks\":%llu,"
      "\"sampled_const_hit_rate\":%.4f,\"completed\":%s,"
      "\"serializable\":%s}\n",
      modeName(Cfg.Mode), Cfg.Threads, Cfg.Shards, C.Name, C.Keys,
      policyName(Cfg.Policy), pathName(Cfg.CheckerPath), Cfg.AbortEvery,
      NumTxns,
      (unsigned long long)TotalOps, R.WallMs, R.OpsPerSec,
      (unsigned long long)S.OpsExecuted, (unsigned long long)S.Commits,
      (unsigned long long)S.aborts(), (unsigned long long)S.Wounds,
      (unsigned long long)S.InjectedAborts, AbortRate,
      (unsigned long long)S.OpsUndone, (unsigned long long)S.SnapshotsTaken,
      (unsigned long long)S.GatekeeperChecks, GkPassRate, GkNsPerQuery,
      (unsigned long long)S.CheckerProgramRuns,
      (unsigned long long)S.CheckerFallbacks, ConstHitRate,
      S.Completed ? "true" : "false", R.Serializable ? "true" : "false");
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  unsigned MaxThreads = 8;
  uint64_t OpsOverride = 0;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(argv[I], "--threads") && I + 1 < argc)
      MaxThreads = static_cast<unsigned>(
          parseIntFlag("--threads", argv[++I], 1, MaxThreadCount));
    else if (!std::strcmp(argv[I], "--ops") && I + 1 < argc)
      OpsOverride = static_cast<uint64_t>(parseIntFlag("--ops", argv[++I], 1));
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--threads N] [--ops N]\n",
                   argv[0]);
      return 2;
    }
  }

  ExprFactory F;
  Catalog Cat(F);
  StructureFactory Factory = factoryFor("HashTable");
  // One compiled image serves the whole grid (the deployment shape).
  auto Idx = std::make_shared<const index::CommutativityIndex>(
      index::CommutativityIndex::compile(Cat));

  // Thread levels: powers of two up to the cap, always including 1.
  std::vector<unsigned> ThreadLevels;
  for (unsigned T = 1; T <= MaxThreads; T *= 2)
    ThreadLevels.push_back(T);
  if (ThreadLevels.back() != MaxThreads)
    ThreadLevels.push_back(MaxThreads);
  if (Smoke && ThreadLevels.size() > 2)
    ThreadLevels = {1, MaxThreads};

  // Contention levels: "low" spreads short transactions across many
  // shards (admission usually meets an empty log); "high" packs long
  // transactions onto few shards and keys (long logs, real conflicts —
  // where the gatekeeper's cost decides the throughput).
  // Transactions are long (64/96 ops) so that the in-flight window is
  // sustained: with short scripts the pool's dispatch overhead dominates
  // and shard logs are empty by the time the next transaction starts.
  Contention Low = {"low", 32, 8192, 64};
  Contention High = {"high", 4, 48, 96};
  uint64_t IndexedOps = Smoke ? 30000 : 1000000;
  uint64_t InterpOps = Smoke ? 3000 : 100000;
  // The gatekeeper-isolation cells (Replay mode, fixed admission window)
  // run every admission against a scheduler-maintained dense log, so each
  // op costs ~window/2 x OpsPerTxn/Shards checker queries: size them
  // smaller than the end-to-end rows.
  uint64_t GkIdxOps = Smoke ? 12000 : 200000;
  uint64_t GkInterpOps = Smoke ? 3000 : 20000;
  const unsigned GkWindow = 16;
  if (OpsOverride) {
    IndexedOps = OpsOverride;
    InterpOps = std::max<uint64_t>(OpsOverride / 10, 1000);
    GkIdxOps = std::max<uint64_t>(OpsOverride / 5, 2000);
    GkInterpOps = std::max<uint64_t>(OpsOverride / 50, 1000);
  }

  std::printf("perf_speculation: threads x contention x policy x path "
              "(%s mode)\n",
              Smoke ? "smoke" : "full");

  double RatioHigh = 0, RatioLow = 0;
  double GkNsIdxHigh = 0, GkNsInterpHigh = 0;
  double IdxOps1High = 0, IdxOpsMaxHigh = 0;
  double IdxOps1Low = 0, IdxOpsMaxLow = 0;
  double ConstHitRate = 0;
  uint64_t StormUndoneInverses = 0, StormUndoneSnapshot = 0;
  bool AllCompleted = true, AllSerializable = true;
  auto Tally = [&](const RunResult &R) {
    AllCompleted &= R.Stats.Completed;
    AllSerializable &= R.Serializable;
  };

  // Gatekeeper isolation: Replay mode interleaves transaction steps in
  // the scheduler itself — a bounded window of live transactions keeps
  // every shard log dense no matter how many cores the host has — so the
  // indexed-vs-interpreted ratio measures checker cost under sustained
  // speculation, not OS timeslicing luck. The cells use a wide key space:
  // gatekeeper *load* (dense uncommitted concurrency, full-log scans) is
  // what is being dialed up, while actual key collisions stay rare so the
  // two paths' rollback waste does not drown the checker-cost signal.
  Contention GkLow = {"low", 32, 65536, 64};   // ~16-entry logs
  Contention GkHigh = {"high", 2, 65536, 96};  // ~380-entry logs
  for (const Contention *C : {&GkLow, &GkHigh}) {
    bool IsHigh = C == &GkHigh;
    for (IndexedChecker::Path Path :
         {IndexedChecker::Path::Indexed, IndexedChecker::Path::Interpreted}) {
      bool IsIdx = Path == IndexedChecker::Path::Indexed;
      uint64_t Ops = IsIdx ? GkIdxOps : GkInterpOps;
      std::vector<Transaction> Txns = buildWorkload(*C, Ops, /*Seed=*/1234);
      uint64_t N = 0;
      for (const Transaction &T : Txns)
        N += T.size();
      ExecutorConfig Cfg;
      Cfg.Threads = 1;
      Cfg.Shards = C->Shards;
      Cfg.Mode = SchedulerMode::Replay;
      Cfg.ReplaySeed = 42;
      Cfg.AdmitWindow = GkWindow;
      Cfg.CheckerPath = Path;
      Cfg.TimeGatekeeper = true;
      Cfg.StatsSamplePeriod = 64;
      RunResult R = runOne(F, Cat, Factory, Idx, Cfg, Txns, N);
      reportRow(*C, Cfg, N, Txns.size(), R);
      Tally(R);
      double GkNs = R.Stats.GatekeeperChecks
                        ? double(R.Stats.GatekeeperNanos) /
                              R.Stats.GatekeeperChecks
                        : 0.0;
      if (IsIdx) {
        if (IsHigh) {
          GkNsIdxHigh = GkNs;
          if (R.Stats.SampledGkQueries)
            ConstHitRate = double(R.Stats.SampledGkConstantHits) /
                           R.Stats.SampledGkQueries;
        }
        (IsHigh ? RatioHigh : RatioLow) = R.OpsPerSec;
      } else {
        if (IsHigh)
          GkNsInterpHigh = GkNs;
        double &Ratio = IsHigh ? RatioHigh : RatioLow;
        Ratio = R.OpsPerSec > 0 ? Ratio / R.OpsPerSec : 0.0;
      }
    }
  }

  for (const Contention *C : {&Low, &High}) {
    bool IsHigh = C == &High;
    std::vector<Transaction> TxnsIdx =
        buildWorkload(*C, IndexedOps, /*Seed=*/1234);
    std::vector<Transaction> TxnsInterp =
        buildWorkload(*C, InterpOps, /*Seed=*/1234);
    uint64_t NIdx = 0, NInterp = 0;
    for (const Transaction &T : TxnsIdx)
      NIdx += T.size();
    for (const Transaction &T : TxnsInterp)
      NInterp += T.size();

    for (unsigned T : ThreadLevels) {
      ExecutorConfig Base;
      Base.Threads = T;
      Base.Shards = C->Shards;
      Base.Mode = SchedulerMode::Parallel;
      Base.TimeGatekeeper = true;
      Base.StatsSamplePeriod = 64;

      // Production shape: inverses + compiled index.
      ExecutorConfig Cfg = Base;
      RunResult Prod = runOne(F, Cat, Factory, Idx, Cfg, TxnsIdx, NIdx);
      reportRow(*C, Cfg, NIdx, TxnsIdx.size(), Prod);
      Tally(Prod);
      if (T == 1)
        (IsHigh ? IdxOps1High : IdxOps1Low) = Prod.OpsPerSec;
      if (T == ThreadLevels.back())
        (IsHigh ? IdxOpsMaxHigh : IdxOpsMaxLow) = Prod.OpsPerSec;

      // Same workload shape, tree-interpreter gatekeeper (normalized
      // ops/s makes the shorter run comparable).
      Cfg = Base;
      Cfg.CheckerPath = IndexedChecker::Path::Interpreted;
      RunResult Interp = runOne(F, Cat, Factory, Idx, Cfg, TxnsInterp, NInterp);
      reportRow(*C, Cfg, NInterp, TxnsInterp.size(), Interp);
      Tally(Interp);

      // Abort storms: forced injection, both rollback policies.
      for (RollbackPolicy Policy :
           {RollbackPolicy::Inverses, RollbackPolicy::Snapshot}) {
        Cfg = Base;
        Cfg.Policy = Policy;
        Cfg.AbortEvery = 1024;
        Cfg.MaxInjectedAbortsPerTxn = 2;
        RunResult Storm = runOne(F, Cat, Factory, Idx, Cfg, TxnsIdx, NIdx);
        reportRow(*C, Cfg, NIdx, TxnsIdx.size(), Storm);
        Tally(Storm);
        if (IsHigh && T == ThreadLevels.back()) {
          if (Policy == RollbackPolicy::Inverses)
            StormUndoneInverses = Storm.Stats.OpsUndone;
          else
            StormUndoneSnapshot = Storm.Stats.OpsUndone;
        }
      }
    }
  }

  double ScaleLow = IdxOps1Low > 0 ? IdxOpsMaxLow / IdxOps1Low : 0;
  double ScaleHigh = IdxOps1High > 0 ? IdxOpsMaxHigh / IdxOps1High : 0;
  std::printf("summary: indexed/interpreted %.1fx (high) %.1fx (low) "
              "[replay, window %u]; gk %.0f vs %.0f ns/q (high); "
              "1->%u threads scaling %.2fx (low) %.2fx (high)\n",
              RatioHigh, RatioLow, GkWindow, GkNsIdxHigh, GkNsInterpHigh,
              ThreadLevels.back(), ScaleLow, ScaleHigh);
  std::printf(
      "BENCH_JSON {\"bench\":\"perf_speculation\","
      "\"metric\":\"speculation_summary\",\"max_threads\":%u,"
      "\"thread_levels\":%zu,\"gk_window\":%u,"
      "\"indexed_over_interpreted_x_high\":%.2f,"
      "\"indexed_over_interpreted_x_low\":%.2f,"
      "\"gk_ns_per_query_indexed_high\":%.1f,"
      "\"gk_ns_per_query_interpreted_high\":%.1f,"
      "\"scaling_1_to_max_low\":%.3f,\"scaling_1_to_max_high\":%.3f,"
      "\"ops_per_sec_1t_low\":%.0f,\"ops_per_sec_max_low\":%.0f,"
      "\"ops_per_sec_1t_high\":%.0f,\"ops_per_sec_max_high\":%.0f,"
      "\"sampled_const_hit_rate\":%.4f,"
      "\"storm_undone_inverses\":%llu,\"storm_undone_snapshot\":%llu,"
      "\"all_completed\":%s,\"all_serializable\":%s}\n",
      ThreadLevels.back(), ThreadLevels.size(), GkWindow, RatioHigh, RatioLow,
      GkNsIdxHigh, GkNsInterpHigh, ScaleLow, ScaleHigh, IdxOps1Low,
      IdxOpsMaxLow, IdxOps1High, IdxOpsMaxHigh, ConstHitRate,
      (unsigned long long)StormUndoneInverses,
      (unsigned long long)StormUndoneSnapshot, AllCompleted ? "true" : "false",
      AllSerializable ? "true" : "false");
  return AllCompleted && AllSerializable ? 0 : 1;
}
