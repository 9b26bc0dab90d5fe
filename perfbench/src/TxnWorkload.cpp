//===- perfbench/src/TxnWorkload.cpp - txn_low / txn_high workloads -------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// SpeculativeExecutor over sharded HashTable instances: Parallel mode, 4
// threads, inverse rollback, the indexed gatekeeper path. Transactions mix
// 70% put / 15% remove / 15% get and are generated with the seed as a few
// batches the client cycles through. One iteration constructs a fresh
// executor, times run() over one batch, and checks every shard's final
// state against replaySerial over the executor's commit order.
//
//   txn_low:  8192 keys, 32 shards, 64-op transactions
//   txn_high:   48 keys,  4 shards, 96-op transactions
//
// Set-up (repeated, median reported) builds the catalog, compiles the
// commutativity index and constructs one executor.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "runtime/IndexedChecker.h"
#include "runtime/SpeculativeExecutor.h"

#include <algorithm>
#include <memory>
#include <random>

using namespace semcomm;

namespace perfbench {
namespace {

struct Shape {
  unsigned Shards, Keys, OpsPerTxn, TxnsPerBatch;
};

struct Batch {
  std::vector<Transaction> Txns;
  std::vector<uint64_t> OpsPerShard;
  uint64_t Ops = 0;
};

Batch generateBatch(const Shape &S, uint64_t Seed, uint64_t Index) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + Index);
  Batch B;
  B.OpsPerShard.assign(S.Shards, 0);
  for (unsigned T = 0; T != S.TxnsPerBatch; ++T) {
    Transaction Txn;
    for (unsigned I = 0; I != S.OpsPerTxn; ++I) {
      Value Key = Value::obj(static_cast<int64_t>(1 + Rng() % S.Keys));
      unsigned Shard = SpeculativeExecutor::shardOf(Key, S.Shards);
      unsigned Roll = static_cast<unsigned>(Rng() % 20);
      if (Roll < 14)
        Txn.push_back(
            {"put", {Key, Value::obj(static_cast<int64_t>(Rng() % 1000))},
             Shard});
      else if (Roll < 17)
        Txn.push_back({"remove", {Key}, Shard});
      else
        Txn.push_back({"get", {Key}, Shard});
      ++B.OpsPerShard[Shard];
    }
    B.Ops += Txn.size();
    B.Txns.push_back(std::move(Txn));
  }
  return B;
}

/// Median ns per IndexedChecker::mayCommuteFast query over the batch's op
/// pairs: each operation against the previous operation of its shard, on
/// the shard's serially replayed state, with nothing but the query timed.
double queryNanos(ExprFactory &F, const Catalog &C,
                  std::shared_ptr<const index::CommutativityIndex> Idx,
                  const StructureFactory &Factory, const Shape &S,
                  const Batch &B, bool Tiny, std::string &Sink) {
  const Family &Fam = *Factory.Fam;
  IndexedChecker Chk(F, C, std::move(Idx));
  size_t NumOps = Fam.Ops.size();
  std::vector<IndexedChecker::PairHandle> Handles;
  for (size_t I = 0; I != NumOps; ++I)
    for (size_t J = 0; J != NumOps; ++J)
      Handles.push_back(Chk.resolve(Fam, Fam.Ops[I].Name, Fam.Ops[J].Name));

  struct Executed {
    unsigned Op;
    const ArgList *Args;
    Value Ret;
  };
  struct Query {
    const IndexedChecker::PairHandle *H;
    const ConcreteStructure *Live;
    const Executed *Prev;
    const ArgList *Args;
  };
  std::vector<std::unique_ptr<ConcreteStructure>> Shards;
  for (unsigned I = 0; I != S.Shards; ++I)
    Shards.push_back(Factory.Make());
  std::vector<Executed> Log;
  Log.reserve(B.Ops);
  std::vector<int64_t> LastOf(S.Shards, -1);
  std::vector<std::pair<size_t, size_t>> PairIdx; // (prev log idx, log idx)
  for (const Transaction &Txn : B.Txns)
    for (const TxOp &Op : Txn) {
      unsigned OpIdx = Fam.opIndex(Op.OpName);
      Value Ret = Shards[Op.Shard]->invoke(Fam.Ops[OpIdx].CallName, Op.Args);
      Log.push_back({OpIdx, &Op.Args, Ret});
      if (LastOf[Op.Shard] >= 0)
        PairIdx.push_back({static_cast<size_t>(LastOf[Op.Shard]),
                           Log.size() - 1});
      LastOf[Op.Shard] = static_cast<int64_t>(Log.size() - 1);
    }
  std::vector<Query> Queries;
  std::vector<unsigned> ShardOfLog;
  for (const Transaction &Txn : B.Txns)
    for (const TxOp &Op : Txn)
      ShardOfLog.push_back(Op.Shard);
  for (const auto &[P, I] : PairIdx)
    Queries.push_back({&Handles[Log[P].Op * NumOps + Log[I].Op],
                       Shards[ShardOfLog[I]].get(), &Log[P], Log[I].Args});

  std::vector<double> Samples;
  uint64_t Passes = 0;
  const uint64_t MinQueries = Tiny ? 20000 : 400000;
  for (int Rep = 0; Rep != 5; ++Rep) {
    uint64_t Done = 0;
    Clock::time_point T0 = Clock::now();
    while (Done < MinQueries) {
      for (const Query &Q : Queries)
        Passes += Chk.mayCommuteFast(*Q.H, *Q.Live, *Q.Prev->Args,
                                     Q.Prev->Ret, *Q.Args);
      Done += Queries.size();
    }
    Samples.push_back(msBetween(T0, Clock::now()) * 1e6 / double(Done));
  }
  Sink = std::to_string(Queries.size()) + " query pairs, " +
         std::to_string(Passes) + " passes";
  return median(Samples);
}

} // namespace

Result runTxn(const Options &O, bool High) {
  Result R;
  Shape S = High ? Shape{4, 48, 96, O.Tiny ? 24u : 600u}
                 : Shape{32, 8192, 64, O.Tiny ? 48u : 1200u};
  const unsigned NumBatches = O.Tiny ? 2 : 4;

  StructureFactory Factory;
  for (const StructureFactory &SF : allStructureFactories())
    if (SF.Name == "HashTable")
      Factory = SF;

  ExecutorConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Shards = S.Shards;
  Cfg.Policy = RollbackPolicy::Inverses;
  Cfg.Mode = SchedulerMode::Parallel;
  Cfg.CheckerPath = IndexedChecker::Path::Indexed;

  std::unique_ptr<ExprFactory> F;
  std::unique_ptr<Catalog> C;
  std::shared_ptr<const index::CommutativityIndex> Idx;
  std::vector<double> CompileMs;
  std::vector<double> SetupSeconds = timeSetups([&] {
    Idx.reset();
    C.reset();
    F = std::make_unique<ExprFactory>();
    C = std::make_unique<Catalog>(*F);
    Clock::time_point I0 = Clock::now();
    Idx = std::make_shared<const index::CommutativityIndex>(
        index::CommutativityIndex::compile(*C));
    CompileMs.push_back(msBetween(I0, Clock::now()));
    SpeculativeExecutor Ex(*F, *C, Factory, Cfg, Idx);
  });

  std::vector<Batch> Batches;
  for (unsigned I = 0; I != NumBatches; ++I)
    Batches.push_back(generateBatch(S, O.Seed, I));

  Tracer T;
  ExecutorStats Sum;
  double RunMs = 0, SerialMs = 0, RssMb = 0;
  uint64_t TracedOps = 0;

  // One closed-loop phase of at least NumBatches iterations; returns the
  // run() wall times (ms) and adds committed ops and run() seconds.
  auto phase = [&](double Seconds, double &CommittedOps, double &BusySeconds) {
    std::vector<double> Lat;
    auto PhaseSpan = T.span("bench.traced_phase", 0);
    ExecutorConfig PhaseCfg = Cfg;
    PhaseCfg.StatsSamplePeriod = T.on() ? 64 : 0;
    Clock::time_point Start = Clock::now();
    for (uint64_t It = 0; It < NumBatches ||
                          msBetween(Start, Clock::now()) < Seconds * 1e3;
         ++It) {
      auto IterSpan = T.span("bench.iteration", It);
      const Batch &B = Batches[It % NumBatches];
      std::unique_ptr<SpeculativeExecutor> Ex;
      {
        auto Sp = T.span("runtime.construct", It);
        Ex = std::make_unique<SpeculativeExecutor>(*F, *C, Factory, PhaseCfg,
                                                   Idx);
      }
      ExecutorStats St;
      Clock::time_point R0 = Clock::now();
      {
        auto Sp = T.span("runtime.run", It);
        St = Ex->run(B.Txns);
      }
      double Ms = msBetween(R0, Clock::now());
      Lat.push_back(Ms);
      BusySeconds += Ms / 1e3;

      const std::vector<uint32_t> &Order = Ex->commitOrder();
      double Committed = 0;
      for (uint32_t Ti : Order)
        Committed += double(B.Txns[Ti].size());
      CommittedOps += Committed;

      std::vector<std::unique_ptr<ConcreteStructure>> Ref;
      Clock::time_point S0 = Clock::now();
      {
        auto Sp = T.span("impl.replaySerial", It);
        Ref = SpeculativeExecutor::replaySerial(
            Factory, S.Shards, B.Txns,
            O.CorruptExpectation ? std::vector<uint32_t>() : Order);
      }
      double ReplayMs = msBetween(S0, Clock::now());
      uint64_t Failed = 0;
      {
        auto Sp = T.span("impl.abstraction", It);
        for (unsigned Sh = 0; Sh != S.Shards; ++Sh)
          if (!(Ex->shard(Sh).abstraction() == Ref[Sh]->abstraction()))
            Failed += B.OpsPerShard[Sh];
        Ref.clear();
      }
      if (!St.Completed || Order.size() != B.Txns.size())
        Failed = B.Ops;
      R.Attempted += B.Ops;
      R.Failed += Failed;
      if (It + 1 == NumBatches)
        RssMb = peakRssMb();
      if (T.on()) {
        Sum.OpsExecuted += St.OpsExecuted;
        Sum.GatekeeperChecks += St.GatekeeperChecks;
        Sum.GatekeeperPasses += St.GatekeeperPasses;
        Sum.Wounds += St.Wounds;
        Sum.InjectedAborts += St.InjectedAborts;
        Sum.Stalls += St.Stalls;
        Sum.WaitRounds += St.WaitRounds;
        Sum.OpsUndone += St.OpsUndone;
        Sum.Commits += St.Commits;
        Sum.SampledGkQueries += St.SampledGkQueries;
        Sum.SampledGkConstantHits += St.SampledGkConstantHits;
        RunMs += Ms;
        SerialMs += ReplayMs;
        TracedOps += B.Ops;
      }
      auto Sp = T.span("runtime.destroy", It);
      Ex.reset();
    }
    return Lat;
  };

  if (!O.Trace) {
    double Committed = 0, Busy = 0;
    std::vector<double> Lat = phase(O.Seconds, Committed, Busy);
    addSetup(SetupSeconds, R);
    addEndToEnd(Lat, Committed, Busy, RssMb,
                "run() over a batch of " + std::to_string(S.TxnsPerBatch) +
                    " transactions",
                R);
    return R;
  }

  double Ignored = 0, IgnoredBusy = 0;
  std::vector<double> Untraced = phase(O.Seconds / 2, Ignored, IgnoredBusy);
  T.setOn(true);
  std::string Sink;
  double QueryNs;
  {
    auto Sp = T.span("index.mayCommuteFast", 0);
    QueryNs = queryNanos(*F, *C, Idx, Factory, S, Batches[0], O.Tiny, Sink);
  }
  std::vector<double> Traced = phase(O.Seconds / 2, Ignored, IgnoredBusy);
  T.setOn(false);

  addSelfTimes(T, R);
  addTraceOverhead(Untraced, Traced, "run() call", R);
  auto Div = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  double Attempts = double(Sum.Commits + Sum.aborts());
  R.add("runtime.abort_per_attempt", Div(double(Sum.aborts()), Attempts),
        "share");
  R.add("runtime.undone_share",
        Div(double(Sum.OpsUndone), double(Sum.OpsExecuted)), "share");
  R.add("runtime.wait_rounds_per_txn",
        Div(double(Sum.WaitRounds), double(Sum.Commits)), "count");
  R.add("runtime.stalls_per_txn", Div(double(Sum.Stalls), double(Sum.Commits)),
        "count");
  R.add("runtime.wounds_per_txn", Div(double(Sum.Wounds), double(Sum.Commits)),
        "count");
  R.add("runtime.gk_checks_per_op",
        Div(double(Sum.GatekeeperChecks), double(TracedOps)), "count");
  R.add("runtime.gk_pass_share",
        Div(double(Sum.GatekeeperPasses), double(Sum.GatekeeperChecks)),
        "share");
  R.add("runtime.speedup_over_serial", Div(SerialMs, RunMs), "ratio");
  R.add("impl.serial_ops_per_s", Div(double(TracedOps), SerialMs / 1e3),
        "1/s");
  R.add("index.query_ns", QueryNs, "ns");
  R.add("index.constant_hit_share",
        Div(double(Sum.SampledGkConstantHits), double(Sum.SampledGkQueries)),
        "share");
  R.add("index.compile_ms", median(CompileMs), "ms");
  R.note("index query batch: " + Sink);

  if (!O.TraceOut.empty() && !T.write(O.TraceOut))
    R.note("could not write " + O.TraceOut);
  return R;
}

} // namespace perfbench
