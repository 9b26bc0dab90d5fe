//===- runtime/SpeculativeExecutor.cpp - Parallel speculative txns --------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "runtime/SpeculativeExecutor.h"

#include "support/ThreadPool.h"
#include "support/Unreachable.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>

using namespace semcomm;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t splitmix64(uint64_t &X) {
  uint64_t Z = (X += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// Precondition shape of one operation, precomputed so the per-step check
/// is a comparison against the live shard's StateView instead of an O(n)
/// abstraction() materialization. Only the ArrayList index preconditions
/// depend on the state (java.util.List bounds); everything else is total.
enum class PreKind : uint8_t {
  Total,
  IndexWithinLen, ///< 0 <= i < seqLen (get / set / remove_at).
  IndexAtMostLen, ///< 0 <= i <= seqLen (add_at).
};

std::vector<PreKind> buildPreKinds(const Family &Fam) {
  std::vector<PreKind> Kinds(Fam.Ops.size(), PreKind::Total);
  if (Fam.Name != "ArrayList")
    return Kinds;
  for (size_t I = 0; I != Fam.Ops.size(); ++I) {
    const std::string &Call = Fam.Ops[I].CallName;
    if (Call == "add_at")
      Kinds[I] = PreKind::IndexAtMostLen;
    else if (Call == "get" || Call == "set" || Call == "remove_at")
      Kinds[I] = PreKind::IndexWithinLen;
  }
  return Kinds;
}

bool preHolds(PreKind Kind, const StateView &Live, const ArgList &Args) {
  switch (Kind) {
  case PreKind::Total:
    return true;
  case PreKind::IndexWithinLen: {
    int64_t I = Args[0].asInt();
    return I >= 0 && I < Live.seqLen();
  }
  case PreKind::IndexAtMostLen: {
    int64_t I = Args[0].asInt();
    return I >= 0 && I <= Live.seqLen();
  }
  }
  semcomm_unreachable("covered switch");
}

/// Concretely executes the Table 5.10 inverse program of \p Spec on \p S.
/// Keyed by call name so recorded and discarded variants share one row:
/// the executor always logs the actual return value, which is exactly the
/// state an inverse needs (§5.3).
void applyInverseConcrete(ConcreteStructure &S, const Operation &Spec,
                          const ArgList &Args, const Value &Ret) {
  const std::string &Call = Spec.CallName;
  const std::string &FamName = S.family().Name;
  if (FamName == "Accumulator") {
    if (Call == "increase") {
      S.invoke("increase", {Value::integer(-Args[0].asInt())});
      return;
    }
  } else if (FamName == "Set") {
    if (Call == "add") {
      if (Ret.asBool())
        S.invoke("remove", {Args[0]});
      return;
    }
    if (Call == "remove") {
      if (Ret.asBool())
        S.invoke("add", {Args[0]});
      return;
    }
  } else if (FamName == "Map") {
    if (Call == "put") {
      if (!Ret.isNull())
        S.invoke("put", {Args[0], Ret});
      else
        S.invoke("remove", {Args[0]});
      return;
    }
    if (Call == "remove") {
      if (!Ret.isNull())
        S.invoke("put", {Args[0], Ret});
      return;
    }
  } else if (FamName == "ArrayList") {
    if (Call == "add_at") {
      S.invoke("remove_at", {Args[0]});
      return;
    }
    if (Call == "remove_at") {
      S.invoke("add_at", {Args[0], Ret});
      return;
    }
    if (Call == "set") {
      S.invoke("set", {Args[0], Ret});
      return;
    }
  }
  semcomm_unreachable("no concrete inverse for this operation");
}

/// Hard input validation, in release builds too: silently wrapping a
/// miswired shard id would route the operation to the wrong shard.
void checkShard(const char *Who, const TxOp &Op, size_t Ti, size_t Shards) {
  if (Op.Shard < Shards)
    return;
  std::fprintf(stderr,
               "SpeculativeExecutor::%s: operation '%s' of txn %zu addresses "
               "shard %u but there are %zu shards\n",
               Who, Op.OpName.c_str(), Ti, Op.Shard, Shards);
  std::abort();
}

/// Steps a Parallel worker takes before adding them to the shared failsafe
/// budget: one contended read-modify-write per batch instead of per step
/// (counting every step cost ~15% of perfbench txn_high throughput on a
/// 4-vCPU VM). Replay counts every step: its steps already run under
/// SchedMutex, and exact counting keeps the step at which the failsafe
/// trips, like the rest of a Replay run, independent of the thread count.
constexpr uint64_t ParallelStepBatch = 256;

} // namespace

// The log entries below point at the caller's TxOp::Args instead of
// copying them: run()'s input outlives the run, and the logs are empty
// (and the scripts dropped) by the time it returns.

/// One operation of a resolved transaction script (names resolved to
/// family operation indices once per run, off the hot path).
struct ResolvedOp {
  uint32_t Op = 0;
  uint32_t Shard = 0;
  const ArgList *Args = nullptr;
};

/// One uncommitted operation in a shard's log. A skipped operation (failed
/// precondition) is logged too, with a null Ret: only positional families
/// skip, and there every logged entry conflicts, so the placeholder pins
/// the skip decision in the serial order — no operation of another
/// transaction admitted later can be serialized before it (a later add
/// could otherwise make the skipped index valid under replaySerial).
struct ShardLogEntry {
  uint32_t Txn = 0;
  uint32_t Seq = 0; ///< Per-transaction sequence, to match undo entries.
  uint32_t Op = 0;
  const ArgList *Args = nullptr;
  Value Ret;
};

struct SpeculativeExecutor::ShardState {
  explicit ShardState(std::unique_ptr<ConcreteStructure> S)
      : Instance(std::move(S)) {}
  std::mutex M;
  std::unique_ptr<ConcreteStructure> Instance;
  std::vector<ShardLogEntry> Log;
};

/// Sentinel transaction id ("none").
static constexpr uint32_t NoTxn = UINT32_MAX;

struct SpeculativeExecutor::TxnCtx {
  /// One executed operation in the transaction's private undo log.
  struct UndoEntry {
    uint32_t Shard = 0;
    uint32_t Seq = 0;
    uint32_t Op = 0;
    bool Mutates = false;
    const ArgList *Args = nullptr;
    Value Ret;
  };

  uint32_t Id = 0; ///< Arrival index; doubles as the wound-wait age.
  std::vector<ResolvedOp> Script;
  size_t Pc = 0;
  uint32_t NextSeq = 0;
  unsigned Injected = 0;
  std::atomic<bool> Finished{false};
  /// Id of the older transaction that wounded this one (NoTxn = alive);
  /// honored at the next step boundary.
  std::atomic<uint32_t> DoomedBy{NoTxn};
  /// After a wound rollback: do not restart until this transaction has
  /// finished. Without the back-off the victim re-executes immediately,
  /// re-inserts the same conflicting entries, and gets wounded again — a
  /// ping-pong that can starve both sides for thousands of rounds.
  uint32_t WaitFor = NoTxn;
  /// Set by a Waited step: the transaction to wait on, its Epoch as read
  /// while the conflict was visible, and the younger owner the step
  /// wounded (NoTxn if none).
  uint32_t Blocker = NoTxn;
  uint32_t BlockerEpoch = 0;
  uint32_t Victim = NoTxn;
  /// Bumped under ReadyMutex by every commit and every rollback of
  /// executed work (Parallel mode): a waiter whose read of it is stale has
  /// something new to look at.
  std::atomic<uint32_t> Epoch{0};
  /// Parallel mode, under ReadyMutex: the transactions parked on this one,
  /// and the one this transaction is parked on (NoTxn = not parked).
  std::vector<uint32_t> Waiters;
  uint32_t ParkedOn = NoTxn;
  std::vector<UndoEntry> Undo;
  std::vector<std::unique_ptr<ConcreteStructure>> Snapshots;
  std::vector<uint8_t> Touched;
};

struct SpeculativeExecutor::WorkerCtx {
  WorkerCtx(ExprFactory &F, const Catalog &C,
            std::shared_ptr<const index::CommutativityIndex> Idx)
      : Checker(F, C, std::move(Idx)) {}
  IndexedChecker Checker;
  ExecutorStats Stats;
  uint64_t UnflushedSteps = 0; ///< Not yet added to StepAttempts.
  /// Parallel mode: a sleeping worker waits here until whoever takes it
  /// off Sleepers sets Woken (under ReadyMutex).
  std::condition_variable WakeCv;
  bool Woken = false;
};

SpeculativeExecutor::SpeculativeExecutor(ExprFactory &F, const Catalog &C,
                                         const StructureFactory &Factory,
                                         ExecutorConfig Cfg)
    : SpeculativeExecutor(F, C, Factory, Cfg,
                          std::make_shared<const index::CommutativityIndex>(
                              index::CommutativityIndex::compile(C))) {}

SpeculativeExecutor::SpeculativeExecutor(
    ExprFactory &F, const Catalog &C, const StructureFactory &Factory,
    ExecutorConfig Cfg, std::shared_ptr<const index::CommutativityIndex> Idx)
    : F(F), Cat(C), Factory(Factory), Cfg(Cfg), Idx(std::move(Idx)),
      Fam(*Factory.Fam), NumShards(this->Cfg.Shards == 0 ? 1 : this->Cfg.Shards),
      NumOps(Fam.Ops.size()) {
  for (PreKind K : buildPreKinds(Fam)) {
    PreKindTable.push_back(static_cast<uint8_t>(K));
    PositionalState |= K != PreKind::Total;
  }
  Shards.reserve(NumShards);
  for (size_t S = 0; S != NumShards; ++S)
    Shards.push_back(std::make_unique<ShardState>(Factory.Make()));

  unsigned NumWorkers = this->Cfg.Threads == 0 ? 1 : this->Cfg.Threads;
  Workers.reserve(NumWorkers);
  for (unsigned W = 0; W != NumWorkers; ++W)
    Workers.push_back(std::make_unique<WorkerCtx>(F, C, this->Idx));

  // Pre-resolve every ordered operation pair once: admission then inlines
  // to a constant-bitmap test (or one bytecode sweep) per logged entry.
  PairTable.reserve(NumOps * NumOps);
  for (size_t I = 0; I != NumOps; ++I)
    for (size_t J = 0; J != NumOps; ++J)
      PairTable.push_back(Workers.front()->Checker.resolve(
          Fam, Fam.Ops[I].Name, Fam.Ops[J].Name));
  for (size_t I = 0; I != NumOps; ++I)
    OpIndexByName.emplace(Fam.Ops[I].Name, static_cast<uint32_t>(I));

  Pool = std::make_unique<ThreadPool>(NumWorkers);
}

SpeculativeExecutor::~SpeculativeExecutor() = default;

const ConcreteStructure &SpeculativeExecutor::shard(unsigned S) const {
  if (S >= Shards.size()) {
    std::fprintf(stderr,
                 "SpeculativeExecutor::shard: index %u out of range (%zu "
                 "shards)\n",
                 S, Shards.size());
    std::abort();
  }
  return *Shards[S]->Instance;
}

SpeculativeExecutor::WorkerCtx &SpeculativeExecutor::acquireWorker() {
  std::lock_guard<std::mutex> L(FreeWorkersMutex);
  assert(!FreeWorkers.empty() && "more concurrent tasks than workers");
  WorkerCtx *W = FreeWorkers.back();
  FreeWorkers.pop_back();
  return *W;
}

void SpeculativeExecutor::releaseWorker(WorkerCtx &W) {
  std::lock_guard<std::mutex> L(FreeWorkersMutex);
  FreeWorkers.push_back(&W);
}

bool SpeculativeExecutor::attemptBudgetExhausted(WorkerCtx &W,
                                                 uint64_t Batch) {
  // The bound overshoots by at most (workers x Batch) steps.
  if (++W.UnflushedSteps < Batch)
    return false;
  uint64_t Before =
      StepAttempts.fetch_add(W.UnflushedSteps, std::memory_order_relaxed);
  W.UnflushedSteps = 0;
  if (Before < MaxStepAttempts)
    return false;
  Bailed.store(true, std::memory_order_relaxed);
  return true;
}

SpeculativeExecutor::StepOutcome
SpeculativeExecutor::step(TxnCtx &T, WorkerCtx &W) {
  if (T.Finished.load(std::memory_order_relaxed))
    return StepOutcome::Finished;
  if (T.DoomedBy.load(std::memory_order_relaxed) != NoTxn) {
    rollback(T, W, /*FromWound=*/true);
    return StepOutcome::RolledBack;
  }
  if (T.WaitFor != NoTxn) {
    // The epoch is read first: a commit bumps it after publishing
    // Finished, so a waiter that misses the commit parks on a stale epoch.
    const TxnCtx &Wounder = *Txns[T.WaitFor];
    uint32_t Epoch = Wounder.Epoch.load(std::memory_order_acquire);
    if (!Wounder.Finished.load(std::memory_order_acquire)) {
      T.Blocker = T.WaitFor;
      T.BlockerEpoch = Epoch;
      T.Victim = NoTxn;
      return StepOutcome::Waited;
    }
    T.WaitFor = NoTxn;
  }
  if (T.Pc >= T.Script.size()) {
    commitTxn(T, W);
    return StepOutcome::Finished;
  }

  const ResolvedOp &Op = T.Script[T.Pc];
  const Operation &Spec = Fam.Ops[Op.Op];
  ShardState &S = *Shards[Op.Shard];

  std::unique_lock<std::mutex> L(S.M);
  // Time only scans that see a non-empty log: an empty-log admission is
  // not a gatekeeper query, and folding it in would dilute ns/query.
  bool TimeThisScan = Cfg.TimeGatekeeper && !S.Log.empty();
  Clock::time_point GkStart;
  if (TimeThisScan)
    GkStart = Clock::now();
  auto RecordGkTime = [&] {
    if (TimeThisScan)
      W.Stats.GatekeeperNanos += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               GkStart)
              .count());
  };

  // Striped gatekeeper: the operation must commute with every uncommitted
  // operation of every other transaction logged in this shard. Conflicts
  // resolve wound-wait: if we are older, doom the younger owner and wait
  // for its effects to clear; if younger, wait for the older to finish
  // (we roll back only when wounded ourselves, which keeps the oldest
  // live transaction always able to make progress — no deadlock, no
  // abort livelock).
  for (const ShardLogEntry &E : S.Log) {
    if (E.Txn == T.Id)
      continue;
    ++W.Stats.GatekeeperChecks;
    // The snapshot baseline additionally requires writer exclusivity: a
    // whole-shard restore cannot coexist with interleaved writers.
    bool WriterClash = Cfg.Policy == RollbackPolicy::Snapshot &&
                       Spec.Mutates && Fam.Ops[E.Op].Mutates;
    // A catalog condition reads the state right after E ran, and the live
    // shard is that state only until another operation executes. Keyed
    // families (Set, Map) keep the answer for the keys involved; in a
    // positional family (ArrayList) any later insert or removal shifts
    // the indices the condition compares, so every foreign entry
    // conflicts.
    bool Commutes = false;
    if (!WriterClash && !PositionalState && Cfg.UseCommutativity) {
      if (Cfg.CheckerPath == IndexedChecker::Path::Indexed)
        Commutes =
            W.Checker.mayCommuteFast(PairTable[E.Op * NumOps + Op.Op],
                                     *S.Instance, *E.Args, E.Ret, *Op.Args);
      else
        Commutes = W.Checker.mayCommute(*S.Instance, Fam.Ops[E.Op].Name,
                                        *E.Args, E.Ret, Spec.Name, *Op.Args);
    }
    if (Commutes) {
      ++W.Stats.GatekeeperPasses;
      continue;
    }
    uint32_t Owner = E.Txn;
    RecordGkTime();
    T.Victim = NoTxn;
    if (T.Id < Owner) {
      Txns[Owner]->DoomedBy.store(T.Id, std::memory_order_relaxed);
      T.Victim = Owner;
    }
    // Read under the shard lock while E is logged: the owner removes E,
    // under this lock, before it bumps the epoch.
    T.Blocker = Owner;
    T.BlockerEpoch = Txns[Owner]->Epoch.load(std::memory_order_relaxed);
    L.unlock();
    return StepOutcome::Waited;
  }
  RecordGkTime();

  // Precondition check against the live shard (ArrayList index bounds;
  // every other catalog operation is total). Only positional families
  // have such preconditions, and there the scan above let no foreign
  // entry pass: the shard holds committed state plus our own effects, so
  // the skip is exactly what replaySerial decides at this point in the
  // commit order — provided nothing admitted later serializes before it,
  // which the placeholder entry enforces.
  if (!preHolds(static_cast<PreKind>(PreKindTable[Op.Op]), *S.Instance,
                *Op.Args)) {
    S.Log.push_back({T.Id, T.NextSeq, Op.Op, Op.Args, Value()});
    L.unlock();
    T.Undo.push_back(
        {Op.Shard, T.NextSeq, Op.Op, /*Mutates=*/false, Op.Args, Value()});
    T.Touched[Op.Shard] = 1;
    ++T.NextSeq;
    ++T.Pc;
    ++W.Stats.PreSkips;
    return StepOutcome::PreSkipped;
  }

  if (Cfg.Policy == RollbackPolicy::Snapshot && Spec.Mutates &&
      !T.Snapshots[Op.Shard]) {
    T.Snapshots[Op.Shard] = S.Instance->clone();
    ++W.Stats.SnapshotsTaken;
  }

  Value Ret = S.Instance->invoke(Spec.CallName, *Op.Args);
  S.Log.push_back({T.Id, T.NextSeq, Op.Op, Op.Args, Ret});
  L.unlock();

  T.Undo.push_back({Op.Shard, T.NextSeq, Op.Op, Spec.Mutates, Op.Args, Ret});
  T.Touched[Op.Shard] = 1;
  ++T.NextSeq;
  ++T.Pc;
  ++W.Stats.OpsExecuted;

  // Forced-abort injection: deterministic rollback storms for the
  // inverse-vs-snapshot equivalence tests and the bench's abort grid.
  if (Cfg.AbortEvery != 0 && T.Injected < Cfg.MaxInjectedAbortsPerTxn) {
    uint64_t N = Admissions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (N % Cfg.AbortEvery == 0) {
      ++T.Injected;
      rollback(T, W, /*FromWound=*/false);
      return StepOutcome::RolledBack;
    }
  }
  return StepOutcome::Executed;
}

void SpeculativeExecutor::rollback(TxnCtx &T, WorkerCtx &W, bool FromWound) {
  uint32_t Doomer = T.DoomedBy.exchange(NoTxn, std::memory_order_relaxed);
  if (FromWound && Doomer != NoTxn && Doomer != T.Id)
    T.WaitFor = Doomer; // Back off until the wounder is done.
  bool HadWork = !T.Undo.empty();

  if (Cfg.Policy == RollbackPolicy::Inverses) {
    // Undo this transaction's effects in reverse order (§1.3); other
    // transactions' effects stay in place — the inverses restore the
    // *abstract* state contribution of this transaction only, which is
    // exactly why they compose where snapshots cannot.
    for (auto It = T.Undo.rbegin(); It != T.Undo.rend(); ++It) {
      ShardState &S = *Shards[It->Shard];
      std::lock_guard<std::mutex> L(S.M);
      if (It->Mutates) {
        applyInverseConcrete(*S.Instance, Fam.Ops[It->Op], *It->Args,
                             It->Ret);
        ++W.Stats.OpsUndone;
      }
      for (size_t I = 0; I != S.Log.size(); ++I) {
        if (S.Log[I].Txn == T.Id && S.Log[I].Seq == It->Seq) {
          S.Log[I] = std::move(S.Log.back());
          S.Log.pop_back();
          break;
        }
      }
    }
  } else {
    // Snapshot baseline: restore each shard this transaction wrote (sound
    // because admission enforced single-writer shards), then clear any
    // remaining read entries.
    for (size_t Sh = 0; Sh != NumShards; ++Sh) {
      if (!T.Touched[Sh])
        continue;
      ShardState &S = *Shards[Sh];
      std::lock_guard<std::mutex> L(S.M);
      if (T.Snapshots[Sh])
        S.Instance = std::move(T.Snapshots[Sh]);
      for (size_t I = S.Log.size(); I != 0; --I) {
        if (S.Log[I - 1].Txn == T.Id) {
          S.Log[I - 1] = std::move(S.Log.back());
          S.Log.pop_back();
        }
      }
    }
    for (const TxnCtx::UndoEntry &E : T.Undo)
      if (E.Mutates)
        ++W.Stats.OpsUndone;
  }

  T.Undo.clear();
  for (auto &Snap : T.Snapshots)
    Snap.reset();
  std::fill(T.Touched.begin(), T.Touched.end(), uint8_t(0));
  T.NextSeq = 0;
  T.Pc = 0;

  if (!HadWork)
    ++W.Stats.Stalls; // Wounded before executing anything: just delayed.
  else if (FromWound)
    ++W.Stats.Wounds;
  else
    ++W.Stats.InjectedAborts;

  // The effects are gone: whoever parked on them may retry.
  if (HadWork && Cfg.Mode == SchedulerMode::Parallel) {
    std::lock_guard<std::mutex> L(ReadyMutex);
    releaseWaiters(T);
    if (FromWound)
      shrinkWindow();
    wakeSleepers();
  }
}

void SpeculativeExecutor::commitTxn(TxnCtx &T, WorkerCtx &W) {
  // Claim the commit sequence number BEFORE any shard log entry is
  // removed. A transaction whose operation conflicts with ours can only
  // be admitted once our entries are gone; it then depends on our
  // committed effects and must serialize after us. The shard mutex
  // release below / acquire on its side orders this fetch_add before the
  // dependent transaction's, so coherence on CommitSeq guarantees it a
  // later number. (Claiming the seq after clearing the logs opened a
  // window where the dependent could execute, finish, and grab a smaller
  // seq — commitOrder() then was not an equivalent serial order.)
  uint32_t Seq = CommitSeq.fetch_add(1, std::memory_order_relaxed);
  CommitOrderVec[Seq] = T.Id;
  for (size_t Sh = 0; Sh != NumShards; ++Sh) {
    if (!T.Touched[Sh])
      continue;
    ShardState &S = *Shards[Sh];
    std::lock_guard<std::mutex> L(S.M);
    for (size_t I = S.Log.size(); I != 0; --I) {
      if (S.Log[I - 1].Txn == T.Id) {
        S.Log[I - 1] = std::move(S.Log.back());
        S.Log.pop_back();
      }
    }
  }
  T.Undo.clear();
  for (auto &Snap : T.Snapshots)
    Snap.reset();
  ++W.Stats.Commits;
  // Release: transactions backed off on this one may now restart and must
  // see the log entries gone.
  T.Finished.store(true, std::memory_order_release);
}

void SpeculativeExecutor::parallelWorkerLoop() {
  // Run-queue scheduler: each worker pulls a runnable transaction and
  // drives it until it finishes or parks on the transaction it waits for.
  // One long-lived task per worker — no per-step pool traffic — so N
  // workers really do drive N transactions concurrently. (The obvious
  // alternative, resubmitting a pool continuation per wait, serializes
  // under contention: the resubmitting worker steals its own continuation
  // back before any sleeping worker can wake.) Nothing polls: a parked
  // transaction is re-queued by its blocker's commit or rollback, and a
  // worker with nothing to pull sleeps until one of those makes more work
  // runnable than the awake workers can take.
  WorkerCtx &W = acquireWorker();
  std::unique_lock<std::mutex> L(ReadyMutex);
  while (!Bailed.load(std::memory_order_relaxed) && InFlight != 0) {
    if (ReadyQueue.empty()) {
      Sleepers.push_back(&W);
      W.Woken = false;
      W.WakeCv.wait(L, [&W] { return W.Woken; });
      continue;
    }
    TxnCtx &T = *Txns[ReadyQueue.front()];
    ReadyQueue.pop_front();
    ++Holding;
    L.unlock();
    // Drive T; ReadyMutex is held again when the loop ends.
    for (;;) {
      if (Bailed.load(std::memory_order_relaxed) ||
          attemptBudgetExhausted(W, ParallelStepBatch)) {
        L.lock();
        break;
      }
      StepOutcome O = step(T, W);
      if (O == StepOutcome::Finished) {
        L.lock();
        releaseWaiters(T);
        refillWindow();
        break;
      }
      if (O == StepOutcome::Waited) {
        L.lock();
        if (park(T, W))
          break;
        L.unlock(); // The blocker moved on (or T is doomed): step again.
      }
    }
    --Holding;
    wakeSleepers();
  }
  // The run is over or bailed: every sleeper must see it.
  while (!Sleepers.empty())
    wakeOne();
  L.unlock();
  releaseWorker(W);
}

// A doomed transaction is never parked: an older transaction waits on it
// to clear its effects, so a doomed victim parked behind a third
// transaction could close a wait cycle. The wounder therefore re-queues
// a parked victim, and a doomed transaction steps again instead of
// parking. Every other wait is on an older transaction, so no cycle
// forms.
bool SpeculativeExecutor::park(TxnCtx &T, WorkerCtx &W) {
  if (T.Victim != NoTxn) {
    TxnCtx &V = *Txns[T.Victim];
    T.Victim = NoTxn;
    if (V.ParkedOn != NoTxn) {
      std::vector<uint32_t> &Ws = Txns[V.ParkedOn]->Waiters;
      Ws.erase(std::find(Ws.begin(), Ws.end(), V.Id));
      V.ParkedOn = NoTxn;
      ReadyQueue.push_back(V.Id);
    }
  }
  TxnCtx &B = *Txns[T.Blocker];
  if (T.DoomedBy.load(std::memory_order_relaxed) != NoTxn ||
      B.Epoch.load(std::memory_order_relaxed) != T.BlockerEpoch)
    return false;
  B.Waiters.push_back(T.Id);
  T.ParkedOn = B.Id;
  ++W.Stats.WaitRounds;
  return true;
}

void SpeculativeExecutor::releaseWaiters(TxnCtx &T) {
  // Bumped even with no waiter parked yet: one may be on its way.
  T.Epoch.fetch_add(1, std::memory_order_release);
  for (uint32_t Wi : T.Waiters) {
    Txns[Wi]->ParkedOn = NoTxn;
    ReadyQueue.push_back(Wi);
  }
  T.Waiters.clear();
}

void SpeculativeExecutor::wakeSleepers() {
  // An awake worker that holds no transaction pulls from the queue itself,
  // while a woken one runs only after a futex round trip (a median of
  // 7-9 us on a 4-vCPU VM): wake sleepers only for the runnable work
  // beyond the awake, free workers.
  while (!Sleepers.empty() &&
         ReadyQueue.size() + Holding + Sleepers.size() > Workers.size())
    wakeOne();
}

void SpeculativeExecutor::wakeOne() {
  WorkerCtx *S = Sleepers.back();
  Sleepers.pop_back();
  S->Woken = true;
  S->WakeCv.notify_one();
}

// Contention management: the in-flight window follows the measured wound
// rate, multiplicative decrease and additive increase. Every wound of
// executed work means the window admitted more overlap than the
// workload's own conflicts allow; where every pair of transactions
// conflicts the window settles near one, which ends the abort storm
// (scheduling and logging still cost most of serial throughput there),
// while a workload whose operations commute keeps the window at its
// ceiling. Growth waits for a ceiling's worth of wound-free commits: each
// probe above the window the conflicts allow costs about one wound, so
// probing after every commit at window 1 would spend a wound on every
// other transaction.
void SpeculativeExecutor::shrinkWindow() {
  Window = std::max<uint32_t>(Window / 2, 1);
  CleanCommits = 0;
}

void SpeculativeExecutor::refillWindow() {
  if (++CleanCommits >= WindowCeiling) {
    CleanCommits = 0;
    Window = std::min(Window + 1, WindowCeiling);
  }
  // The finishing transaction's slot passes to the next unstarted one
  // unless the others already fill the window; a grown window admits
  // more. Since Window >= 1, the last slot is never given up while
  // unstarted transactions remain — workers exit once InFlight drains.
  uint32_t Live = InFlight - 1;
  for (; Live < Window && NextTxn < Txns.size(); ++Live)
    ReadyQueue.push_back(NextTxn++);
  InFlight = Live;
}

void SpeculativeExecutor::runParallel() {
  // Ceiling: 2 in-flight transactions per worker by default — enough
  // overlap to keep every thread busy, bounded enough that shard logs
  // stay short. Starting everything upfront would let the in-flight set,
  // and with it every shard log and the conflict rate, snowball.
  WindowCeiling = Cfg.AdmitWindow != 0
                      ? Cfg.AdmitWindow
                      : static_cast<uint32_t>(2 * Workers.size());
  Window = WindowCeiling;
  CleanCommits = 0;
  uint32_t Initial =
      static_cast<uint32_t>(std::min<size_t>(Window, Txns.size()));
  NextTxn = Initial;
  InFlight = Initial;
  Holding = 0;
  ReadyQueue.clear();
  for (uint32_t Ti = 0; Ti != Initial; ++Ti)
    ReadyQueue.push_back(Ti);
  for (size_t I = 0; I != Workers.size(); ++I)
    Pool->submit([this] { parallelWorkerLoop(); });
  Pool->wait();
}

void SpeculativeExecutor::runReplay() {
  // Seeded scheduler: every (draw, step) iteration runs under SchedMutex,
  // so the interleaving — and with it the final state, the commit order,
  // and every deterministic statistic — is a pure function of the seed
  // (and the admission window), whichever thread happens to execute each
  // iteration. With an explicit AdmitWindow the live set is a bounded
  // sliding window: admission order follows completion order, which is
  // itself seed-deterministic, so the invariance holds windowed too. This
  // makes Replay the mode of choice for measuring gatekeeper cost under
  // a *controlled* log density — the interleaving is forced by the
  // scheduler, not left to however many cores the host happens to have.
  size_t Window = Cfg.AdmitWindow != 0 ? Cfg.AdmitWindow : Txns.size();
  uint32_t Initial =
      static_cast<uint32_t>(std::min<size_t>(Window, Txns.size()));
  NextTxn = Initial;
  LiveTxns.clear();
  for (uint32_t Ti = 0; Ti != Initial; ++Ti)
    LiveTxns.push_back(Ti);
  unsigned NumTasks = Cfg.Threads == 0 ? 1 : Cfg.Threads;
  for (unsigned I = 0; I != NumTasks; ++I) {
    Pool->submit([this] {
      WorkerCtx &W = acquireWorker();
      for (;;) {
        std::lock_guard<std::mutex> L(SchedMutex);
        if (LiveTxns.empty() || Bailed.load(std::memory_order_relaxed) ||
            attemptBudgetExhausted(W, /*Batch=*/1))
          break;
        size_t K = splitmix64(RngState) % LiveTxns.size();
        TxnCtx &T = *Txns[LiveTxns[K]];
        StepOutcome O = step(T, W);
        if (O == StepOutcome::Waited) {
          ++W.Stats.WaitRounds;
        } else if (O == StepOutcome::Finished) {
          if (NextTxn < Txns.size()) {
            LiveTxns[K] = NextTxn++;
          } else {
            LiveTxns[K] = LiveTxns.back();
            LiveTxns.pop_back();
          }
        }
      }
      releaseWorker(W);
    });
  }
  Pool->wait();
}

ExecutorStats SpeculativeExecutor::run(const std::vector<Transaction> &Input) {
  Txns.clear();
  Txns.reserve(Input.size());
  uint64_t TotalOps = 0;
  for (size_t Ti = 0; Ti != Input.size(); ++Ti) {
    auto T = std::make_unique<TxnCtx>();
    T->Id = static_cast<uint32_t>(Ti);
    T->Script.reserve(Input[Ti].size());
    T->Undo.reserve(Input[Ti].size());
    for (const TxOp &Op : Input[Ti]) {
      checkShard("run", Op, Ti, NumShards);
      // An unknown name falls through to Family::opIndex, which aborts.
      auto It = OpIndexByName.find(Op.OpName);
      uint32_t OpIdx = It != OpIndexByName.end() ? It->second
                                                 : Fam.opIndex(Op.OpName);
      T->Script.push_back({OpIdx, Op.Shard, &Op.Args});
    }
    T->Snapshots.resize(NumShards);
    T->Touched.assign(NumShards, 0);
    TotalOps += Input[Ti].size();
    Txns.push_back(std::move(T));
  }

  CommitOrderVec.assign(Input.size(), 0);
  CommitSeq.store(0, std::memory_order_relaxed);
  Admissions.store(0, std::memory_order_relaxed);
  StepAttempts.store(0, std::memory_order_relaxed);
  Bailed.store(false, std::memory_order_relaxed);
  // Livelock failsafe, far above any storm a sound workload produces:
  // wound-wait guarantees the oldest live transaction always progresses.
  MaxStepAttempts = 1000000ull + 200ull * TotalOps + 1000ull * Input.size();

  for (auto &W : Workers) {
    W->Stats = ExecutorStats();
    W->UnflushedSteps = 0;
    W->Checker.resetQueryStats();
    W->Checker.setPath(Cfg.CheckerPath);
    W->Checker.setStatsSampling(Cfg.StatsSamplePeriod);
  }
  {
    std::lock_guard<std::mutex> L(FreeWorkersMutex);
    FreeWorkers.clear();
    for (auto &W : Workers)
      FreeWorkers.push_back(W.get());
  }
  RngState = Cfg.ReplaySeed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;

  if (!Input.empty()) {
    if (Cfg.Mode == SchedulerMode::Replay)
      runReplay();
    else
      runParallel();
  }

  // Failsafe cleanup: roll any unfinished transaction back so the shards
  // hold committed effects only.
  if (Bailed.load(std::memory_order_relaxed)) {
    for (auto &T : Txns) {
      if (T->Finished.load(std::memory_order_relaxed))
        continue;
      rollback(*T, *Workers.front(), /*FromWound=*/true);
      T->Finished.store(true, std::memory_order_relaxed);
    }
  }
  CommitOrderVec.resize(CommitSeq.load(std::memory_order_relaxed));
  // Every entry is committed or rolled back by now; dropping the scripts
  // leaves no pointer into Input behind.
  Txns.clear();

  ExecutorStats Agg;
  for (auto &W : Workers) {
    const ExecutorStats &S = W->Stats;
    Agg.OpsExecuted += S.OpsExecuted;
    Agg.GatekeeperChecks += S.GatekeeperChecks;
    Agg.GatekeeperPasses += S.GatekeeperPasses;
    Agg.GatekeeperNanos += S.GatekeeperNanos;
    Agg.Wounds += S.Wounds;
    Agg.InjectedAborts += S.InjectedAborts;
    Agg.Stalls += S.Stalls;
    Agg.WaitRounds += S.WaitRounds;
    Agg.OpsUndone += S.OpsUndone;
    Agg.PreSkips += S.PreSkips;
    Agg.SnapshotsTaken += S.SnapshotsTaken;
    Agg.Commits += S.Commits;
    const IndexedChecker::QueryStats &Q = W->Checker.queryStats();
    Agg.CheckerProgramRuns += Q.ProgramRuns;
    Agg.CheckerFallbacks += Q.InterpreterFallbacks;
    Agg.SampledGkQueries += Q.SampledQueries;
    Agg.SampledGkConstantHits += Q.SampledConstantHits;
  }
  Agg.Completed = !Bailed.load(std::memory_order_relaxed);
  return Agg;
}

std::vector<std::unique_ptr<ConcreteStructure>>
SpeculativeExecutor::replaySerial(const StructureFactory &Factory,
                                  unsigned Shards,
                                  const std::vector<Transaction> &Txns,
                                  const std::vector<uint32_t> &Order) {
  const Family &Fam = *Factory.Fam;
  std::vector<PreKind> Kinds = buildPreKinds(Fam);
  if (Shards == 0)
    Shards = 1;
  std::vector<std::unique_ptr<ConcreteStructure>> Out;
  Out.reserve(Shards);
  for (unsigned S = 0; S != Shards; ++S)
    Out.push_back(Factory.Make());
  for (uint32_t Ti : Order) {
    for (const TxOp &Op : Txns[Ti]) {
      checkShard("replaySerial", Op, Ti, Shards);
      unsigned OpIdx = Fam.opIndex(Op.OpName);
      ConcreteStructure &S = *Out[Op.Shard];
      if (!preHolds(Kinds[OpIdx], S, Op.Args))
        continue;
      S.invoke(Fam.Ops[OpIdx].CallName, Op.Args);
    }
  }
  return Out;
}
