//===- runtime/SpeculativeExecutor.h - Parallel speculative txns *- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's motivating usage scenario (§1.2, §1.3, [29,30,31]) at
/// production shape: worker threads execute transactions speculatively over
/// a *sharded* set of structure instances, a *striped* gatekeeper — one
/// uncommitted-operation log per shard, admission through pre-resolved
/// IndexedChecker::PairHandles so the constant-bitmap fast path stays two
/// loads and a bit test — admits an operation only if it commutes with
/// every uncommitted operation of every other transaction in its shard,
/// and conflicts resolve by wound-wait: an older transaction wounds the
/// younger owner and waits for its effects to clear; a younger transaction
/// waits for the older to finish, rolling itself back only when wounded.
/// Aborted effects are undone with the verified Table 5.10 inverses (or,
/// as the baseline, by restoring a per-shard snapshot under single-writer
/// admission).
///
/// A family with state-dependent preconditions (the ArrayList index
/// bounds; every other catalog operation is total) is positional: a
/// catalog condition reads the state right after the logged operation,
/// and every later insert or removal shifts the indices it compares. There
/// the gatekeeper treats every uncommitted operation of another
/// transaction in the shard as a conflict, so preconditions are never
/// decided against speculative foreign state, and a skip leaves a
/// placeholder in the shard log so no operation admitted later can be
/// serialized before the skip decision. Skips therefore match what
/// replaySerial produces at the same point of the commit order.
///
/// Two scheduler modes:
///  * Parallel — real concurrency: one run-queue worker per thread, and an
///    admission window that follows the measured wound rate (halved when a
///    transaction loses executed work to a wound, grown by one after a
///    ceiling's worth of wound-free commits). Where every pair of
///    transactions conflicts the window settles near one, which ends the
///    abort storm. Nothing polls: a blocked transaction parks on the
///    transaction it waits for, whose commit or rollback re-queues it, and
///    a worker with nothing runnable sleeps until there is more runnable
///    work than awake workers to take it.
///  * Replay — a seeded scheduler serializes every step under one mutex,
///    so the schedule (and therefore the final state, commit order, and
///    deterministic stats) is a pure function of the seed, invariant
///    across thread counts. This keeps verdict/state invariance testable
///    while the Parallel mode is measured.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_RUNTIME_SPECULATIVEEXECUTOR_H
#define SEMCOMM_RUNTIME_SPECULATIVEEXECUTOR_H

#include "runtime/IndexedChecker.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace semcomm {

class ThreadPool;

/// One scripted operation of a transaction, addressed to one shard.
struct TxOp {
  std::string OpName; ///< A recorded-variant operation of the family.
  ArgList Args;
  unsigned Shard = 0; ///< Which structure instance the operation targets.
};

/// A transaction: a straight-line script of operations.
using Transaction = std::vector<TxOp>;

/// How an aborted transaction's effects are undone.
enum class RollbackPolicy : uint8_t {
  Inverses, ///< Undo the log with the verified inverse operations (§1.3).
  Snapshot, ///< Restore per-shard copies taken at first write (baseline).
};

/// How steps are interleaved across transactions.
enum class SchedulerMode : uint8_t {
  Parallel, ///< Real worker threads; non-deterministic interleavings.
  Replay,   ///< Seeded serialized scheduler; thread-count invariant.
};

/// Executor configuration knobs.
struct ExecutorConfig {
  unsigned Threads = 1;
  unsigned Shards = 1;
  RollbackPolicy Policy = RollbackPolicy::Inverses;
  SchedulerMode Mode = SchedulerMode::Parallel;
  /// Seed of the Replay-mode scheduler (ignored in Parallel mode).
  uint64_t ReplaySeed = 1;
  /// Bounded admission (0 = auto: 2 per worker in Parallel mode,
  /// everything at once in Replay mode). In Replay mode it is a fixed
  /// window: shard logs — and with them the gatekeeper load — stay at a
  /// controlled density, independent of thread count, so runs stay
  /// thread-count invariant. In Parallel mode it is the ceiling of the
  /// adaptive window: the window starts here, halves (floor 1) whenever a
  /// transaction that had executed work is wounded, and grows by one after
  /// every ceiling's worth of commits without a wound.
  unsigned AdmitWindow = 0;
  /// When false every pair of concurrent same-shard operations conflicts
  /// (the no-commutativity baseline of bench/perf_speculation).
  bool UseCommutativity = true;
  /// Which machinery the gatekeeper queries (indexed fast path vs the
  /// tree-interpreter reference oracle).
  IndexedChecker::Path CheckerPath = IndexedChecker::Path::Indexed;
  /// Forced-abort injection: every Nth admitted operation dooms its own
  /// transaction (0 = off). Drives rollback storms deterministically.
  unsigned AbortEvery = 0;
  /// Injection cap per transaction, so storms always terminate.
  unsigned MaxInjectedAbortsPerTxn = 2;
  /// Opt-in sampled gatekeeper-checker stats (IndexedChecker
  /// setStatsSampling period; 0 = off).
  unsigned StatsSamplePeriod = 0;
  /// Time the admission loop (one steady_clock pair per attempted step),
  /// making gatekeeper ns/query reportable.
  bool TimeGatekeeper = false;
};

/// Execution statistics, aggregated over all workers. In Replay mode every
/// field except GatekeeperNanos and the Sampled* estimates is a pure
/// function of (workload, config, seed) — invariant across thread counts.
struct ExecutorStats {
  uint64_t OpsExecuted = 0;
  uint64_t GatekeeperChecks = 0;
  uint64_t GatekeeperPasses = 0;
  uint64_t GatekeeperNanos = 0; ///< Only when TimeGatekeeper.
  /// Rollbacks of executed work: self-aborts of wounded transactions.
  uint64_t Wounds = 0;
  /// Injected self-aborts (AbortEvery).
  uint64_t InjectedAborts = 0;
  /// Conflicts hit before the transaction had executed anything: it
  /// merely waits (degenerates to pessimistic serialization when the
  /// gatekeeper is off).
  uint64_t Stalls = 0;
  /// Times a transaction waited (for an older transaction to finish or a
  /// wounded younger one to clear its effects). Parallel mode counts parks:
  /// the transaction sleeps until its blocker commits or rolls back.
  /// Replay mode counts scheduler draws of a blocked transaction.
  uint64_t WaitRounds = 0;
  uint64_t OpsUndone = 0;
  uint64_t PreSkips = 0; ///< Ops skipped because the precondition failed.
  uint64_t SnapshotsTaken = 0;
  uint64_t Commits = 0;
  /// Aggregated per-worker checker counters (how admission queries
  /// resolved): bytecode program runs and interpreter fallbacks, plus the
  /// sampled fast-path classification when StatsSamplePeriod is set.
  uint64_t CheckerProgramRuns = 0;
  uint64_t CheckerFallbacks = 0;
  uint64_t SampledGkQueries = 0;
  uint64_t SampledGkConstantHits = 0;
  /// False only if the failsafe step bound was hit (a livelock guard;
  /// never expected on sound workloads).
  bool Completed = true;

  /// Total rollbacks of executed work.
  uint64_t aborts() const { return Wounds + InjectedAborts; }
};

/// Multi-threaded speculative executor over sharded structure instances.
class SpeculativeExecutor {
public:
  /// Compiles a private commutativity index from \p C.
  SpeculativeExecutor(ExprFactory &F, const Catalog &C,
                      const StructureFactory &Factory,
                      ExecutorConfig Cfg = ExecutorConfig());

  /// Shares \p Idx across executors (e.g. one compiled image serving a
  /// whole benchmark grid).
  SpeculativeExecutor(ExprFactory &F, const Catalog &C,
                      const StructureFactory &Factory, ExecutorConfig Cfg,
                      std::shared_ptr<const index::CommutativityIndex> Idx);

  ~SpeculativeExecutor();

  SpeculativeExecutor(const SpeculativeExecutor &) = delete;
  SpeculativeExecutor &operator=(const SpeculativeExecutor &) = delete;

  /// Runs \p Txns to completion and returns aggregated statistics. The
  /// shards retain the committed effects afterwards; commitOrder() names
  /// the equivalent serial order. The logs point into \p Txns' argument
  /// lists while run() executes; nothing refers to them after it returns.
  ExecutorStats run(const std::vector<Transaction> &Txns);

  /// Shard count and per-shard structure access (for result inspection).
  /// shard() aborts on an out-of-range index, in release builds too.
  unsigned numShards() const { return static_cast<unsigned>(NumShards); }
  const ConcreteStructure &shard(unsigned S) const;

  /// Key-hash shard routing used by workload builders: deterministic and
  /// stable across runs. The route is hashCode() modulo the shard count,
  /// so at a power-of-two count it is the hash's low bits, and every key
  /// of one shard agrees in them. A structure sharded by this route must
  /// not index by the same bits: HashTable and HashSet take their buckets
  /// from a mixed hash for that reason.
  static unsigned shardOf(const Value &Key, unsigned NumShards) {
    return NumShards < 2
               ? 0
               : static_cast<unsigned>(Key.hashCode() % NumShards);
  }

  /// Transaction indices in commit order of the last run().
  const std::vector<uint32_t> &commitOrder() const { return CommitOrderVec; }

  /// Executes \p Txns serially in \p Order on fresh instances from
  /// \p Factory (same shard routing and precondition-skip policy as the
  /// executor): the serializability reference for the last run's
  /// committed state. Like run(), aborts on an out-of-range shard id.
  static std::vector<std::unique_ptr<ConcreteStructure>>
  replaySerial(const StructureFactory &Factory, unsigned Shards,
               const std::vector<Transaction> &Txns,
               const std::vector<uint32_t> &Order);

  const ExecutorConfig &config() const { return Cfg; }

  /// The compiled index the gatekeeper queries.
  const index::CommutativityIndex &index() const { return *Idx; }

private:
  struct ShardState;
  struct TxnCtx;
  struct WorkerCtx;
  enum class StepOutcome : uint8_t {
    Executed,
    PreSkipped,
    Waited,
    RolledBack, ///< Wounded or injected abort; the script restarts.
    Finished,
  };

  StepOutcome step(TxnCtx &T, WorkerCtx &W);
  void rollback(TxnCtx &T, WorkerCtx &W, bool FromWound);
  void commitTxn(TxnCtx &T, WorkerCtx &W);
  void runParallel();
  void runReplay();
  void parallelWorkerLoop();
  // Parallel-mode scheduling; each of these runs under ReadyMutex.
  bool park(TxnCtx &T, WorkerCtx &W);
  void releaseWaiters(TxnCtx &T);
  void wakeSleepers();
  void wakeOne();
  void shrinkWindow();
  void refillWindow();
  WorkerCtx &acquireWorker();
  void releaseWorker(WorkerCtx &W);
  bool attemptBudgetExhausted(WorkerCtx &W, uint64_t Batch);

  ExprFactory &F;
  const Catalog &Cat;
  const StructureFactory &Factory;
  ExecutorConfig Cfg;
  std::shared_ptr<const index::CommutativityIndex> Idx;
  const Family &Fam;
  size_t NumShards;
  size_t NumOps;
  /// Precomputed precondition shape per operation index (a cpp-local
  /// PreKind enum, stored raw so the header stays implementation-free).
  std::vector<uint8_t> PreKindTable;
  /// The family has state-dependent preconditions (ArrayList): its state
  /// is positional, so every foreign logged operation conflicts.
  bool PositionalState = false;

  std::vector<std::unique_ptr<ShardState>> Shards;
  /// Pre-resolved (op1, op2) handles, row-major over the family's
  /// operation indices; shared read-only by every worker's checker.
  std::vector<IndexedChecker::PairHandle> PairTable;
  /// Operation name -> family operation index, for resolving scripts.
  std::unordered_map<std::string, uint32_t> OpIndexByName;
  std::vector<std::unique_ptr<WorkerCtx>> Workers;
  std::mutex FreeWorkersMutex;
  std::vector<WorkerCtx *> FreeWorkers;
  std::unique_ptr<ThreadPool> Pool;

  std::vector<std::unique_ptr<TxnCtx>> Txns;
  std::vector<uint32_t> CommitOrderVec;
  /// Next unstarted transaction (under ReadyMutex in Parallel mode, under
  /// SchedMutex in Replay mode).
  uint32_t NextTxn = 0;
  // Parallel-mode scheduler state (all accessed under ReadyMutex): the
  // runnable transactions, which workers pull from the front; the
  // admitted-but-unfinished count, whose draining ends the run; the
  // workers asleep for want of work and the count holding a transaction;
  // and the adaptive admission window.
  std::mutex ReadyMutex;
  std::deque<uint32_t> ReadyQueue;
  uint32_t InFlight = 0;
  std::vector<WorkerCtx *> Sleepers;
  uint32_t Holding = 0;
  uint32_t Window = 1;
  uint32_t WindowCeiling = 1;
  uint32_t CleanCommits = 0; ///< Commits since the last growth or wound.
  std::atomic<uint32_t> CommitSeq{0};
  std::atomic<uint64_t> Admissions{0}; ///< Injection counter.
  /// Failsafe budget: Parallel workers add their step counts in batches,
  /// Replay counts every step.
  std::atomic<uint64_t> StepAttempts{0};
  uint64_t MaxStepAttempts = 0;
  std::atomic<bool> Bailed{false};

  // Replay-mode scheduler state (all accessed under SchedMutex).
  std::mutex SchedMutex;
  uint64_t RngState = 0;
  std::vector<uint32_t> LiveTxns;
};

} // namespace semcomm

#endif // SEMCOMM_RUNTIME_SPECULATIVEEXECUTOR_H
