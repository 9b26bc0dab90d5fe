//===- service/ShardedVerifyService.h - Sharded serving front-end -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// semcommute-serve's one serving front-end: N warm verification sessions
/// behind one submit/drain interface. Each shard is a full VerifyService
/// (warm CatalogSession, prefix-batched drains, compaction) serving the
/// same catalog; requests are routed to shards by a stable hash of their
/// family+pair, and a drain runs every shard's drain, on a work-stealing
/// ThreadPool when both Threads and Shards exceed one. One shard on one
/// thread is the single warm session: the same verdict log and counters
/// as a standalone VerifyService fed the same stream.
///
/// What makes N shards cheaper than N processes is the one catalog plan:
/// planCatalog runs once and every shard serves from the shared read-only
/// plan. Each shard then asserts the catalog-common prefix (seven formulas
/// on the full catalog) into its own session, exactly as a standalone
/// VerifyService does — a small fraction of the plan's cost.
///
/// Shards share no learned clauses: on the catalog every learned clause is
/// pair-scoped, so there is nothing a sibling shard could reuse.
///
/// Determinism: routing and per-shard serve order are functions of the
/// request stream alone — never of thread scheduling. drain() returns the
/// per-shard verdict groups concatenated in shard-id order, so at a fixed
/// shard count the combined verdict log is byte-identical across thread
/// counts (ShardedServiceTest pins 1 vs 8 threads), and verdict *values*
/// equal the standalone VerifyService reference.
///
/// The verdict log is kept once, here: shards keep counters only, and a
/// restore derives each shard's request count by routing the log.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H
#define SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H

#include "service/VerifyService.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace semcomm {
namespace service {

/// How requests map to shards: Pair hashes family+pair, balancing load
/// across any shard count. It is the only rule; the enum and
/// ShardedServiceConfig::Route remain because the benchmark
/// (perfbench/src/ServeWorkload.cpp) sets them.
enum class RouteBy : uint8_t { Pair };

/// Front-end construction knobs. Base carries the per-shard session
/// configuration (compaction, certify, budgets). The defaults give the
/// single warm session: one shard, drained on the caller's thread.
struct ShardedServiceConfig {
  ServiceConfig Base;
  unsigned Shards = 1;
  /// Worker threads for drains. The pool has min(Threads, Shards)
  /// workers and exists only when that exceeds one; otherwise shards run
  /// sequentially in shard-id order on the caller's thread. Thread count
  /// never changes verdicts, logs, or per-shard stats — only wall time.
  unsigned Threads = 1;
  RouteBy Route = RouteBy::Pair; ///< Kept for the benchmark; see RouteBy.
};

/// Per-shard accounting beyond the shard's own ServiceStats.
struct ShardStats {
  ServiceStats Stats;
  double WarmupMillis = 0; ///< Shard construction wall time.
};

struct ShardedServiceStats {
  std::vector<ShardStats> Shards;
  uint64_t Requests = 0;
  uint64_t Drains = 0;
  double ServeMillis = 0;
  /// Warm-up decomposition: the shared planCatalog pass, plan + shard 0's
  /// construction (what one process per shard would pay per shard), and
  /// the average construction of shards 1..N-1 (0 with one shard). Every
  /// shard encodes the prefix the same way, so the last is just shard
  /// construction over the shared plan; it keeps the name under which the
  /// benchmark reports it (service.warmup_import_ms).
  double PlanMillis = 0;
  double WarmupScratchMillis = 0; ///< Plan + shard 0 construction.
  double WarmupImportMillisAvg = 0;
};

/// The sharded front-end. Not thread-safe at the interface: one caller
/// submits and drains; drains fan out internally.
class ShardedVerifyService {
public:
  ShardedVerifyService(const Catalog &C,
                       const std::vector<const Family *> &Fams,
                       const ShardedServiceConfig &Cfg);

  /// Routes and queues one request (see VerifyService::submit for the
  /// rejection cases).
  bool submit(const ServiceRequest &R, std::string &Error);

  /// Drains every shard (in parallel when the front-end has a pool) and
  /// returns the per-shard verdict groups concatenated in shard-id order.
  /// The combined verdicts are also appended to log().
  std::vector<ServiceVerdict> drain();

  size_t pending() const;
  const std::vector<ServiceVerdict> &log() const { return VerdictLog; }
  const ShardedServiceConfig &config() const { return Cfg; }
  ShardedServiceStats stats() const;
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  /// The shard a request routes to (exposed for tests).
  size_t shardOf(const ServiceRequest &R) const;
  VerifyService &shard(size_t S) { return *Shards[S]; }

  /// Pass-boundary hook: restarts every shard's peak counters.
  void resetPeakStats();

  bool certifying() const { return Cfg.Base.Certify; }
  /// Folds every shard's certification outcome (each shard's trace is
  /// checked independently — per-shard --certify); shard k's query
  /// numbers follow those of shards 0..k-1.
  proof::CertifySummary finishCertification();

  /// Serializes the full sharded image (schema 2): front-end counters, the
  /// combined verdict log, and every shard's own image (config, family
  /// set, counters; no verdicts).
  json::Value snapshot() const;
  /// Restores a snapshot() into a freshly constructed front-end. Schema 1
  /// (a single-session image) is refused by name. The shard count, the
  /// "pair" route and every shard image (config, family set, counters)
  /// are checked before the log rows; each shard's request count is then
  /// the number of log rows routed to it, and its counters must agree with
  /// that count (pair_groups + batched_reuses equal it, methods_discharged
  /// is twice it). Nothing is installed unless every check passes.
  bool restore(const json::Value &V, std::string &Error);

private:
  const Catalog &C;
  std::vector<const Family *> Fams;
  ShardedServiceConfig Cfg;
  CatalogPlan Plan; ///< Shared, read-only; outlives every shard.
  std::vector<std::unique_ptr<VerifyService>> Shards;
  /// min(Threads, Shards) workers; null when that is one.
  std::unique_ptr<ThreadPool> Pool;
  std::vector<double> WarmupMillis;

  std::vector<ServiceVerdict> VerdictLog;
  uint64_t Drains = 0;
  double ServeMillis = 0;
  double PlanMillis = 0;
};

} // namespace service
} // namespace semcomm

#endif // SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H
