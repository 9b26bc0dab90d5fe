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
/// (warm CatalogSession, prefix-batched groups, pair retirement) serving the
/// same catalog. Requests wait in the front-end; a drain groups them by
/// family, then by pair (groupByPair, the one-session order) and places
/// whole pair groups on shards by their estimated cost:
/// longest-processing-time-first (Graham 1969), each group, largest first,
/// onto the least-loaded shard. The caller's thread drains shard 0 and a
/// pool of min(Threads, Shards) - 1 workers drains the rest. One shard on
/// one thread is the single warm session: the same verdict log and
/// counters as a standalone VerifyService fed the same stream.
///
/// What makes N shards cheaper than N processes is sharing what is a pure
/// function of the catalog: planCatalog runs once and every shard serves
/// from the one read-only catalog plan, and the front-end owns one pair
/// plan store the shards build into and serve from, so a pair is planned
/// once whichever shards serve it. Each shard asserts the catalog-common
/// prefix (seven formulas on the full catalog) into its own session,
/// exactly as a standalone VerifyService does — a small fraction of the
/// plan's cost.
///
/// Shards share no learned clauses: on the catalog every learned clause is
/// pair-scoped, so there is nothing a sibling shard could reuse.
///
/// Determinism: placement is a function of the request stream and the
/// plans built so far — never of timing or thread scheduling — so every
/// shard's counters are identical at any thread count. drain() returns the
/// verdicts in one-session order (each group's verdicts at the group's
/// place in groupByPair's order), so the combined verdict log is identical
/// at every shard count and thread count and equals the standalone
/// VerifyService's (ShardedServiceTest pins 4 shards at 1 and 8 threads
/// against it).
///
/// The verdict log is kept once, here: shards keep counters only, and a
/// restore derives each shard's request count from its counters.
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

/// How requests map to shards. Pair names the one rule: a drain's whole
/// (family, pair) groups are placed on shards by cost (see the file
/// comment). The enum and ShardedServiceConfig::Route remain because the
/// benchmark (perfbench/src/ServeWorkload.cpp) sets them.
enum class RouteBy : uint8_t { Pair };

/// Front-end construction knobs. Base carries the per-shard session
/// configuration (certify, budgets). The defaults give the
/// single warm session: one shard, drained on the caller's thread.
struct ShardedServiceConfig {
  ServiceConfig Base;
  unsigned Shards = 1;
  /// Threads that drain: the caller's plus a pool of
  /// min(Threads, Shards) - 1 workers (none when that is 0). Thread i of
  /// those min(Threads, Shards) drains shards i, i + min(Threads, Shards),
  /// ...; the caller is thread 0. Thread count never changes verdicts,
  /// logs, or per-shard stats — only wall time.
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
  /// Over the drains this process served (a restored image's are not in
  /// it): the sum of each drain's busiest shard serving time divided by
  /// the sum of the drains' wall times — how much of a drain its critical
  /// path fills; 0 before the first drain.
  double CriticalPathShare = 0;
};

/// The sharded front-end. Not thread-safe at the interface: one caller
/// submits and drains; drains fan out internally.
class ShardedVerifyService {
public:
  ShardedVerifyService(const Catalog &C,
                       const std::vector<const Family *> &Fams,
                       const ShardedServiceConfig &Cfg);

  /// Queues one request (see VerifyService::resolve for the rejection
  /// cases).
  bool submit(const ServiceRequest &R, std::string &Error);

  /// Places the pending requests' pair groups on the shards, drains every
  /// shard that got one (in parallel when the front-end has a pool) and
  /// returns the verdicts in one-session order. They are also appended to
  /// log().
  std::vector<ServiceVerdict> drain();

  size_t pending() const { return Pending.size(); }
  const std::vector<ServiceVerdict> &log() const { return VerdictLog; }
  const ShardedServiceConfig &config() const { return Cfg; }
  ShardedServiceStats stats() const;
  /// semcommute-serve's "sharded_service" report block: shard and thread
  /// counts, the warm-up decomposition, critical_path_share, and one
  /// per_shard row per shard (requests, busy_millis, plans, peaks).
  json::Value statsJson() const;
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
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
  /// are checked before the log rows. Each shard's request count is its
  /// pair_groups + batched_reuses: the counts must sum to the log's rows,
  /// and each shard's methods_discharged must be twice its count. Nothing
  /// is installed unless every check passes.
  bool restore(const json::Value &V, std::string &Error);

private:
  /// Each group's shard: longest-processing-time-first on groupCost.
  std::vector<unsigned> place(const std::vector<PairGroup> &Groups) const;

  const Catalog &C;
  std::vector<const Family *> Fams;
  ShardedServiceConfig Cfg;
  CatalogPlan Plan; ///< Shared, read-only; outlives every shard.
  PlanStore Plans;  ///< Shared pair plans; outlives every shard.
  std::vector<std::unique_ptr<VerifyService>> Shards;
  /// min(Threads, Shards) - 1 workers; null when that is 0.
  std::unique_ptr<ThreadPool> Pool;
  std::vector<double> WarmupMillis;

  std::vector<ResolvedRequest> Pending;
  std::vector<ServiceVerdict> VerdictLog;
  uint64_t Drains = 0;
  double ServeMillis = 0;
  double PlanMillis = 0;
  /// This process's drains: summed busiest-shard time and wall time.
  double CriticalMillis = 0;
  double DrainWallMillis = 0;
};

} // namespace service
} // namespace semcomm

#endif // SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H
