//===- service/ShardedVerifyService.h - Sharded serving front-end -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// N warm verification sessions behind one submit/drain front-end. Each
/// shard is a full VerifyService (warm CatalogSession, prefix-batched
/// drains, compaction) serving the same catalog; requests are routed to
/// shards by a stable hash of their family (or family+pair — the default,
/// which balances the four-family catalog), and a drain runs every shard's
/// batched drain, on a work-stealing ThreadPool when Threads > 1.
///
/// What makes N shards cheaper than N processes:
///
///  * One catalog plan. planCatalog runs once; every shard serves from
///    the shared read-only plan.
///  * One prefix encoding. Shard 0 asserts the catalog-common prefix +
///    bridge lattice from scratch and exports it as a PrefixImage; every
///    other shard *loads* the image (a propositional replay) instead of
///    re-encoding — the warm-up ratio the bench reports.
///
/// Shards share no learned clauses: on the catalog every learned clause is
/// pair-scoped, so there is nothing a sibling shard could reuse.
///
/// Determinism: routing and per-shard serve order are functions of the
/// request stream alone — never of thread scheduling. drain() returns the
/// per-shard verdict groups concatenated in shard-id order, so at a fixed
/// shard count the combined verdict log is byte-identical across thread
/// counts (ShardedServiceTest pins 1 vs 8 threads), and verdict *values*
/// equal the single-session VerifyService reference.
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

/// How requests map to shards. Family keeps a family's whole traffic on
/// one shard (maximal prefix locality, but the four-family catalog can
/// then use at most four shards); Pair hashes family+pair, balancing load
/// across any shard count — the default.
enum class RouteBy : uint8_t { Family, Pair };

/// Front-end construction knobs. Base carries the per-shard session
/// configuration (batching, compaction, certify, budgets).
struct ShardedServiceConfig {
  ServiceConfig Base;
  unsigned Shards = 4;
  /// Worker threads for drains; 1 runs shards sequentially in shard-id
  /// order on the caller's thread. Thread count never changes verdicts,
  /// logs, or per-shard stats — only wall time.
  unsigned Threads = 1;
  RouteBy Route = RouteBy::Pair;
  /// Load shard 0's exported PrefixImage into shards 1..N-1 (off = every
  /// shard re-encodes the prefix; the warm-up baseline).
  bool SharePrefix = true;
};

/// Per-shard accounting beyond the shard's own ServiceStats.
struct ShardStats {
  ServiceStats Stats;
  double WarmupMillis = 0;      ///< Shard construction wall time.
  bool PrefixImported = false;  ///< Loaded the image (vs encoded).
};

struct ShardedServiceStats {
  std::vector<ShardStats> Shards;
  uint64_t Requests = 0;
  uint64_t Drains = 0;
  double ServeMillis = 0;
  /// Warm-up decomposition: the shared planCatalog pass, shard 0's
  /// encode-from-scratch construction, and the average import-path
  /// construction of shards 1..N-1 (0 with one shard). The old
  /// one-process-per-shard world paid Plan + Scratch per shard; the
  /// sharded front-end pays Import.
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

  /// Drains every shard (parallel when Threads > 1) and returns the
  /// per-shard verdict groups concatenated in shard-id order. The
  /// combined verdicts are also appended to log().
  std::vector<ServiceVerdict> drain();

  size_t pending() const;
  const std::vector<ServiceVerdict> &log() const { return VerdictLog; }
  const ShardedServiceConfig &config() const { return Cfg; }
  ShardedServiceStats stats() const;
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  /// The shard a request routes to (exposed for tests).
  size_t shardOf(const ServiceRequest &R) const;
  VerifyService &shard(size_t S) { return *Shards[S]; }
  /// The shared prefix image (empty when SharePrefix is off or the
  /// service has a single shard).
  const PrefixImage &prefixImage() const { return Prefix; }

  /// Pass-boundary hook: restarts every shard's peak counters.
  void resetPeakStats();

  bool certifying() const { return Cfg.Base.Certify; }
  /// Folds every shard's certification outcome (each shard's trace is
  /// checked independently — per-shard --certify).
  proof::CertifySummary finishCertification();

  /// Serializes the full sharded image: front-end config, the combined
  /// verdict log, and every shard's own snapshot.
  json::Value snapshot() const;
  /// Restores a snapshot() into a freshly constructed front-end. The
  /// shard count, routing, and every per-shard config must match, and the
  /// combined log must be exactly the shard logs interleaved in routing
  /// order. Nothing is installed unless every check passes.
  bool restore(const json::Value &V, std::string &Error);

private:
  const Catalog &C;
  std::vector<const Family *> Fams;
  ShardedServiceConfig Cfg;
  CatalogPlan Plan; ///< Shared, read-only; outlives every shard.
  PrefixImage Prefix;
  std::vector<std::unique_ptr<VerifyService>> Shards;
  std::unique_ptr<ThreadPool> Pool; ///< Null when Threads <= 1.
  std::vector<double> WarmupMillis;

  std::vector<ServiceVerdict> VerdictLog;
  uint64_t Drains = 0;
  double ServeMillis = 0;
  double PlanMillis = 0;
};

} // namespace service
} // namespace semcomm

#endif // SEMCOMM_SERVICE_SHARDEDVERIFYSERVICE_H
