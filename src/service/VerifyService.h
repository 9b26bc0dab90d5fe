//===- service/VerifyService.h - Warm catalog verification service -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived verification service over one warm CatalogSession. Clients
/// submit (family, op-pair, condition-kind) requests; drain() serves every
/// pending request against the warm session and returns the verdicts
/// (soundness + completeness — the condition kind's two testing methods).
/// It is the one warm engine: ShardedVerifyService (semcommute-serve's
/// front-end) runs one per shard and hands each shard its placed pair
/// groups through serve(), and semcommute-verify's shard tasks construct
/// it directly.
///
/// Serving discipline:
///
///  * Pair plans: a pair's six-method discharge plan is a pure function of
///    the catalog. A group handed a plan-store entry (the sharded
///    front-end owns one PlanStore for all its shards, as they share the
///    catalog plan) is planned into the entry if it is empty and served
///    from it; drain() hands none, so each group's plan is built, served
///    and dropped once the pair's scope is retired, and a single-drain
///    service (semcommute-verify's shards) holds one pair's plan at a
///    time. PlansBuilt counts the builds; PairPlanMillis times them.
///
///  * Prefix batching: pending requests are grouped by family, then by
///    op-pair, in first-appearance order (groupByPair, which the sharded
///    front-end uses too). A pair's scope is opened once per group, every
///    request of the group discharged against the warm pair scope, and
///    the scope retired when the group completes — so N same-pair
///    requests pay one prefix-assertion and one retirement instead of N.
///
///  * Long-horizon compaction: with CompactBridges (the default) the
///    session reference-counts theory atoms by the scopes that mention
///    them and compacts dead bridges out of the clause database; with
///    ReleaseSelectors retired scopes' epoch-interned selector variables
///    are folded off the trail and recycled. Together they make the
///    service loop unbounded: live clauses, live variables, and live
///    bridges plateau after the first full catalog pass instead of
///    growing with the request count. A service that serves a single
///    drain (semcommute-verify's shards) turns compaction off: it would
///    only add proof steps.
///
///  * Snapshot image: the service keeps counters, not verdicts — the
///    verdict log is the front-end's. snapshot() serializes the shard image
///    (config, family set, cumulative counters); readSnapshot() checks one
///    and install() loads it into a freshly constructed service. The warm
///    solver state and pair plans are deliberately not serialized — both
///    are deterministic functions of the catalog, so a reloaded
///    service re-warms lazily as requests arrive while its counters
///    continue from the snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SERVICE_VERIFYSERVICE_H
#define SEMCOMM_SERVICE_VERIFYSERVICE_H

#include "commute/SymbolicEngine.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace semcomm {
namespace service {

/// One verification request: decide the \p Kind commutativity condition of
/// the ordered pair (\p Op1, \p Op2) in \p Family.
struct ServiceRequest {
  std::string Family;
  std::string Op1, Op2;
  ConditionKind Kind = ConditionKind::Before;
};

/// The served outcome of one request: the verdicts of the condition's two
/// testing methods.
struct ServiceVerdict {
  ServiceRequest Req;
  bool Sound = false;
  bool Complete = false;
  bool verified() const { return Sound && Complete; }
};

/// A request that passed the submit() checks: its family's index into the
/// served families (and the catalog plan) and its catalog entry.
struct ResolvedRequest {
  ServiceRequest Req;
  size_t FamIdx = 0;
  const ConditionEntry *Entry = nullptr;
};

/// Pair plans by catalog entry, each built on its pair's first group.
/// Entries are created single-threaded (groupByPair); during a sharded
/// drain an entry is written only by the shard serving its group, and
/// std::map nodes never move, so a group's pointer to its entry stays
/// valid.
using PlanStore = std::map<const ConditionEntry *, std::optional<PairPlan>>;

/// The requests of one (family, pair) of a drain, served against one warm
/// pair scope in submission order.
struct PairGroup {
  size_t FamIdx = 0;
  const ConditionEntry *Entry = nullptr;
  std::vector<const ResolvedRequest *> Reqs;
  /// Position of the group's first verdict in the drain's verdicts.
  size_t Offset = 0;
  /// The pair's plan-store entry; null without a store.
  std::optional<PairPlan> *Plan = nullptr;
};

/// Groups \p Pending by family, then by pair, both in first-appearance
/// order — the order one warm session serves a drain in, and the order of
/// its verdicts (each group's Offset follows it). With a \p Store every
/// group is given its pair's entry, created empty for a pair not yet
/// planned. The groups point into \p Pending.
std::vector<PairGroup> groupByPair(const std::vector<ResolvedRequest> &Pending,
                                   PlanStore *Store);

/// Service construction knobs.
struct ServiceConfig {
  bool CompactBridges = true;   ///< Bridge compaction on the warm session.
  bool ReleaseSelectors = true; ///< Fold retired selectors off the trail.
  bool Certify = false;         ///< Hinted proof logging + checking.
  int SeqLenBound = 3;          ///< ArrayList case-split bound.
  int64_t ConflictBudget = 200000; ///< Per-VC CDCL conflict budget.
  size_t CompactMinDead = 64; ///< Dead-entry floor for a compaction pass.
};

/// Cumulative service statistics plus a snapshot of the warm session's
/// solver accounting.
struct ServiceStats {
  uint64_t Requests = 0; ///< Requests served over the service lifetime.
  uint64_t Drains = 0;
  /// Pair scopes opened to serve requests: one per (family, pair) group of
  /// a drain.
  uint64_t PairGroups = 0;
  /// Requests served against a pair scope another request of the same
  /// drain already opened, so Requests = PairGroups + BatchedReuses.
  uint64_t BatchedReuses = 0;
  uint64_t MethodsDischarged = 0;
  /// Pair plans built over the service lifetime (not carried by
  /// snapshots): one per group served without a plan, or into an empty
  /// plan-store entry.
  uint64_t PlansBuilt = 0;
  /// Wall time spent building those plans (SymbolicEngine::planPair
  /// inside serve(), on the serving thread; not carried by snapshots).
  /// The catalog plan the shards share is not in it.
  double PairPlanMillis = 0;
  /// Wall time spent retiring pair scopes, bridge compaction included,
  /// timed once per group inside serve() (not carried by snapshots).
  double RetireMillis = 0;
  double ServeMillis = 0; ///< Wall time spent inside serve().
  CatalogSessionStats Session;
};

/// The warm verification service. Not thread-safe: one service, one
/// caller — the thread ShardedVerifyService drains this shard on, or one
/// of semcommute-verify's shard tasks (tools/DriverCore.cpp), which builds,
/// drains and destroys its service on one pool worker.
class VerifyService {
public:
  /// \p Fams must be a subset of \p C's families and outlive the service;
  /// the catalog (and its factory) must outlive it too. A non-null
  /// \p SharedPlan (ShardedVerifyService's shards) replaces the
  /// per-service planCatalog pass: it must be the plan for exactly this
  /// \p C / \p Fams and outlive the service.
  VerifyService(const Catalog &C, const std::vector<const Family *> &Fams,
                const ServiceConfig &Cfg,
                const CatalogPlan *SharedPlan = nullptr);
  VerifyService(const VerifyService &) = delete;
  VerifyService &operator=(const VerifyService &) = delete;

  /// The catalog plan this service serves from (shared across shards).
  const CatalogPlan &plan() const { return *Plan; }

  /// Looks up \p R's family and catalog entry. Returns false — with
  /// \p Error set — when the family is not served or the pair has no
  /// catalog entry.
  bool resolve(const ServiceRequest &R, ResolvedRequest &Out,
               std::string &Error) const;

  /// Queues one request (rejected as resolve() rejects it).
  bool submit(const ServiceRequest &R, std::string &Error);

  /// Serves every pending request and returns their verdicts in the order
  /// served: groupByPair's order. A non-null \p Methods receives two
  /// method results per returned verdict, in verdict order: soundness,
  /// then completeness (what a driver job row needs: VCs, conflicts, proof
  /// core, certificate query numbers, wall time).
  std::vector<ServiceVerdict>
  drain(std::vector<SymbolicResult> *Methods = nullptr);

  /// Serves \p Groups in order — a drain's groups, or the share of them a
  /// front-end placed on this service — writing each group's verdicts to
  /// \p Out from the group's Offset on (and, with \p Methods, its method
  /// results from twice its Offset on). Counts a drain when \p Groups is
  /// non-empty and returns the wall time spent, which ServeMillis adds up.
  double serve(const std::vector<const PairGroup *> &Groups,
               ServiceVerdict *Out, SymbolicResult *Methods = nullptr);

  size_t pending() const { return Pending.size(); }
  const ServiceConfig &config() const { return Cfg; }
  ServiceStats stats() const;

  /// The warm session's solver, exposed so callers can assert invariants
  /// (reasonInvariantHolds) after compacting drains.
  SmtSession &session() { return Sess->session(); }

  /// Restarts the per-pass peak counters (live vars / clauses / bridges)
  /// from the current live counts — called between catalog passes so the
  /// plateau criterion compares per-pass peaks.
  void resetPeakStats() { Sess->resetPeakStats(); }

  bool certifying() const { return Sess->certifying(); }
  /// Checks the warm session's proof trace (idempotent; meaningful only
  /// when Cfg.Certify).
  const proof::CertifySummary &finishCertification() {
    return Sess->finishCertification();
  }

  /// Serializes the shard image: config, family set and cumulative
  /// counters. It carries no verdicts: the request count is derived from
  /// the front-end's log when the image is restored.
  json::Value snapshot() const;
  /// A snapshot() image readSnapshot() accepted, plus the request count
  /// the front-end derived for it: what install() loads.
  struct SnapshotImage {
    uint64_t Requests = 0;
    uint64_t Drains = 0;
    uint64_t PairGroups = 0;
    uint64_t BatchedReuses = 0;
    uint64_t MethodsDischarged = 0;
    double ServeMillis = 0;
  };
  /// Parses and checks \p V against this service without changing it.
  /// The config block must hold every key snapshot() writes, each of the
  /// type it writes, and its batch, seq_len_bound and conflict_budget must
  /// equal this service's (batch is always true: images of the deleted
  /// FIFO discipline are refused by it; the other two shape the verdicts).
  /// The family set must match, and every counter must be well formed.
  /// Errors name the field. A "log" key (older writers kept one per shard)
  /// is ignored; Out.Requests is left for the caller.
  bool readSnapshot(const json::Value &V, SnapshotImage &Out,
                    std::string &Error) const;
  /// Installs an accepted image; the service must not have served yet.
  void install(const SnapshotImage &Img);
  /// Reads snapshot log row \p Index into \p Out. The row must be an
  /// object with string family/op1/op2/kind and boolean sound/complete,
  /// naming a family this service serves and a pair its catalog has;
  /// otherwise returns false with \p Error naming the row and the field.
  bool readLogRow(const json::Value &Row, size_t Index, ServiceVerdict &Out,
                  std::string &Error) const;

private:
  /// The config block snapshot() writes, and readSnapshot()'s check of a
  /// snapshot's block against it.
  json::Value configJson() const;
  bool checkSnapshotConfig(const json::Value &V, std::string &Error) const;
  /// Serves one group against one warm pair scope (building the pair's
  /// plan first when it has none) and retires the scope.
  void serveGroup(const PairGroup &G, ServiceVerdict *Out,
                  SymbolicResult *Methods);
  /// Discharges \p RR's two testing methods out of \p PP against the warm
  /// pair scope, counts the request and writes its verdict to \p Out and,
  /// to a non-null \p Methods, its two method results.
  void serveOne(const ResolvedRequest &RR, const PairPlan &PP,
                ServiceVerdict &Out, SymbolicResult *Methods);

  const Catalog &C;
  std::vector<const Family *> Fams;
  ServiceConfig Cfg;
  SymbolicEngine Eng;
  /// Owned plan for standalone services; null when a shard serves from
  /// the front-end's shared plan.
  std::unique_ptr<CatalogPlan> OwnedPlan;
  const CatalogPlan *Plan; ///< Pairs unmaterialized; must outlive Sess.
  std::unique_ptr<CatalogSession> Sess;
  std::map<std::string, size_t> FamIdxByName;

  std::vector<ResolvedRequest> Pending;
  uint64_t Requests = 0;
  uint64_t Drains = 0;
  uint64_t PairGroups = 0;
  uint64_t BatchedReuses = 0;
  uint64_t MethodsDischarged = 0;
  uint64_t PlansBuilt = 0;
  double PairPlanMillis = 0;
  double RetireMillis = 0;
  double ServeMillis = 0;
};

/// Round-trip helpers for ConditionKind in request/snapshot JSON
/// ("before" / "between" / "after"; parse returns false on anything else).
const char *serviceKindName(ConditionKind K);
bool parseServiceKind(const std::string &Name, ConditionKind &K);

/// Snapshot helpers shared by the front-end and its shards: one verdict-log
/// row, and the checked readers of a snapshot's counters (non-negative integers) and
/// of its serve_millis (a non-negative number). The readers return false
/// with \p Error naming the field.
json::Value snapshotLogRow(const ServiceVerdict &V);
bool readSnapshotCounter(const json::Value &V, const char *Key,
                         uint64_t &Out, std::string &Error);
bool readSnapshotMillis(const json::Value &V, double &Out,
                        std::string &Error);

} // namespace service
} // namespace semcomm

#endif // SEMCOMM_SERVICE_VERIFYSERVICE_H
