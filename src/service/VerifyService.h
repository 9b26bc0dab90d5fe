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
///
/// Serving discipline:
///
///  * Plan store: a pair's six-method discharge plan is a pure function of
///    the catalog, so the service builds it on the pair's first request
///    and keeps it for its lifetime (planOf). Both disciplines below serve
///    from the store; the store is bounded by the served pairs of the
///    catalog (PlansBuilt in the stats).
///
///  * Prefix batching (the default): pending requests are grouped by
///    family, then by op-pair, in first-appearance order. A pair's scope
///    is opened once per group, every request of the group discharged
///    against the warm pair scope, and the scope retired when the group
///    completes — so N same-pair requests pay one prefix-assertion and
///    one retirement instead of N. The FIFO baseline (Batch = false)
///    serves arrival order, opening and retiring the pair scope per
///    request; the requests/sec delta between the two is the number the
///    bench harness reports.
///
///  * Long-horizon compaction: with CompactBridges (the default) the
///    session reference-counts theory atoms by the scopes that mention
///    them and compacts dead bridges out of the clause database; with
///    ReleaseSelectors retired scopes' epoch-interned selector variables
///    are folded off the trail and recycled. Together they make the
///    service loop unbounded: live clauses, live variables, and live
///    bridges plateau after the first full catalog pass instead of
///    growing with the request count.
///
///  * Snapshot / reload: snapshot() serializes the service image (config,
///    cumulative statistics, the verdict log) to JSON; restore() loads it
///    into a freshly constructed service. The warm solver state itself is
///    deliberately not serialized (nor is the plan store) — both are
///    deterministic functions of the catalog, so a reloaded service
///    re-warms lazily as requests arrive while its counters and log
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

/// Service construction knobs.
struct ServiceConfig {
  bool Batch = true;            ///< Prefix-batched drains (vs. FIFO).
  bool CompactBridges = true;   ///< Bridge compaction on the warm session.
  bool ReleaseSelectors = true; ///< Fold retired selectors off the trail.
  bool Certify = false;         ///< DRAT proof logging + RUP checking.
  int SeqLenBound = 3;          ///< ArrayList case-split bound.
  int64_t ConflictBudget = 200000; ///< Per-VC CDCL conflict budget.
  size_t CompactMinDead = 64; ///< Dead-entry floor for a compaction pass.
};

/// Cumulative service statistics plus a snapshot of the warm session's
/// solver accounting.
struct ServiceStats {
  uint64_t Requests = 0; ///< Requests served over the service lifetime.
  uint64_t Drains = 0;
  /// Pair scopes opened to serve requests. Under batching this counts
  /// groups; under FIFO it equals Requests — the gap is the work prefix
  /// batching saved.
  uint64_t PairGroups = 0;
  /// Requests served against a pair scope another request of the same
  /// drain already opened (zero under FIFO).
  uint64_t BatchedReuses = 0;
  uint64_t MethodsDischarged = 0;
  /// Pair plans built over the service lifetime: one per distinct pair
  /// served, however many drains repeat it (not carried by snapshots).
  uint64_t PlansBuilt = 0;
  double ServeMillis = 0; ///< Wall time spent inside drain().
  CatalogSessionStats Session;
};

/// The warm verification service. Not thread-safe: one service, one
/// caller (the request loop of tools/ServeMain.cpp).
class VerifyService {
public:
  /// \p Fams must be a subset of \p C's families and outlive the service;
  /// the catalog (and its factory) must outlive it too.
  VerifyService(const Catalog &C, const std::vector<const Family *> &Fams,
                const ServiceConfig &Cfg)
      : VerifyService(C, Fams, Cfg, nullptr, nullptr) {}
  /// Shard constructor (ShardedVerifyService): a non-null \p SharedPlan
  /// replaces the per-service planCatalog pass (it must be the plan for
  /// exactly this \p C / \p Fams and outlive the service), and a non-null
  /// \p Prefix makes the warm session *load* the pre-encoded catalog
  /// prefix instead of re-encoding it.
  VerifyService(const Catalog &C, const std::vector<const Family *> &Fams,
                const ServiceConfig &Cfg, const CatalogPlan *SharedPlan,
                const PrefixImage *Prefix);
  VerifyService(const VerifyService &) = delete;
  VerifyService &operator=(const VerifyService &) = delete;

  /// Captures the warm session's catalog-common prefix for sibling shards
  /// (legal only before the first drain; see SmtSession::exportPrefix).
  PrefixImage exportPrefix() { return Sess->exportPrefix(); }
  /// The catalog plan this service serves from (shared across shards).
  const CatalogPlan &plan() const { return *Plan; }

  /// Queues one request. Returns false — with \p Error set — when the
  /// family is not served or the pair has no catalog entry.
  bool submit(const ServiceRequest &R, std::string &Error);

  /// Serves every pending request and returns their verdicts in the order
  /// served (grouped under batching, arrival order under FIFO). The
  /// verdicts are also appended to log().
  std::vector<ServiceVerdict> drain();

  size_t pending() const { return Pending.size(); }
  const std::vector<ServiceVerdict> &log() const { return VerdictLog; }
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

  /// Serializes the service image: config, cumulative statistics, and the
  /// verdict log.
  json::Value snapshot() const;
  /// Restores counters and the verdict log from a snapshot() into a fresh
  /// service: readSnapshot(), then install(). The warm solver re-warms
  /// lazily.
  bool restore(const json::Value &V, std::string &Error);
  /// A snapshot() image readSnapshot() accepted: what restore() installs.
  struct SnapshotImage {
    std::vector<ServiceVerdict> Log;
    uint64_t Drains = 0;
    uint64_t PairGroups = 0;
    uint64_t BatchedReuses = 0;
    uint64_t MethodsDischarged = 0;
    double ServeMillis = 0;
  };
  /// Parses and checks \p V against this service without changing it.
  /// The config block must hold every key snapshot() writes, each of the
  /// type it writes, and its batch, seq_len_bound and conflict_budget must
  /// equal this service's (batching shapes the counters, the other two
  /// the verdicts). The family set must match, and every counter and log
  /// row must be well formed. Errors name the field, and the row.
  bool readSnapshot(const json::Value &V, SnapshotImage &Out,
                    std::string &Error) const;
  /// Installs an accepted image; the service must not have served yet.
  void install(SnapshotImage Img);
  /// Reads snapshot log row \p Index into \p Out. The row must be an
  /// object with string family/op1/op2/kind and boolean sound/complete,
  /// naming a family this service serves and a pair its catalog has;
  /// otherwise returns false with \p Error naming the row and the field.
  bool readLogRow(const json::Value &Row, size_t Index, ServiceVerdict &Out,
                  std::string &Error) const;

private:
  struct ResolvedRequest {
    ServiceRequest Req;
    size_t FamIdx = 0;             ///< Index into Fams / the catalog plan.
    const ConditionEntry *Entry = nullptr;
  };

  /// The config block snapshot() writes, and readSnapshot()'s check of a
  /// snapshot's block against it.
  json::Value configJson() const;
  bool checkSnapshotConfig(const json::Value &V, std::string &Error) const;
  /// Looks up \p R's family and catalog entry (the submit() checks).
  bool resolve(const ServiceRequest &R, ResolvedRequest &Out,
               std::string &Error) const;
  /// The stored plan of \p Entry's pair, built on its first request.
  const PairPlan &planOf(const ConditionEntry *Entry);
  /// Discharges \p RR's two testing methods out of \p PP against the warm
  /// pair scope and appends the verdict.
  void serveOne(const ResolvedRequest &RR, const PairPlan &PP,
                std::vector<ServiceVerdict> &Out);

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
  /// Every pair plan built so far; entries are never evicted (references
  /// handed out by planOf stay valid).
  std::map<const ConditionEntry *, PairPlan> Plans;

  std::vector<ResolvedRequest> Pending;
  std::vector<ServiceVerdict> VerdictLog;
  uint64_t Drains = 0;
  uint64_t PairGroups = 0;
  uint64_t BatchedReuses = 0;
  uint64_t MethodsDischarged = 0;
  uint64_t PlansBuilt = 0;
  double ServeMillis = 0;
};

/// Round-trip helpers for ConditionKind in request/snapshot JSON
/// ("before" / "between" / "after"; parse returns false on anything else).
const char *serviceKindName(ConditionKind K);
bool parseServiceKind(const std::string &Name, ConditionKind &K);

/// Snapshot helpers shared by both services: one verdict-log row, and the
/// checked readers of a snapshot's counters (non-negative integers) and
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
