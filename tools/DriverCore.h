//===- tools/DriverCore.h - Full-catalog verification driver ----*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind the semcommute-verify CLI: enumerates the complete
/// commutativity-condition catalog (every ordered pair x before/between/
/// after x soundness/completeness) and the inverse catalog (Table 5.10),
/// dispatches the independent verification jobs across a work-stealing
/// ThreadPool, and aggregates per-family timings plus a JSON report.
///
/// Symbolic commutativity jobs run warm (SolveMode::SharedCatalog) on
/// service::VerifyService shards over one shared catalog plan: at T
/// threads, K = min(T, selected pairs) shards, where shard k serves
/// entries k, k + K, k + 2K, ... of every family in catalog order — a
/// single whole-catalog shard at one thread. Each shard is one pool task
/// from construction to destruction: it drains its entries once, checks
/// its own proof trace, and fills its job rows and its catalog_stats row.
/// SolveMode::OneShot runs every job as its own cold reference oracle
/// instead. The job list, the result order and the shard layout are fully
/// determined by the options — never by thread scheduling — so verdicts
/// and per-job VC counts are identical at every thread count, and every
/// other statistic repeats exactly at a fixed thread count (DriverTest
/// pins both down).
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_TOOLS_DRIVERCORE_H
#define SEMCOMM_TOOLS_DRIVERCORE_H

#include "commute/Condition.h"
#include "commute/SessionPool.h"
#include "support/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace semcomm {
namespace driver {

/// Which verification engine(s) discharge the catalog jobs. Both the
/// commutativity catalog and the inverse catalog (Table 5.10) run on the
/// selected engine(s); "both" cross-checks them against each other.
enum class EngineKind : uint8_t { Exhaustive, Symbolic, Both };

const char *engineKindName(EngineKind E);

/// What to verify and how wide to fan out.
struct DriverOptions {
  /// Family names to include; empty means all four.
  std::vector<std::string> Families;
  /// Worker threads for the verification fan-out.
  unsigned Threads = 1;
  /// Include the commutativity-condition catalog.
  bool Commutativity = true;
  /// Include the inverse-operation catalog (Table 5.10).
  bool Inverses = true;
  /// Engine selection for the catalog jobs.
  EngineKind Engine = EngineKind::Exhaustive;
  /// Enumeration bounds handed to the exhaustive engine.
  Scope Bounds;
  /// ArrayList case-split bound handed to the symbolic engine.
  int SymbolicSeqLenBound = 3;
  /// Per-VC CDCL conflict budget for the symbolic engine.
  int64_t SymbolicConflictBudget = 200000;
  /// Session strategy for the symbolic engine: shared-catalog (default;
  /// one warm VerifyService shard for the whole catalog at one thread,
  /// one per K-th entry of every family at more threads; selector-tree
  /// scopes with pair retirement and variable recycling) or the oneshot
  /// reference oracle.
  SolveMode SymbolicMode = SolveMode::SharedCatalog;
  /// Certified verdicts (--certify): symbolic sessions log DRAT-style
  /// proof traces, the independent RUP checker replays each trace
  /// in-process when its session closes, and every job row records
  /// proof_queries / proof_clauses / proof_checked. Symbolic engine only
  /// (the CLI rejects --certify with --engine exhaustive).
  bool Certify = false;
};

/// One verification job and (after running) its outcome. Category is
/// "commutativity" (Op1/Op2/Kind/Role set) or "inverse" (Op1 = forward
/// operation, the rest empty).
struct JobRecord {
  std::string Family;
  std::string Category;
  std::string Engine; ///< "exhaustive" or "symbolic".
  std::string Op1, Op2;
  std::string Kind;
  std::string Role;
  bool Verified = false;
  uint64_t Scenarios = 0;
  double Millis = 0;
  // Solver statistics (symbolic jobs; zero on the exhaustive path).
  uint64_t Vcs = 0;             ///< VC instances discharged.
  int64_t Conflicts = 0;        ///< Total CDCL conflicts.
  int64_t MaxVcConflicts = 0;   ///< Largest single-VC conflict count.
  uint64_t RetainedClauses = 0; ///< Warm-session clauses reused across VCs.
  uint64_t DbReductions = 0;    ///< Clause-GC runs during the job.
  uint64_t ReclaimedClauses = 0; ///< Clauses the GC reclaimed.
  /// Semicolon-joined labels of the assumptions the proofs actually used
  /// (unsat cores: selector/split literals) — the raw material of
  /// §5.2.1-style hint minimization.
  std::string ProofCore;
  /// Certification fields (zero/false unless the run certified): Unsat
  /// verdicts of this job that carried certificates, the certifying
  /// session's checker-database high-water mark, and whether the
  /// independent checker confirmed every one of this job's certificates.
  uint64_t ProofQueries = 0;
  uint64_t ProofClauses = 0;
  bool ProofChecked = false;
  std::string Note; ///< Counterexample or failure note when !Verified.

  /// Stable identity of the job (everything except the outcome).
  std::string key() const {
    return Family + "/" + Category + "/" + Engine + "/" + Op1 + "/" + Op2 +
           "/" + Kind + "/" + Role;
  }
};

/// Per-family aggregation for the timing table.
struct FamilySummary {
  std::string Family;
  unsigned Jobs = 0;
  unsigned Failures = 0;
  /// Conditions counted the paper's way: per implementing structure
  /// (sums to 765 across the four families).
  unsigned PaperConditions = 0;
  /// Sum of per-job times (approximates CPU time across workers).
  double JobMillis = 0;
  uint64_t Scenarios = 0;
  /// Symbolic-path aggregates (zero in exhaustive-only runs). Conflicts,
  /// reductions, and reclaim counts are sums; RetainedClauses is the peak
  /// across the family's jobs — the number clause-DB reduction is meant to
  /// bound.
  uint64_t Vcs = 0;
  int64_t Conflicts = 0;
  uint64_t RetainedClauses = 0;
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
};

/// Reuse, retirement, and recycling statistics of one shard's catalog
/// session (symbolic commutativity jobs under SolveMode::SharedCatalog;
/// one row per shard — a single row at one thread).
struct CatalogStats {
  /// Comma-joined families this shard served (those of which it holds at
  /// least one entry).
  std::string FamilyNames;
  unsigned Families = 0;
  unsigned Pairs = 0;
  unsigned Methods = 0;
  uint64_t Vcs = 0;
  uint64_t Checks = 0;
  int64_t Conflicts = 0;
  /// Prefix amortization across the catalog + family + pair levels.
  uint64_t PrefixAsserts = 0;
  uint64_t PrefixReuses = 0;
  uint64_t PairEvictions = 0; ///< Pair scopes retired.
  uint64_t EvictedClauses = 0;
  /// Variable recycling: indices reclaimed by scope retirements, the
  /// live-variable and clause high-water marks, and the cumulative
  /// variable demand (the allocation a no-recycling run would need).
  uint64_t RecycledVars = 0;
  uint64_t PeakLiveVars = 0;
  uint64_t PeakLiveClauses = 0;
  uint64_t VarRequests = 0;
  uint64_t PeakRetainedClauses = 0;
  double Millis = 0;
};

/// Everything a run produces; serializes to/from the JSON report.
struct Report {
  unsigned Threads = 1;
  double WallMillis = 0;
  bool Certified = false; ///< The run logged + checked proof traces.
  Scope Bounds;
  std::vector<FamilySummary> Families;
  std::vector<JobRecord> Results;
  /// Per-shard catalog-session stats (symbolic SolveMode::SharedCatalog
  /// runs only).
  std::vector<CatalogStats> CatalogSessions;
  /// Non-empty when the run never started (e.g. unknown family name); a
  /// report with an Error has no results and counts as failed.
  std::string Error;

  unsigned failures() const;

  json::Value toJson() const;
  static std::optional<Report> fromJson(const json::Value &V);

  /// True when \p O ran the same job list and reached the same verdicts
  /// and scenario counts (both are functions of the options alone; only
  /// timings are allowed to differ).
  bool sameVerdicts(const Report &O) const;
};

/// Resolves \p Names ("all" or family names, case-sensitive) to family
/// pointers in the paper's presentation order. Unknown names yield an empty
/// vector and set \p Error.
std::vector<const Family *>
resolveFamilies(const std::vector<std::string> &Names, std::string &Error);

/// The full deterministic job list for \p Opts, outcomes not yet computed.
std::vector<JobRecord> enumerateJobs(const Catalog &C,
                                     const DriverOptions &Opts);

/// Runs every job of enumerateJobs(C, Opts) across Opts.Threads workers and
/// aggregates the report. The catalog (and the families) must already be
/// fully built. Exhaustive jobs never touch the ExprFactory; symbolic jobs
/// intern new expressions concurrently through the catalog's factory, which
/// is safe because ExprFactory interning is thread-safe (lock-free lookups,
/// locked inserts).
Report runFullCatalog(const Catalog &C, const DriverOptions &Opts);

/// Human-readable per-family timing table plus the overall verdict line.
std::string renderSummary(const Report &R);

} // namespace driver
} // namespace semcomm

#endif // SEMCOMM_TOOLS_DRIVERCORE_H
