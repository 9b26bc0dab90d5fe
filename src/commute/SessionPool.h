//===- commute/SessionPool.h - Catalog and one-shot solver sessions -*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discharge layer between the symbolic engines and the smt/ stack.
///
/// The six testing methods of one (family, op-pair) — before/between/after
/// x soundness/completeness (Fig. 2-2) — share almost their entire
/// symbolic-execution prefix. A MethodPlan captures one method's VCs in
/// three layers:
///
///  * Common:  the pair-shared prefix (argument/element well-formedness),
///             identical across the pair's methods;
///  * Scoped:  the method's own prefix (for the single-VC families, the
///             whole VC body), asserted under a per-method *selector
///             literal* so several methods can coexist in one clause
///             database without contaminating each other;
///  * Splits:  the VC instances (one per ArrayList case split), each a
///             set of labeled assumption formulas.
///
/// Plans are discharged in one of two ways (SolveMode):
///
///  * SharedCatalog (default): one warm CatalogSession. Scopes form a
///    selector tree — catalog-common prefix at the root, family scopes
///    beneath, pair scopes beneath those, method scopes innermost — and
///    each finished pair is retired as a subtree, so the clause database
///    and the variable array stay bounded by the live pair while Tseitin
///    definitions, bridges and learned clauses are shared.
///  * OneShot: a fresh session per split, sharing nothing. Kept as the
///    cold reference oracle the warm path is cross-checked against.
///
/// After an Unsat check, the solver's assumption core is mapped back to the
/// labels of the assumptions it names (selector / split / hint literals),
/// so a verified method records which assumption subset its proof actually
/// needed — the first step toward §5.2.1-style ProofHints minimization.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_COMMUTE_SESSIONPOOL_H
#define SEMCOMM_COMMUTE_SESSIONPOOL_H

#include "smt/SmtSolver.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace semcomm {

/// How the engine discharges the VCs of testing methods.
enum class SolveMode : uint8_t {
  /// A fresh solver session per VC: cold start every split, nothing shared.
  /// The reference oracle for the warm path.
  OneShot,
  /// One warm CatalogSession: selector-tree scopes with pair-subtree
  /// retirement and variable recycling (see CatalogSession). The default.
  SharedCatalog,
};

const char *solveModeName(SolveMode M);

/// Outcome of symbolically verifying one testing method.
struct SymbolicResult {
  bool Verified = false;
  /// When not verified: whether the solver produced a (possibly spurious)
  /// countermodel or ran out of budget.
  SatResult LastOutcome = SatResult::Unknown;
  uint64_t NumVcs = 0;        ///< VC instances discharged (ArrayList splits).
  int64_t SatConflicts = 0;   ///< Total CDCL conflicts.
  int64_t MaxVcConflicts = 0; ///< Largest single-split conflict count.
  /// Clauses alive in the warm session after the method's last split
  /// (Tseitin definitions + bridges + learned); 0 in one-shot mode, where
  /// nothing is carried over.
  uint64_t RetainedClauses = 0;
  /// Clause-database GC activity attributable to this method's discharge.
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
  /// Union, over all Unsat splits, of the labels of the assumptions the
  /// proofs actually needed (selector / split literals; insertion order,
  /// deduplicated). Empty when every refutation followed from the base
  /// alone.
  std::vector<std::string> CoreLabels;
  std::string Countermodel; ///< Diagnostic atoms of a failed proof.

  /// Certification (populated only when the session certifies): the Query
  /// numbers of this method's Unsat verdicts, in discharge order — the
  /// keys its certificates have in the session's CertifySummary.
  std::vector<uint32_t> ProofQueryIds;
  /// Certified query count (== ProofQueryIds.size(); kept separately so
  /// the driver's JSON row needs no recount).
  uint64_t ProofQueries = 0;
  /// Checker database high-water mark of the certifying session (a
  /// session-level number, duplicated per method for per-job reporting).
  uint64_t ProofClauses = 0;
  /// True when the independent checker verified every one of this
  /// method's Unsat verdicts. Engines backfill it after the session's
  /// finishCertification(); false when not certifying.
  bool ProofChecked = false;
  /// Wall time CatalogSession::discharge spent on this method (zero on the
  /// one-shot path, whose callers time the whole job).
  double Millis = 0;
};

/// Stamps a certifying session's checked trace onto one method result:
/// the checker's database high-water mark, and whether every one of the
/// method's own Unsat-query numbers was checked and passed (a fatal trace
/// error voids everything — the trace itself could not be replayed).
void stampCertification(const proof::CertifySummary &S, SymbolicResult &R);

/// One labeled assumption formula (the label names it in unsat cores).
struct TaggedAssumption {
  ExprRef E = nullptr;
  std::string Label;
};

/// One VC instance of a testing method.
struct VcSplit {
  std::vector<TaggedAssumption> Assumed;
  /// Diagnostic prefix for failures, e.g. "n=2 i1=0 i2=1"; empty for the
  /// single-VC families.
  std::string Label;
};

/// The symbolic-discharge plan of one testing method.
struct MethodPlan {
  /// Paper-style method name; also names the selector literal.
  std::string Name;
  /// Pair-common prefix: asserted once per pair scope (deduplicated
  /// across the plans discharged through it).
  std::vector<ExprRef> Common;
  /// Method-own prefix: asserted under the method's selector literal in a
  /// catalog session, as plain base in one-shot mode.
  std::vector<TaggedAssumption> Scoped;
  /// The VC instances, discharged in order; discharge stops at the first
  /// failure.
  std::vector<VcSplit> Splits;
  /// True when the plan builder met an atom shape outside the bounded
  /// lowering's fragment; the method then reports unverified after its
  /// (truncated) splits run.
  bool Unsupported = false;
  std::string UnsupportedNote;
  /// Expression nodes the method asserts, counted by the plan builder as
  /// it assembles the plan: per split, the distinct nodes of the VC's
  /// agreement goal and condition (and attached hint lemmas), summed over
  /// the splits. A deterministic estimate of the method's discharge cost
  /// (the sharded service places pair groups by it).
  uint64_t Nodes = 0;
};

/// Discharges every split of \p Plan in a fresh session per split (the
/// OneShot oracle), accumulating statistics into \p R. \p GcBudget is the
/// clause-GC first limit (0 keeps the solver default). With \p Certify each
/// split's session logs and checks its own proof, and R's ProofClauses /
/// ProofChecked are filled in. Returns true when the method verifies.
bool dischargeOneShot(ExprFactory &F, const MethodPlan &Plan, int64_t Budget,
                      int64_t GcBudget, bool Certify, SymbolicResult &R);

/// Discharges \p Plan in a session of its own: one-shot in OneShot mode,
/// otherwise a catalog session holding just this method (family scope
/// \p Family, pair scope \p Pair). Certification fields of \p R are filled
/// in when \p Certify. Returns true when the method verifies.
bool dischargeAlone(ExprFactory &F, const MethodPlan &Plan, SolveMode Mode,
                    const std::string &Family, const std::string &Pair,
                    int64_t Budget, int64_t GcBudget, bool Certify,
                    SymbolicResult &R);

/// The discharge plans of one (family, op-pair): the six testing methods
/// in (kind x role) enumeration order.
struct PairPlan {
  std::string Key; ///< "op1,op2" — names the pair's scope in its family.
  std::vector<MethodPlan> Methods;
};

/// One family of a catalog plan: its name and its family-common prefix —
/// the well-formedness formulas present in every method plan's Common
/// prefix across the family, asserted once under the family's selector.
/// Pair plans are materialized lazily, just before their discharge.
struct FamilyPlan {
  std::string FamilyName;
  std::vector<ExprRef> FamilyCommon;
};

/// The whole-catalog discharge plan a CatalogSession runs. Families carry
/// their common prefix; the catalog-common prefix is the subset of
/// well-formedness formulas every entry either asserts itself or provably
/// cannot mention (its variables are outside the entry's vocabulary),
/// hoisted to the session root.
struct CatalogPlan {
  std::vector<ExprRef> CatalogCommon;
  std::vector<FamilyPlan> Families;
};

/// The counters of one catalog session: the session's only statistics
/// record, which CatalogSession::stats() returns. The session counts its
/// scopes, prefix assertions and evictions into it as it goes; stats()
/// adds the solver's totals and its variable, clause and bridge
/// accounting. Every layer above reads these numbers from here: the
/// service's ServiceStats, the driver's catalog_stats rows and
/// SymbolicEngine::verifyCatalog's CatalogOutcome.
struct CatalogSessionStats {
  /// Solver totals: SMT checks served, CDCL conflicts, clause-DB
  /// reductions and the clauses they reclaimed.
  uint64_t Checks = 0;
  int64_t Conflicts = 0;
  uint64_t DbReductions = 0;
  uint64_t ReclaimedClauses = 0;
  /// Family scopes opened; each stays open to the end of the session.
  uint64_t FamiliesOpened = 0;
  uint64_t PairsOpened = 0;
  uint64_t PairsRetired = 0;
  /// Common-prefix assertions issued at the catalog, family and pair
  /// level, and those skipped because the formula was already in an outer
  /// base or the pair scope.
  uint64_t PrefixAsserts = 0;
  uint64_t PrefixReuses = 0;
  uint64_t EvictedClauses = 0; ///< Clauses pair retirements removed.
  /// High-water mark of retained clauses across every check: the number
  /// pair eviction bounds (by the live pair, not by the family).
  uint64_t PeakRetainedClauses = 0;
  /// Variable recycling: indices reclaimed by scope retirements, the
  /// live-variable and clause high-water marks, and the cumulative
  /// variable demand (the allocation a no-recycling run would need).
  uint64_t RecycledVars = 0;
  uint64_t PeakLiveVars = 0;
  uint64_t PeakLiveClauses = 0;
  uint64_t VarRequests = 0;
  /// Bridge-compaction accounting (all zero unless the session was built
  /// with CompactBridges): compaction passes run, theory-atom variables
  /// released back to the recycler, retired-scope selector variables
  /// released (epoch-interned selectors fold instead of pinning the trail
  /// forever), and the live/peak bridge-instance counts the compactor
  /// bounds.
  uint64_t BridgeCompactions = 0;
  uint64_t ReleasedAtomVars = 0;
  uint64_t ReleasedSelectors = 0;
  uint64_t LiveBridges = 0;
  uint64_t PeakLiveBridges = 0;
};

/// A warm solver session shared by every family of the catalog
/// (SolveMode::SharedCatalog). The catalog-common prefix is session base;
/// each family's remaining common prefix lives under a per-family
/// selector, whose scope opens on the family's first discharge and stays
/// open to the end of the session; pair scopes nest under their family's,
/// method scopes under their pair's. retirePair() retires a pair's whole
/// subtree, and the solver recycles the retired scopes' definition
/// variables, so the session's memory is bounded by the live pair (plus
/// the few family-common formulas) — not by catalog size — while the atom
/// table and bridge lattice are derived once for all families. Pair scopes
/// own a Tseitin cache layer (their formulas' definition variables retire
/// and recycle with them); method scopes share their pair's layer, since
/// they only ever retire together with it. Not thread-safe: one
/// CatalogSession lives on one worker.
class CatalogSession {
public:
  /// Asserts \p Plan's catalog-common prefix as session base. The plan
  /// must outlive the session (pair plans are materialized by the caller
  /// just before discharge). \p Certify turns on proof logging before any
  /// assertion reaches the solver.
  /// \p CompactBridges turns on the session's bridge compactor (theory
  /// atoms are reference-counted by live scope; once every owner retires,
  /// the bridge clauses over them are compacted out and their variables
  /// recycled) — the long-horizon mode the verification service runs in.
  /// \p CompactMinDead is the dead-entry threshold below which a
  /// retirement never triggers a compaction pass. Sessions sharing one
  /// plan (the sharded service's shards) each assert the catalog-common
  /// prefix themselves: on the full catalog that is seven formulas, a
  /// small fraction of the planCatalog pass the plan comes from.
  CatalogSession(ExprFactory &F, const CatalogPlan &Plan, int64_t Budget,
                 bool Certify = false, bool CompactBridges = false,
                 size_t CompactMinDead = 64);
  CatalogSession(const CatalogSession &) = delete;
  CatalogSession &operator=(const CatalogSession &) = delete;

  /// Sets the live-learned-clause count at which the solver's first
  /// clause-DB reduction fires (benches sweep it; tests force aggressive
  /// reduction); 0 keeps the solver default.
  void configureClauseGc(int64_t FirstLimit);

  /// Discharges every split of \p Plan under family \p FamIdx (an index
  /// into the catalog plan's Families) and pair \p PairKey. Opens the
  /// family scope — asserting its remaining common prefix — on first use;
  /// a retired pair transparently re-opens under a fresh epoch-named
  /// selector. Within a pair, a method's selector is keyed by its name
  /// *and* its prefix: a repeated name with a different prefix gets a
  /// fresh selector instead of being proved against the old one. Stamps
  /// R.Millis with the call's wall time. Returns true when the method
  /// verifies.
  bool discharge(size_t FamIdx, const std::string &PairKey,
                 const MethodPlan &Plan, SymbolicResult &R);

  /// Retires one pair's scope subtree (pair selector plus the method
  /// selectors nested under it). Returns the clauses evicted (0 when the
  /// key has no live scope).
  size_t retirePair(size_t FamIdx, const std::string &PairKey);

  /// The session's counters, with the solver's totals and variable,
  /// clause and bridge accounting filled in.
  CatalogSessionStats stats() const;

  uint64_t retainedClauses() const { return Session.retainedClauses(); }
  unsigned numSelectors() const { return SelectorCount; }

  /// The underlying session, exposed so tests can assert solver
  /// invariants (reasonInvariantHolds) after subtree evictions.
  SmtSession &session() { return Session; }

  /// Restarts the solver's live-variable / live-clause / live-bridge
  /// high-water marks from the current live counts. The service calls
  /// this between catalog passes so each pass's peak is measured
  /// independently (the plateau criterion compares per-pass peaks).
  void resetPeakStats() { Session.resetPeakStats(); }

  bool certifying() const { return Session.certifying(); }
  /// Runs the independent checker over the session's trace (idempotent).
  const proof::CertifySummary &finishCertification() {
    return Session.finishCertification();
  }

private:
  /// One registered method selector with the plan fingerprint it was
  /// allocated for (the plan's Common + Scoped formulas; hash-consing
  /// makes pointer equality structural equality).
  struct MethodSelector {
    std::vector<ExprRef> Fingerprint;
    ExprRef Sel = nullptr;
  };

  /// The live scope of one pair.
  struct PairScope {
    SmtSession::ScopeId Scope = SmtSession::RootScope;
    ExprRef Sel = nullptr;
    std::set<ExprRef> AssertedCommon; ///< Dedup under this pair's selector.
    std::map<std::string, std::vector<MethodSelector>> Methods;
  };

  /// The scope of one family; Sel stays null until the family opens.
  struct FamilyTier {
    SmtSession::ScopeId Scope = SmtSession::RootScope;
    ExprRef Sel = nullptr;
    std::set<ExprRef> FamilyBase; ///< Formulas under the family selector.
    std::map<std::string, PairScope> LivePairs;
    /// Fresh-name counters for re-opened (previously retired) pair scopes.
    std::map<std::string, unsigned> PairEpochs;
  };

  FamilyTier &ensureFamily(size_t FamIdx);
  PairScope &ensurePair(size_t FamIdx, const std::string &PairKey);

  ExprFactory &F;
  const CatalogPlan &Plan;
  int64_t Budget;
  SmtSession Session;
  std::set<ExprRef> CatalogBase; ///< CatalogCommon membership (dedup only).
  std::vector<FamilyTier> Tiers; ///< Parallel to Plan.Families.
  unsigned SelectorCount = 0;
  /// The counters the session keeps itself; stats() adds the solver's.
  CatalogSessionStats Stats;
};

} // namespace semcomm

#endif // SEMCOMM_COMMUTE_SESSIONPOOL_H
