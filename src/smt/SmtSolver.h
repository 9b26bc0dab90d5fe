//===- smt/SmtSolver.h - Eager-encoding SMT facade --------------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver the symbolic engine discharges verification conditions with —
/// the role Z3 / CVC3 play under Jahob (§1.4). The interface is Z3-flavored
/// (a context-owned expression factory, assert / check / model), and the
/// implementation is *eager*: theory semantics is compiled into
/// propositional bridge clauses before the CDCL search, UCLID-style:
///
///  * Equality over object terms: symmetry is handled by atom
///    canonicalization; transitivity over every term triple; congruence
///    for the uninterpreted query terms (map lookups, set membership).
///  * Linear integer atoms are canonicalized to `sum-of-symbols <=/= c`
///    form; atoms sharing a symbol part get ordering/exclusivity bridges.
///
/// A bridge instance is one to three plain clauses over the global
/// variables of its atoms, added straight to the SatSolver: no formula is
/// built for it and no Tseitin definition is allocated.
///
/// SmtSession is the *incremental* interface: base formulas are asserted
/// (and Tseitin-encoded, with their bridge clauses) exactly once, and each
/// query is discharged under assumption literals on a warm SatSolver, so
/// Tseitin definitions, bridge clauses, and learned clauses are all
/// retained across the queries of one verification family. Bridges are
/// emitted incrementally: a new theory atom only generates the bridge
/// instances that mention it. The theory registries and bridge emission
/// follow insertion order, and no hashed map or set is iterated in an
/// order that reaches the solver or a report, so a session's behavior is
/// a function of the asserted formula sequence alone — never of pointer
/// values — which keeps multi-threaded driver runs verdict-deterministic.
///
/// Scoped assertions live on a selector *tree* (catalog → family → pair →
/// method paths): each scope is guarded by a boolean selector, asserting
/// into a scope implies the whole selector path, and a scope may own a
/// Tseitin cache layer so its formulas' definition variables are private
/// to its subtree. retireScope() then retires a whole subtree in one
/// solver pass — selectors falsified, guarded and definition clauses
/// evicted, definition variable indices recycled — so both the clause
/// database *and the variable array* stay bounded by the live scope over
/// a catalog-length session. Atom variables and theory bridges stay
/// global: they are the shared lattice the long-lived tiers amortize.
///
/// SmtSolver is the original one-shot facade, now a thin wrapper that runs
/// each check() in a fresh session.
///
/// The encoding is complete for the fragment the symbolic engine emits
/// (see SymbolicEngine.h); on larger fragments it is conservative: check()
/// may report Sat with a spurious model, which the engine treats as a
/// failed proof — never as unsoundness.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SMT_SMTSOLVER_H
#define SEMCOMM_SMT_SMTSOLVER_H

#include "logic/ExprFactory.h"
#include "proof/ProofChecker.h"
#include "smt/SatSolver.h"
#include "smt/SessionAudit.h"
#include "smt/Tseitin.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace semcomm {

namespace detail {
/// Metadata for a canonicalized integer atom variable.
struct IntAtomInfo {
  std::string Signature; ///< Symbol part (canonical).
  bool IsEq = false;     ///< sum = C when true; sum <= C otherwise.
  int64_t C = 0;
};
} // namespace detail

/// An incremental eager SMT session over the logic's expressions: assert
/// base formulas once, then discharge many queries under assumptions
/// against the same warm CDCL solver.
class SmtSession {
public:
  /// A node in the session's selector tree. RootScope is the unguarded
  /// session base; every other scope is guarded by its selector and by
  /// all the selectors on its path to the root.
  using ScopeId = size_t;
  static constexpr ScopeId RootScope = 0;

  explicit SmtSession(ExprFactory &F);
  SmtSession(const SmtSession &) = delete;
  SmtSession &operator=(const SmtSession &) = delete;

  /// Conjoins \p E to the session permanently: it holds in every
  /// subsequent check().
  void assertBase(ExprRef E);

  /// Opens a scope guarded by \p Selector under \p Parent and returns its
  /// id. When \p OwnLayer is set the scope owns a Tseitin cache layer:
  /// definition variables created while asserting or checking in the
  /// scope are private to its subtree and are evicted and *recycled* when
  /// the scope retires (the family/catalog tiers give each pair and
  /// family scope its own layer; method scopes share their pair's, since
  /// they only ever retire together with it).
  ScopeId openScope(ExprRef Selector, ScopeId Parent = RootScope,
                    bool OwnLayer = false);

  /// Asserts `sel_1 -> (sel_2 -> ... -> Body)` over \p Scope's selector
  /// path permanently, attributing \p Body's atoms to the scope and its
  /// encoding to the scope's layer. The guard is emitted as clauses
  /// (Tseitin::assertGuarded): no formula is built for the path, so the
  /// epoch-named selectors leave nothing behind in the factory. A check()
  /// run with the scope's selector among its ActiveScopes reports
  /// countermodels over base + scope + query atoms — other scopes' atoms
  /// stay out of the diagnostics.
  void assertInScope(ScopeId Scope, ExprRef Body);

  /// Permanently retires \p Scope and its entire subtree in one solver
  /// pass: every subtree selector is forced false at root level, the
  /// subtree's guarded clauses, scope-touching learned clauses, and the
  /// definition clauses of its owned Tseitin layers are evicted, and the
  /// owned definition variables are recycled. Once retired, a selector
  /// can never be re-activated; callers that re-verify a retired scope
  /// must open a fresh one. Returns the number of clauses evicted.
  size_t retireScope(ScopeId Scope);

  /// Decides base ∧ ⋀Assumed under a per-call conflict budget (negative =
  /// unlimited). The \p Assumed formulas hold for this call only; their
  /// Tseitin encodings, bridge clauses, and any learned clauses are
  /// retained for future calls. \p ActiveScope (the selector of an open
  /// scope) widens the countermodel vocabulary to that scope's atoms.
  SatResult check(const std::vector<ExprRef> &Assumed,
                  int64_t MaxConflicts = -1, ExprRef ActiveScope = nullptr);

  /// As above, with several active scopes (a family session passes the
  /// pair selector and the method selector together).
  SatResult check(const std::vector<ExprRef> &Assumed, int64_t MaxConflicts,
                  const std::vector<ExprRef> &ActiveScopes);

  /// Runs check()'s encoding pipeline — normalization, bridge emission,
  /// scope-layer routing, Tseitin encoding — without the SAT search. The
  /// `semcommute-lint` replay drives sessions through this to audit the
  /// encoding discipline at static-analysis cost.
  void encodeForAudit(const std::vector<ExprRef> &Assumed,
                      const std::vector<ExprRef> &ActiveScopes);

  /// --- Selector release and lattice statistics -------------------------
  ///
  /// Disables the release of retired subtree selectors (reference runs
  /// for the selector-release fuzz; eviction itself is unaffected).
  /// Selector release folds each retired scope's pinned-false selector off
  /// the trail and recycles its variable whenever the scope's cache layer
  /// dies with the retired subtree — the guarantee that no surviving
  /// clause or cache entry names it. Epoch-tagged selector naming keeps
  /// a released selector expression from ever being encoded again.
  void setSelectorRelease(bool Enabled) { SelectorRelease = Enabled; }
  /// Retired selector variables released off the trail, bridge instances
  /// over the theory registries (a transitivity triple counts three, every
  /// other instance one), and their high-water mark. The registries only
  /// grow: every theory atom a warm catalog session can meet comes from
  /// the catalog's finite, hash-consed vocabulary, so the lattice plateaus
  /// once each pair has been served.
  int64_t releasedSelectors() const { return Sat.numReleasedSelectors(); }
  int64_t liveBridges() const { return LiveBridges; }
  int64_t peakLiveBridges() const { return PeakLiveBridges; }
  /// Restarts the live-var/clause/bridge high-water marks from the
  /// current live counts — the service loop's pass-boundary hook, so the
  /// steady-state plateau is observable per pass.
  void resetPeakStats() {
    Sat.resetPeakStats();
    PeakLiveBridges = LiveBridges;
  }

  /// --- Certification (proof logging + independent checking) -----------
  ///
  /// Turns on hinted proof logging. Must be called before the first
  /// assertion or check: the trace has to see every stored clause, or the
  /// checker would reject honest deletions. Each Unsat check() logs one
  /// Query step carrying the minimized core and the chain of the solve
  /// that produced it.
  void enableCertification();
  bool certifying() const { return ProofLog != nullptr; }
  /// The number of the Query step the last Unsat check() logged (the key
  /// its certificate has in finishCertification()'s summary).
  uint32_t lastProofQuery() const { return LastProofQuery; }
  /// Replays the accumulated trace through the independent proof::
  /// ProofChecker and caches the outcome. Idempotent; cheap when
  /// certification was never enabled (returns an unchecked summary).
  const proof::CertifySummary &finishCertification();
  /// The live trace (null unless certifying) — exposed for the rejection
  /// tests, which check edited copies.
  proof::ProofTrace *proofTrace() { return ProofLog.get(); }

  /// Attaches a discipline event log (scope/assert/check/retire plus the
  /// encoder's layer events) for the lint replay. Not owned.
  void setAuditLog(audit::Log *L) {
    Audit = L;
    Encoder.setAuditLog(L);
  }

  /// After an Unsat check(), iterate solve(unsatCore()) until the core
  /// stops shrinking (or \p MaxRounds re-solves ran) before recording the
  /// core, so CoreLabels name a locally minimal assumption set — the
  /// §5.2.1 minimization signal. 0 disables the extra solves. The default
  /// is a small bound: each round is cheap (the refutation's lemmas are
  /// already learned), and the fixpoint is usually reached in one.
  void setCoreMinimizationRounds(unsigned N) { CoreMinRounds = N; }
  /// Extra solves the minimization ran (statistics).
  int64_t coreMinimizationSolves() const { return CoreMinSolves; }

  /// SAT statistics of the last check() (per-call deltas).
  int64_t conflicts() const { return LastConflicts; }
  int64_t decisions() const { return LastDecisions; }
  /// Cumulative statistics across the whole session.
  int64_t totalConflicts() const { return Sat.numConflicts(); }
  size_t numChecks() const { return Checks; }
  /// Clauses retained in the warm solver (Tseitin definitions, bridges,
  /// learned clauses) that later checks reuse instead of re-deriving.
  size_t retainedClauses() const { return Sat.numClauses(); }
  int64_t learnedClauses() const { return Sat.numLearnedClauses(); }
  /// Learned-clause-database reductions the warm solver ran, and the total
  /// clauses they reclaimed (long-lived shared sessions rely on this GC).
  int64_t dbReductions() const { return Sat.numDbReductions(); }
  int64_t reclaimedClauses() const { return Sat.numReclaimedClauses(); }
  /// Scope retirements served and the clauses they evicted (family-level
  /// sessions retire each finished pair's scope).
  int64_t scopeRetirements() const { return Sat.numScopeRetirements(); }
  int64_t evictedClauses() const { return Sat.numEvictedClauses(); }
  /// Variable recycling and liveness accounting (catalog-session stats):
  /// indices recycled by scope retirements, vars currently live, the
  /// live-var and clause-count high-water marks, and the cumulative
  /// variable demand (what the allocation would be without recycling).
  int64_t recycledVars() const { return Sat.numRecycledVars(); }
  int liveVars() const { return Sat.numLiveVars(); }
  int peakLiveVars() const { return Sat.peakLiveVars(); }
  size_t peakClauses() const { return Sat.peakClauses(); }
  int64_t varRequests() const { return Sat.numVarRequests(); }
  int numAtoms() const { return static_cast<int>(Encoder.atoms().size()); }

  /// The underlying CDCL solver, exposed for clause-GC configuration
  /// (benches pin the no-GC baseline; tests force aggressive reduction).
  SatSolver &solver() { return Sat; }

  /// After a Sat check(): the atoms assigned true, for countermodel
  /// diagnostics (sorted by printed form; deterministic across runs).
  const std::vector<std::string> &modelAtoms() const { return LastModel; }

  /// After an Unsat check(): indices into the check's Assumed vector of the
  /// assumptions the refutation actually used (the solver's unsat core
  /// mapped back to formulas). Empty when the base alone is contradictory.
  const std::vector<size_t> &lastCoreAssumptionIndices() const {
    return LastCoreIdx;
  }

private:
  /// One node of the selector tree.
  struct ScopeNode {
    ExprRef Selector = nullptr; ///< Null for the root.
    ScopeId Parent = RootScope;
    std::vector<ScopeId> Children;
    Tseitin::LayerId Layer = Tseitin::RootLayer;
    bool OwnsLayer = false;
    bool Alive = true;
  };

  /// Rewrites \p E into the encoder's input language: object equalities
  /// in canonical operand order with object ITEs lowered, integer atoms
  /// canonicalized to `sum <=/= c`, connectives rebuilt over normalized
  /// operands. Results of composite formulas (the connectives and the
  /// Eq/Lt/Le atoms) are memoized in NormalizeMemo for the session's
  /// lifetime; leaves return themselves unrecorded. canonicalIntAtom
  /// registers an atom on its first normalization, so a memo hit only
  /// ever names registered atoms. Selector paths never reach the memo:
  /// assertInScope() emits them as guard clauses.
  ExprRef normalize(ExprRef E);
  ExprRef normalizeAtom(ExprRef E);
  ExprRef canonicalIntAtom(ExprKind K, ExprRef A, ExprRef B);
  ExprRef eqObj(ExprRef A, ExprRef B);

  /// Deepest registered scope among \p ActiveScopes (its layer hosts the
  /// query encodings), or RootScope.
  ScopeId innermostScope(const std::vector<ExprRef> &ActiveScopes) const;

  /// Registers the theory atoms of a normalized formula and asserts the
  /// bridge instances that mention at least one newly seen atom.
  void ingest(ExprRef Normalized);
  void collectTheoryAtoms(ExprRef E);
  void emitNewBridges();
  /// Asserts the congruence bridge of two lookups into one map, or of two
  /// membership atoms over one set.
  void emitCongruence(ExprRef P, ExprRef Q);
  /// Bridge instances over the current registries: the LiveBridges value,
  /// recomputed whenever the registries grow.
  int64_t countBridges() const;
  /// Collects the boolean atoms (non-propositional leaves) of a normalized
  /// formula — the vocabulary a countermodel should be reported over.
  /// Only a Sat check needs it: assertBase() collects the base atoms
  /// once, and check() collects the query's and the active scopes' atoms
  /// after its solve comes back Sat. \p Visited memoizes over the
  /// hash-consed DAG (connective nodes are not in \p Out, so Out alone
  /// cannot stop re-traversal).
  static void collectBoolAtoms(ExprRef E, std::unordered_set<ExprRef> &Out,
                               std::unordered_set<ExprRef> &Visited);

  ExprFactory &F;
  SatSolver Sat;
  Tseitin Encoder;

  // Theory atom registries. Vectors preserve discovery order (the bridge
  // emission order must not depend on pointer values); the hashed sets
  // only dedup and are never iterated.
  std::vector<ExprRef> ObjTerms;
  std::unordered_set<ExprRef> ObjTermSet;
  std::vector<ExprRef> MapLookups;
  std::vector<ExprRef> MemAtoms;
  std::unordered_set<ExprRef> MemAtomSet;
  std::vector<std::pair<ExprRef, detail::IntAtomInfo>> IntAtoms;
  std::unordered_set<ExprRef> IntAtomSeen;

  /// normalize() results of composite formulas, keyed by the hash-consed
  /// input. Only looked up, never iterated, so pointer keys cannot leak
  /// into any order the session exposes.
  std::unordered_map<ExprRef, ExprRef> NormalizeMemo;

  /// Atoms of the base formulas: a failing check's countermodel is
  /// reported over base + active-scope + current-query atoms only, not
  /// over every atom the warm session has accumulated from earlier,
  /// unrelated queries or other selector scopes.
  std::unordered_set<ExprRef> BaseAtoms;
  /// The normalized bodies asserted into each live scope, keyed by
  /// selector: a Sat check reports over the atoms of its active scopes'
  /// bodies too.
  std::unordered_map<ExprRef, std::vector<ExprRef>> ScopedBodies;

  /// The selector tree (node 0 is the root). Nodes are never erased, only
  /// marked dead, so ScopeIds stay stable for the session's lifetime.
  std::vector<ScopeNode> Scopes;
  std::unordered_map<ExprRef, ScopeId> ScopeOf; ///< Live selectors only.

  // High-water marks of the atoms already covered by emitted bridges.
  size_t BridgedObjTerms = 0;
  size_t BridgedMapLookups = 0;
  size_t BridgedMemAtoms = 0;
  size_t BridgedIntAtoms = 0;

  bool SelectorRelease = true;
  int64_t LiveBridges = 0;
  int64_t PeakLiveBridges = 0;

  std::unique_ptr<proof::ProofTrace> ProofLog; ///< Null unless certifying.
  proof::CertifySummary Cert;
  bool CertFinished = false;
  uint32_t LastProofQuery = 0;
  audit::Log *Audit = nullptr; ///< Optional discipline event log.

  size_t Checks = 0;
  int64_t LastConflicts = 0;
  int64_t LastDecisions = 0;
  unsigned CoreMinRounds = 4;
  int64_t CoreMinSolves = 0;
  std::vector<std::string> LastModel;
  std::vector<size_t> LastCoreIdx;
};

/// One-shot eager SMT checker: the historical facade, each check() running
/// in a fresh SmtSession. Kept for callers that decide a single formula
/// set (and as the cold-start baseline the incremental benches compare
/// against).
class SmtSolver {
public:
  explicit SmtSolver(ExprFactory &F) : F(F) {}

  /// Conjoins \p E to the context.
  void assertFormula(ExprRef E);

  /// Decides the asserted conjunction under a conflict budget
  /// (negative = unlimited). Unknown means the budget ran out.
  SatResult check(int64_t MaxConflicts = -1);

  /// SAT statistics of the last check().
  int64_t conflicts() const { return LastConflicts; }
  int64_t decisions() const { return LastDecisions; }
  int numAtoms() const { return LastNumAtoms; }

  /// After a Sat check(): the atoms assigned true, for countermodel
  /// diagnostics.
  const std::vector<std::string> &modelAtoms() const { return LastModel; }

private:
  ExprFactory &F;
  std::vector<ExprRef> Asserted;
  int64_t LastConflicts = 0;
  int64_t LastDecisions = 0;
  int LastNumAtoms = 0;
  std::vector<std::string> LastModel;
};

} // namespace semcomm

#endif // SEMCOMM_SMT_SMTSOLVER_H
