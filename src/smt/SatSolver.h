//===- smt/SatSolver.h - CDCL propositional solver --------------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact CDCL SAT solver (two-watched-literal propagation, 1UIP clause
/// learning, activity-based decisions, geometric restarts). It is the
/// workhorse under the SmtSolver facade, playing the role Z3/CVC3 play under
/// Jahob's integrated reasoning (§1.4): the symbolic engine eagerly encodes
/// its verification conditions into propositional logic and asks this
/// solver for a countermodel.
///
/// The solver is *incremental* in the MiniSat style: solve(Assumptions)
/// decides the clause database under a set of assumption literals placed as
/// pseudo-decisions. Because learned clauses never resolve on decisions,
/// every clause learned under assumptions is implied by the database alone
/// and is retained across calls — a warm solver discharges a family of
/// near-identical queries (the catalog's ArrayList case splits) without
/// re-deriving its lemmas. After an assumption-failed solve, unsatCore()
/// names the subset of assumptions responsible.
///
/// Because shared sessions now live for a whole (family, op-pair) — and the
/// conflict-heavy benches (BM_Pigeonhole) learn orders of magnitude more
/// clauses than they keep using — the solver periodically *reduces* the
/// learned-clause database: clauses are ranked by a bumped/decayed activity
/// score, and the least useful half is dropped at root level. Clauses that
/// are the reason of a currently implied literal, binary clauses, and
/// low-glue clauses (LBD <= 2) are never dropped, so the reduction can
/// never change a SAT/UNSAT answer — only the work needed to re-derive a
/// discarded lemma. Decisions use saved phases (the last value a variable
/// held), which keeps the search near previously satisfying regions across
/// the near-identical queries of one session.
///
/// Clauses live in stable slots: a deleted clause's slot joins a free list
/// that the next stored clause takes, so no deletion moves a survivor, and
/// each variable keeps the list and count of the live clauses that mention
/// it. One deletion primitive serves reduceDb() and retireScopes(): it
/// drops the clause's two watchers, logs its Delete, frees its slot and
/// decrements its variables' counts. A retirement therefore finds its
/// victims through the occurrence lists of the variables it names and of
/// the variables fixed at root since the previous retirement, and costs
/// time in proportion to the retired scope, not to the database.
///
/// With a proof trace attached (setProofTrace) the solver certifies: every
/// stored clause carries the ID of the Input/Derive step that introduced
/// it, and each learned clause is logged with the chain of IDs its
/// first-UIP analysis resolved (LRAT-style hints), so the independent
/// checker (proof/ProofChecker.h) verifies each step in one linear walk.
/// Logging only watches the search: it changes nothing the solver learns,
/// deletes or decides. Without a trace the solver logs nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SMT_SATSOLVER_H
#define SEMCOMM_SMT_SATSOLVER_H

#include "proof/ProofTrace.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace semcomm {

/// A propositional literal: variable index (1-based) with sign.
struct Lit {
  int Encoded = 0; ///< +v for v, -v for ~v; 0 is invalid.

  Lit() = default;
  Lit(int Var, bool Positive) : Encoded(Positive ? Var : -Var) {}

  int var() const { return Encoded > 0 ? Encoded : -Encoded; }
  bool positive() const { return Encoded > 0; }
  Lit negated() const {
    Lit L;
    L.Encoded = -Encoded;
    return L;
  }
  friend bool operator==(Lit A, Lit B) { return A.Encoded == B.Encoded; }
};

/// Satisfiability verdicts. Unknown is returned when the conflict budget is
/// exhausted — the analogue of the paper's prover timeouts (Table 5.8's
/// ArrayList entry is dominated by such timeouts).
enum class SatResult : uint8_t { Sat, Unsat, Unknown };

/// Conflict-driven clause-learning SAT solver.
class SatSolver {
public:
  SatSolver();

  /// Allocates a variable and returns its 1-based index. Indices of
  /// variables recycled by retireScopes() are handed out again (most
  /// recently retired first) before the variable array grows, so the live
  /// variable count — not just the clause count — is bounded over a
  /// long-lived session; a reused index starts with clean search state
  /// (unassigned, zero activity, default phase, empty watch lists).
  int addVar();

  /// Adds a clause (empty clause makes the instance trivially Unsat).
  /// May be called between solve() calls; the clause joins the retained
  /// database.
  void addClause(const std::vector<Lit> &Clause);

  /// Solves under an optional conflict budget (negative = unlimited).
  SatResult solve(int64_t MaxConflicts = -1) { return solve({}, MaxConflicts); }

  /// Solves the retained clause database under \p Assumptions, each placed
  /// as a pseudo-decision. Unsat means the database contradicts the
  /// assumptions (unsatCore() then names the culprits); the database itself
  /// stays usable, and clauses learned during the search are retained. The
  /// conflict budget is per-call.
  SatResult solve(const std::vector<Lit> &Assumptions,
                  int64_t MaxConflicts = -1);

  /// After an Unsat solve(Assumptions): the subset of the assumptions that
  /// already suffices for unsatisfiability (empty when the database is
  /// unsatisfiable on its own).
  const std::vector<Lit> &unsatCore() const { return AssumpCore; }

  /// Model access after Sat: the value of \p Var.
  bool modelValue(int Var) const;

  /// Statistics for the verification-time tables. Conflict/decision counts
  /// are cumulative across solve() calls.
  int64_t numConflicts() const { return Conflicts; }
  int64_t numDecisions() const { return Decisions; }
  int numVars() const { return static_cast<int>(Assign.size()) - 1; }
  /// Live stored clauses (problem + learned): occupied slots, free ones
  /// excluded. Unit clauses live on the trail and are not counted.
  size_t numClauses() const { return Clauses.size() - FreeSlots.size(); }
  int64_t numLearnedClauses() const { return LearnedClauses; }

  /// Clause-database reduction. GC runs automatically during solve() once
  /// the live learned-clause count passes a growing threshold; both knobs
  /// exist so tests can force aggressive reduction and benches can pin the
  /// no-GC baseline.
  void setClauseGc(bool Enabled) { GcEnabled = Enabled; }
  /// First reduction fires at \p FirstLimit live learned clauses; each
  /// reduction raises the threshold by 50%. Values below 1 keep the
  /// current threshold (a zero limit would otherwise pin the threshold at
  /// zero and run a reduction at every restart).
  void setClauseGcLimit(int64_t FirstLimit) {
    if (FirstLimit > 0)
      ReduceLimit = FirstLimit;
  }
  /// Reduces the learned database now (root level only, i.e. between
  /// solve() calls or from the solver's own restart points). Returns the
  /// number of clauses reclaimed. Reason, binary, and glue-protected
  /// clauses always survive. Ranking the candidates walks every slot; each
  /// victim then goes through the shared deletion primitive, and no
  /// survivor moves or is re-watched.
  size_t reduceDb();
  int64_t numDbReductions() const { return DbReductions; }
  int64_t numReclaimedClauses() const { return ReclaimedClauses; }

  /// Permanently retires a selector *subtree* (root level only): every
  /// literal in \p Selectors — an interior selector node together with
  /// all the selectors nested under it — is asserted false as a unit
  /// clause, then the retirement evicts
  ///
  ///  * every clause satisfied at root level (with the selectors now
  ///    false at root this covers all the subtree's selector-guarded
  ///    problem clauses),
  ///  * every learned clause mentioning a selector or scope var (learned
  ///    clauses are redundant, so this can never change an answer), and
  ///  * every clause — problem clauses included — mentioning a var in
  ///    \p ScopeVars. Passing a var here is the caller's guarantee that
  ///    it is *private* to the retired subtree: no live assertion's
  ///    encoding mentions it (SmtSession derives the set from its
  ///    scope-layered Tseitin bookkeeping).
  ///
  /// It finds them without a sweep: a stored clause never holds a literal
  /// fixed at root when it is stored, so a clause can only become
  /// root-satisfied through a variable fixed since the previous
  /// retirement, which evicted every root-satisfied clause of its time.
  /// The retirement walks the occurrence lists of those variables, of the
  /// selectors and of the scope vars (numRetireVisits() counts the
  /// entries), and deletes what it finds through the deletion primitive.
  ///
  /// Scope vars that end up with no occurrence and no assignment are
  /// *recycled*: their activity/phase state is reset and their indices
  /// join a free list that addVar() drains, so the variable count is
  /// bounded by the live scope. Other vars whose last occurrence went
  /// since the previous retirement only get their activity/phase reset
  /// (their indices may still be referenced by the caller's atom maps).
  /// Returns the number of clauses evicted.
  size_t retireScopes(const std::vector<Lit> &Selectors,
                      const std::vector<int> &ScopeVars) {
    return retireScopes(Selectors, ScopeVars, {});
  }
  /// Extended retirement for the long-lived service loop: selectors in
  /// \p ReleasableSelectors are falsified and evicted exactly like
  /// \p Selectors, but when such a selector ends up dead (no clause
  /// occurrence), its pinned-false unit is dropped from the trail and its
  /// index joins the free list — the caller's guarantee is that the
  /// selector will never be assumed or re-encoded again (epoch-tagged
  /// selector names make every reopened scope a fresh atom). This is
  /// selector release: without it a warm session's trail grows by one
  /// pinned literal per retired scope forever.
  size_t retireScopes(const std::vector<Lit> &Selectors,
                      const std::vector<int> &ScopeVars,
                      const std::vector<Lit> &ReleasableSelectors);
  /// Single-selector convenience wrapper around retireScopes().
  size_t retireScope(Lit Selector, const std::vector<int> &ScopeVars) {
    return retireScopes({Selector}, ScopeVars);
  }
  /// Disables index recycling (reference runs for the recycle fuzz and the
  /// peak-live-vars acceptance comparison; eviction is unaffected).
  void setVarRecycling(bool Enabled) { RecyclingEnabled = Enabled; }
  int64_t numScopeRetirements() const { return ScopeRetirements; }
  int64_t numEvictedClauses() const { return EvictedClauses; }
  /// Occurrence-list entries the retirements have examined, stale ones
  /// included: the retirement cost, counted rather than timed.
  int64_t numRetireVisits() const { return RetireVisits; }
  int64_t numRecycledVars() const { return RecycledVars; }
  /// Retired selectors whose pinned-false units were dropped from the
  /// trail and whose indices were recycled (subset of numRecycledVars).
  int64_t numReleasedSelectors() const { return ReleasedSelectors; }
  /// True when \p Var currently sits on the recycler's free list. The SMT
  /// layer uses this after a retirement to decide which atom-map entries
  /// may be erased: only a free-listed index is guaranteed to carry no
  /// clause, no assignment, and no meaning.
  bool varIsFree(int Var) const {
    return Var >= 1 && Var <= numVars() && IsFree[static_cast<size_t>(Var)];
  }
  /// Variable accounting for the catalog-session statistics: slots
  /// currently backing a live (non-free-listed) variable, the high-water
  /// mark of that number, cumulative addVar() calls (what the allocation
  /// would be without recycling), and the high-water mark of
  /// numClauses() (live clauses, not allocated slots).
  int numLiveVars() const {
    return numVars() - static_cast<int>(FreeVars.size());
  }
  int peakLiveVars() const { return PeakLiveVars; }
  int64_t numVarRequests() const { return VarRequests; }
  size_t peakClauses() const { return PeakClauses; }
  /// Restarts the live-var/clause high-water marks from the *current*
  /// live counts. The service loop calls this at pass boundaries so the
  /// steady-state plateau (pass N peak vs pass N-1 peak) is observable
  /// instead of being masked by the first pass's warm-up peak.
  void resetPeakStats() {
    PeakLiveVars = numLiveVars();
    PeakClauses = numClauses();
  }
  /// Debug check for tests: \p Var is unassigned with zero activity,
  /// default phase, no reason, empty watch lists and no occurrence — the
  /// state every recycled index must present on reuse.
  bool varStateIsClean(int Var) const;
  /// Debug check: every implied literal's reason clause still exists and
  /// contains that literal — the invariant reduceDb() must preserve.
  bool reasonInvariantHolds() const;
  /// Debug check of the slot store: each live clause sits in exactly the
  /// watch lists of its first two literals, once each; no free slot is
  /// watched, named as a reason or counted live; and each variable's
  /// occurrence count and valid list entries name exactly the live
  /// clauses that mention it.
  bool watchInvariantHolds() const;

  /// Attaches a hinted proof trace (proof/ProofTrace.h). Must be set
  /// before the first addVar() so the trace sees every stored clause; the
  /// solver does not own the trace. While attached, every stored clause
  /// carries the proof ID of its Input/Derive step (the ID names the
  /// clause, not its slot, which a later clause may reuse), and the solver
  /// logs every stored input clause; every
  /// learned clause with its chain (root-literal unit IDs, then the reason
  /// clauses resolved in trail order, then the conflict clause); the empty
  /// clause of a root conflict; every deletion — reduceDb, retireScopes,
  /// and the unit clauses dropped from the trail when a pinned variable
  /// is recycled — by ID; and every recycled variable index.
  ///
  /// A root-implied literal gets a unit clause ID lazily: it is derived
  /// (its reason plus the unit IDs of the reason's other literals) no
  /// later than the first chain that needs it, and retireScopes derives
  /// the units of the literals fixed since the previous retirement before
  /// it detaches the reasons it may delete.
  void setProofTrace(proof::ProofTrace *P) {
    Proof = P;
    UnitId.assign(Assign.size(), 0);
  }
  proof::ProofTrace *proofTrace() const { return Proof; }
  /// Logs one Query step and returns its number: \p Core must be the core
  /// of the most recent Unsat answer; the step carries that solve's chain
  /// and the live stored-clause count the checker cross-checks.
  uint32_t logQueryProof(const std::vector<Lit> &Core);

private:
  enum : uint8_t { Undef = 2 };

  struct Clause {
    std::vector<Lit> Lits; ///< Empty while the slot is free.
    bool Learned = false;
    bool Doomed = false; ///< Chosen by the deletion in progress.
    int Glue = 0;        ///< LBD at learning time; <= 2 is GC-protected.
    double Act = 0.0;    ///< Bumped when used in conflict analysis.
    int Id = 0;          ///< Proof clause ID (0 unless certifying).
    uint32_t Gen = 0;    ///< Bumped when the slot is freed.
  };

  struct Watcher {
    int ClauseIdx;
  };

  /// An occurrence-list entry: the slot and the sign the list's var has
  /// in the clause, valid while the slot's generation still equals the one
  /// the entry recorded.
  struct Occurrence {
    uint32_t Slot : 31;
    uint32_t Negative : 1;
    uint32_t Gen;
  };

  /// Per-var flag bits (VarMark). The first four and MarkRecycle live for
  /// one retirement, the watch bits for one deletion; ZeroPending lasts
  /// until the retirement that processes the var.
  enum : uint8_t {
    MarkScope = 1,      ///< A selector or scope var of this retirement.
    MarkOwned = 2,      ///< A scope var: its problem clauses go too.
    MarkReleasable = 4, ///< A releasable selector.
    MarkWalked = 8,     ///< Occurrence list already walked.
    ZeroPending = 16,   ///< Lost its last occurrence; queued in ZeroVars.
    DirtyPosWatch = 32, ///< Watch list of the positive literal has victims.
    DirtyNegWatch = 64, ///< Watch list of the negative literal has victims.
    MarkRecycle = 128,  ///< Dead and recyclable: joins the free list.
  };

  // Assignment trail.
  std::vector<uint8_t> Assign;  ///< Per-var value (0/1/Undef).
  std::vector<int> Level;       ///< Decision level per var.
  std::vector<int> Reason;      ///< Clause index forcing the var, or -1.
  std::vector<Lit> Trail;
  std::vector<int> TrailLim;    ///< Trail indices where levels start.
  size_t PropHead = 0;

  std::vector<Clause> Clauses;  ///< Stable slots; free ones are empty.
  std::vector<Lit> AddBuf;      ///< addClause()'s normalized clause.
  std::vector<int> FreeSlots;   ///< Free slot indices, LIFO.
  std::vector<std::vector<Watcher>> Watches; ///< Indexed by literal code.
  /// Per var: the slots of the clauses mentioning it. Entries of freed
  /// slots go stale and are pruned lazily (on append and when walked), and
  /// the list is cleared when the var's count reaches zero.
  std::vector<std::vector<Occurrence>> Occurs;
  std::vector<int> OccCount;    ///< Per var: live clauses mentioning it.
  std::vector<uint8_t> VarMark; ///< Per var: the Mark*/ZeroPending bits.
  /// Vars whose count reached zero since the last retirement: the dead
  /// vars whose search state the next retirement resets.
  std::vector<int> ZeroVars;
  /// Trail prefix that a retirement has already processed (reasons
  /// detached, units derived, occurrence lists walked).
  size_t RetiredTrail = 0;
  // Buffers of the deletion primitive and the retirement.
  std::vector<int> Victims;
  std::vector<size_t> DirtyWatches;
  std::vector<int> WalkedVars;
  std::vector<double> Activity;
  std::vector<uint8_t> SavedPhase; ///< Last assigned value per var.
  std::vector<int64_t> GlueStamp;  ///< Per-level scratch for LBD counting.
  int64_t GlueStampGen = 0;
  double ActivityInc = 1.0;
  double ClauseActInc = 1.0;
  bool Unsatisfiable = false;

  std::vector<Lit> AssumpCore;    ///< Core of the last assumption-failure.
  std::vector<uint8_t> ModelVals; ///< Snapshot of the last Sat assignment.

  int64_t Conflicts = 0;
  int64_t Decisions = 0;
  int64_t LearnedClauses = 0;
  int64_t LearnedAlive = 0;   ///< Learned clauses currently in the database.
  bool GcEnabled = true;
  /// Live learned clauses that trigger a GC. The default comes from
  /// bench/perf_engine_scaling's gc_budget_sweep: on the catalog workload,
  /// budgets at or below ~500 reclaim clauses with *zero* extra conflicts
  /// (lemma locality is per-pair, and family sessions evict pairs anyway),
  /// while larger thresholds simply never fire; on the conflict-heavy
  /// warm-pigeonhole bench, 500 bounds retention without changing any
  /// answer. Overridable per session via setClauseGcLimit.
  int64_t ReduceLimit = 500;
  int64_t DbReductions = 0;
  int64_t ReclaimedClauses = 0;
  int64_t ScopeRetirements = 0;
  int64_t EvictedClauses = 0;
  int64_t RetireVisits = 0;

  // Variable recycling (fed by retireScopes, drained by addVar).
  std::vector<int> FreeVars;     ///< Recycled indices, LIFO.
  std::vector<uint8_t> IsFree;   ///< Per-var free-list membership.
  bool RecyclingEnabled = true;
  proof::ProofTrace *Proof = nullptr; ///< Not owned; null = no logging.
  // Proof bookkeeping (touched only while a trace is attached).
  std::vector<int> UnitId;     ///< Per var: ID of its root unit clause, or 0.
  int EmptyId = 0;             ///< ID of the logged empty clause, or 0.
  std::vector<int> CoreChain;  ///< Chain of the most recent Unsat answer.
  std::vector<int> ProofLits;  ///< Buffer: literals of the step in hand.
  std::vector<int> ChainBuf;   ///< Buffer: a learned clause's chain.
  std::vector<int> WalkIds;    ///< Buffer: clauses a walk resolved.
  std::vector<int> ChainRoots; ///< Buffer: root vars a walk skipped.
  std::vector<int> UnitHints;  ///< Buffer: a root unit's chain.
  std::vector<int> UnitStack;  ///< Buffer: root units awaiting their IDs.
  int64_t RecycledVars = 0;
  int64_t ReleasedSelectors = 0;
  int64_t VarRequests = 0;
  int PeakLiveVars = 0;
  size_t PeakClauses = 0;

  size_t watchIndex(Lit L) const {
    return 2 * static_cast<size_t>(L.var()) + (L.positive() ? 0 : 1);
  }
  uint8_t valueOf(Lit L) const {
    uint8_t V = Assign[L.var()];
    if (V == Undef)
      return Undef;
    return L.positive() ? V : static_cast<uint8_t>(1 - V);
  }
  void enqueue(Lit L, int ReasonIdx);
  int propagate(); ///< Returns conflicting clause index or -1.
  void analyze(int ConflictIdx, std::vector<Lit> &Learned, int &BackLevel,
               int &Glue);
  /// Runs reduceDb() and grows the threshold when the live learned-clause
  /// count has passed it. Root level only (callers are solve() entry and
  /// the restart point).
  void maybeReduceDb();
  /// Stores a copy of a clause of two or more literals in a free slot
  /// (whose literal buffer it reuses) or a new one, indexes its
  /// occurrences and watches its first two literals.
  int storeClause(const std::vector<Lit> &Lits, bool Learned, int Glue,
                  double Act, int Id);
  /// The deletion primitive (root level; no victim may be a reason): for
  /// each clause in Victims, all marked Doomed, it detaches the two
  /// watchers, logs the Delete, decrements its variables' counts and frees
  /// the slot. Watch lists are filtered once each, however many victims
  /// they hold.
  void deleteVictims();
  /// Walks \p Var's occurrence list once per retirement, dropping stale
  /// entries and dooming each clause that \p Var alone puts under an
  /// eviction rule: every rule a clause meets has a witness var among the
  /// walked ones, so no clause needs its other literals read.
  void collectVictims(int Var);
  void analyzeFinal(Lit Failed); ///< Fills AssumpCore from the trail.
  /// A solve-time root conflict on \p ConflictIdx: the database is Unsat.
  SatResult rootUnsat(int ConflictIdx);

  /// Proof helpers (call only with a trace attached).
  const std::vector<int> &proofLits(const std::vector<Lit> &C);
  /// The ID of the unit clause asserting \p Var's root literal, deriving
  /// it (and, first, any unit its reason needs) when it has none yet.
  int rootUnitId(int Var);
  /// Writes a walk's chain to \p Out: the unit IDs of ChainRoots, then
  /// WalkIds reversed (a walk visits the trail latest-first, the checker
  /// needs it in trail order).
  void buildChain(std::vector<int> &Out);
  /// Logs the empty clause of a root conflict on clause \p ConflictIdx.
  void logRootConflict(int ConflictIdx);
  void backtrack(int ToLevel);
  void bumpActivity(int Var);
  void bumpClauseActivity(int ClauseIdx);
  void attach(int ClauseIdx);
  int pickBranchVar();
  int currentLevel() const { return static_cast<int>(TrailLim.size()); }
};

} // namespace semcomm

#endif // SEMCOMM_SMT_SATSOLVER_H
