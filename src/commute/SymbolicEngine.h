//===- commute/SymbolicEngine.h - VC-based verification ---------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic counterpart of the exhaustive engine, mirroring how Jahob
/// discharges the generated testing methods (§1.4): the two execution
/// orders are executed *symbolically* over an unknown initial abstract
/// state, producing a verification condition that the smt/ stack decides.
///
///  * Accumulator: states are linear terms over a symbolic initial counter;
///    VCs fall to the canonical linear-atom encoding.
///  * Set / Map: states are symbolic update chains over an uninterpreted
///    initial state S0/M0. Membership and lookup atoms unfold through the
///    chain; state equality uses extensionality instantiated exactly at
///    the operation arguments (updates touch no other element/key, so the
///    instantiation is complete, not just sound). Size deltas are expanded
///    propositionally.
///  * ArrayList: verified by symbolic execution with the length and index
///    arguments case-split up to a bound and *elements kept symbolic*
///    (v1, v2 and every cell are unknown objects); indexOf/lastIndexOf
///    atoms expand into first/last-occurrence formulas. This bounded
///    symbolic mode is the engine's stand-in for Jahob's unbounded sequence
///    reasoning; the hint machinery of ProofHints.h carries the paper's
///    §5.2.1 proof-guidance content (README.md's notes on
///    ProofHints::minimizedFor, under "The incremental symbolic pipeline",
///    give the exact correspondence).
///
/// A VC that the SMT stack cannot refute within its conflict budget is
/// reported Unknown — the analogue of the prover timeouts that dominate the
/// paper's ArrayList verification time (Table 5.8).
///
/// Discharge strategy: each testing method is compiled to a MethodPlan
/// (pair-common prefix, selector-scoped method prefix, labeled VC splits)
/// and discharged through a CatalogSession (see SessionPool.h) — one warm
/// solver whose pair scopes are retired as pairs finish. SolveMode::OneShot
/// (a cold session per split) remains as the reference oracle the warm
/// path is cross-checked against.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_COMMUTE_SYMBOLICENGINE_H
#define SEMCOMM_COMMUTE_SYMBOLICENGINE_H

#include "commute/ProofHints.h"
#include "commute/SessionPool.h"
#include "commute/TestingMethod.h"

#include <cstdint>
#include <string>
#include <vector>

namespace semcomm {

/// Outcome of verifying all six testing methods of one pair.
struct PairOutcome {
  /// Per-method results in enumeration order: before/between/after x
  /// soundness/completeness.
  std::vector<SymbolicResult> Methods;

  unsigned failures() const {
    unsigned N = 0;
    for (const SymbolicResult &R : Methods)
      N += !R.Verified;
    return N;
  }
};

/// Outcome of verifying every op-pair of one family inside a catalog
/// session.
struct FamilyOutcome {
  std::string Family;
  std::vector<std::string> PairKeys; ///< "op1,op2", catalog entry order.
  std::vector<PairOutcome> Pairs;    ///< Parallel to PairKeys.
  /// Lazy-planning accounting: VC splits materialized over the whole run
  /// vs. the largest number alive at once (one pair's worth — plans are
  /// built just before discharge and dropped after retirePair, so plan
  /// memory does not grow with family size).
  uint64_t TotalSplits = 0;
  uint64_t PeakMaterializedSplits = 0;

  unsigned failures() const {
    unsigned N = 0;
    for (const PairOutcome &P : Pairs)
      N += P.failures();
    return N;
  }
};

/// Outcome of verifying several families through a single CatalogSession:
/// per-family outcomes, the session's statistics record, and whether the
/// independent checker accepted the session's whole proof trace (false
/// unless the engine certifies; each method's own certificates are in its
/// SymbolicResult).
struct CatalogOutcome {
  std::vector<FamilyOutcome> Families; ///< Requested-family order.
  CatalogSessionStats Stats;
  bool Certified = false;

  unsigned failures() const {
    unsigned N = 0;
    for (const FamilyOutcome &FO : Families)
      N += FO.failures();
    return N;
  }
};

/// Symbolic verifier for generated testing methods.
class SymbolicEngine {
public:
  /// \p SeqLenBound is the ArrayList case-split bound (lengths 0..bound).
  explicit SymbolicEngine(ExprFactory &F, int SeqLenBound = 3,
                          int64_t ConflictBudget = 200000,
                          SolveMode Mode = SolveMode::SharedCatalog)
      : F(F), SeqLenBound(SeqLenBound), ConflictBudget(ConflictBudget),
        Mode(Mode) {}

  /// Verifies one testing method symbolically in a session of its own.
  /// Safe to call concurrently from several engines sharing one
  /// (thread-safe) ExprFactory.
  SymbolicResult verify(const TestingMethod &M);

  /// Verifies all six testing methods of \p E through one catalog session
  /// holding just this pair (one warm solver for the six methods). Method
  /// order is deterministic, so results are a function of the options
  /// alone. Like verifyCatalog, this is the warm path whatever the mode.
  PairOutcome verifyPair(const ConditionEntry &E);

  /// Verifies every op-pair of every family in \p Fams through one
  /// CatalogSession: the catalog-common prefix is asserted once, each
  /// family opens a selector scope beneath it, each pair's plan is
  /// materialized lazily just before its discharge, and the pair's scope
  /// is retired (evicted) — and its plan dropped — when its six methods
  /// are done. Family, pair, and method order are deterministic. The mode
  /// is not consulted: this is the warm path. It is the reference the
  /// services' compaction, prefix batching, cost placement and sharding
  /// are checked against: it shares their session code and planner, and
  /// on one shard it serves the same discharge sequence, so its method
  /// rows and session record equal the one-shard driver's.
  CatalogOutcome verifyCatalog(const Catalog &C,
                               const std::vector<const Family *> &Fams);

  /// Compiles one testing method to its discharge plan (exposed so tests
  /// can replay plans against differently configured sessions). An
  /// ArrayList method runs the same lattice walk as planPair with only
  /// \p M requested, so its plan equals the matching planPair method.
  MethodPlan plan(const TestingMethod &M) const;

  /// Compiles one entry's six testing methods to a pair plan, in
  /// (kind x role) enumeration order. An ArrayList pair's six plans come
  /// from one walk of its (length x index x index) split lattice: each
  /// split's symbolic executions and agreement goal are built once and
  /// each condition kind is lowered once, for both of its roles. The
  /// single-VC families plan each method on its own.
  PairPlan planPair(const ConditionEntry &E) const;

  /// Compiles the catalog-level plan for \p Fams: per-family common
  /// prefixes (pairs left unmaterialized — verifyCatalog plans them
  /// lazily) plus the catalog-common prefix, the well-formedness formulas
  /// every entry either asserts in its own Common prefix or provably
  /// cannot mention (none of the formula's variables occur in the entry's
  /// vocabulary), hoisted to the session root.
  CatalogPlan planCatalog(const Catalog &C,
                          const std::vector<const Family *> &Fams) const;

  /// Clause-GC budget: the live-learned-clause count at which a session's
  /// first database reduction fires (0 keeps the solver default; the
  /// clause-GC sweep of bench/perf_engine_scaling and ProofTest set it).
  void setClauseGcBudget(int64_t Budget) { GcBudget = Budget; }

  /// Turns on certified verdicts (the driver's --certify knob): every
  /// session the engine opens logs a hinted proof trace, the independent
  /// checker walks it when the session closes, and each
  /// method's SymbolicResult records whether its Unsat verdicts carried
  /// checked certificates (ProofQueries / ProofClauses / ProofChecked).
  void setCertify(bool C) { Certify = C; }
  bool certify() const { return Certify; }

  /// Attaches proof-hint scripts: ArrayList method plans whose method
  /// matches a script gain the script's note/pickWitness lemmas as extra
  /// *labeled* split assumptions, so unsat cores can name the hint
  /// commands a proof actually used (the input to minimizedFor()).
  /// \p Scripts must outlive the engine; nullptr detaches.
  void attachHints(const std::vector<HintScript> *Scripts) {
    Hints = Scripts;
  }

  SolveMode mode() const { return Mode; }

private:
  /// Runs \p Entries (one list per family of \p CP, in plan order)
  /// through one catalog session — the body of verifyCatalog and of
  /// verifyPair.
  CatalogOutcome
  runCatalog(const CatalogPlan &CP,
             const std::vector<std::vector<const ConditionEntry *>> &Entries);
  /// The Common prefix of \p E's method plans without materializing the
  /// ArrayList split lattice (the prefixes are a handful of
  /// well-formedness formulas, identical across an entry's six methods).
  std::vector<ExprRef> planCommonOnly(const ConditionEntry &E) const;

  ExprFactory &F;
  int SeqLenBound;
  int64_t ConflictBudget;
  SolveMode Mode;
  int64_t GcBudget = 0;
  bool Certify = false;
  const std::vector<HintScript> *Hints = nullptr;
};

} // namespace semcomm

#endif // SEMCOMM_COMMUTE_SYMBOLICENGINE_H
