//===- proof/ProofChecker.h - Independent RUP/DRAT checker ------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent reverse-unit-propagation checker for the proof traces a
/// certifying SatSolver emits (ProofTrace.h). It shares no code with the
/// solver: its own clause database, its own occurrence-list propagation,
/// its own root-level assignment. Replaying a trace front to back it
/// verifies
///
///  * every Derive step is RUP over the clauses live at that point (so the
///    solver's learned clauses — including the root-trail literals dumped
///    before a scope retirement detaches their reasons — are entailed),
///  * every Delete step names a clause the checker actually holds (a
///    deletion of an unknown clause is a certification failure),
///  * every Recycle step names a fully dead variable (no live clause, no
///    unit, no root assignment — the soundness condition of index reuse),
///  * every Query step's unsat core, asserted as assumptions over the live
///    database, propagates to a conflict, and the solver's live-clause
///    count matches the checker's (which catches a solver that drops a
///    clause without logging the deletion).
///
/// The root-level assignment is maintained as a *persistent* propagation
/// fixpoint — units and their consequences stay assigned across steps.
/// This is required for completeness: a query whose core only makes sense
/// together with root consequences of earlier inputs would otherwise miss
/// the conflict. Deletions may shrink that fixpoint, so deleting a clause
/// that could have forced an assignment marks the root state dirty and the
/// next Derive/Query/Recycle step rebuilds it from scratch.
///
/// The certificate semantics: a passing trace establishes, for each Query,
/// that (all Input clauses ever added) together with the query's core
/// literals propositionally entail false. Lifting that to the *live*
/// session formula rests on retired clauses being selector-guarded and
/// Tseitin definitions being conservative extensions — the static
/// discipline `semcommute-lint` audits; the two tools are complementary.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_PROOF_PROOFCHECKER_H
#define SEMCOMM_PROOF_PROOFCHECKER_H

#include "proof/ProofTrace.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace semcomm {
namespace proof {

/// Outcome of one Query step.
struct QueryResult {
  std::string Tag;
  bool Passed = false;
  std::string Error; ///< Empty when Passed.
};

/// Outcome of checking one full trace.
struct CheckResult {
  bool Ok = false;             ///< Every step checked out.
  size_t StepsChecked = 0;     ///< Steps processed before success/failure.
  size_t QueriesChecked = 0;
  size_t QueriesPassed = 0;
  size_t PeakClauses = 0;      ///< High-water mark of the checker database.
  std::string Error;           ///< First fatal error (empty when Ok).
  std::vector<QueryResult> Queries; ///< One row per Query step, in order.
};

/// Replays a ProofTrace against an independent clause database. A checker
/// instance is single-use: construct, check(), read the result.
class ProofChecker {
public:
  CheckResult check(const ProofTrace &Trace);

private:
  struct CClause {
    std::vector<int> Lits;
    bool Alive = true;
  };

  struct KeyHash {
    size_t operator()(const std::vector<int> &Key) const;
  };

  // -- database ----------------------------------------------------------
  std::vector<CClause> DB;
  /// Literal (by litIndex) -> indices of clauses containing it. Dead
  /// clauses are pruned as propagation walks past them, so a long trace's
  /// retired history does not slow its later steps.
  std::vector<std::vector<size_t>> Occ;
  /// Sorted-literal key -> alive clause indices (Delete matching).
  std::unordered_map<std::vector<int>, std::vector<size_t>, KeyHash> ByKey;
  /// Explicit unit records per literal (input units, derived units, the
  /// pre-retirement trail dump). Deleting a unit decrements; at zero the
  /// literal loses its axiomatic support.
  std::map<int, int> UnitRef;
  size_t AliveClauses = 0; ///< Alive >= 2-literal clauses (mirror of the
                           ///< solver's stored-clause count).

  // -- persistent root state --------------------------------------------
  /// Var -> 0 unassigned / +1 true / -1 false, under root propagation.
  std::vector<int8_t> Val;
  std::vector<int> RootTrail;  ///< Literals assigned at root, in order.
  bool TopConflict = false;    ///< Root propagation reached a conflict.
  bool RootDirty = false;      ///< A deletion may have shrunk the fixpoint.
  bool HasEmptyInput = false;  ///< An empty Input clause was logged.

  static size_t litIndex(int Lit) {
    return 2 * static_cast<size_t>(Lit > 0 ? Lit : -Lit) + (Lit < 0);
  }
  int8_t valueOf(int Lit) const;
  void ensureVar(int Var);
  /// Assigns \p L onto RootTrail: 0 = newly assigned, 1 = already true,
  /// -1 = conflicts with the current assignment. Never propagates.
  int tryAssign(int L);
  /// Propagates RootTrail[From..] to fixpoint; true on conflict.
  bool propagateFrom(size_t From);
  void undoTo(size_t Mark);
  /// Rebuilds the persistent root fixpoint from the alive units and
  /// clauses (after a deletion invalidated it).
  void rebuildRoot();
  void flushRoot(); ///< rebuildRoot() iff RootDirty.

  /// RUP test: under the current root state, assume \p Assumptions (as
  /// given), propagate, and report whether a conflict was reached. The
  /// temporary assignments are undone before returning.
  bool propagatesToConflict(const std::vector<int> &Assumptions);

  /// Registers an explicit unit record and folds it into the root state.
  void addUnit(int L);
  void addClause(const std::vector<int> &Lits);
  /// Removes one clause matching \p Lits; empty return = ok, otherwise the
  /// error text.
  std::string removeClause(const std::vector<int> &Lits);
  bool varOccursAlive(int Var);
};

/// Aggregated certification outcome of one or more solver sessions (a
/// driver job may rotate several sessions; their results fold together).
struct CertifySummary {
  bool Checked = false; ///< At least one checker run happened.
  bool Ok = true;       ///< Every folded run passed.
  uint64_t Steps = 0;
  uint64_t Queries = 0;
  uint64_t QueriesPassed = 0;
  uint64_t PeakClauses = 0; ///< Max over the folded runs.
  std::string Error;        ///< First failing run's error.
  /// Tag -> passed, over every folded run (tags are unique per session;
  /// rotation epochs keep them unique across folds).
  std::map<std::string, bool> QueryOutcome;

  void fold(const CheckResult &R) {
    Checked = true;
    Ok = Ok && R.Ok;
    Steps += R.StepsChecked;
    Queries += R.QueriesChecked;
    QueriesPassed += R.QueriesPassed;
    PeakClauses = std::max(PeakClauses, static_cast<uint64_t>(R.PeakClauses));
    if (Error.empty() && !R.Error.empty())
      Error = R.Error;
    for (const QueryResult &Q : R.Queries)
      QueryOutcome[Q.Tag] = Q.Passed;
  }
  void fold(const CertifySummary &O) {
    if (!O.Checked)
      return;
    Checked = true;
    Ok = Ok && O.Ok;
    Steps += O.Steps;
    Queries += O.Queries;
    QueriesPassed += O.QueriesPassed;
    PeakClauses = std::max(PeakClauses, O.PeakClauses);
    if (Error.empty() && !O.Error.empty())
      Error = O.Error;
    for (const auto &KV : O.QueryOutcome)
      QueryOutcome[KV.first] = KV.second;
  }
  /// True when every tag of \p Tags was checked and passed.
  bool allPassed(const std::vector<std::string> &Tags) const {
    if (!Checked)
      return false;
    for (const std::string &T : Tags) {
      auto It = QueryOutcome.find(T);
      if (It == QueryOutcome.end() || !It->second)
        return false;
    }
    return true;
  }
};

} // namespace proof
} // namespace semcomm

#endif // SEMCOMM_PROOF_PROOFCHECKER_H
