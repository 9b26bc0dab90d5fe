//===- proof/ProofChecker.h - Independent hinted proof checker --*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent checker for the hinted proof traces a certifying
/// SatSolver emits (ProofTrace.h). It shares no code with the solver: its
/// own ID-indexed clause table, its own assignment. Walking a trace front
/// to back once, it verifies
///
///  * every Derive step: with the clause's literals negated, each clause
///    its chain names is live and, in order, unit (its one open literal is
///    assigned) until the last one conflicts — so the learned clause, root
///    units and the empty clause included, is entailed by live clauses;
///  * every Delete step names a live clause (a deletion of an unknown or
///    already deleted ID is a certification failure);
///  * every Recycle step names a variable no live clause or unit mentions
///    (the soundness condition of index reuse);
///  * every Query step: the solver's live-clause count equals the
///    checker's (which catches a solver that drops a clause without
///    logging it — fatal), and the core, asserted, walks its chain to a
///    conflict (a failure fails that query alone).
///
/// What the checker trusts is the Input stream (the solver's normalized
/// clauses) and nothing else: no step is accepted on the solver's word.
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

#include <cstdint>
#include <string>
#include <vector>

namespace semcomm {
namespace proof {

/// Outcome of checking one full trace.
struct CheckResult {
  bool Ok = false;             ///< Every step checked out.
  size_t StepsChecked = 0;     ///< Steps processed before success/failure.
  size_t QueriesChecked = 0;
  size_t QueriesPassed = 0;
  size_t PeakClauses = 0;      ///< High-water mark of live >= 2-literal
                               ///< clauses in the checker's table.
  std::string Error;           ///< First fatal error (empty when Ok).
  /// One pass bit per Query step of the trace, indexed by query number
  /// (after a fatal error the unchecked ones read false).
  std::vector<bool> QueryPassed;
  std::string QueryError;      ///< Why the first failing query failed.
};

/// Walks a ProofTrace against an independent clause table. A checker
/// instance is single-use: construct, check(), read the result.
class ProofChecker {
public:
  CheckResult check(const ProofTrace &Trace);

private:
  struct Entry {
    IntSpan Lits; ///< Points into the checked trace's arena.
    bool Alive = true;
  };

  /// Indexed by clause ID; slot 0 is unused.
  std::vector<Entry> Table{Entry{}};
  /// Per variable: live clauses (units included) that mention it.
  std::vector<uint32_t> Occurrences;
  /// Per variable during one walk: 0 open, +1 true, -1 false.
  std::vector<int8_t> Value;
  std::vector<int> Assigned; ///< Variables the current walk set.
  size_t AliveClauses = 0;   ///< Live >= 2-literal clauses.

  /// Sizes the per-variable arrays for \p Lits; false on a malformed
  /// literal (0 or INT_MIN).
  bool admit(IntSpan Lits);
  int8_t valueOf(int Lit) const;
  /// Makes \p Lit true; false when it is already false.
  bool assign(int Lit);
  /// Assigns \p Sign * each literal of \p Lits, then walks \p Hints. Empty
  /// on a conflict, otherwise why the chain fails. Leaves no assignment.
  std::string refute(IntSpan Lits, int Sign, IntSpan Hints);
  std::string walk(IntSpan Lits, int Sign, IntSpan Hints);
  void addClause(IntSpan Lits);
};

/// Aggregated certification outcome of one or more checked traces.
struct CertifySummary {
  bool Checked = false; ///< At least one checker run happened.
  bool Ok = true;       ///< Every folded run passed.
  uint64_t Steps = 0;
  uint64_t Queries = 0;
  uint64_t QueriesPassed = 0;
  uint64_t PeakClauses = 0; ///< Max over the folded runs.
  std::string Error;        ///< First failing run's error.
  /// Pass bit per certificate, by query number. A fold appends: query k of
  /// the folded run becomes number (bits already held) + k, so numbers
  /// from several sessions or shards stay distinct.
  std::vector<bool> QueryPassed;

  void fold(const CheckResult &R);
  void fold(const CertifySummary &O);
  /// True when every query number in \p Ids was checked and passed.
  bool allPassed(const std::vector<uint32_t> &Ids) const;
};

} // namespace proof
} // namespace semcomm

#endif // SEMCOMM_PROOF_PROOFCHECKER_H
