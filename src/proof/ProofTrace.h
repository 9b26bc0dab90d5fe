//===- proof/ProofTrace.h - Hinted solver proof log -------------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The proof trace a certifying SatSolver emits and the independent checker
/// (ProofChecker.h) consumes. The format is LRAT-style (Cruz-Filipe, Heule,
/// Hunt, Kaufmann and Schneider-Kamp, "Efficient Certified RAT
/// Verification", CADE 2017): every clause has an ID, and every derivation
/// names its antecedents, so the checker walks each step once instead of
/// re-deriving it by propagation. Two extensions make a *reusing*
/// incremental solver checkable:
///
///  * Delete records cover every clause the solver drops — clause-DB
///    reduction, scope retirement, and the unit clauses compacted off the
///    trail when a pinned definition variable is recycled — so the checker
///    mirrors the live clause count exactly. Every Query carries the
///    solver's live stored-clause count for the checker to cross-check; a
///    solver that forgets to log a drop is caught, not silently trusted.
///  * Recycle records mark a variable index as returned to the free list.
///    The checker verifies no live clause or unit mentions it before the
///    solver may rebind it — the invariant that makes recycling sound.
///
/// Steps, all appended to one flat `int` arena:
///
///  * Input: a clause exactly as the solver stores it — after root-level
///    normalization (tautology and satisfied-clause dropping, false-literal
///    stripping); the normalization is part of the trust base, as the CNF
///    stream is in standard DRAT checking. Empty = input contradiction.
///  * Derive: a learned clause plus its *chain*: clause IDs that, with the
///    clause's literals negated, each become unit in order and end in a
///    conflict. The solver's chains list the unit IDs of the root literals
///    its first-UIP walk skipped, then the reason clauses it resolved in
///    trail order, then the conflict clause.
///  * Delete: one clause ID.
///  * Recycle: one variable.
///  * Query: one Unsat verdict — the live-clause count, the final unsat
///    core, and the chain of the solve that produced that core.
///
/// Input and Derive steps are numbered 1, 2, ... in step order; that number
/// is the clause ID hints and deletions name. Queries are numbered 0, 1, ...
/// in step order; a verdict's certificate is identified by its number.
/// Literals are signed DIMACS integers (+v / -v, variables 1-based).
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_PROOF_PROOFTRACE_H
#define SEMCOMM_PROOF_PROOFTRACE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace semcomm {
namespace proof {

/// One record in a proof trace.
enum class StepKind : uint8_t {
  Input,   ///< Original clause as stored (axiom; empty = contradiction).
  Derive,  ///< Learned clause with the chain that establishes it.
  Delete,  ///< Clause dropped (reduceDb / retireScopes / unit compaction).
  Recycle, ///< Variable index returned to the free list; must be dead.
  Query,   ///< One Unsat verdict: live-clause count + core + chain.
};

const char *stepKindName(StepKind K);

/// A read-only run of ints inside a trace (or any contiguous buffer).
class IntSpan {
public:
  IntSpan() = default;
  IntSpan(const int *B, size_t N) : B(B), N(N) {}
  IntSpan(const std::vector<int> &V) : B(V.data()), N(V.size()) {}
  const int *begin() const { return B; }
  const int *end() const { return B + N; }
  size_t size() const { return N; }
  std::vector<int> vec() const { return std::vector<int>(begin(), end()); }

private:
  const int *B = nullptr;
  size_t N = 0;
};

/// One decoded step; its spans point into the trace's arena.
struct StepView {
  StepKind Kind = StepKind::Input;
  IntSpan Lits;  ///< Input/Derive: the clause. Query: the core.
  IntSpan Hints; ///< Derive/Query: the chain of clause IDs.
  int Id = 0;    ///< Delete: the clause ID.
  int Var = 0;   ///< Recycle: the variable.
  int LiveClauses = 0; ///< Query: the solver's stored (>= 2-literal) clauses.
};

/// An append-only proof log. The emitting solver owns the order; the
/// checker walks it front to back.
class ProofTrace {
public:
  /// Appends a copy of \p S. Returns the new clause's ID for Input and
  /// Derive, the query's number for Query, 0 otherwise.
  int append(const StepView &S);
  int addInput(const std::vector<int> &Lits) {
    return append({StepKind::Input, Lits, {}, 0, 0, 0});
  }
  int addDerive(const std::vector<int> &Lits, const std::vector<int> &Hints) {
    return append({StepKind::Derive, Lits, Hints, 0, 0, 0});
  }
  void addDelete(int Id) { append({StepKind::Delete, {}, {}, Id, 0, 0}); }
  void addRecycle(int Var) { append({StepKind::Recycle, {}, {}, 0, Var, 0}); }
  uint32_t addQuery(int LiveClauses, const std::vector<int> &Core,
                    const std::vector<int> &Hints) {
    return static_cast<uint32_t>(
        append({StepKind::Query, Core, Hints, 0, 0, LiveClauses}));
  }

  size_t size() const { return Steps; }
  size_t numQueries() const { return Queries; }
  int numClauses() const { return Clauses; } ///< IDs issued so far.

  /// Forward iteration over decoded steps.
  class Iterator {
  public:
    Iterator(const int *P) : P(P) {}
    StepView operator*() const {
      StepView S;
      decode(S);
      return S;
    }
    Iterator &operator++() {
      StepView S;
      P = decode(S);
      return *this;
    }
    bool operator!=(const Iterator &O) const { return P != O.P; }

  private:
    /// Fills \p S from the step at P; returns the next step's start.
    const int *decode(StepView &S) const;
    const int *P;
  };
  Iterator begin() const { return Iterator(Arena.data()); }
  Iterator end() const { return Iterator(Arena.data() + Arena.size()); }

  /// Text form: a `p semcommute-proof <steps>` header, then one line per
  /// step: `i <lits> 0`, `l <lits> 0 <hints> 0`, `d <id> 0`, `r <var> 0`,
  /// `q <live> <core> 0 <hints> 0`. The header's step count makes
  /// line-boundary truncation a parse error, not a silently shorter proof.
  std::string serialize() const;
  /// Parses the text form. Every integer must lie in its field's range
  /// (literals nonzero within +-INT_MAX, IDs and variables 1..INT_MAX,
  /// counts 0..INT_MAX), and no variable may exceed the text's count of
  /// literal and variable fields (the checker sizes per-variable state by
  /// the largest); on failure \p Error, when given, names the line and
  /// the field.
  static std::optional<ProofTrace> parse(const std::string &Text,
                                         std::string *Error = nullptr);

private:
  void pushSpan(IntSpan S);

  std::vector<int> Arena;
  size_t Steps = 0;
  size_t Queries = 0;
  int Clauses = 0;
};

} // namespace proof
} // namespace semcomm

#endif // SEMCOMM_PROOF_PROOFTRACE_H
