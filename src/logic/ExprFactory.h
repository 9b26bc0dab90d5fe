//===- logic/ExprFactory.h - Hash-consing expression builder ---*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExprFactory owns and uniques all Expr nodes (the Z3-Context-style
/// ownership model). Smart constructors perform only lightweight,
/// semantics-preserving folding (constant folding, unit laws, flattening of
/// n-ary connectives) so printed conditions keep the shape their authors
/// wrote.
///
/// Interning is an open-addressing hash table over arena-allocated nodes,
/// sharded by structural hash so concurrent engines (the parallel symbolic
/// driver path) can share a single factory: pointer equality stays
/// structural equality across every thread. Lookups are lock-free: a hit
/// probes the shard's published table with acquire loads and returns
/// without locking. Inserts are locked: a miss takes the shard's lock,
/// probes again, and publishes the new node with a release store. Growth
/// publishes a fresh table the same way and keeps the replaced ones alive
/// until the factory dies, since a reader may still be probing one; a
/// reader that misses in a stale table falls through to the locked path,
/// so the worst case is a slow path, never a duplicate node.
///
/// A hit does no heap work. The smart constructors hand their operands to
/// the interner as a pointer and a count into stack storage, the key is
/// hashed and compared in place (only variables and quantifiers hash their
/// name), and a node's own name string and operand vector are built only
/// on a miss, under the shard lock. Planning a pair on a warm factory, where
/// almost every node it builds exists already, therefore allocates little
/// beyond the plan it returns.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_LOGIC_EXPRFACTORY_H
#define SEMCOMM_LOGIC_EXPRFACTORY_H

#include "logic/Expr.h"
#include "support/ArrayRef.h"

#include <atomic>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace semcomm {

/// One binding of a substitution: every free occurrence of the variable
/// node Var becomes Value, a term of Var's sort.
struct Binding {
  ExprRef Var;
  ExprRef Value;
};

/// Creates and uniques expressions. All ExprRefs obtained from a factory are
/// valid for the factory's lifetime; structural equality is pointer equality.
/// Interning (and therefore every smart constructor) is safe to call from
/// multiple threads concurrently.
class ExprFactory {
public:
  ExprFactory();
  ExprFactory(const ExprFactory &) = delete;
  ExprFactory &operator=(const ExprFactory &) = delete;

  // Leaves.
  ExprRef boolConst(bool B);
  ExprRef trueExpr() { return CachedTrue; }
  ExprRef falseExpr() { return CachedFalse; }
  ExprRef intConst(int64_t N);
  ExprRef nullConst();
  ExprRef var(const std::string &Name, Sort S);

  // Integer terms.
  ExprRef add(ExprRef A, ExprRef B);
  ExprRef sub(ExprRef A, ExprRef B);
  ExprRef neg(ExprRef A);

  // Atoms.
  ExprRef eq(ExprRef A, ExprRef B);
  ExprRef ne(ExprRef A, ExprRef B) { return lnot(eq(A, B)); }
  ExprRef lt(ExprRef A, ExprRef B);
  ExprRef le(ExprRef A, ExprRef B);
  ExprRef gt(ExprRef A, ExprRef B) { return lt(B, A); }
  ExprRef ge(ExprRef A, ExprRef B) { return le(B, A); }

  // Connectives. The n-ary conj/disj apply unit laws and flatten nested
  // And/Or operands into a buffer that lives on the stack until it
  // outgrows 16 operands, so a hit allocates nothing.
  ExprRef lnot(ExprRef A);
  ExprRef conj(ArrayRef<ExprRef> Ops);
  ExprRef disj(ArrayRef<ExprRef> Ops);
  ExprRef conj(std::initializer_list<ExprRef> Ops) {
    return conj(ArrayRef<ExprRef>(Ops.begin(), Ops.size()));
  }
  ExprRef disj(std::initializer_list<ExprRef> Ops) {
    return disj(ArrayRef<ExprRef>(Ops.begin(), Ops.size()));
  }
  ExprRef conj2(ExprRef A, ExprRef B) { return conj({A, B}); }
  ExprRef disj2(ExprRef A, ExprRef B) { return disj({A, B}); }
  ExprRef implies(ExprRef A, ExprRef B);
  ExprRef iff(ExprRef A, ExprRef B);
  ExprRef ite(ExprRef C, ExprRef T, ExprRef E);

  // State queries. \p S must be State-sorted.
  ExprRef setContains(ExprRef S, ExprRef V);
  ExprRef mapGet(ExprRef S, ExprRef K);
  ExprRef mapHasKey(ExprRef S, ExprRef K);
  ExprRef seqAt(ExprRef S, ExprRef I);
  ExprRef seqLen(ExprRef S);
  ExprRef seqIndexOf(ExprRef S, ExprRef V);
  ExprRef seqLastIndexOf(ExprRef S, ExprRef V);
  ExprRef stateSize(ExprRef S);
  ExprRef counterValue(ExprRef S);

  // Bounded integer quantifiers over [Lo, Hi] inclusive.
  ExprRef forallInt(const std::string &BoundVar, ExprRef Lo, ExprRef Hi,
                    ExprRef Body);
  ExprRef existsInt(const std::string &BoundVar, ExprRef Lo, ExprRef Hi,
                    ExprRef Body);

  /// Capture-free substitution of variables by expressions: each Var of
  /// \p Subst (listed at most once) becomes its Value; a quantifier shadows
  /// the bindings of its bound name in its body; values are not
  /// substituted again. Memoized over the expression DAG (hash-consing
  /// shares subterms, so the naive recursion would revisit them
  /// exponentially often) in an open-addressing table whose first slots,
  /// like the buffer operands are rebuilt in, sit on the stack: a small
  /// formula substitutes without heap work, and a large one grows the
  /// table once per doubling, never once per entry.
  ExprRef substitute(ExprRef E, ArrayRef<Binding> Subst);
  ExprRef substitute(ExprRef E, std::initializer_list<Binding> Subst) {
    return substitute(E, ArrayRef<Binding>(Subst.begin(), Subst.size()));
  }

  /// Number of distinct nodes allocated (diagnostics / tests).
  size_t numNodes() const;

private:
  /// A power-of-two open-addressing table of node pointers. Slots only
  /// ever go from null to a node, so a probe that meets null has seen
  /// every node inserted into this table before it.
  struct Table {
    explicit Table(size_t Size)
        : Mask(Size - 1), Slots(new std::atomic<const Expr *>[Size]) {
      for (size_t I = 0; I != Size; ++I)
        Slots[I].store(nullptr, std::memory_order_relaxed);
    }
    size_t Mask;
    std::unique_ptr<std::atomic<const Expr *>[]> Slots;
  };

  /// One slice of the intern table, on its own cache line. Readers touch
  /// only Current and the slots it points to; everything else is guarded
  /// by Mutex. The arena is a deque, which never moves constructed nodes,
  /// so ExprRefs stay valid as the shard grows.
  struct alignas(64) Shard {
    std::atomic<Table *> Current{nullptr};
    mutable std::mutex Mutex;
    size_t Count = 0;
    std::deque<Expr> Arena;
    /// Every table the shard has published, the current one last.
    std::vector<std::unique_ptr<Table>> Tables;
  };

  static constexpr size_t NumShards = 16; ///< Power of two.

  /// Interns the node (K, S, Payload, Name, Ops). Payload matters for
  /// constants and Name for variables and quantifiers only. \p Ops is read
  /// in place; the node's copies of Name and Ops are made only when it is
  /// new.
  ExprRef make(ExprKind K, Sort S, int64_t Payload, const std::string &Name,
               ArrayRef<ExprRef> Ops);
  /// make() for the nameless, payload-free operator kinds.
  ExprRef makeOp(ExprKind K, Sort S, std::initializer_list<ExprRef> Ops);
  static Table &growTable(Shard &Sh);

  Shard Shards[NumShards];
  ExprRef CachedTrue = nullptr;
  ExprRef CachedFalse = nullptr;
};

} // namespace semcomm

#endif // SEMCOMM_LOGIC_EXPRFACTORY_H
