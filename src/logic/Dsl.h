//===- logic/Dsl.h - Vocabulary for writing conditions ----------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vocab bundles the standard variables of the paper's condition language —
/// arguments v1/v2/k1/k2/i1/i2, return values r1/r2, and the three abstract
/// states s1 (initial), s2 (between), s3 (final) — plus shorthand builders,
/// so the 765-entry catalog reads close to the paper's tables.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_LOGIC_DSL_H
#define SEMCOMM_LOGIC_DSL_H

#include "logic/ExprFactory.h"

namespace semcomm {

/// The standard condition-writing vocabulary over a factory.
struct Vocab {
  explicit Vocab(ExprFactory &F)
      : F(F), S1(F.var("s1", Sort::State)), S2(F.var("s2", Sort::State)),
        S3(F.var("s3", Sort::State)), V1(F.var("v1", Sort::Obj)),
        V2(F.var("v2", Sort::Obj)), K1(F.var("k1", Sort::Obj)),
        K2(F.var("k2", Sort::Obj)), I1(F.var("i1", Sort::Int)),
        I2(F.var("i2", Sort::Int)), N1(F.var("v1", Sort::Int)),
        N2(F.var("v2", Sort::Int)), R1B(F.var("r1", Sort::Bool)),
        R2B(F.var("r2", Sort::Bool)), R1O(F.var("r1", Sort::Obj)),
        R2O(F.var("r2", Sort::Obj)), R1I(F.var("r1", Sort::Int)),
        R2I(F.var("r2", Sort::Int)) {}

  ExprFactory &F;

  // States: initial / between (after the first operation) / final.
  ExprRef S1, S2, S3;
  // Object-sorted arguments (set elements, map values) and keys.
  ExprRef V1, V2, K1, K2;
  // Integer arguments (ArrayList indices).
  ExprRef I1, I2;
  // Integer-sorted v1/v2 (Accumulator increments).
  ExprRef N1, N2;
  // Return values at each sort.
  ExprRef R1B, R2B, R1O, R2O, R1I, R2I;

  // -- Shorthand builders ---------------------------------------------------

  ExprRef c(int64_t N) const { return F.intConst(N); }
  ExprRef null() const { return F.nullConst(); }
  ExprRef tru() const { return F.trueExpr(); }
  ExprRef fls() const { return F.falseExpr(); }

  /// v in s / v ~in s.
  ExprRef in(ExprRef V, ExprRef S) const { return F.setContains(S, V); }
  ExprRef notIn(ExprRef V, ExprRef S) const { return F.lnot(in(V, S)); }

  /// (k, v) in s — the map binds k to v.
  ExprRef maps(ExprRef S, ExprRef K, ExprRef V) const {
    return F.eq(F.mapGet(S, K), V);
  }
  /// (k, _) in s / (k, _) ~in s.
  ExprRef hasKey(ExprRef S, ExprRef K) const { return F.mapHasKey(S, K); }
  ExprRef noKey(ExprRef S, ExprRef K) const { return F.lnot(hasKey(S, K)); }

  /// s[i], |s|, idx(s, v), lidx(s, v).
  ExprRef at(ExprRef S, ExprRef I) const { return F.seqAt(S, I); }
  ExprRef len(ExprRef S) const { return F.seqLen(S); }
  ExprRef idx(ExprRef S, ExprRef V) const { return F.seqIndexOf(S, V); }
  ExprRef lidx(ExprRef S, ExprRef V) const {
    return F.seqLastIndexOf(S, V);
  }

  ExprRef eq(ExprRef A, ExprRef B) const { return F.eq(A, B); }
  ExprRef ne(ExprRef A, ExprRef B) const { return F.ne(A, B); }
  ExprRef lt(ExprRef A, ExprRef B) const { return F.lt(A, B); }
  ExprRef le(ExprRef A, ExprRef B) const { return F.le(A, B); }
  ExprRef gt(ExprRef A, ExprRef B) const { return F.gt(A, B); }
  ExprRef ge(ExprRef A, ExprRef B) const { return F.ge(A, B); }
  ExprRef add(ExprRef A, ExprRef B) const { return F.add(A, B); }
  ExprRef sub(ExprRef A, ExprRef B) const { return F.sub(A, B); }

  ExprRef lnot(ExprRef A) const { return F.lnot(A); }
  ExprRef conj(std::initializer_list<ExprRef> Ops) const {
    return F.conj(Ops);
  }
  ExprRef disj(std::initializer_list<ExprRef> Ops) const {
    return F.disj(Ops);
  }
};

} // namespace semcomm

#endif // SEMCOMM_LOGIC_DSL_H
