//===- inverse/SymbolicInverseEngine.cpp - Symbolic inverse VCs -------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "inverse/SymbolicInverseEngine.h"

#include "support/Unreachable.h"

#include <string>
#include <vector>

using namespace semcomm;

namespace {

/// Accumulator: s1.increase(v) ; s2.increase(-v). The restored counter is
/// the term c0 + v + (-v); its identity VC folds in the canonicalizer.
MethodPlan counterInversePlan(ExprFactory &F) {
  ExprRef C0 = F.var("c0", Sort::Int);
  ExprRef V = F.var("v", Sort::Int);
  ExprRef Final = F.add(F.add(C0, V), F.neg(V));

  MethodPlan P;
  P.Name = "inverse_Accumulator_increase";
  VcSplit S;
  S.Assumed.push_back({F.lnot(F.eq(Final, C0)), "not-identity"});
  P.Splits.push_back(std::move(S));
  return P;
}

/// Set add/remove: the inverse branches on the recorded return value r, so
/// the restored membership of an element x is an ITE on r over the update
/// chains. Identity is checked at the touched element v and at a fresh
/// symbolic element w (the case split on w = v exercises the membership
/// congruence bridges).
MethodPlan setInversePlan(ExprFactory &F, const InverseSpec &Spec) {
  ExprRef S0 = F.var("S0", Sort::State);
  ExprRef V = F.var("v", Sort::Obj);
  ExprRef W = F.var("w", Sort::Obj);

  auto Mem0 = [&](ExprRef X) { return F.setContains(S0, X); };
  bool IsAdd = Spec.OpName == "add";
  // r: "the forward operation changed the state".
  ExprRef R = IsAdd ? F.lnot(Mem0(V)) : Mem0(V);

  auto Final = [&](ExprRef X) -> ExprRef {
    if (IsAdd) {
      // add(v) then (if r then remove(v)).
      ExprRef AfterAdd = F.disj({F.eq(X, V), Mem0(X)});
      return F.ite(R, F.conj({F.ne(X, V), AfterAdd}), AfterAdd);
    }
    // remove(v) then (if r then add(v)).
    ExprRef AfterRem = F.conj({F.ne(X, V), Mem0(X)});
    return F.ite(R, F.disj({F.eq(X, V), AfterRem}), AfterRem);
  };

  MethodPlan P;
  P.Name = "inverse_Set_" + Spec.OpName;
  P.Common = {F.ne(V, F.nullConst()), F.ne(W, F.nullConst())};
  for (auto [X, Tag] : {std::pair<ExprRef, const char *>{V, "v"},
                        std::pair<ExprRef, const char *>{W, "w"}}) {
    VcSplit S;
    S.Assumed.push_back({F.lnot(F.iff(Final(X), Mem0(X))),
                         std::string("not-identity@") + Tag});
    P.Splits.push_back(std::move(S));
  }
  return P;
}

/// Map put/remove: the recorded return is the previous binding
/// r = get(M0, k); the inverse branches on r ~= null. The restored lookup
/// at a key x is a nested object ITE that the session's eqObj lowering
/// unfolds; identity is checked at the touched key k and a fresh key k2
/// (exercising the lookup congruence bridges).
MethodPlan mapInversePlan(ExprFactory &F, const InverseSpec &Spec) {
  ExprRef M0 = F.var("M0", Sort::State);
  ExprRef K = F.var("k", Sort::Obj);
  ExprRef K2 = F.var("k2", Sort::Obj);
  ExprRef Null = F.nullConst();

  auto Get0 = [&](ExprRef X) { return F.mapGet(M0, X); };
  ExprRef R = Get0(K);
  ExprRef Cond = F.ne(R, Null); // "the key was bound before".
  bool IsPut = Spec.OpName == "put";

  auto Final = [&](ExprRef X) -> ExprRef {
    if (IsPut) {
      ExprRef V = F.var("v", Sort::Obj);
      // put(k, v) then (if r ~= null then put(k, r) else remove(k)).
      ExprRef AfterPut = F.ite(F.eq(X, K), V, Get0(X));
      ExprRef PutBack = F.ite(F.eq(X, K), R, AfterPut);
      ExprRef Removed = F.ite(F.eq(X, K), Null, AfterPut);
      return F.ite(Cond, PutBack, Removed);
    }
    // remove(k) then (if r ~= null then put(k, r)).
    ExprRef AfterRem = F.ite(F.eq(X, K), Null, Get0(X));
    ExprRef PutBack = F.ite(F.eq(X, K), R, AfterRem);
    return F.ite(Cond, PutBack, AfterRem);
  };

  MethodPlan P;
  P.Name = "inverse_Map_" + Spec.OpName;
  P.Common = {F.ne(K, Null), F.ne(K2, Null)};
  if (IsPut)
    P.Common.push_back(F.ne(F.var("v", Sort::Obj), Null));
  for (auto [X, Tag] : {std::pair<ExprRef, const char *>{K, "k"},
                        std::pair<ExprRef, const char *>{K2, "k2"}}) {
    VcSplit S;
    S.Assumed.push_back({F.lnot(F.eq(Final(X), Get0(X))),
                         std::string("not-identity@") + Tag});
    P.Splits.push_back(std::move(S));
  }
  return P;
}

/// ArrayList add_at/remove_at/set: lengths and indices are case-split up
/// to the bound with symbolic elements; the inverse must restore the exact
/// element-term vector, and its precondition must hold in the
/// post-operation state (Property 3), which is decidable per split.
MethodPlan seqInversePlan(ExprFactory &F, const InverseSpec &Spec,
                          int SeqLenBound) {
  MethodPlan P;
  P.Name = "inverse_ArrayList_" + Spec.OpName;

  ExprRef V = F.var("v", Sort::Obj);
  P.Common = {F.ne(V, F.nullConst())};
  for (int64_t I = 0; I < SeqLenBound; ++I)
    P.Common.push_back(
        F.ne(F.var("e" + std::to_string(I), Sort::Obj), F.nullConst()));

  for (int64_t N = 0; N <= SeqLenBound; ++N) {
    std::vector<ExprRef> Initial;
    for (int64_t I = 0; I < N; ++I)
      Initial.push_back(F.var("e" + std::to_string(I), Sort::Obj));

    // Valid forward index range per operation.
    int64_t IHi = Spec.OpName == "add_at" ? N : N - 1;
    for (int64_t I = 0; I <= IHi; ++I) {
      std::vector<ExprRef> S = Initial;
      bool InversePreOk = true;
      if (Spec.OpName == "add_at") {
        S.insert(S.begin() + static_cast<size_t>(I), V);
        // Inverse remove_at(i): needs 0 <= i < len.
        InversePreOk = I < static_cast<int64_t>(S.size());
        if (InversePreOk)
          S.erase(S.begin() + static_cast<size_t>(I));
      } else if (Spec.OpName == "remove_at") {
        ExprRef R = S[static_cast<size_t>(I)];
        S.erase(S.begin() + static_cast<size_t>(I));
        // Inverse add_at(i, r): needs 0 <= i <= len.
        InversePreOk = I <= static_cast<int64_t>(S.size());
        if (InversePreOk)
          S.insert(S.begin() + static_cast<size_t>(I), R);
      } else if (Spec.OpName == "set") {
        ExprRef R = S[static_cast<size_t>(I)];
        S[static_cast<size_t>(I)] = V;
        // Inverse set(i, r): needs 0 <= i < len.
        InversePreOk = I < static_cast<int64_t>(S.size());
        if (InversePreOk)
          S[static_cast<size_t>(I)] = R;
      } else {
        semcomm_unreachable("unknown ArrayList inverse operation");
      }

      VcSplit Split;
      Split.Label = "n=" + std::to_string(N) + " i=" + std::to_string(I);
      if (!InversePreOk || S.size() != Initial.size()) {
        // Property 3 violated structurally: emit an unconditionally
        // satisfiable VC so the method reports the failing split.
        Split.Assumed.push_back({F.trueExpr(), "inverse-pre-violated"});
      } else {
        std::vector<ExprRef> Eqs;
        for (size_t PIdx = 0; PIdx != S.size(); ++PIdx)
          Eqs.push_back(F.eq(S[PIdx], Initial[PIdx]));
        Split.Assumed.push_back({F.lnot(F.conj(Eqs)), "not-identity"});
      }
      P.Splits.push_back(std::move(Split));
    }
  }
  return P;
}

} // namespace

SymbolicResult semcomm::verifyInverseSymbolic(ExprFactory &F,
                                              const InverseSpec &Spec,
                                              int SeqLenBound,
                                              int64_t ConflictBudget,
                                              SolveMode Mode, bool Certify) {
  MethodPlan Plan;
  switch (Spec.Fam->Kind) {
  case StateKind::Counter:
    Plan = counterInversePlan(F);
    break;
  case StateKind::Set:
    Plan = setInversePlan(F, Spec);
    break;
  case StateKind::Map:
    Plan = mapInversePlan(F, Spec);
    break;
  case StateKind::Seq:
    Plan = seqInversePlan(F, Spec, SeqLenBound);
    break;
  }

  SymbolicResult R;
  R.Verified = dischargeAlone(F, Plan, Mode, Spec.Fam->Name, Spec.OpName,
                              ConflictBudget, /*GcBudget=*/0, Certify, R);
  return R;
}
