//===- commute/SymbolicEngine.cpp - VC-based verification -------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "commute/SymbolicEngine.h"

#include "support/Unreachable.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <set>

using namespace semcomm;

namespace {

/// Counts distinct expression nodes. Formulas are added one by one, each
/// counting only the nodes not counted yet, and forget() drops the nodes
/// added after the first few, so a split's agreement goal is walked once
/// for all of its conditions. The nodes sit in a linear-probing table of
/// node addresses, which is emptied, not freed: a plan builder counting
/// every split stops allocating once the table fits its largest split.
/// A reused std::unordered_set, which allocates a node per insert, planned
/// the catalog's 170 pairs ~10% slower (~1 ms, 4-vCPU x86-64 host).
class DagCounter {
public:
  /// Adds the nodes of \p E not counted yet and returns how many.
  uint64_t add(ExprRef E) {
    size_t Before = Added.size();
    Stack.assign(1, E);
    while (!Stack.empty()) {
      ExprRef N = Stack.back();
      Stack.pop_back();
      ExprRef &Slot = slotOf(N);
      if (Slot)
        continue;
      Slot = N;
      Added.push_back(N);
      if (2 * Added.size() > Table.size()) {
        ++Bits;
        Table.assign(size_t(1) << Bits, nullptr);
        for (ExprRef Old : Added)
          slotOf(Old) = Old;
      }
      Stack.insert(Stack.end(), N->operands().begin(), N->operands().end());
    }
    return Added.size() - Before;
  }
  /// Drops all but the first \p Mark nodes counted, latest first: a node's
  /// probe run holds only nodes counted before it, so it stays findable.
  void forget(size_t Mark) {
    while (Added.size() > Mark) {
      slotOf(Added.back()) = nullptr;
      Added.pop_back();
    }
  }

private:
  /// \p N's slot, or the empty slot its probe run ends at.
  ExprRef &slotOf(ExprRef N) {
    size_t Slot = static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(N) * 0x9e3779b97f4a7c15ull) >>
        (64 - Bits));
    while (Table[Slot] && Table[Slot] != N)
      Slot = (Slot + 1) & (Table.size() - 1);
    return Table[Slot];
  }

  unsigned Bits = 6;
  std::vector<ExprRef> Table = std::vector<ExprRef>(size_t(1) << Bits);
  std::vector<ExprRef> Added; ///< The counted nodes, in insertion order.
  std::vector<ExprRef> Stack;
};

/// The calling thread's counter, emptied. Pair plans are built on many
/// threads at once, and a counter kept across plans stops allocating.
DagCounter &nodeCounter() {
  thread_local DagCounter Counter;
  Counter.forget(0);
  return Counter;
}

/// The symbolic result of one operation application: exactly one member is
/// meaningful, discriminated by K.
struct SymValue {
  enum class Kind { None, BoolFormula, ObjTerm, ObjLeaves, IntConst, IdxTerm,
                    IntTerm, SizeSnapshot };
  Kind K = Kind::None;

  ExprRef Formula = nullptr;                          ///< BoolFormula.
  ExprRef Term = nullptr;   ///< ObjTerm / IdxTerm marker / IntTerm.
  std::vector<std::pair<ExprRef, ExprRef>> Leaves;    ///< ObjLeaves.
  int64_t IntVal = 0;                                 ///< IntConst.
  std::vector<std::pair<ExprRef, int>> Deltas;        ///< SizeSnapshot.
};

/// Enumerate all boolean assignments of the conditions in \p Deltas and
/// keep those where the two delta sums agree; used for size()-result and
/// size-field equality goals (at most a handful of conditions occur).
ExprRef sizeAgreement(ExprFactory &F,
                      const std::vector<std::pair<ExprRef, int>> &A,
                      const std::vector<std::pair<ExprRef, int>> &B) {
  std::vector<std::pair<ExprRef, int>> All = A;
  All.insert(All.end(), B.begin(), B.end());
  size_t NA = A.size();
  std::vector<ExprRef> Cases;
  for (unsigned Mask = 0; Mask < (1u << All.size()); ++Mask) {
    int64_t SumA = 0, SumB = 0;
    std::vector<ExprRef> Conj;
    for (size_t I = 0; I != All.size(); ++I) {
      bool On = Mask & (1u << I);
      Conj.push_back(On ? All[I].first : F.lnot(All[I].first));
      if (On)
        (I < NA ? SumA : SumB) += All[I].second;
    }
    if (SumA == SumB)
      Cases.push_back(F.conj(std::move(Conj)));
  }
  return F.disj(std::move(Cases));
}

/// Generic bottom-up rewrite of a condition formula, delegating every
/// state-query / comparison atom to \p OnAtom.
ExprRef rewriteBool(ExprFactory &F, ExprRef E,
                    const std::function<ExprRef(ExprRef)> &OnAtom) {
  switch (E->kind()) {
  case ExprKind::ConstBool:
    return E;
  case ExprKind::Not:
    return F.lnot(rewriteBool(F, E->operand(0), OnAtom));
  case ExprKind::And:
  case ExprKind::Or: {
    std::vector<ExprRef> Ops;
    for (ExprRef Op : E->operands())
      Ops.push_back(rewriteBool(F, Op, OnAtom));
    return E->kind() == ExprKind::And ? F.conj(std::move(Ops))
                                      : F.disj(std::move(Ops));
  }
  case ExprKind::Implies:
    return F.implies(rewriteBool(F, E->operand(0), OnAtom),
                     rewriteBool(F, E->operand(1), OnAtom));
  case ExprKind::Iff:
    return F.iff(rewriteBool(F, E->operand(0), OnAtom),
                 rewriteBool(F, E->operand(1), OnAtom));
  default:
    return OnAtom(E);
  }
}

/// The two VC shapes shared by every family: soundness refutes
/// Phi ∧ ¬Agree, completeness refutes ¬Phi ∧ Agree. For the single-VC
/// families the whole body goes into the plan's selector-scoped prefix and
/// the lone split carries no extra assumptions.
void addRoleVc(MethodPlan &P, ExprFactory &F, MethodRole Role, ExprRef Phi,
               ExprRef Agree) {
  if (Role == MethodRole::Soundness) {
    P.Scoped.push_back({Phi, "phi"});
    P.Scoped.push_back({F.lnot(Agree), "not-agree"});
  } else {
    P.Scoped.push_back({F.lnot(Phi), "not-phi"});
    P.Scoped.push_back({Agree, "agree"});
  }
  P.Splits.push_back(VcSplit{});
  DagCounter &Nodes = nodeCounter();
  P.Nodes = Nodes.add(Agree) + Nodes.add(Phi);
}

/// The per-split assumption pair of the multi-VC (ArrayList) family.
std::vector<TaggedAssumption> roleAssumptions(ExprFactory &F,
                                              MethodRole Role, ExprRef Phi,
                                              ExprRef Agree) {
  if (Role == MethodRole::Soundness)
    return {{Phi, "phi"}, {F.lnot(Agree), "not-agree"}};
  return {{F.lnot(Phi), "not-phi"}, {Agree, "agree"}};
}

// ===========================================================================
// Accumulator
// ===========================================================================

MethodPlan buildCounterPlan(ExprFactory &F, const TestingMethod &M) {
  const ConditionEntry &E = *M.Entry;
  ExprRef C0 = F.var("c0", Sort::Int);

  auto Arg = [&F](const Operation &Op, int Pos) -> ExprRef {
    if (Op.ArgSorts.empty())
      return nullptr;
    return F.var(Op.ArgBaseNames[0] + std::to_string(Pos), Sort::Int);
  };
  ExprRef A1 = Arg(E.op1(), 1), A2 = Arg(E.op2(), 2);

  auto Apply = [&F](const Operation &Op, ExprRef ArgTerm,
                    ExprRef &State) -> ExprRef {
    if (Op.Name == "increase") {
      State = F.add(State, ArgTerm);
      return nullptr;
    }
    return State; // read()
  };

  // First order on "a", reverse order on "b".
  ExprRef SA = C0, SB = C0;
  ExprRef S1 = C0;
  ExprRef R1a = Apply(E.op1(), A1, SA);
  ExprRef S2 = SA;
  ExprRef R2a = Apply(E.op2(), A2, SA);
  ExprRef S3 = SA;
  ExprRef R2b = Apply(E.op2(), A2, SB);
  ExprRef R1b = Apply(E.op1(), A1, SB);

  // Unfold the condition: counter queries map to the matching state term.
  auto OnAtom = [&](ExprRef Atom) -> ExprRef {
    std::map<std::string, ExprRef> Subst;
    if (E.op1().RecordsReturn && R1a)
      Subst["r1"] = R1a;
    if (E.op2().RecordsReturn && R2a)
      Subst["r2"] = R2a;
    ExprRef A = F.substitute(Atom, Subst);
    // Replace counter-value queries textually by their terms.
    std::function<ExprRef(ExprRef)> Go = [&](ExprRef X) -> ExprRef {
      if (X->kind() == ExprKind::CounterValue) {
        const std::string &N = X->operand(0)->name();
        return N == "s1" ? S1 : (N == "s2" ? S2 : S3);
      }
      if (X->numOperands() == 0)
        return X;
      std::vector<ExprRef> Ops;
      for (ExprRef Op : X->operands())
        Ops.push_back(Go(Op));
      switch (X->kind()) {
      case ExprKind::Eq:
        return F.eq(Ops[0], Ops[1]);
      case ExprKind::Lt:
        return F.lt(Ops[0], Ops[1]);
      case ExprKind::Le:
        return F.le(Ops[0], Ops[1]);
      case ExprKind::Add:
        return F.add(Ops[0], Ops[1]);
      case ExprKind::Sub:
        return F.sub(Ops[0], Ops[1]);
      case ExprKind::Neg:
        return F.neg(Ops[0]);
      default:
        return X;
      }
    };
    return Go(A);
  };
  ExprRef Phi = rewriteBool(F, E.get(M.Kind), OnAtom);

  std::vector<ExprRef> Agree;
  if (E.op1().RecordsReturn && R1a)
    Agree.push_back(F.eq(R1a, R1b));
  if (E.op2().RecordsReturn && R2a)
    Agree.push_back(F.eq(R2a, R2b));
  Agree.push_back(F.eq(SA, SB));
  ExprRef AgreeAll = F.conj(std::move(Agree));

  MethodPlan P;
  P.Name = M.name();
  addRoleVc(P, F, M.Role, Phi, AgreeAll);
  return P;
}

// ===========================================================================
// Set
// ===========================================================================

/// A symbolic set: the uninterpreted initial set S0 plus an update chain.
struct SymSet {
  std::vector<std::pair<bool, ExprRef>> Updates; ///< (isInsert, element).
  std::vector<std::pair<ExprRef, int>> Deltas;   ///< size changes.
};

ExprRef setMem(ExprFactory &F, ExprRef S0, const SymSet &S, ExprRef X) {
  ExprRef M = F.setContains(S0, X);
  for (const auto &[IsInsert, V] : S.Updates)
    M = IsInsert ? F.disj({F.eq(X, V), M}) : F.conj({F.ne(X, V), M});
  return M;
}

MethodPlan buildSetPlan(ExprFactory &F, const TestingMethod &M) {
  const ConditionEntry &E = *M.Entry;
  ExprRef S0 = F.var("S0", Sort::State);
  ExprRef V1 = F.var("v1", Sort::Obj), V2 = F.var("v2", Sort::Obj);

  auto Apply = [&](const Operation &Op, ExprRef V, SymSet &S) -> SymValue {
    SymValue R;
    if (Op.CallName == "add") {
      R.K = SymValue::Kind::BoolFormula;
      R.Formula = F.lnot(setMem(F, S0, S, V));
      S.Deltas.push_back({R.Formula, +1});
      S.Updates.push_back({true, V});
    } else if (Op.CallName == "remove") {
      R.K = SymValue::Kind::BoolFormula;
      R.Formula = setMem(F, S0, S, V);
      S.Deltas.push_back({R.Formula, -1});
      S.Updates.push_back({false, V});
    } else if (Op.CallName == "contains") {
      R.K = SymValue::Kind::BoolFormula;
      R.Formula = setMem(F, S0, S, V);
    } else { // size
      R.K = SymValue::Kind::SizeSnapshot;
      R.Deltas = S.Deltas;
    }
    return R;
  };

  auto ArgOf = [&](const Operation &Op, ExprRef V) -> ExprRef {
    return Op.ArgSorts.empty() ? nullptr : V;
  };

  SymSet SA, SB;
  SymSet St1 = SA; // initial snapshot (empty update chain)
  SymValue R1a = Apply(E.op1(), ArgOf(E.op1(), V1), SA);
  SymSet St2 = SA;
  SymValue R2a = Apply(E.op2(), ArgOf(E.op2(), V2), SA);
  SymSet St3 = SA;
  SymValue R2b = Apply(E.op2(), ArgOf(E.op2(), V2), SB);
  SymValue R1b = Apply(E.op1(), ArgOf(E.op1(), V1), SB);

  auto StateAt = [&](const std::string &N) -> const SymSet & {
    return N == "s1" ? St1 : (N == "s2" ? St2 : St3);
  };

  // Condition unfolding: membership atoms through the chains; r1/r2 by
  // their result formulas (bool-returning operations only, per catalog).
  auto OnAtom = [&](ExprRef Atom) -> ExprRef {
    if (Atom->kind() == ExprKind::SetContains)
      return setMem(F, S0, StateAt(Atom->operand(0)->name()),
                    Atom->operand(1));
    if (Atom->kind() == ExprKind::Var && Atom->sort() == Sort::Bool) {
      if (Atom->name() == "r1" && R1a.K == SymValue::Kind::BoolFormula)
        return R1a.Formula;
      if (Atom->name() == "r2" && R2a.K == SymValue::Kind::BoolFormula)
        return R2a.Formula;
    }
    return Atom;
  };
  ExprRef Phi = rewriteBool(F, E.get(M.Kind), OnAtom);

  auto RetEq = [&](const SymValue &A, const SymValue &B) -> ExprRef {
    if (A.K == SymValue::Kind::BoolFormula)
      return F.iff(A.Formula, B.Formula);
    assert(A.K == SymValue::Kind::SizeSnapshot && "unexpected set return");
    return sizeAgreement(F, A.Deltas, B.Deltas);
  };

  std::vector<ExprRef> Agree;
  if (E.op1().RecordsReturn)
    Agree.push_back(RetEq(R1a, R1b));
  if (E.op2().RecordsReturn)
    Agree.push_back(RetEq(R2a, R2b));
  // Extensionality at the touched elements is exact: no other element's
  // membership is affected by either order.
  for (ExprRef X : {V1, V2})
    Agree.push_back(F.iff(setMem(F, S0, SA, X), setMem(F, S0, SB, X)));
  ExprRef AgreeAll = F.conj(std::move(Agree));

  MethodPlan P;
  P.Name = M.name();
  P.Common = {F.ne(V1, F.nullConst()), F.ne(V2, F.nullConst())};
  addRoleVc(P, F, M.Role, Phi, AgreeAll);
  return P;
}

// ===========================================================================
// Map
// ===========================================================================

/// A symbolic map: the uninterpreted initial map M0 plus an update chain.
struct SymMap {
  struct Update {
    bool IsPut;
    ExprRef Key;
    ExprRef Val; ///< Null for removals.
  };
  std::vector<Update> Updates;
  std::vector<std::pair<ExprRef, int>> Deltas;
};

using LeafVec = std::vector<std::pair<ExprRef, ExprRef>>;

LeafVec mapGetLeaves(ExprFactory &F, ExprRef M0, const SymMap &S, ExprRef K) {
  LeafVec Leaves = {{F.trueExpr(), F.mapGet(M0, K)}};
  for (const SymMap::Update &U : S.Updates) {
    LeafVec Next;
    Next.push_back({F.eq(K, U.Key), U.IsPut ? U.Val : F.nullConst()});
    for (auto &[C, T] : Leaves)
      Next.push_back({F.conj({F.ne(K, U.Key), C}), T});
    Leaves = std::move(Next);
  }
  return Leaves;
}

ExprRef mapHasKey(ExprFactory &F, ExprRef M0, const SymMap &S, ExprRef K) {
  ExprRef H = F.ne(F.mapGet(M0, K), F.nullConst());
  for (const SymMap::Update &U : S.Updates)
    H = U.IsPut ? F.disj({F.eq(K, U.Key), H})
                : F.conj({F.ne(K, U.Key), H});
  return H;
}

ExprRef leavesEqual(ExprFactory &F, const LeafVec &A, const LeafVec &B) {
  std::vector<ExprRef> Cases;
  for (const auto &[CA, TA] : A)
    for (const auto &[CB, TB] : B)
      Cases.push_back(F.conj({CA, CB, F.eq(TA, TB)}));
  return F.disj(std::move(Cases));
}

MethodPlan buildMapPlan(ExprFactory &F, const TestingMethod &M) {
  const ConditionEntry &E = *M.Entry;
  ExprRef M0 = F.var("M0", Sort::State);

  auto Args = [&](const Operation &Op, int Pos) -> std::vector<ExprRef> {
    std::vector<ExprRef> Out;
    for (const std::string &Base : Op.ArgBaseNames)
      Out.push_back(F.var(Base + std::to_string(Pos), Sort::Obj));
    return Out;
  };
  std::vector<ExprRef> A1 = Args(E.op1(), 1), A2 = Args(E.op2(), 2);

  auto Apply = [&](const Operation &Op, const std::vector<ExprRef> &A,
                   SymMap &S) -> SymValue {
    SymValue R;
    if (Op.CallName == "put") {
      R.K = SymValue::Kind::ObjLeaves;
      R.Leaves = mapGetLeaves(F, M0, S, A[0]);
      S.Deltas.push_back({F.lnot(mapHasKey(F, M0, S, A[0])), +1});
      S.Updates.push_back({true, A[0], A[1]});
    } else if (Op.CallName == "remove") {
      R.K = SymValue::Kind::ObjLeaves;
      R.Leaves = mapGetLeaves(F, M0, S, A[0]);
      S.Deltas.push_back({mapHasKey(F, M0, S, A[0]), -1});
      S.Updates.push_back({false, A[0], nullptr});
    } else if (Op.CallName == "get") {
      R.K = SymValue::Kind::ObjLeaves;
      R.Leaves = mapGetLeaves(F, M0, S, A[0]);
    } else if (Op.CallName == "containsKey") {
      R.K = SymValue::Kind::BoolFormula;
      R.Formula = mapHasKey(F, M0, S, A[0]);
    } else { // size
      R.K = SymValue::Kind::SizeSnapshot;
      R.Deltas = S.Deltas;
    }
    return R;
  };

  SymMap SA, SB;
  SymMap St1 = SA;
  SymValue R1a = Apply(E.op1(), A1, SA);
  SymMap St2 = SA;
  SymValue R2a = Apply(E.op2(), A2, SA);
  SymMap St3 = SA;
  SymValue R2b = Apply(E.op2(), A2, SB);
  SymValue R1b = Apply(E.op1(), A1, SB);

  auto StateAt = [&](const std::string &N) -> const SymMap & {
    return N == "s1" ? St1 : (N == "s2" ? St2 : St3);
  };

  // Leaf representation of a term occurring in a condition atom.
  auto LeafRep = [&](ExprRef T) -> LeafVec {
    if (T->kind() == ExprKind::MapGet)
      return mapGetLeaves(F, M0, StateAt(T->operand(0)->name()),
                          T->operand(1));
    if (T->kind() == ExprKind::Var && T->sort() == Sort::Obj) {
      if (T->name() == "r1" && R1a.K == SymValue::Kind::ObjLeaves)
        return R1a.Leaves;
      if (T->name() == "r2" && R2a.K == SymValue::Kind::ObjLeaves)
        return R2a.Leaves;
    }
    return {{F.trueExpr(), T}};
  };

  auto OnAtom = [&](ExprRef Atom) -> ExprRef {
    if (Atom->kind() == ExprKind::MapHasKey)
      return mapHasKey(F, M0, StateAt(Atom->operand(0)->name()),
                       Atom->operand(1));
    if (Atom->kind() == ExprKind::Eq &&
        Atom->operand(0)->sort() == Sort::Obj)
      return leavesEqual(F, LeafRep(Atom->operand(0)),
                         LeafRep(Atom->operand(1)));
    if (Atom->kind() == ExprKind::Var && Atom->sort() == Sort::Bool) {
      if (Atom->name() == "r1" && R1a.K == SymValue::Kind::BoolFormula)
        return R1a.Formula;
      if (Atom->name() == "r2" && R2a.K == SymValue::Kind::BoolFormula)
        return R2a.Formula;
    }
    return Atom;
  };
  ExprRef Phi = rewriteBool(F, E.get(M.Kind), OnAtom);

  auto RetEq = [&](const SymValue &A, const SymValue &B) -> ExprRef {
    switch (A.K) {
    case SymValue::Kind::ObjLeaves:
      return leavesEqual(F, A.Leaves, B.Leaves);
    case SymValue::Kind::BoolFormula:
      return F.iff(A.Formula, B.Formula);
    case SymValue::Kind::SizeSnapshot:
      return sizeAgreement(F, A.Deltas, B.Deltas);
    default:
      semcomm_unreachable("unexpected map return kind");
    }
  };

  std::vector<ExprRef> Agree;
  if (E.op1().RecordsReturn)
    Agree.push_back(RetEq(R1a, R1b));
  if (E.op2().RecordsReturn)
    Agree.push_back(RetEq(R2a, R2b));
  // Key extensionality at the touched keys is exact.
  std::vector<ExprRef> Keys;
  if (!A1.empty())
    Keys.push_back(A1[0]);
  if (!A2.empty())
    Keys.push_back(A2[0]);
  for (ExprRef K : Keys)
    Agree.push_back(leavesEqual(F, mapGetLeaves(F, M0, SA, K),
                                mapGetLeaves(F, M0, SB, K)));
  ExprRef AgreeAll = F.conj(std::move(Agree));

  MethodPlan P;
  P.Name = M.name();
  for (const std::vector<ExprRef> *V : {&A1, &A2})
    for (ExprRef T : *V)
      P.Common.push_back(F.ne(T, F.nullConst()));
  addRoleVc(P, F, M.Role, Phi, AgreeAll);
  return P;
}

// ===========================================================================
// ArrayList (bounded symbolic mode)
// ===========================================================================

/// One symbolic sequence: a vector of object terms (length is concrete in
/// bounded mode; the elements are not).
using SymSeq = std::vector<ExprRef>;

/// Formula: "the first (or last) index of V in Snap is exactly J".
ExprRef idxIs(ExprFactory &F, const SymSeq &Snap, ExprRef V, int64_t J,
              bool Last) {
  int64_t N = static_cast<int64_t>(Snap.size());
  if (J == -1) {
    std::vector<ExprRef> C;
    for (ExprRef T : Snap)
      C.push_back(F.ne(T, V));
    return F.conj(std::move(C));
  }
  if (J < 0 || J >= N)
    return F.falseExpr();
  std::vector<ExprRef> C;
  if (!Last)
    for (int64_t P = 0; P < J; ++P)
      C.push_back(F.ne(Snap[P], V));
  else
    for (int64_t P = J + 1; P < N; ++P)
      C.push_back(F.ne(Snap[P], V));
  C.push_back(F.eq(Snap[static_cast<size_t>(J)], V));
  return F.conj(std::move(C));
}

/// The per-scenario context of the bounded ArrayList verification.
struct SeqScenario {
  ExprFactory &F;
  std::map<std::string, const SymSeq *> Snapshots; ///< s1/s2/s3/ret markers.
  bool SawUnsupportedAtom = false;

  /// Lowers an integer comparison possibly involving indexOf terms.
  ExprRef lowerIntCmp(ExprKind K, ExprRef A, ExprRef B);
  /// Lowers one atom.
  ExprRef onAtom(ExprRef Atom);
  /// Rewrites object terms: seq reads become element terms or undef.
  ExprRef lowerObj(ExprRef T);
  /// Evaluates an integer expression with no indexOf terms to a constant.
  bool constInt(ExprRef T, int64_t &Out);
};

bool SeqScenario::constInt(ExprRef T, int64_t &Out) {
  switch (T->kind()) {
  case ExprKind::ConstInt:
    Out = T->intValue();
    return true;
  case ExprKind::Add: {
    int64_t L, R;
    if (!constInt(T->operand(0), L) || !constInt(T->operand(1), R))
      return false;
    Out = L + R;
    return true;
  }
  case ExprKind::Sub: {
    int64_t L, R;
    if (!constInt(T->operand(0), L) || !constInt(T->operand(1), R))
      return false;
    Out = L - R;
    return true;
  }
  case ExprKind::Neg: {
    int64_t L;
    if (!constInt(T->operand(0), L))
      return false;
    Out = -L;
    return true;
  }
  case ExprKind::SeqLen:
  case ExprKind::StateSize: {
    auto It = Snapshots.find(T->operand(0)->name());
    if (It == Snapshots.end())
      return false;
    Out = static_cast<int64_t>(It->second->size());
    return true;
  }
  default:
    return false;
  }
}

ExprRef SeqScenario::lowerObj(ExprRef T) {
  if (T->kind() == ExprKind::SeqAt) {
    auto It = Snapshots.find(T->operand(0)->name());
    assert(It != Snapshots.end() && "unknown sequence snapshot");
    int64_t I;
    if (!constInt(T->operand(1), I))
      return F.var("__undef", Sort::Obj);
    if (I < 0 || I >= static_cast<int64_t>(It->second->size()))
      return F.var("__undef", Sort::Obj);
    return (*It->second)[static_cast<size_t>(I)];
  }
  return T;
}

/// Splits an integer side into (indexOf terms with sign, constant rest).
static void splitIdx(ExprRef T, int Sign,
                     std::vector<std::pair<ExprRef, int>> &Idx,
                     std::vector<std::pair<ExprRef, int>> &Opaque) {
  switch (T->kind()) {
  case ExprKind::Add:
    splitIdx(T->operand(0), Sign, Idx, Opaque);
    splitIdx(T->operand(1), Sign, Idx, Opaque);
    return;
  case ExprKind::Sub:
    splitIdx(T->operand(0), Sign, Idx, Opaque);
    splitIdx(T->operand(1), -Sign, Idx, Opaque);
    return;
  case ExprKind::Neg:
    splitIdx(T->operand(0), -Sign, Idx, Opaque);
    return;
  case ExprKind::SeqIndexOf:
  case ExprKind::SeqLastIndexOf:
    Idx.push_back({T, Sign});
    return;
  default:
    Opaque.push_back({T, Sign});
    return;
  }
}

ExprRef SeqScenario::lowerIntCmp(ExprKind K, ExprRef A, ExprRef B) {
  std::vector<std::pair<ExprRef, int>> Idx, Opaque;
  splitIdx(A, 1, Idx, Opaque);
  splitIdx(B, -1, Idx, Opaque);

  int64_t Const = 0;
  for (auto &[T, Sign] : Opaque) {
    int64_t V;
    if (!constInt(T, V)) {
      SawUnsupportedAtom = true;
      return F.var("__unknown_atom", Sort::Bool);
    }
    Const += Sign * V;
  }

  auto Resolve = [&](ExprRef T) -> std::pair<const SymSeq *, bool> {
    auto It = Snapshots.find(T->operand(0)->name());
    assert(It != Snapshots.end() && "unknown sequence snapshot");
    return {It->second, T->kind() == ExprKind::SeqLastIndexOf};
  };

  if (Idx.empty()) {
    // Pure constants: idx-free comparisons fold.
    switch (K) {
    case ExprKind::Eq:
      return F.boolConst(Const == 0);
    case ExprKind::Lt:
      return F.boolConst(Const < 0);
    case ExprKind::Le:
      return F.boolConst(Const <= 0);
    default:
      semcomm_unreachable("bad comparison kind");
    }
  }

  if (Idx.size() == 1) {
    // sign*idx + Const  K  0.
    auto [Snap, Last] = Resolve(Idx[0].first);
    ExprRef V = lowerObj(Idx[0].first->operand(1));
    int Sign = Idx[0].second;
    std::vector<ExprRef> Cases;
    int64_t N = static_cast<int64_t>(Snap->size());
    for (int64_t J = -1; J < N; ++J) {
      int64_t Lhs = Sign * J + Const;
      bool Holds = K == ExprKind::Eq   ? (Lhs == 0)
                   : K == ExprKind::Lt ? (Lhs < 0)
                                       : (Lhs <= 0);
      if (Holds)
        Cases.push_back(idxIs(F, *Snap, V, J, Last));
    }
    return F.disj(std::move(Cases));
  }

  if (Idx.size() == 2 && K == ExprKind::Eq && Idx[0].second * Idx[1].second < 0) {
    // idxA - idxB + Const = 0.
    auto [SnapA, LastA] = Resolve(Idx[0].first);
    auto [SnapB, LastB] = Resolve(Idx[1].first);
    ExprRef VA = lowerObj(Idx[0].first->operand(1));
    ExprRef VB = lowerObj(Idx[1].first->operand(1));
    int SignA = Idx[0].second;
    std::vector<ExprRef> Cases;
    int64_t NA = static_cast<int64_t>(SnapA->size());
    int64_t NB = static_cast<int64_t>(SnapB->size());
    for (int64_t JA = -1; JA < NA; ++JA)
      for (int64_t JB = -1; JB < NB; ++JB) {
        if (SignA * JA - SignA * JB + Const != 0)
          continue;
        Cases.push_back(F.conj({idxIs(F, *SnapA, VA, JA, LastA),
                                idxIs(F, *SnapB, VB, JB, LastB)}));
      }
    return F.disj(std::move(Cases));
  }

  SawUnsupportedAtom = true;
  return F.var("__unknown_atom", Sort::Bool);
}

ExprRef SeqScenario::onAtom(ExprRef Atom) {
  switch (Atom->kind()) {
  case ExprKind::Eq: {
    if (Atom->operand(0)->sort() == Sort::Obj) {
      ExprRef A = lowerObj(Atom->operand(0));
      ExprRef B = lowerObj(Atom->operand(1));
      if (A->kind() == ExprKind::Var && A->name() == "__undef")
        return F.falseExpr();
      if (B->kind() == ExprKind::Var && B->name() == "__undef")
        return F.falseExpr();
      return F.eq(A, B);
    }
    return lowerIntCmp(ExprKind::Eq, Atom->operand(0), Atom->operand(1));
  }
  case ExprKind::Lt:
    return lowerIntCmp(ExprKind::Lt, Atom->operand(0), Atom->operand(1));
  case ExprKind::Le:
    return lowerIntCmp(ExprKind::Le, Atom->operand(0), Atom->operand(1));
  case ExprKind::Forall:
  case ExprKind::Exists: {
    // Bounded quantifiers with scenario-constant bounds (the shape every
    // proof-hint lemma uses) expand pointwise; symbolic bounds are outside
    // the fragment.
    int64_t Lo, Hi;
    if (!constInt(Atom->operand(0), Lo) || !constInt(Atom->operand(1), Hi)) {
      SawUnsupportedAtom = true;
      return F.var("__unknown_atom", Sort::Bool);
    }
    std::vector<ExprRef> Parts;
    for (int64_t J = Lo; J <= Hi; ++J) {
      ExprRef Body = F.substitute(Atom->operand(2),
                                  {{Atom->name(), F.intConst(J)}});
      Parts.push_back(
          rewriteBool(F, Body, [this](ExprRef A) { return onAtom(A); }));
    }
    return Atom->kind() == ExprKind::Forall ? F.conj(std::move(Parts))
                                            : F.disj(std::move(Parts));
  }
  default:
    return Atom;
  }
}

/// The Common prefix of every ArrayList method plan: the argument objects
/// and all element variables any split can mention are non-null. Asserting
/// it once lets the warm session reuse its encoding across the whole
/// (length x index x index) split lattice — and, in a catalog session,
/// across every testing method of the pair.
std::vector<ExprRef> seqCommon(ExprFactory &F, int SeqLenBound) {
  std::vector<ExprRef> Common = {
      F.ne(F.var("v1", Sort::Obj), F.nullConst()),
      F.ne(F.var("v2", Sort::Obj), F.nullConst())};
  for (int64_t P = 0; P < SeqLenBound; ++P)
    Common.push_back(
        F.ne(F.var("e" + std::to_string(P), Sort::Obj), F.nullConst()));
  return Common;
}

/// One testing method an ArrayList lattice walk plans, with the proof-hint
/// script attached to it (null when none matches).
struct SeqMethod {
  TestingMethod M;
  const HintScript *Hint = nullptr;
};

/// Plans \p Ms, testing methods of the one ArrayList entry \p E, in a single
/// walk of the entry's (length x index x index) split lattice. Each split's
/// symbolic executions, snapshot table, substitution and agreement goal are
/// built once, and each kind's condition is lowered once; every method then
/// appends its role's assumption pair, its hint lemmas and the split's
/// label. A method ends after the first split where its kind's lowered
/// condition or the agreement goal leaves the bounded fragment; the other
/// methods walk on.
std::vector<MethodPlan> buildSeqPlans(ExprFactory &F, const ConditionEntry &E,
                                      const std::vector<SeqMethod> &Ms,
                                      int SeqLenBound) {
  const Operation &Op1 = E.op1();
  const Operation &Op2 = E.op2();

  std::vector<MethodPlan> Plans(Ms.size());
  std::vector<ExprRef> Common = seqCommon(F, SeqLenBound);
  for (size_t MI = 0; MI != Ms.size(); ++MI) {
    Plans[MI].Name = Ms[MI].M.name();
    Plans[MI].Common = Common;
  }
  size_t Live = Ms.size(); // Methods whose walk has not ended.
  DagCounter &Nodes = nodeCounter();

  ExprRef V1 = F.var("v1", Sort::Obj), V2 = F.var("v2", Sort::Obj);

  // Applies an operation at concrete index arguments on a term vector.
  // Returns false if the precondition fails.
  auto Apply = [&](const Operation &Op, int64_t I, ExprRef V, SymSeq &S,
                   SymValue &Ret) -> bool {
    int64_t N = static_cast<int64_t>(S.size());
    Ret = SymValue();
    if (Op.CallName == "add_at") {
      if (I < 0 || I > N)
        return false;
      S.insert(S.begin() + static_cast<size_t>(I), V);
      return true;
    }
    if (Op.CallName == "remove_at") {
      if (I < 0 || I >= N)
        return false;
      Ret.K = SymValue::Kind::ObjTerm;
      Ret.Term = S[static_cast<size_t>(I)];
      S.erase(S.begin() + static_cast<size_t>(I));
      return true;
    }
    if (Op.CallName == "set") {
      if (I < 0 || I >= N)
        return false;
      Ret.K = SymValue::Kind::ObjTerm;
      Ret.Term = S[static_cast<size_t>(I)];
      S[static_cast<size_t>(I)] = V;
      return true;
    }
    if (Op.CallName == "get") {
      if (I < 0 || I >= N)
        return false;
      Ret.K = SymValue::Kind::ObjTerm;
      Ret.Term = S[static_cast<size_t>(I)];
      return true;
    }
    if (Op.CallName == "indexOf" || Op.CallName == "lastIndexOf") {
      Ret.K = SymValue::Kind::IdxTerm;
      // The marker's snapshot is registered by the caller.
      return true;
    }
    if (Op.CallName == "size") {
      Ret.K = SymValue::Kind::IntConst;
      Ret.IntVal = N;
      return true;
    }
    semcomm_unreachable("unknown ArrayList operation");
  };

  auto IntArg = [](const Operation &Op) {
    return !Op.ArgSorts.empty() && Op.ArgSorts[0] == Sort::Int;
  };

  for (int64_t N = 0; N <= SeqLenBound; ++N) {
    SymSeq Initial;
    for (int64_t P = 0; P < N; ++P)
      Initial.push_back(F.var("e" + std::to_string(P), Sort::Obj));

    // Index argument ranges cover one past an insertion-grown list.
    int64_t I1Hi = IntArg(Op1) ? N + 1 : 0;
    int64_t I2Hi = IntArg(Op2) ? N + 1 : 0;

    for (int64_t I1 = 0; I1 <= I1Hi; ++I1) {
      for (int64_t I2 = 0; I2 <= I2Hi; ++I2) {
        // --- First order (on A). ---
        SymSeq SA = Initial;
        SymValue R1a, R2a;
        if (!Apply(Op1, I1, V1, SA, R1a))
          continue; // pre1 fails: vacuous.
        SymSeq Snap2 = SA;
        if (!Apply(Op2, I2, V2, SA, R2a))
          continue; // pre2 fails after op1: vacuous.
        SymSeq Snap3 = SA;

        // --- Reverse order (on B). ---
        SymSeq SB = Initial;
        SymValue R2b, R1b;
        bool RevPreOk = Apply(Op2, I2, V2, SB, R2b) &&
                        Apply(Op1, I1, V1, SB, R1b);

        // Scenario context with named snapshots (idx markers refer to the
        // sequence value *at the time the operation ran*).
        SeqScenario Ctx{F, {}, false};
        Ctx.Snapshots["s1"] = &Initial;
        Ctx.Snapshots["s2"] = &Snap2;
        Ctx.Snapshots["s3"] = &Snap3;
        SymSeq SnapA = SA, SnapB = SB;
        Ctx.Snapshots["finalA"] = &SnapA;
        Ctx.Snapshots["finalB"] = &SnapB;
        Ctx.Snapshots["retB2"] = &Initial; // op2 in reverse order sees s1.

        // Substitute the integer arguments and the recorded returns.
        std::map<std::string, ExprRef> Subst;
        if (IntArg(Op1))
          Subst["i1"] = F.intConst(I1);
        if (IntArg(Op2))
          Subst["i2"] = F.intConst(I2);
        auto RetExpr = [&](const Operation &Op, const SymValue &Ret,
                           const char *SnapName,
                           ExprRef ScanArg) -> ExprRef {
          switch (Ret.K) {
          case SymValue::Kind::ObjTerm:
            return Ret.Term;
          case SymValue::Kind::IntConst:
            return F.intConst(Ret.IntVal);
          case SymValue::Kind::IdxTerm:
            return Op.CallName == "indexOf"
                       ? F.seqIndexOf(F.var(SnapName, Sort::State), ScanArg)
                       : F.seqLastIndexOf(F.var(SnapName, Sort::State),
                                          ScanArg);
          default:
            return nullptr;
          }
        };
        if (Op1.RecordsReturn) {
          if (ExprRef RE = RetExpr(Op1, R1a, "s1", V1))
            Subst["r1"] = RE;
        }
        if (Op2.RecordsReturn) {
          if (ExprRef RE = RetExpr(Op2, R2a, "s2", V2))
            Subst["r2"] = RE;
        }

        // Lowers a condition into this split. The unsupported flag is
        // cleared first, so afterwards it speaks for that condition alone.
        auto Lower = [&](ExprRef Cond) {
          Ctx.SawUnsupportedAtom = false;
          return rewriteBool(F, F.substitute(Cond, Subst),
                             [&](ExprRef A) { return Ctx.onAtom(A); });
        };

        // Each kind a live method asks for is lowered once.
        ExprRef Phi[3] = {};
        bool PhiUnsupported[3] = {};
        for (size_t MI = 0; MI != Ms.size(); ++MI) {
          size_t K = static_cast<size_t>(Ms[MI].M.Kind);
          if (Plans[MI].Unsupported || Phi[K])
            continue;
          Phi[K] = Lower(E.get(Ms[MI].M.Kind));
          PhiUnsupported[K] = Ctx.SawUnsupportedAtom;
        }

        // The scan snapshot for op1 in the reverse order: the state
        // after op2 ran first.
        SymSeq RetB1Snap = Initial;
        if (RevPreOk) {
          SymValue Dummy;
          SymSeq Tmp = Initial;
          Apply(Op2, I2, V2, Tmp, Dummy);
          RetB1Snap = Tmp;
        }
        Ctx.Snapshots["retB1"] = &RetB1Snap;

        // Agreement goal.
        Ctx.SawUnsupportedAtom = false;
        std::vector<ExprRef> Agree;
        if (!RevPreOk) {
          Agree.push_back(F.falseExpr());
        } else {
          auto RetsEq = [&](const Operation &Op, const SymValue &A,
                            const char *SnapAName, const SymValue &B,
                            const char *SnapBName,
                            ExprRef ScanArg) -> ExprRef {
            switch (A.K) {
            case SymValue::Kind::ObjTerm:
              return F.eq(A.Term, B.Term);
            case SymValue::Kind::IntConst:
              return F.boolConst(A.IntVal == B.IntVal);
            case SymValue::Kind::IdxTerm: {
              ExprRef TA = RetExpr(Op, A, SnapAName, ScanArg);
              ExprRef TB = RetExpr(Op, B, SnapBName, ScanArg);
              return Ctx.lowerIntCmp(ExprKind::Eq, TA, TB);
            }
            default:
              semcomm_unreachable("unexpected return kind");
            }
          };
          if (Op1.RecordsReturn && R1a.K != SymValue::Kind::None)
            Agree.push_back(
                RetsEq(Op1, R1a, "s1", R1b, "retB1", V1));
          if (Op2.RecordsReturn && R2a.K != SymValue::Kind::None)
            Agree.push_back(
                RetsEq(Op2, R2a, "s2", R2b, "retB2", V2));
          if (SnapA.size() != SnapB.size()) {
            Agree.push_back(F.falseExpr());
          } else {
            for (size_t P = 0; P != SnapA.size(); ++P)
              Agree.push_back(F.eq(SnapA[P], SnapB[P]));
          }
        }
        ExprRef AgreeAll = F.conj(std::move(Agree));
        bool AgreeUnsupported = Ctx.SawUnsupportedAtom;

        // A method's split asserts the agreement goal and its kind's
        // condition: the goal's nodes, then each condition's others.
        Nodes.forget(0);
        uint64_t AgreeNodes = Nodes.add(AgreeAll);
        uint64_t PhiNodes[3] = {};
        for (size_t K = 0; K != 3; ++K)
          if (Phi[K]) {
            PhiNodes[K] = Nodes.add(Phi[K]);
            Nodes.forget(AgreeNodes);
          }

        std::string Label = "n=" + std::to_string(N) +
                            " i1=" + std::to_string(I1) +
                            " i2=" + std::to_string(I2);
        for (size_t MI = 0; MI != Ms.size(); ++MI) {
          MethodPlan &Plan = Plans[MI];
          if (Plan.Unsupported)
            continue;
          size_t K = static_cast<size_t>(Ms[MI].M.Kind);
          VcSplit Split;
          Split.Assumed = roleAssumptions(F, Ms[MI].M.Role, Phi[K], AgreeAll);
          Plan.Nodes += PhiNodes[K] + AgreeNodes;
          // Attached proof hints: the script's note/pickWitness lemmas are
          // valid over every reached scenario (validateScript
          // machine-checks exactly that), so assuming them can never flip
          // a genuine countermodel — it only lets the refutation name which
          // hints it used via their labels in the unsat core. Assuming
          // commands are case structure, not lemmas, and are not asserted.
          // A hint whose lowering leaves the bounded fragment is skipped
          // rather than poisoning the plan.
          if (const HintScript *Hint = Ms[MI].Hint)
            for (const HintCommand &Cmd : Hint->Commands) {
              if (Cmd.Kind == HintCommandKind::Assuming)
                continue;
              ExprRef Lowered = Lower(Cmd.Formula);
              if (!Ctx.SawUnsupportedAtom) {
                Split.Assumed.push_back({Lowered, Cmd.Label});
                Plan.Nodes += Nodes.add(Lowered);
                Nodes.forget(AgreeNodes);
              }
            }
          Split.Label = Label;
          Plan.Splits.push_back(std::move(Split));

          if (PhiUnsupported[K] || AgreeUnsupported) {
            // The lowering replaced an atom by a free variable; the
            // method's plan ends here and it reports unverified.
            Plan.Unsupported = true;
            Plan.UnsupportedNote =
                "unsupported atom shape in bounded lowering";
            --Live;
          }
        }
        if (Live == 0)
          return Plans;
      }
    }
  }
  return Plans;
}

} // namespace

namespace {

/// Intersects \p Next into \p Inter (first-call copies), keeping
/// first-seen order so the assertion sequence — and with it every solver
/// statistic — is a function of the entry list alone.
void intersectCommon(bool &First, std::vector<ExprRef> &Inter,
                     const std::vector<ExprRef> &Next) {
  if (First) {
    Inter = Next;
    First = false;
    return;
  }
  std::set<ExprRef> Present(Next.begin(), Next.end());
  Inter.erase(std::remove_if(
                  Inter.begin(), Inter.end(),
                  [&Present](ExprRef C) { return Present.count(C) == 0; }),
              Inter.end());
}

/// A sorted variable identity: name plus sort tag. Sort matters —
/// Accumulator's increase(v) makes an *Int* "v1" that must not collide
/// with the object-sorted "v1" of the container families.
std::string varKey(const std::string &Name, Sort S) {
  return Name + "#" + std::to_string(static_cast<int>(S));
}

/// Collects the (name, sort) keys of the Var leaves of \p E.
void collectVarKeys(ExprRef E, std::set<std::string> &Out) {
  if (E->kind() == ExprKind::Var) {
    Out.insert(varKey(E->name(), E->sort()));
    return;
  }
  for (ExprRef Op : E->operands())
    collectVarKeys(Op, Out);
}

/// An over-approximation of the variables \p E's plan formulas can
/// mention — the operations' numbered argument vars plus the family's
/// fixed element vocabulary. Used to decide whether a well-formedness
/// formula from another family's prefix is vacuous for this entry (its
/// variables cannot occur), which is what makes hoisting it to the
/// catalog base sound.
std::set<std::string> entryVocabulary(const ConditionEntry &E, StateKind Kind,
                                      int SeqLenBound) {
  std::set<std::string> V;
  auto AddOp = [&V](const Operation &Op, int Pos) {
    for (size_t A = 0; A != Op.ArgBaseNames.size(); ++A)
      V.insert(varKey(Op.ArgBaseNames[A] + std::to_string(Pos),
                      Op.ArgSorts[A]));
  };
  AddOp(E.op1(), 1);
  AddOp(E.op2(), 2);
  // Set plans compare membership of v1/v2 in the agreement goal and Seq
  // plans read the element vars regardless of the ops' argument lists.
  if (Kind == StateKind::Set || Kind == StateKind::Seq) {
    V.insert(varKey("v1", Sort::Obj));
    V.insert(varKey("v2", Sort::Obj));
  }
  if (Kind == StateKind::Seq)
    for (int P = 0; P < SeqLenBound; ++P)
      V.insert(varKey("e" + std::to_string(P), Sort::Obj));
  return V;
}

uint64_t splitsOf(const PairPlan &PP) {
  uint64_t N = 0;
  for (const MethodPlan &MP : PP.Methods)
    N += MP.Splits.size();
  return N;
}

/// The proof-hint script of \p M among \p Hints, or null.
const HintScript *hintFor(const std::vector<HintScript> *Hints,
                          const TestingMethod &M) {
  if (Hints)
    for (const HintScript &S : *Hints)
      if (S.matches(M))
        return &S;
  return nullptr;
}

} // namespace

MethodPlan SymbolicEngine::plan(const TestingMethod &M) const {
  switch (M.family().Kind) {
  case StateKind::Counter:
    return buildCounterPlan(F, M);
  case StateKind::Set:
    return buildSetPlan(F, M);
  case StateKind::Map:
    return buildMapPlan(F, M);
  case StateKind::Seq:
    return std::move(
        buildSeqPlans(F, *M.Entry, {{M, hintFor(Hints, M)}}, SeqLenBound)
            .front());
  }
  semcomm_unreachable("invalid family kind");
}

std::vector<ExprRef>
SymbolicEngine::planCommonOnly(const ConditionEntry &E) const {
  // Only the Seq builder materializes a split lattice worth skipping; its
  // prefix depends on the bound alone. The single-VC families' plans are
  // one formula each, and hash-consing dedups their construction against
  // the later full plan anyway.
  if (E.Fam->Kind == StateKind::Seq)
    return seqCommon(F, SeqLenBound);
  // The Common prefix depends only on the entry's operations, never on
  // the testing method's kind or role, so one method stands for all six.
  TestingMethod M;
  M.Entry = &E;
  M.Kind = ConditionKind::Before;
  M.Role = MethodRole::Soundness;
  return plan(M).Common;
}

PairPlan SymbolicEngine::planPair(const ConditionEntry &E) const {
  PairPlan PP;
  PP.Key = E.pairName();
  bool Seq = E.Fam->Kind == StateKind::Seq;
  std::vector<SeqMethod> SeqMethods;
  for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                          ConditionKind::After})
    for (MethodRole Role : {MethodRole::Soundness, MethodRole::Completeness}) {
      TestingMethod M;
      M.Entry = &E;
      M.Kind = K;
      M.Role = Role;
      if (Seq)
        SeqMethods.push_back({M, hintFor(Hints, M)});
      else
        PP.Methods.push_back(plan(M));
    }
  // One walk of the split lattice plans all six ArrayList methods.
  if (Seq)
    PP.Methods = buildSeqPlans(F, E, SeqMethods, SeqLenBound);
  return PP;
}

CatalogPlan SymbolicEngine::planCatalog(
    const Catalog &C, const std::vector<const Family *> &Fams) const {
  CatalogPlan CP;

  // Per-entry Common prefixes and vocabularies (splits never
  // materialize: the prefixes are method-independent).
  struct EntryInfo {
    const ConditionEntry *Entry;
    std::set<ExprRef> Common;
    std::set<std::string> Vocab;
  };
  std::vector<EntryInfo> Infos;
  std::vector<ExprRef> Candidates; // Union of Commons, first-seen order.
  std::set<ExprRef> CandidateSet;

  for (const Family *Fam : Fams) {
    FamilyPlan FP;
    FP.FamilyName = Fam->Name;
    bool First = true;
    std::vector<ExprRef> Inter;
    for (const ConditionEntry &E : C.entries(*Fam)) {
      std::vector<ExprRef> Com = planCommonOnly(E);
      intersectCommon(First, Inter, Com);
      for (ExprRef F2 : Com)
        if (CandidateSet.insert(F2).second)
          Candidates.push_back(F2);
      Infos.push_back({&E, std::set<ExprRef>(Com.begin(), Com.end()),
                       entryVocabulary(E, Fam->Kind, SeqLenBound)});
    }
    if (!First)
      FP.FamilyCommon = std::move(Inter);
    CP.Families.push_back(std::move(FP));
  }

  // Catalog-common prefix: a well-formedness formula is hoisted to the
  // session root iff every entry either asserts it in its own Common
  // prefix or provably cannot mention it (none of its variables occur in
  // the entry's vocabulary) — asserting it is then vacuous for that
  // entry, so the hoist cannot change any verdict.
  for (ExprRef Cand : Candidates) {
    std::set<std::string> Vars;
    collectVarKeys(Cand, Vars);
    bool Safe = true;
    for (const EntryInfo &Info : Infos) {
      if (Info.Common.count(Cand))
        continue;
      for (const std::string &V : Vars)
        if (Info.Vocab.count(V)) {
          Safe = false;
          break;
        }
      if (!Safe)
        break;
    }
    if (Safe)
      CP.CatalogCommon.push_back(Cand);
  }

#ifndef NDEBUG
  // entryVocabulary is a hand-maintained restatement of the plan
  // builders' variable naming; if a builder grows a variable outside it,
  // the hoist above could silently mask a countermodel. Cross-check the
  // claim against the *materialized* plans: an entry that does not
  // assert a hoisted formula must really never mention its variables.
  for (const EntryInfo &Info : Infos) {
    bool NeedsPlans = false;
    for (ExprRef Cand : CP.CatalogCommon)
      NeedsPlans = NeedsPlans || !Info.Common.count(Cand);
    if (!NeedsPlans)
      continue;
    std::set<std::string> PlanVars;
    for (const MethodPlan &MP : planPair(*Info.Entry).Methods) {
      for (ExprRef E2 : MP.Common)
        collectVarKeys(E2, PlanVars);
      for (const TaggedAssumption &A : MP.Scoped)
        collectVarKeys(A.E, PlanVars);
      for (const VcSplit &S : MP.Splits)
        for (const TaggedAssumption &A : S.Assumed)
          collectVarKeys(A.E, PlanVars);
    }
    for (ExprRef Cand : CP.CatalogCommon) {
      if (Info.Common.count(Cand))
        continue;
      std::set<std::string> Vars;
      collectVarKeys(Cand, Vars);
      for (const std::string &V : Vars)
        assert(!PlanVars.count(V) &&
               "catalog-common hoist: entryVocabulary under-approximates "
               "a plan's variables");
    }
  }
#endif
  return CP;
}

namespace {

/// The outcome-level aggregate of one session's summary.
template <typename Outcome>
void stampOutcomeCertification(const proof::CertifySummary &S, Outcome &O) {
  O.Certified = S.Checked && S.Ok;
  O.ProofSteps = S.Steps;
  O.ProofQueries = S.Queries;
  O.ProofClauses = S.PeakClauses;
}

} // namespace

SymbolicResult SymbolicEngine::verify(const TestingMethod &M) {
  SymbolicResult R;
  R.Verified = dischargeAlone(F, plan(M), Mode, M.family().Name,
                              M.Entry->pairName(), ConflictBudget, GcBudget,
                              Certify, R);
  return R;
}

CatalogOutcome SymbolicEngine::runCatalog(
    const CatalogPlan &CP,
    const std::vector<std::vector<const ConditionEntry *>> &Entries) {
  CatalogOutcome Out;
  CatalogSession Sess(F, CP, ConflictBudget, Certify);
  Sess.configureClauseGc(true, GcBudget);

  for (size_t FI = 0; FI != CP.Families.size(); ++FI) {
    FamilyOutcome FO;
    FO.Family = CP.Families[FI].FamilyName;
    uint64_t FamChecksBefore = Sess.checks();
    int64_t FamConflictsBefore = Sess.conflicts();
    uint64_t FamRedBefore = Sess.dbReductions();
    uint64_t FamRecBefore = Sess.reclaimedClauses();
    unsigned FamSelBefore = Sess.numSelectors();

    for (const ConditionEntry *E : Entries[FI]) {
      PairPlan PP = planPair(*E);
      uint64_t PairSplits = splitsOf(PP);
      FO.TotalSplits += PairSplits;
      FO.PeakMaterializedSplits =
          std::max(FO.PeakMaterializedSplits, PairSplits);
      PairOutcome PO;
      uint64_t ChecksBefore = Sess.checks();
      int64_t ConflictsBefore = Sess.conflicts();
      uint64_t RedBefore = Sess.dbReductions();
      uint64_t RecBefore = Sess.reclaimedClauses();
      unsigned SelBefore = Sess.numSelectors();
      for (const MethodPlan &MP : PP.Methods) {
        SymbolicResult R;
        R.Verified = Sess.discharge(FI, PP.Key, MP, R);
        PO.Methods.push_back(std::move(R));
      }
      PO.Checks = Sess.checks() - ChecksBefore;
      PO.Conflicts = Sess.conflicts() - ConflictsBefore;
      PO.RetainedClauses = Sess.retainedClauses();
      PO.DbReductions = Sess.dbReductions() - RedBefore;
      PO.ReclaimedClauses = Sess.reclaimedClauses() - RecBefore;
      PO.Selectors = Sess.numSelectors() - SelBefore;
      // The pair's VCs are done: evict its scope so the clause database
      // is bounded by the live pair (its plan dies with this iteration for
      // the same reason).
      Sess.retirePair(FI, PP.Key);
      FO.PairKeys.push_back(PP.Key);
      FO.Pairs.push_back(std::move(PO));
    }

    FO.Stats = Sess.familyStats(FI);
    FO.Checks = Sess.checks() - FamChecksBefore;
    FO.Conflicts = Sess.conflicts() - FamConflictsBefore;
    FO.RetainedClauses = Sess.retainedClauses();
    FO.DbReductions = Sess.dbReductions() - FamRedBefore;
    FO.ReclaimedClauses = Sess.reclaimedClauses() - FamRecBefore;
    FO.Selectors = Sess.numSelectors() - FamSelBefore;
    // The family's pairs are all retired; retire its whole scope subtree
    // so the next family starts from the catalog-common base alone.
    Sess.retireFamily(FI);
    Out.TotalSplits += FO.TotalSplits;
    Out.PeakMaterializedSplits =
        std::max(Out.PeakMaterializedSplits, FO.PeakMaterializedSplits);
    Out.Families.push_back(std::move(FO));
  }

  Out.Stats = Sess.stats();
  Out.Checks = Sess.checks();
  Out.Conflicts = Sess.conflicts();
  Out.RetainedClauses = Sess.retainedClauses();
  Out.DbReductions = Sess.dbReductions();
  Out.ReclaimedClauses = Sess.reclaimedClauses();
  Out.Selectors = Sess.numSelectors();
  if (Certify) {
    // One trace covers the entire catalog session — every family, pair,
    // and method verdict certifies against the same certificate stream.
    const proof::CertifySummary &S = Sess.finishCertification();
    stampOutcomeCertification(S, Out);
    for (FamilyOutcome &FO : Out.Families) {
      stampOutcomeCertification(S, FO);
      for (PairOutcome &PO : FO.Pairs) {
        for (SymbolicResult &R : PO.Methods)
          stampCertification(S, R);
        stampOutcomeCertification(S, PO);
      }
    }
  }
  return Out;
}

CatalogOutcome
SymbolicEngine::verifyCatalog(const Catalog &C,
                              const std::vector<const Family *> &Fams) {
  CatalogPlan CP = planCatalog(C, Fams);
  std::vector<std::vector<const ConditionEntry *>> Entries;
  for (const Family *Fam : Fams) {
    Entries.emplace_back();
    for (const ConditionEntry &E : C.entries(*Fam))
      Entries.back().push_back(&E);
  }
  return runCatalog(CP, Entries);
}

PairOutcome SymbolicEngine::verifyPair(const ConditionEntry &E) {
  // A single pair is the degenerate catalog: same nesting, same eviction,
  // with the pair's own prefix as the family-common one.
  CatalogPlan CP;
  CP.Families.push_back({E.Fam->Name, planCommonOnly(E)});
  CatalogOutcome CO = runCatalog(CP, {{&E}});
  return std::move(CO.Families.front().Pairs.front());
}
