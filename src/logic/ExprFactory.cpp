//===- logic/ExprFactory.cpp - Hash-consing expression builder -----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "logic/ExprFactory.h"

#include "support/Unreachable.h"

#include <algorithm>
#include <cassert>

using namespace semcomm;

//===----------------------------------------------------------------------===//
// Interning: sharded open-addressing table over arena nodes
//===----------------------------------------------------------------------===//

namespace {

/// 64-bit mix (splitmix64 finalizer); the table indices come from the high
/// bits after shard selection uses the low bits.
inline size_t mix(size_t H) {
  H ^= H >> 30;
  H *= 0xbf58476d1ce4e5b9ULL;
  H ^= H >> 27;
  H *= 0x94d049bb133111ebULL;
  H ^= H >> 31;
  return H;
}

inline size_t hashCombine(size_t Seed, size_t V) {
  return mix(Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2)));
}

size_t hashKey(ExprKind K, Sort S, int64_t Payload, const std::string &Name,
               const std::vector<const Expr *> &Ops) {
  size_t H = hashCombine(static_cast<size_t>(K) * 0x100 + 1,
                         static_cast<size_t>(S));
  H = hashCombine(H, static_cast<size_t>(Payload));
  H = hashCombine(H, std::hash<std::string>{}(Name));
  for (const Expr *Op : Ops)
    H = hashCombine(H, reinterpret_cast<size_t>(Op));
  return H;
}

bool keyEquals(const Expr *N, ExprKind K, Sort S, int64_t Payload,
               const std::string &Name,
               const std::vector<const Expr *> &Ops) {
  if (N->kind() != K || N->sort() != S || N->numOperands() != Ops.size())
    return false;
  if (!std::equal(Ops.begin(), Ops.end(), N->operands().begin()))
    return false;
  // Payload and Name are only discriminating for the leaf/quantifier kinds,
  // but comparing them unconditionally is cheap and always correct.
  switch (K) {
  case ExprKind::ConstBool:
  case ExprKind::ConstInt:
    return (K == ExprKind::ConstBool ? N->boolValue() == (Payload != 0)
                                     : N->intValue() == Payload);
  case ExprKind::Var:
  case ExprKind::Forall:
  case ExprKind::Exists:
    return N->name() == Name;
  default:
    return true;
  }
}

} // namespace

ExprFactory::ExprFactory() {
  CachedTrue = make(ExprKind::ConstBool, Sort::Bool, 1, "", {});
  CachedFalse = make(ExprKind::ConstBool, Sort::Bool, 0, "", {});
}

ExprFactory::Table &ExprFactory::growTable(Shard &Sh) {
  // Called under the shard lock, so the current table's slots are stable.
  const Table *Old = Sh.Current.load(std::memory_order_relaxed);
  auto New = std::make_unique<Table>(Old ? (Old->Mask + 1) * 2 : 64);
  for (size_t I = 0; Old && I <= Old->Mask; ++I) {
    const Expr *N = Old->Slots[I].load(std::memory_order_relaxed);
    if (!N)
      continue;
    size_t Idx = (N->Hash / NumShards) & New->Mask;
    while (New->Slots[Idx].load(std::memory_order_relaxed))
      Idx = (Idx + 1) & New->Mask;
    New->Slots[Idx].store(N, std::memory_order_relaxed);
  }
  // The replaced table stays in Tables: a lock-free reader may still be
  // probing it.
  Sh.Tables.push_back(std::move(New));
  Sh.Current.store(Sh.Tables.back().get(), std::memory_order_release);
  return *Sh.Tables.back();
}

ExprRef ExprFactory::make(ExprKind K, Sort S, int64_t Payload,
                          std::string Name, std::vector<const Expr *> Ops) {
  size_t H = hashKey(K, S, Payload, Name, Ops);
  Shard &Sh = Shards[H & (NumShards - 1)];
  // Probes \p T from the key's home slot: returns the node, or null with
  // \p Idx at the empty slot that ended the probe.
  auto Probe = [&](const Table &T, size_t &Idx) -> const Expr * {
    Idx = (H / NumShards) & T.Mask;
    while (const Expr *N = T.Slots[Idx].load(std::memory_order_acquire)) {
      if (N->Hash == H && keyEquals(N, K, S, Payload, Name, Ops))
        return N;
      Idx = (Idx + 1) & T.Mask;
    }
    return nullptr;
  };

  size_t Idx;
  if (const Table *T = Sh.Current.load(std::memory_order_acquire))
    if (const Expr *Hit = Probe(*T, Idx))
      return Hit;

  // Miss: the node may have been inserted since, or into a newer table.
  std::lock_guard<std::mutex> Lock(Sh.Mutex);
  Table *T = Sh.Current.load(std::memory_order_relaxed);
  if (!T || Sh.Count * 4 >= (T->Mask + 1) * 3)
    T = &growTable(Sh);
  if (const Expr *Hit = Probe(*T, Idx))
    return Hit;

  Sh.Arena.emplace_back(Expr(K, S, Payload, std::move(Name), std::move(Ops),
                             H));
  const Expr *Node = &Sh.Arena.back();
  T->Slots[Idx].store(Node, std::memory_order_release);
  ++Sh.Count;
  return Node;
}

size_t ExprFactory::numNodes() const {
  size_t N = 0;
  for (const Shard &Sh : Shards) {
    std::lock_guard<std::mutex> Lock(Sh.Mutex);
    N += Sh.Count;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Smart constructors
//===----------------------------------------------------------------------===//

ExprRef ExprFactory::boolConst(bool B) { return B ? CachedTrue : CachedFalse; }

ExprRef ExprFactory::intConst(int64_t N) {
  return make(ExprKind::ConstInt, Sort::Int, N, "", {});
}

ExprRef ExprFactory::nullConst() {
  return make(ExprKind::ConstNull, Sort::Obj, 0, "", {});
}

ExprRef ExprFactory::var(const std::string &Name, Sort S) {
  assert(!Name.empty() && "variables must be named");
  return make(ExprKind::Var, S, 0, Name, {});
}

ExprRef ExprFactory::add(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "add wants ints");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return intConst(A->intValue() + B->intValue());
  if (B->kind() == ExprKind::ConstInt && B->intValue() == 0)
    return A;
  if (A->kind() == ExprKind::ConstInt && A->intValue() == 0)
    return B;
  return make(ExprKind::Add, Sort::Int, 0, "", {A, B});
}

ExprRef ExprFactory::sub(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "sub wants ints");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return intConst(A->intValue() - B->intValue());
  if (B->kind() == ExprKind::ConstInt && B->intValue() == 0)
    return A;
  return make(ExprKind::Sub, Sort::Int, 0, "", {A, B});
}

ExprRef ExprFactory::neg(ExprRef A) {
  assert(A->sort() == Sort::Int && "neg wants an int");
  if (A->kind() == ExprKind::ConstInt)
    return intConst(-A->intValue());
  return make(ExprKind::Neg, Sort::Int, 0, "", {A});
}

ExprRef ExprFactory::eq(ExprRef A, ExprRef B) {
  assert(A->sort() == B->sort() && "equality between different sorts");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return boolConst(A->intValue() == B->intValue());
  if (A->kind() == ExprKind::ConstBool && B->kind() == ExprKind::ConstBool)
    return boolConst(A->boolValue() == B->boolValue());
  if (A->kind() == ExprKind::ConstNull && B->kind() == ExprKind::ConstNull)
    return trueExpr();
  return make(ExprKind::Eq, Sort::Bool, 0, "", {A, B});
}

ExprRef ExprFactory::lt(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "lt wants ints");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return boolConst(A->intValue() < B->intValue());
  return make(ExprKind::Lt, Sort::Bool, 0, "", {A, B});
}

ExprRef ExprFactory::le(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "le wants ints");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return boolConst(A->intValue() <= B->intValue());
  return make(ExprKind::Le, Sort::Bool, 0, "", {A, B});
}

ExprRef ExprFactory::lnot(ExprRef A) {
  assert(A->sort() == Sort::Bool && "negation of a non-boolean");
  if (A->isTrue())
    return falseExpr();
  if (A->isFalse())
    return trueExpr();
  if (A->kind() == ExprKind::Not)
    return A->operand(0);
  return make(ExprKind::Not, Sort::Bool, 0, "", {A});
}

ExprRef ExprFactory::conj(std::vector<ExprRef> Ops) {
  std::vector<ExprRef> Flat;
  for (ExprRef Op : Ops) {
    assert(Op->sort() == Sort::Bool && "conjunct must be boolean");
    if (Op->isTrue())
      continue;
    if (Op->isFalse())
      return falseExpr();
    if (Op->kind() == ExprKind::And) {
      Flat.insert(Flat.end(), Op->operands().begin(), Op->operands().end());
      continue;
    }
    Flat.push_back(Op);
  }
  if (Flat.empty())
    return trueExpr();
  if (Flat.size() == 1)
    return Flat.front();
  return make(ExprKind::And, Sort::Bool, 0, "", std::move(Flat));
}

ExprRef ExprFactory::disj(std::vector<ExprRef> Ops) {
  std::vector<ExprRef> Flat;
  for (ExprRef Op : Ops) {
    assert(Op->sort() == Sort::Bool && "disjunct must be boolean");
    if (Op->isFalse())
      continue;
    if (Op->isTrue())
      return trueExpr();
    if (Op->kind() == ExprKind::Or) {
      Flat.insert(Flat.end(), Op->operands().begin(), Op->operands().end());
      continue;
    }
    Flat.push_back(Op);
  }
  if (Flat.empty())
    return falseExpr();
  if (Flat.size() == 1)
    return Flat.front();
  return make(ExprKind::Or, Sort::Bool, 0, "", std::move(Flat));
}

ExprRef ExprFactory::implies(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Bool && B->sort() == Sort::Bool);
  if (A->isTrue())
    return B;
  if (A->isFalse() || B->isTrue())
    return trueExpr();
  if (B->isFalse())
    return lnot(A);
  return make(ExprKind::Implies, Sort::Bool, 0, "", {A, B});
}

ExprRef ExprFactory::iff(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Bool && B->sort() == Sort::Bool);
  if (A->isTrue())
    return B;
  if (B->isTrue())
    return A;
  if (A->isFalse())
    return lnot(B);
  if (B->isFalse())
    return lnot(A);
  return make(ExprKind::Iff, Sort::Bool, 0, "", {A, B});
}

ExprRef ExprFactory::ite(ExprRef C, ExprRef T, ExprRef E) {
  assert(C->sort() == Sort::Bool && T->sort() == E->sort());
  if (C->isTrue())
    return T;
  if (C->isFalse())
    return E;
  return make(ExprKind::Ite, T->sort(), 0, "", {C, T, E});
}

ExprRef ExprFactory::setContains(ExprRef S, ExprRef V) {
  assert(S->sort() == Sort::State && V->sort() == Sort::Obj);
  return make(ExprKind::SetContains, Sort::Bool, 0, "", {S, V});
}

ExprRef ExprFactory::mapGet(ExprRef S, ExprRef K) {
  assert(S->sort() == Sort::State && K->sort() == Sort::Obj);
  return make(ExprKind::MapGet, Sort::Obj, 0, "", {S, K});
}

ExprRef ExprFactory::mapHasKey(ExprRef S, ExprRef K) {
  assert(S->sort() == Sort::State && K->sort() == Sort::Obj);
  return make(ExprKind::MapHasKey, Sort::Bool, 0, "", {S, K});
}

ExprRef ExprFactory::seqAt(ExprRef S, ExprRef I) {
  assert(S->sort() == Sort::State && I->sort() == Sort::Int);
  return make(ExprKind::SeqAt, Sort::Obj, 0, "", {S, I});
}

ExprRef ExprFactory::seqLen(ExprRef S) {
  assert(S->sort() == Sort::State);
  return make(ExprKind::SeqLen, Sort::Int, 0, "", {S});
}

ExprRef ExprFactory::seqIndexOf(ExprRef S, ExprRef V) {
  assert(S->sort() == Sort::State && V->sort() == Sort::Obj);
  return make(ExprKind::SeqIndexOf, Sort::Int, 0, "", {S, V});
}

ExprRef ExprFactory::seqLastIndexOf(ExprRef S, ExprRef V) {
  assert(S->sort() == Sort::State && V->sort() == Sort::Obj);
  return make(ExprKind::SeqLastIndexOf, Sort::Int, 0, "", {S, V});
}

ExprRef ExprFactory::stateSize(ExprRef S) {
  assert(S->sort() == Sort::State);
  return make(ExprKind::StateSize, Sort::Int, 0, "", {S});
}

ExprRef ExprFactory::counterValue(ExprRef S) {
  assert(S->sort() == Sort::State);
  return make(ExprKind::CounterValue, Sort::Int, 0, "", {S});
}

ExprRef ExprFactory::forallInt(const std::string &BoundVar, ExprRef Lo,
                               ExprRef Hi, ExprRef Body) {
  assert(Lo->sort() == Sort::Int && Hi->sort() == Sort::Int &&
         Body->sort() == Sort::Bool);
  return make(ExprKind::Forall, Sort::Bool, 0, BoundVar, {Lo, Hi, Body});
}

ExprRef ExprFactory::existsInt(const std::string &BoundVar, ExprRef Lo,
                               ExprRef Hi, ExprRef Body) {
  assert(Lo->sort() == Sort::Int && Hi->sort() == Sort::Int &&
         Body->sort() == Sort::Bool);
  return make(ExprKind::Exists, Sort::Bool, 0, BoundVar, {Lo, Hi, Body});
}

//===----------------------------------------------------------------------===//
// Substitution (memoized over the DAG)
//===----------------------------------------------------------------------===//

ExprRef ExprFactory::substitute(ExprRef E,
                                const std::map<std::string, ExprRef> &Subst) {
  SubstMemo Memo;
  return substituteImpl(E, Subst, Memo);
}

ExprRef ExprFactory::substituteImpl(ExprRef E,
                                    const std::map<std::string, ExprRef> &Subst,
                                    SubstMemo &Memo) {
  switch (E->kind()) {
  case ExprKind::ConstBool:
  case ExprKind::ConstInt:
  case ExprKind::ConstNull:
    return E;
  case ExprKind::Var: {
    auto It = Subst.find(E->name());
    if (It == Subst.end())
      return E;
    assert(It->second->sort() == E->sort() &&
           "substitution changes the sort of a variable");
    return It->second;
  }
  default:
    break;
  }

  auto Hit = Memo.find(E);
  if (Hit != Memo.end())
    return Hit->second;

  ExprRef Result;
  if (E->kind() == ExprKind::Forall || E->kind() == ExprKind::Exists) {
    // The bound variable shadows any outer binding of the same name. When a
    // binding is actually dropped, the body sees a different substitution,
    // so it gets its own memo table.
    ExprRef Lo = substituteImpl(E->operand(0), Subst, Memo);
    ExprRef Hi = substituteImpl(E->operand(1), Subst, Memo);
    ExprRef Body;
    if (Subst.count(E->name())) {
      std::map<std::string, ExprRef> Inner = Subst;
      Inner.erase(E->name());
      SubstMemo BodyMemo;
      Body = substituteImpl(E->operand(2), Inner, BodyMemo);
    } else {
      Body = substituteImpl(E->operand(2), Subst, Memo);
    }
    Result = E->kind() == ExprKind::Forall ? forallInt(E->name(), Lo, Hi, Body)
                                           : existsInt(E->name(), Lo, Hi, Body);
    Memo.emplace(E, Result);
    return Result;
  }

  std::vector<ExprRef> NewOps;
  NewOps.reserve(E->numOperands());
  bool Changed = false;
  for (ExprRef Op : E->operands()) {
    ExprRef NewOp = substituteImpl(Op, Subst, Memo);
    Changed |= (NewOp != Op);
    NewOps.push_back(NewOp);
  }
  if (!Changed) {
    Memo.emplace(E, E);
    return E;
  }

  switch (E->kind()) {
  case ExprKind::Add:
    Result = add(NewOps[0], NewOps[1]);
    break;
  case ExprKind::Sub:
    Result = sub(NewOps[0], NewOps[1]);
    break;
  case ExprKind::Neg:
    Result = neg(NewOps[0]);
    break;
  case ExprKind::Eq:
    Result = eq(NewOps[0], NewOps[1]);
    break;
  case ExprKind::Lt:
    Result = lt(NewOps[0], NewOps[1]);
    break;
  case ExprKind::Le:
    Result = le(NewOps[0], NewOps[1]);
    break;
  case ExprKind::Not:
    Result = lnot(NewOps[0]);
    break;
  case ExprKind::And:
    Result = conj(std::move(NewOps));
    break;
  case ExprKind::Or:
    Result = disj(std::move(NewOps));
    break;
  case ExprKind::Implies:
    Result = implies(NewOps[0], NewOps[1]);
    break;
  case ExprKind::Iff:
    Result = iff(NewOps[0], NewOps[1]);
    break;
  case ExprKind::Ite:
    Result = ite(NewOps[0], NewOps[1], NewOps[2]);
    break;
  case ExprKind::SetContains:
    Result = setContains(NewOps[0], NewOps[1]);
    break;
  case ExprKind::MapGet:
    Result = mapGet(NewOps[0], NewOps[1]);
    break;
  case ExprKind::MapHasKey:
    Result = mapHasKey(NewOps[0], NewOps[1]);
    break;
  case ExprKind::SeqAt:
    Result = seqAt(NewOps[0], NewOps[1]);
    break;
  case ExprKind::SeqLen:
    Result = seqLen(NewOps[0]);
    break;
  case ExprKind::SeqIndexOf:
    Result = seqIndexOf(NewOps[0], NewOps[1]);
    break;
  case ExprKind::SeqLastIndexOf:
    Result = seqLastIndexOf(NewOps[0], NewOps[1]);
    break;
  case ExprKind::StateSize:
    Result = stateSize(NewOps[0]);
    break;
  case ExprKind::CounterValue:
    Result = counterValue(NewOps[0]);
    break;
  default:
    semcomm_unreachable("unhandled expression kind in substitute");
  }
  Memo.emplace(E, Result);
  return Result;
}
