//===- logic/ExprFactory.cpp - Hash-consing expression builder -----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "logic/ExprFactory.h"

#include "support/SmallVector.h"
#include "support/Unreachable.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

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

/// The name every node of a nameless kind is interned with. A function
/// static, so a factory built during static initialization can use it.
const std::string &noName() {
  static const std::string Empty;
  return Empty;
}

bool isNamed(ExprKind K) {
  return K == ExprKind::Var || K == ExprKind::Forall || K == ExprKind::Exists;
}

size_t hashKey(ExprKind K, Sort S, int64_t Payload, const std::string &Name,
               ArrayRef<ExprRef> Ops) {
  size_t H = hashCombine(static_cast<size_t>(K) * 0x100 + 1,
                         static_cast<size_t>(S));
  H = hashCombine(H, static_cast<size_t>(Payload));
  if (isNamed(K))
    H = hashCombine(H, std::hash<std::string>{}(Name));
  for (const Expr *Op : Ops)
    H = hashCombine(H, reinterpret_cast<size_t>(Op));
  return H;
}

bool keyEquals(const Expr *N, ExprKind K, Sort S, int64_t Payload,
               const std::string &Name, ArrayRef<ExprRef> Ops) {
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
  CachedTrue = make(ExprKind::ConstBool, Sort::Bool, 1, noName(), {});
  CachedFalse = make(ExprKind::ConstBool, Sort::Bool, 0, noName(), {});
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

ExprRef ExprFactory::makeOp(ExprKind K, Sort S,
                            std::initializer_list<ExprRef> Ops) {
  return make(K, S, 0, noName(), ArrayRef<ExprRef>(Ops.begin(), Ops.size()));
}

ExprRef ExprFactory::make(ExprKind K, Sort S, int64_t Payload,
                          const std::string &Name, ArrayRef<ExprRef> Ops) {
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

  Sh.Arena.emplace_back(Expr(K, S, Payload, Name,
                             std::vector<const Expr *>(Ops.begin(), Ops.end()),
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
  return make(ExprKind::ConstInt, Sort::Int, N, noName(), {});
}

ExprRef ExprFactory::nullConst() {
  return make(ExprKind::ConstNull, Sort::Obj, 0, noName(), {});
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
  return makeOp(ExprKind::Add, Sort::Int, {A, B});
}

ExprRef ExprFactory::sub(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "sub wants ints");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return intConst(A->intValue() - B->intValue());
  if (B->kind() == ExprKind::ConstInt && B->intValue() == 0)
    return A;
  return makeOp(ExprKind::Sub, Sort::Int, {A, B});
}

ExprRef ExprFactory::neg(ExprRef A) {
  assert(A->sort() == Sort::Int && "neg wants an int");
  if (A->kind() == ExprKind::ConstInt)
    return intConst(-A->intValue());
  return makeOp(ExprKind::Neg, Sort::Int, {A});
}

ExprRef ExprFactory::eq(ExprRef A, ExprRef B) {
  assert(A->sort() == B->sort() && "equality between different sorts");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return boolConst(A->intValue() == B->intValue());
  if (A->kind() == ExprKind::ConstBool && B->kind() == ExprKind::ConstBool)
    return boolConst(A->boolValue() == B->boolValue());
  if (A->kind() == ExprKind::ConstNull && B->kind() == ExprKind::ConstNull)
    return trueExpr();
  return makeOp(ExprKind::Eq, Sort::Bool, {A, B});
}

ExprRef ExprFactory::lt(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "lt wants ints");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return boolConst(A->intValue() < B->intValue());
  return makeOp(ExprKind::Lt, Sort::Bool, {A, B});
}

ExprRef ExprFactory::le(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "le wants ints");
  if (A->kind() == ExprKind::ConstInt && B->kind() == ExprKind::ConstInt)
    return boolConst(A->intValue() <= B->intValue());
  return makeOp(ExprKind::Le, Sort::Bool, {A, B});
}

ExprRef ExprFactory::lnot(ExprRef A) {
  assert(A->sort() == Sort::Bool && "negation of a non-boolean");
  if (A->isTrue())
    return falseExpr();
  if (A->isFalse())
    return trueExpr();
  if (A->kind() == ExprKind::Not)
    return A->operand(0);
  return makeOp(ExprKind::Not, Sort::Bool, {A});
}

ExprRef ExprFactory::conj(ArrayRef<ExprRef> Ops) {
  SmallVector<ExprRef, 16> Flat;
  for (ExprRef Op : Ops) {
    assert(Op->sort() == Sort::Bool && "conjunct must be boolean");
    if (Op->isTrue())
      continue;
    if (Op->isFalse())
      return falseExpr();
    if (Op->kind() == ExprKind::And) {
      Flat.append(Op->operands().data(),
                  Op->operands().data() + Op->numOperands());
      continue;
    }
    Flat.push_back(Op);
  }
  if (Flat.empty())
    return trueExpr();
  if (Flat.size() == 1)
    return Flat[0];
  return make(ExprKind::And, Sort::Bool, 0, noName(), Flat);
}

ExprRef ExprFactory::disj(ArrayRef<ExprRef> Ops) {
  SmallVector<ExprRef, 16> Flat;
  for (ExprRef Op : Ops) {
    assert(Op->sort() == Sort::Bool && "disjunct must be boolean");
    if (Op->isFalse())
      continue;
    if (Op->isTrue())
      return trueExpr();
    if (Op->kind() == ExprKind::Or) {
      Flat.append(Op->operands().data(),
                  Op->operands().data() + Op->numOperands());
      continue;
    }
    Flat.push_back(Op);
  }
  if (Flat.empty())
    return falseExpr();
  if (Flat.size() == 1)
    return Flat[0];
  return make(ExprKind::Or, Sort::Bool, 0, noName(), Flat);
}

ExprRef ExprFactory::implies(ExprRef A, ExprRef B) {
  assert(A->sort() == Sort::Bool && B->sort() == Sort::Bool);
  if (A->isTrue())
    return B;
  if (A->isFalse() || B->isTrue())
    return trueExpr();
  if (B->isFalse())
    return lnot(A);
  return makeOp(ExprKind::Implies, Sort::Bool, {A, B});
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
  return makeOp(ExprKind::Iff, Sort::Bool, {A, B});
}

ExprRef ExprFactory::ite(ExprRef C, ExprRef T, ExprRef E) {
  assert(C->sort() == Sort::Bool && T->sort() == E->sort());
  if (C->isTrue())
    return T;
  if (C->isFalse())
    return E;
  return makeOp(ExprKind::Ite, T->sort(), {C, T, E});
}

ExprRef ExprFactory::setContains(ExprRef S, ExprRef V) {
  assert(S->sort() == Sort::State && V->sort() == Sort::Obj);
  return makeOp(ExprKind::SetContains, Sort::Bool, {S, V});
}

ExprRef ExprFactory::mapGet(ExprRef S, ExprRef K) {
  assert(S->sort() == Sort::State && K->sort() == Sort::Obj);
  return makeOp(ExprKind::MapGet, Sort::Obj, {S, K});
}

ExprRef ExprFactory::mapHasKey(ExprRef S, ExprRef K) {
  assert(S->sort() == Sort::State && K->sort() == Sort::Obj);
  return makeOp(ExprKind::MapHasKey, Sort::Bool, {S, K});
}

ExprRef ExprFactory::seqAt(ExprRef S, ExprRef I) {
  assert(S->sort() == Sort::State && I->sort() == Sort::Int);
  return makeOp(ExprKind::SeqAt, Sort::Obj, {S, I});
}

ExprRef ExprFactory::seqLen(ExprRef S) {
  assert(S->sort() == Sort::State);
  return makeOp(ExprKind::SeqLen, Sort::Int, {S});
}

ExprRef ExprFactory::seqIndexOf(ExprRef S, ExprRef V) {
  assert(S->sort() == Sort::State && V->sort() == Sort::Obj);
  return makeOp(ExprKind::SeqIndexOf, Sort::Int, {S, V});
}

ExprRef ExprFactory::seqLastIndexOf(ExprRef S, ExprRef V) {
  assert(S->sort() == Sort::State && V->sort() == Sort::Obj);
  return makeOp(ExprKind::SeqLastIndexOf, Sort::Int, {S, V});
}

ExprRef ExprFactory::stateSize(ExprRef S) {
  assert(S->sort() == Sort::State);
  return makeOp(ExprKind::StateSize, Sort::Int, {S});
}

ExprRef ExprFactory::counterValue(ExprRef S) {
  assert(S->sort() == Sort::State);
  return makeOp(ExprKind::CounterValue, Sort::Int, {S});
}

ExprRef ExprFactory::forallInt(const std::string &BoundVar, ExprRef Lo,
                               ExprRef Hi, ExprRef Body) {
  assert(Lo->sort() == Sort::Int && Hi->sort() == Sort::Int &&
         Body->sort() == Sort::Bool);
  const ExprRef Ops[] = {Lo, Hi, Body};
  return make(ExprKind::Forall, Sort::Bool, 0, BoundVar, Ops);
}

ExprRef ExprFactory::existsInt(const std::string &BoundVar, ExprRef Lo,
                               ExprRef Hi, ExprRef Body) {
  assert(Lo->sort() == Sort::Int && Hi->sort() == Sort::Int &&
         Body->sort() == Sort::Bool);
  const ExprRef Ops[] = {Lo, Hi, Body};
  return make(ExprKind::Exists, Sort::Bool, 0, BoundVar, Ops);
}

//===----------------------------------------------------------------------===//
// Substitution (memoized over the DAG)
//===----------------------------------------------------------------------===//

namespace {

/// substitute's memo: node to result, by linear probing on the node's
/// address. The first InlineSlots slots live in the object, on the
/// substituting call's stack; past half of them the table moves to the
/// heap, doubling each time.
class SubstMemo {
public:
  SubstMemo() = default;
  SubstMemo(const SubstMemo &) = delete;
  SubstMemo &operator=(const SubstMemo &) = delete;

  /// \p Key's result, or null.
  ExprRef find(ExprRef Key) const { return slotOf(Key).Value; }

  void insert(ExprRef Key, ExprRef Value) {
    Slot &S = slotOf(Key);
    assert(!S.Key && "substitution memoized twice");
    S = {Key, Value};
    if (2 * ++Count > Mask + 1)
      grow();
  }

private:
  struct Slot {
    ExprRef Key = nullptr;
    ExprRef Value = nullptr;
  };
  static constexpr unsigned InlineBits = 5;

  /// \p Key's slot, or the empty slot its probe run ends at.
  Slot &slotOf(ExprRef Key) const {
    auto I = static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(Key) * 0x9e3779b97f4a7c15ull) >>
        (64 - Bits));
    while (Slots[I].Key && Slots[I].Key != Key)
      I = (I + 1) & Mask;
    return Slots[I];
  }

  void grow() {
    Slot *Old = Slots;
    size_t OldSize = Mask + 1;
    ++Bits;
    std::unique_ptr<Slot[]> New(new Slot[size_t(1) << Bits]);
    Slots = New.get();
    Mask = (size_t(1) << Bits) - 1;
    for (size_t I = 0; I != OldSize; ++I)
      if (Old[I].Key)
        slotOf(Old[I].Key) = Old[I];
    Heap = std::move(New);
  }

  Slot Inline[size_t(1) << InlineBits];
  std::unique_ptr<Slot[]> Heap;
  Slot *Slots = Inline;
  unsigned Bits = InlineBits;
  size_t Mask = (size_t(1) << InlineBits) - 1;
  size_t Count = 0;
};

/// One substitution pass: the bindings in force and the memo of the
/// results under them. A quantifier that shadows a binding substitutes its
/// body with a pass of its own, since the outer memo holds results under
/// bindings the body does not see.
class Substituter {
public:
  Substituter(ExprFactory &F, ArrayRef<Binding> Subst) : F(F), Subst(Subst) {}

  ExprRef run(ExprRef E);

private:
  ExprRef rebuild(ExprRef E, ArrayRef<ExprRef> Ops);
  ExprRef quantifier(ExprRef E);

  ExprFactory &F;
  ArrayRef<Binding> Subst;
  SubstMemo Memo;
};

ExprRef Substituter::run(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::ConstBool:
  case ExprKind::ConstInt:
  case ExprKind::ConstNull:
    return E;
  case ExprKind::Var:
    for (const Binding &B : Subst)
      if (B.Var == E) {
        assert(B.Value->sort() == E->sort() &&
               "substitution changes the sort of a variable");
        return B.Value;
      }
    return E;
  default:
    break;
  }

  if (ExprRef Hit = Memo.find(E))
    return Hit;

  ExprRef Result;
  if (E->kind() == ExprKind::Forall || E->kind() == ExprKind::Exists) {
    Result = quantifier(E);
  } else {
    SmallVector<ExprRef, 8> NewOps;
    bool Changed = false;
    for (ExprRef Op : E->operands()) {
      ExprRef NewOp = run(Op);
      Changed |= (NewOp != Op);
      NewOps.push_back(NewOp);
    }
    Result = Changed ? rebuild(E, NewOps) : E;
  }
  Memo.insert(E, Result);
  return Result;
}

ExprRef Substituter::quantifier(ExprRef E) {
  ExprRef Lo = run(E->operand(0));
  ExprRef Hi = run(E->operand(1));
  // The bound variable shadows every binding of its name.
  SmallVector<Binding, 4> Inner;
  for (const Binding &B : Subst)
    if (B.Var->name() != E->name())
      Inner.push_back(B);
  ExprRef Body = Inner.size() == Subst.size()
                     ? run(E->operand(2))
                     : Substituter(F, Inner).run(E->operand(2));
  return E->kind() == ExprKind::Forall ? F.forallInt(E->name(), Lo, Hi, Body)
                                       : F.existsInt(E->name(), Lo, Hi, Body);
}

ExprRef Substituter::rebuild(ExprRef E, ArrayRef<ExprRef> Ops) {
  switch (E->kind()) {
  case ExprKind::Add:
    return F.add(Ops[0], Ops[1]);
  case ExprKind::Sub:
    return F.sub(Ops[0], Ops[1]);
  case ExprKind::Neg:
    return F.neg(Ops[0]);
  case ExprKind::Eq:
    return F.eq(Ops[0], Ops[1]);
  case ExprKind::Lt:
    return F.lt(Ops[0], Ops[1]);
  case ExprKind::Le:
    return F.le(Ops[0], Ops[1]);
  case ExprKind::Not:
    return F.lnot(Ops[0]);
  case ExprKind::And:
    return F.conj(Ops);
  case ExprKind::Or:
    return F.disj(Ops);
  case ExprKind::Implies:
    return F.implies(Ops[0], Ops[1]);
  case ExprKind::Iff:
    return F.iff(Ops[0], Ops[1]);
  case ExprKind::Ite:
    return F.ite(Ops[0], Ops[1], Ops[2]);
  case ExprKind::SetContains:
    return F.setContains(Ops[0], Ops[1]);
  case ExprKind::MapGet:
    return F.mapGet(Ops[0], Ops[1]);
  case ExprKind::MapHasKey:
    return F.mapHasKey(Ops[0], Ops[1]);
  case ExprKind::SeqAt:
    return F.seqAt(Ops[0], Ops[1]);
  case ExprKind::SeqLen:
    return F.seqLen(Ops[0]);
  case ExprKind::SeqIndexOf:
    return F.seqIndexOf(Ops[0], Ops[1]);
  case ExprKind::SeqLastIndexOf:
    return F.seqLastIndexOf(Ops[0], Ops[1]);
  case ExprKind::StateSize:
    return F.stateSize(Ops[0]);
  case ExprKind::CounterValue:
    return F.counterValue(Ops[0]);
  default:
    semcomm_unreachable("unhandled expression kind in substitute");
  }
}

} // namespace

ExprRef ExprFactory::substitute(ExprRef E, ArrayRef<Binding> Subst) {
  return Substituter(*this, Subst).run(E);
}
