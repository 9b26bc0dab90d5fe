//===- smt/Tseitin.cpp - Structural CNF encoding ----------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "smt/Tseitin.h"

#include "support/Unreachable.h"

#include <cassert>

using namespace semcomm;

Tseitin::LayerId Tseitin::pushLayer(LayerId Parent) {
  assert(Parent < Layers.size() && Layers[Parent].Alive &&
         "pushLayer under a dead parent");
  Layers.push_back({{}, {}, {}, Parent, true});
  LayerId Id = static_cast<LayerId>(Layers.size()) - 1;
  if (Audit)
    Audit->pushLayer(Id, Parent);
  return Id;
}

void Tseitin::setActiveLayer(LayerId L) {
  assert(L < Layers.size() && Layers[L].Alive && "activating a dead layer");
  Active = L;
}

void Tseitin::dropLayer(LayerId L) {
  assert(L != RootLayer && "the root layer is permanent");
  assert(L != Active && "dropping the active layer");
  if (Audit)
    Audit->dropLayer(L);
  Layers[L].Cache = {};
  Layers[L].Guarded = {};
  Layers[L].Owned.clear();
  Layers[L].Owned.shrink_to_fit();
  Layers[L].Alive = false;
}

Lit Tseitin::freshDefinition() {
  int V = Solver.addVar();
  Layers[Active].Owned.push_back(V);
  if (Audit)
    Audit->define(Active);
  return Lit(V, true);
}

bool Tseitin::isAtom(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::ConstBool:
  case ExprKind::Not:
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
  case ExprKind::Iff:
  case ExprKind::Ite:
    return false;
  default:
    return E->sort() == Sort::Bool;
  }
}

Lit Tseitin::atomLit(ExprRef Atom) {
  assert(isAtom(Atom) && "atomLit on a non-atom");
  auto It = Atoms.find(Atom);
  if (It != Atoms.end())
    return Lit(It->second, true);
  // Atom vars are global (bridges reference them across scopes), so they
  // are never layer-owned; they leave the table only through an explicit
  // releaseAtom() once the SMT layer proves every referencing scope died.
  int V = Solver.addVar();
  Atoms.emplace(Atom, V);
  return Lit(V, true);
}

template <typename FindFn>
const Lit *Tseitin::findOnChain(FindFn Find) const {
  // Walk the ancestor chain only: a sibling layer's definitions may be
  // evicted with that sibling, so referencing them would dangle.
  LayerId L = Active;
  while (true) {
    if (const Lit *Hit = Find(Layers[L])) {
      if (Audit)
        Audit->reference(L, Active);
      return Hit;
    }
    if (L == RootLayer)
      return nullptr;
    L = Layers[L].Parent;
  }
}

const Lit *Tseitin::lookup(ExprRef E) const {
  return findOnChain([E](const Layer &Lay) -> const Lit * {
    auto It = Lay.Cache.find(E);
    return It == Lay.Cache.end() ? nullptr : &It->second;
  });
}

Lit Tseitin::encode(ExprRef E) {
  if (const Lit *Cached = lookup(E))
    return *Cached;

  Lit Result;
  switch (E->kind()) {
  case ExprKind::ConstBool: {
    // A constant literal: a fresh variable pinned by a unit clause.
    Lit L = freshDefinition();
    Solver.addClause({E->boolValue() ? L : L.negated()});
    Result = L;
    break;
  }
  case ExprKind::Not:
    Result = encode(E->operand(0)).negated();
    break;
  case ExprKind::And: {
    Lit G = freshDefinition();
    std::vector<Lit> Back{G};
    for (ExprRef Op : E->operands()) {
      Lit L = encode(Op);
      Solver.addClause({G.negated(), L});
      Back.push_back(L.negated());
    }
    Solver.addClause(Back);
    Result = G;
    break;
  }
  case ExprKind::Or: {
    Lit G = freshDefinition();
    std::vector<Lit> Fwd{G.negated()};
    for (ExprRef Op : E->operands()) {
      Lit L = encode(Op);
      Solver.addClause({G, L.negated()});
      Fwd.push_back(L);
    }
    Solver.addClause(Fwd);
    Result = G;
    break;
  }
  case ExprKind::Implies: {
    Lit A = encode(E->operand(0));
    Lit B = encode(E->operand(1));
    Lit G = freshDefinition();
    Solver.addClause({G.negated(), A.negated(), B});
    Solver.addClause({G, A});
    Solver.addClause({G, B.negated()});
    Result = G;
    break;
  }
  case ExprKind::Iff: {
    Lit A = encode(E->operand(0));
    Lit B = encode(E->operand(1));
    Lit G = freshDefinition();
    Solver.addClause({G.negated(), A.negated(), B});
    Solver.addClause({G.negated(), A, B.negated()});
    Solver.addClause({G, A, B});
    Solver.addClause({G, A.negated(), B.negated()});
    Result = G;
    break;
  }
  case ExprKind::Ite: {
    assert(E->sort() == Sort::Bool && "only boolean ITE is propositional");
    Lit C = encode(E->operand(0));
    Lit T = encode(E->operand(1));
    Lit F = encode(E->operand(2));
    Lit G = freshDefinition();
    Solver.addClause({G.negated(), C.negated(), T});
    Solver.addClause({G.negated(), C, F});
    Solver.addClause({G, C.negated(), T.negated()});
    Solver.addClause({G, C, F.negated()});
    Result = G;
    break;
  }
  default:
    Result = atomLit(E);
    break;
  }

  Layers[Active].Cache.emplace(E, Result);
  return Result;
}

void Tseitin::assertGuarded(const std::vector<ExprRef> &Guards,
                            ExprRef Body) {
  assert(!Guards.empty() && "a guarded assertion needs a guard");
  // `g -> true` folds to true at every level of the chain.
  if (Body->isTrue()) {
    assertTrue(Body);
    return;
  }
  GuardKey Key{Guards.back(), Body};
  const Lit *Cached = findOnChain([&Key](const Layer &Lay) -> const Lit * {
    for (const auto &[K, L] : Lay.Guarded)
      if (K == Key)
        return &L;
    return nullptr;
  });
  if (Cached) {
    Solver.addClause({*Cached});
    return;
  }
  // encode() of the chain visits each implication's guard before its
  // consequent, so every guard is encoded, outermost first, before the
  // body; the definitions then follow innermost first.
  std::vector<Lit> G;
  G.reserve(Guards.size());
  for (ExprRef Guard : Guards)
    G.push_back(encode(Guard));
  // `g -> false` folds to `!g`: the innermost guard's negation is the
  // consequent of the level above it.
  size_t Levels = Guards.size();
  Lit Inner;
  if (Body->isFalse())
    Inner = G[--Levels].negated();
  else
    Inner = encode(Body);
  while (Levels != 0) {
    Lit A = G[--Levels];
    Lit D = freshDefinition();
    Solver.addClause({D.negated(), A.negated(), Inner});
    Solver.addClause({D, A});
    Solver.addClause({D, Inner.negated()});
    Inner = D;
  }
  Layers[Active].Guarded.push_back({Key, Inner});
  Solver.addClause({Inner});
}
