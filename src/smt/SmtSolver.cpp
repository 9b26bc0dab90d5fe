//===- smt/SmtSolver.cpp - Eager-encoding SMT facade -------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include "logic/Printer.h"
#include "support/Unreachable.h"

#include <algorithm>
#include <cassert>

using namespace semcomm;
using detail::IntAtomInfo;

// --- Linear integer atom canonicalization -----------------------------------

namespace {

/// A linear combination of opaque integer symbols plus a constant.
struct LinearForm {
  std::map<std::string, std::pair<ExprRef, int64_t>> Coeffs; // key: printed
  int64_t Constant = 0;

  void addSymbol(ExprRef Sym, int64_t C) {
    std::string Key = printAbstract(Sym);
    auto [It, _] = Coeffs.try_emplace(Key, Sym, 0);
    It->second.second += C;
    if (It->second.second == 0)
      Coeffs.erase(It);
  }

  void negate() {
    for (auto &[K, V] : Coeffs)
      V.second = -V.second;
    Constant = -Constant;
  }

  std::string signature() const {
    std::string Sig;
    for (const auto &[K, V] : Coeffs)
      Sig += (V.second >= 0 ? "+" : "") + std::to_string(V.second) + "*" + K;
    return Sig;
  }
};

/// Decomposes an Int-sorted expression into a LinearForm; any
/// non-arithmetic subterm (variable, indexOf, size, counter, ...) is an
/// opaque symbol.
void decompose(ExprRef E, int64_t Sign, LinearForm &Out) {
  switch (E->kind()) {
  case ExprKind::ConstInt:
    Out.Constant += Sign * E->intValue();
    return;
  case ExprKind::Add:
    decompose(E->operand(0), Sign, Out);
    decompose(E->operand(1), Sign, Out);
    return;
  case ExprKind::Sub:
    decompose(E->operand(0), Sign, Out);
    decompose(E->operand(1), -Sign, Out);
    return;
  case ExprKind::Neg:
    decompose(E->operand(0), -Sign, Out);
    return;
  default:
    assert(E->sort() == Sort::Int && "non-integer term in linear form");
    Out.addSymbol(E, Sign);
    return;
  }
}

} // namespace

ExprRef SmtSession::canonicalIntAtom(ExprKind K, ExprRef A, ExprRef B) {
  // diff = A - B  (for Lt: A < B  <=>  diff <= -1; Le: diff <= 0).
  LinearForm Diff;
  decompose(A, 1, Diff);
  decompose(B, -1, Diff);
  int64_t Bound = -Diff.Constant;
  Diff.Constant = 0;

  if (Diff.Coeffs.empty()) {
    switch (K) {
    case ExprKind::Eq:
      return F.boolConst(0 == Bound);
    case ExprKind::Lt:
      return F.boolConst(0 < Bound);
    case ExprKind::Le:
      return F.boolConst(0 <= Bound);
    default:
      semcomm_unreachable("bad int atom kind");
    }
  }

  bool IsEq = (K == ExprKind::Eq);
  if (K == ExprKind::Lt)
    Bound -= 1; // sum <= Bound - 1.

  // Canonical sign for equalities: least symbol has a positive coefficient.
  if (IsEq && Diff.Coeffs.begin()->second.second < 0) {
    Diff.negate();
    Bound = -Bound;
  }

  std::string Signature = Diff.signature();
  std::string Name = std::string(IsEq ? "ieq" : "ile") + "[" + Signature +
                     "]" + std::to_string(Bound);
  ExprRef Atom = F.var(Name, Sort::Bool);
  if (IntAtomSeen.insert(Atom).second) {
    auto [It, _] = IntAtomInfos.try_emplace(
        Atom, IntAtomInfo{std::move(Signature), IsEq, Bound});
    IntAtoms.push_back(*It);
  }
  return Atom;
}

ExprRef SmtSession::eqObj(ExprRef A, ExprRef B) {
  if (A == B)
    return F.trueExpr();
  // Lower object-sorted ITEs into the boolean structure.
  if (A->kind() == ExprKind::Ite)
    return F.disj({F.conj({normalize(A->operand(0)),
                           eqObj(A->operand(1), B)}),
                   F.conj({F.lnot(normalize(A->operand(0))),
                           eqObj(A->operand(2), B)})});
  if (B->kind() == ExprKind::Ite)
    return eqObj(B, A);
  // Canonical operand order (printed form is a stable total order).
  if (printAbstract(B) < printAbstract(A))
    std::swap(A, B);
  return F.eq(A, B);
}

ExprRef SmtSession::normalizeAtom(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::Eq: {
    Sort S = E->operand(0)->sort();
    if (S == Sort::Int)
      return canonicalIntAtom(ExprKind::Eq, E->operand(0), E->operand(1));
    if (S == Sort::Obj)
      return eqObj(E->operand(0), E->operand(1));
    return F.iff(normalize(E->operand(0)), normalize(E->operand(1)));
  }
  case ExprKind::Lt:
    return canonicalIntAtom(ExprKind::Lt, E->operand(0), E->operand(1));
  case ExprKind::Le:
    return canonicalIntAtom(ExprKind::Le, E->operand(0), E->operand(1));
  default:
    semcomm_unreachable("normalizeAtom on a non-atom");
  }
}

ExprRef SmtSession::normalize(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::Not:
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
  case ExprKind::Iff:
  case ExprKind::Ite:
  case ExprKind::Eq:
  case ExprKind::Lt:
  case ExprKind::Le:
    break;
  default:
    // Boolean variables and state-query atoms stay as they are.
    return E;
  }
  auto Hit = NormalizeMemo.find(E);
  if (Hit != NormalizeMemo.end())
    return Hit->second;

  ExprRef N = nullptr;
  switch (E->kind()) {
  case ExprKind::Not:
    N = F.lnot(normalize(E->operand(0)));
    break;
  case ExprKind::And:
  case ExprKind::Or: {
    std::vector<ExprRef> Ops;
    for (ExprRef Op : E->operands())
      Ops.push_back(normalize(Op));
    N = E->kind() == ExprKind::And ? F.conj(std::move(Ops))
                                   : F.disj(std::move(Ops));
    break;
  }
  case ExprKind::Implies:
    N = F.implies(normalize(E->operand(0)), normalize(E->operand(1)));
    break;
  case ExprKind::Iff:
    N = F.iff(normalize(E->operand(0)), normalize(E->operand(1)));
    break;
  case ExprKind::Ite:
    assert(E->sort() == Sort::Bool && "non-boolean ITE outside an atom");
    N = F.ite(normalize(E->operand(0)), normalize(E->operand(1)),
              normalize(E->operand(2)));
    break;
  default:
    N = normalizeAtom(E);
    break;
  }
  NormalizeMemo.emplace(E, N);
  return N;
}

// --- Incremental bridge generation -------------------------------------------

void SmtSession::recordOwner(ExprRef E) {
  if (!BridgeCompactionEnabled)
    return;
  auto &Owners = EntryOwners[E];
  // RootScope ownership is permanent, so the reverse index (walked only
  // at retirement) never carries it.
  if (Owners.insert(AttrScope).second && AttrScope != RootScope)
    ScopeEntries[AttrScope].push_back(E);
  DeadEntries.erase(E);
}

void SmtSession::collectTheoryAtoms(ExprRef E) {
  if (E->kind() == ExprKind::Eq && E->operand(0)->sort() == Sort::Obj) {
    for (ExprRef T : {E->operand(0), E->operand(1)}) {
      if (ObjTermSet.insert(T).second) {
        ObjTerms.push_back(T);
        if (T->kind() == ExprKind::MapGet)
          MapLookups.push_back(T);
      }
      recordOwner(T);
    }
    return;
  }
  if (E->kind() == ExprKind::SetContains) {
    if (MemAtomSet.insert(E).second)
      MemAtoms.push_back(E);
    recordOwner(E);
    return;
  }
  // Canonical integer atoms are minted during normalization (before this
  // walk), so here they are leaves of the registry's own making. Only a
  // compacting session can have dropped one from the registry since; a
  // memoized normalization then hands it back without re-minting it, so
  // it re-registers here and emitNewBridges() re-emits its lattice.
  if (BridgeCompactionEnabled && E->kind() == ExprKind::Var) {
    auto Info = IntAtomInfos.find(E);
    if (Info != IntAtomInfos.end()) {
      if (IntAtomSeen.insert(E).second)
        IntAtoms.push_back(*Info);
      recordOwner(E);
      return;
    }
  }
  for (ExprRef Op : E->operands())
    collectTheoryAtoms(Op);
}

void SmtSession::emitNewBridges() {
  if (BridgedObjTerms == ObjTerms.size() &&
      BridgedMapLookups == MapLookups.size() &&
      BridgedMemAtoms == MemAtoms.size() && BridgedIntAtoms == IntAtoms.size())
    return;
  // Every instance is one to three clauses over its operands' global atom
  // variables: no formula is built, so no Tseitin definition is either.
  // The registries hold ITE-lowered terms, so every operand — each eqObj
  // result included — is an atom (atomLit asserts it).

  // Equality transitivity over every term triple that mentions a new term.
  // New terms have the highest indices, so iterating the triple's maximum
  // index over the new range enumerates each new triple exactly once. The
  // pairwise atoms are created through eqObj so they coincide with the
  // assertions' atoms.
  for (size_t K = BridgedObjTerms; K < ObjTerms.size(); ++K)
    for (size_t J = 0; J != K; ++J)
      for (size_t I = 0; I != J; ++I) {
        Lit AB = Encoder.atomLit(eqObj(ObjTerms[I], ObjTerms[J]));
        Lit BC = Encoder.atomLit(eqObj(ObjTerms[J], ObjTerms[K]));
        Lit AC = Encoder.atomLit(eqObj(ObjTerms[I], ObjTerms[K]));
        Sat.addClause({AB.negated(), BC.negated(), AC});
        Sat.addClause({AB.negated(), AC.negated(), BC});
        Sat.addClause({BC.negated(), AC.negated(), AB});
      }

  // Congruence for map lookups: equal keys read equal values.
  for (size_t J = BridgedMapLookups; J < MapLookups.size(); ++J)
    for (size_t I = 0; I != J; ++I)
      if (MapLookups[I]->operand(0) == MapLookups[J]->operand(0))
        emitCongruence(MapLookups[I], MapLookups[J]);

  // Congruence for set membership: equal elements agree on membership.
  for (size_t J = BridgedMemAtoms; J < MemAtoms.size(); ++J)
    for (size_t I = 0; I != J; ++I)
      if (MemAtoms[I]->operand(0) == MemAtoms[J]->operand(0))
        emitCongruence(MemAtoms[I], MemAtoms[J]);

  // Linear integer atom lattice: within one symbol signature, equalities
  // with different constants exclude each other, equalities decide bounds,
  // and the weaker bound follows from the stronger. Distinct atoms of one
  // signature always differ in kind or constant, so every such pair is
  // exactly one binary clause.
  for (size_t J = BridgedIntAtoms; J < IntAtoms.size(); ++J)
    for (size_t I = 0; I != J; ++I) {
      const auto &[AtomA, A] = IntAtoms[I];
      const auto &[AtomB, B] = IntAtoms[J];
      if (A.Signature != B.Signature)
        continue;
      Lit LA = Encoder.atomLit(AtomA), LB = Encoder.atomLit(AtomB);
      if (A.IsEq && B.IsEq)
        Sat.addClause({LA.negated(), LB.negated()});
      else if (A.IsEq)
        Sat.addClause({LA.negated(), A.C <= B.C ? LB : LB.negated()});
      else if (B.IsEq)
        Sat.addClause({LB.negated(), B.C <= A.C ? LA : LA.negated()});
      else if (A.C <= B.C)
        Sat.addClause({LA.negated(), LB});
      else
        Sat.addClause({LB.negated(), LA});
    }

  BridgedObjTerms = ObjTerms.size();
  BridgedMapLookups = MapLookups.size();
  BridgedMemAtoms = MemAtoms.size();
  BridgedIntAtoms = IntAtoms.size();

  LiveBridges = countBridges();
  if (LiveBridges > PeakLiveBridges)
    PeakLiveBridges = LiveBridges;
}

void SmtSession::emitCongruence(ExprRef P, ExprRef Q) {
  // P and Q are two lookups into one map or two membership atoms over one
  // set; operand 1 is the key or the element.
  Lit ArgsEq = Encoder.atomLit(eqObj(P->operand(1), Q->operand(1)));
  if (P->kind() == ExprKind::MapGet) {
    Sat.addClause({ArgsEq.negated(), Encoder.atomLit(eqObj(P, Q))});
    return;
  }
  Lit MemP = Encoder.atomLit(P), MemQ = Encoder.atomLit(Q);
  Sat.addClause({ArgsEq.negated(), MemP.negated(), MemQ});
  Sat.addClause({ArgsEq.negated(), MemP, MemQ.negated()});
}

int64_t SmtSession::countBridges() const {
  // Three transitivity bridges per term triple, plus one bridge per lookup
  // pair over one map, per membership pair over one set, and per integer-
  // atom pair sharing a signature. Each entry pairs with the entries of
  // its group seen before it, hence `Count += Group[Key]++`.
  auto N = static_cast<int64_t>(ObjTerms.size());
  int64_t Count = N * (N - 1) * (N - 2) / 2;
  std::map<ExprRef, int64_t> Maps, Sets;
  for (ExprRef L : MapLookups)
    Count += Maps[L->operand(0)]++;
  for (ExprRef M : MemAtoms)
    Count += Sets[M->operand(0)]++;
  std::map<std::string, int64_t> Signatures;
  for (const auto &P : IntAtoms)
    Count += Signatures[P.second.Signature]++;
  return Count;
}

void SmtSession::ingest(ExprRef Normalized) {
  collectTheoryAtoms(Normalized);
  emitNewBridges();
}

void SmtSession::collectBoolAtoms(ExprRef E, std::unordered_set<ExprRef> &Out,
                                  std::unordered_set<ExprRef> &Visited) {
  if (!Visited.insert(E).second)
    return;
  switch (E->kind()) {
  case ExprKind::ConstBool:
    return;
  case ExprKind::Not:
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
  case ExprKind::Iff:
    for (ExprRef Op : E->operands())
      collectBoolAtoms(Op, Out, Visited);
    return;
  case ExprKind::Ite:
    if (E->sort() == Sort::Bool) {
      for (ExprRef Op : E->operands())
        collectBoolAtoms(Op, Out, Visited);
      return;
    }
    break;
  default:
    break;
  }
  if (E->sort() == Sort::Bool)
    Out.insert(E);
}

// --- Session top level --------------------------------------------------------

SmtSession::SmtSession(ExprFactory &F) : F(F), Encoder(Sat) {
  Scopes.push_back(ScopeNode{}); // RootScope: unguarded, root layer.
}

void SmtSession::enableCertification() {
  assert(!ProofLog && "certification enabled twice");
  assert(Checks == 0 && Sat.numVars() == 0 &&
         "certification must be enabled before the first assertion");
  ProofLog = std::make_unique<proof::ProofTrace>();
  Sat.setProofTrace(ProofLog.get());
}

const proof::CertifySummary &SmtSession::finishCertification() {
  if (ProofLog && !CertFinished) {
    proof::ProofChecker Checker;
    Cert.fold(Checker.check(*ProofLog));
    CertFinished = true;
  }
  return Cert;
}

void SmtSession::enableBridgeCompaction(size_t MinDead) {
  assert(Checks == 0 && Sat.numVars() == 0 &&
         "bridge compaction must be enabled before the first assertion");
  assert(!BridgeCompactionEnabled && "bridge compaction enabled twice");
  BridgeCompactionEnabled = true;
  BridgeMinDead = MinDead;
}

void SmtSession::assertBase(ExprRef E) {
  ExprRef N = normalize(E);
  AttrScope = RootScope;
  ingest(N);
  std::unordered_set<ExprRef> Visited;
  collectBoolAtoms(N, BaseAtoms, Visited);
  Tseitin::LayerId Saved = Encoder.activeLayer();
  Encoder.setActiveLayer(Tseitin::RootLayer);
  Encoder.assertTrue(N);
  Encoder.setActiveLayer(Saved);
}

SmtSession::ScopeId SmtSession::openScope(ExprRef Selector, ScopeId Parent,
                                          bool OwnLayer) {
  assert(Parent < Scopes.size() && Scopes[Parent].Alive &&
         "opening a scope under a dead parent");
  assert(ScopeOf.find(Selector) == ScopeOf.end() &&
         "selector already guards a live scope");
  ScopeNode Node;
  Node.Selector = Selector;
  Node.Parent = Parent;
  Node.OwnsLayer = OwnLayer;
  Node.Layer = OwnLayer ? Encoder.pushLayer(Scopes[Parent].Layer)
                        : Scopes[Parent].Layer;
  ScopeId Id = Scopes.size();
  Scopes.push_back(std::move(Node));
  Scopes[Parent].Children.push_back(Id);
  ScopeOf[Selector] = Id;
  if (Audit)
    Audit->openScope(printAbstract(Selector));
  return Id;
}

void SmtSession::assertInScope(ScopeId Scope, ExprRef Body) {
  assert(Scope < Scopes.size() && Scopes[Scope].Alive &&
         "asserting into a dead scope");
  if (Scope == RootScope) {
    assertBase(Body);
    return;
  }
  if (Audit)
    Audit->assertInScope(printAbstract(Scopes[Scope].Selector));
  ExprRef N = normalize(Body);
  AttrScope = Scope;
  ingest(N);
  ScopedBodies[Scopes[Scope].Selector].push_back(N);
  // The selector path, outermost first. Selectors are boolean variables,
  // which normalize() returns unchanged.
  std::vector<ExprRef> Path;
  for (ScopeId S = Scope; S != RootScope; S = Scopes[S].Parent)
    Path.push_back(Scopes[S].Selector);
  std::reverse(Path.begin(), Path.end());
  Tseitin::LayerId Saved = Encoder.activeLayer();
  Encoder.setActiveLayer(Scopes[Scope].Layer);
  Encoder.assertGuarded(Path, N);
  Encoder.setActiveLayer(Saved);
}

size_t SmtSession::retireScope(ScopeId Scope) {
  assert(Scope != RootScope && "the root scope is permanent");
  assert(Scope < Scopes.size() && Scopes[Scope].Alive &&
         "retiring a dead scope");

  // Collect the subtree: selectors to falsify, owned layers to evict.
  std::vector<ScopeId> Subtree, Stack{Scope};
  while (!Stack.empty()) {
    ScopeId S = Stack.back();
    Stack.pop_back();
    Subtree.push_back(S);
    for (ScopeId C : Scopes[S].Children)
      Stack.push_back(C);
  }
  // Layers owned within the subtree. A subtree node whose cache layer is
  // among them can have its selector *released* rather than pinned false
  // forever: every clause and every cache entry naming the selector dies
  // with the subtree (assertions into a scope encode into its layer, and
  // check()-time encodings land in the innermost active scope's layer),
  // and epoch-tagged selector naming guarantees the expression is never
  // encoded again. Nodes whose layer survives the subtree (a retired root
  // opened without a layer of its own shares its parent's) keep the
  // permanently-false pin.
  std::set<Tseitin::LayerId> SubtreeLayers;
  for (ScopeId S : Subtree)
    if (Scopes[S].OwnsLayer)
      SubtreeLayers.insert(Scopes[S].Layer);

  std::vector<Lit> Selectors, Releasable;
  std::vector<std::pair<ExprRef, int>> ReleasedSelAtoms;
  std::vector<int> ScopeVars;
  Tseitin::LayerId SavedLayer = Encoder.activeLayer();
  for (ScopeId S : Subtree) {
    ScopeNode &Node = Scopes[S];
    // Encode under the node's own layer: the selector atom is already
    // cached on that layer's ancestor chain, so the lookup cannot plant
    // a fresh cache entry in an unrelated live layer — which would
    // dangle once a released selector's variable is recycled.
    Encoder.setActiveLayer(Node.Layer);
    ExprRef SelExpr = normalize(Node.Selector);
    Lit SelLit = Encoder.encode(SelExpr);
    if (SelectorRelease && SubtreeLayers.count(Node.Layer)) {
      Releasable.push_back(SelLit);
      ReleasedSelAtoms.push_back({SelExpr, SelLit.var()});
    } else {
      Selectors.push_back(SelLit);
    }
    if (Node.OwnsLayer) {
      const std::vector<int> &Owned = Encoder.ownedVars(Node.Layer);
      ScopeVars.insert(ScopeVars.end(), Owned.begin(), Owned.end());
    }
    if (Audit)
      Audit->retire(printAbstract(Node.Selector));
  }
  Encoder.setActiveLayer(SavedLayer);

  size_t Evicted = Sat.retireScopes(Selectors, ScopeVars, Releasable);

  // Released selectors whose index actually came free leave the atom map
  // too: a future encode of the same expression (which the epoch naming
  // rules out, but a caller reusing a selector could attempt) must mint a
  // fresh variable, never alias the recycled index.
  for (const auto &[SelExpr, V] : ReleasedSelAtoms)
    if (Sat.varIsFree(V))
      Encoder.releaseAtom(SelExpr);

  // Ownership accounting: the subtree's scopes stop owning their registry
  // entries. Entries of a node whose cache layer survives the subtree
  // transfer to the layer's owning scope instead of dying — their cache
  // entries live in that layer, so releasing the atoms any earlier would
  // leave the layer's cache naming a recycled variable.
  if (BridgeCompactionEnabled)
    for (ScopeId S : Subtree) {
      auto SE = ScopeEntries.find(S);
      if (SE == ScopeEntries.end())
        continue;
      bool Survives = !SubtreeLayers.count(Scopes[S].Layer);
      ScopeId Owner = Survives ? layerOwnerScope(S) : RootScope;
      for (ExprRef E : SE->second) {
        auto Own = EntryOwners.find(E);
        if (Own == EntryOwners.end())
          continue;
        Own->second.erase(S);
        if (Survives) {
          if (Own->second.insert(Owner).second && Owner != RootScope)
            ScopeEntries[Owner].push_back(E);
        } else if (Own->second.empty()) {
          DeadEntries.insert(E);
        }
      }
      ScopeEntries.erase(S);
    }

  // Drop the subtree's bookkeeping: layers (leaves before parents, so a
  // parent layer never dies while a child still names it), selector maps,
  // and the tree nodes themselves.
  Encoder.setActiveLayer(Tseitin::RootLayer);
  for (auto It = Subtree.rbegin(); It != Subtree.rend(); ++It) {
    ScopeNode &Node = Scopes[*It];
    if (Node.OwnsLayer)
      Encoder.dropLayer(Node.Layer);
    ScopeOf.erase(Node.Selector);
    ScopedBodies.erase(Node.Selector);
    Node.Alive = false;
    Node.Children.clear();
  }
  std::vector<ScopeId> &Siblings = Scopes[Scopes[Scope].Parent].Children;
  Siblings.erase(std::remove(Siblings.begin(), Siblings.end(), Scope),
                 Siblings.end());

  // Compact once enough of the theory universe died. The ratio term
  // (dead at least comparable to what survives) amortizes the compaction's
  // whole-database retirement pass against the reclaimed universe; the
  // absolute BridgeMinDead term is a backstop for large universes where
  // the ratio alone would let bridge clauses over dead atoms pile up for
  // a long time before half the universe retires.
  if (BridgeCompactionEnabled && !DeadEntries.empty()) {
    size_t Total = ObjTerms.size() + MemAtoms.size() + IntAtoms.size();
    size_t Live = Total - DeadEntries.size();
    if (DeadEntries.size() >= BridgeMinDead ||
        DeadEntries.size() * 2 >= Live)
      Evicted += compactBridges();
  }
  return Evicted;
}

SmtSession::ScopeId SmtSession::layerOwnerScope(ScopeId S) const {
  if (Scopes[S].Layer == Tseitin::RootLayer)
    return RootScope;
  for (ScopeId Cur = S; Cur != RootScope; Cur = Scopes[Cur].Parent)
    if (Scopes[Cur].OwnsLayer && Scopes[Cur].Layer == Scopes[S].Layer)
      return Cur;
  return RootScope;
}

size_t SmtSession::compactBridges() {
  if (!BridgeCompactionEnabled || DeadEntries.empty())
    return 0;

  // Candidate variables: the atom vars of dead boolean entries — membership
  // atoms, canonical integer atoms, and equality atoms one of whose operand
  // terms died (a live scope mentioning eq(a,b) registers *both* operands,
  // so a one-sided death proves only bridge clauses still name the atom;
  // any straggler is caught by retireScopes' occurrence check below).
  auto Dead = [this](ExprRef E) { return DeadEntries.count(E) != 0; };
  auto EqOverDead = [&](ExprRef Atom) {
    return Atom->kind() == ExprKind::Eq &&
           Atom->operand(0)->sort() == Sort::Obj &&
           (Dead(Atom->operand(0)) || Dead(Atom->operand(1)));
  };
  std::vector<int> Vars;
  std::vector<std::pair<ExprRef, int>> DeadAtoms;
  for (const auto &[Atom, V] : Encoder.atoms())
    if (Dead(Atom) || EqOverDead(Atom)) {
      DeadAtoms.push_back({Atom, V});
      Vars.push_back(V);
    }

  // One retirement pass evicts every clause naming a candidate and
  // recycles the dead indices — pinned derived units are compacted off
  // the trail with Delete/Recycle proof steps, so --certify still checks.
  // Every other bridge clause stays in place.
  size_t Evicted = Sat.retireScopes({}, Vars, {});
  for (const auto &[Atom, V] : DeadAtoms)
    if (Sat.varIsFree(V)) {
      Encoder.releaseAtom(Atom);
      ++ReleasedAtomVars;
    }

  // Filter the registries to the survivors (discovery order preserved).
  ObjTerms.erase(std::remove_if(ObjTerms.begin(), ObjTerms.end(), Dead),
                 ObjTerms.end());
  MapLookups.erase(std::remove_if(MapLookups.begin(), MapLookups.end(), Dead),
                   MapLookups.end());
  MemAtoms.erase(std::remove_if(MemAtoms.begin(), MemAtoms.end(), Dead),
                 MemAtoms.end());
  IntAtoms.erase(std::remove_if(
                     IntAtoms.begin(), IntAtoms.end(),
                     [&](const std::pair<ExprRef, detail::IntAtomInfo> &P) {
                       return Dead(P.first);
                     }),
                 IntAtoms.end());
  ObjTermSet = std::unordered_set<ExprRef>(ObjTerms.begin(), ObjTerms.end());
  MemAtomSet = std::unordered_set<ExprRef>(MemAtoms.begin(), MemAtoms.end());
  IntAtomSeen.clear();
  for (const auto &P : IntAtoms)
    IntAtomSeen.insert(P.first);

  // The surviving lattice is what a fresh session would build over the
  // live universe: a surviving instance was emitted when its newest entry
  // arrived and names no dead atom, and every instance over a dead entry
  // names a dead atom. The one exception is a congruence instance whose
  // two lookups (membership atoms) live on while a key (element) term
  // died: its side-condition equality was a candidate, so its clauses
  // left with it. Re-emit exactly those, over a fresh equality atom.
  for (const std::vector<ExprRef> *Reg : {&MapLookups, &MemAtoms})
    for (size_t J = 0; J < Reg->size(); ++J)
      for (size_t I = 0; I != J; ++I) {
        ExprRef P = (*Reg)[I], Q = (*Reg)[J];
        if (P->operand(0) == Q->operand(0) &&
            (Dead(P->operand(1)) || Dead(Q->operand(1))))
          emitCongruence(P, Q);
      }

  // NormalizeMemo survives: a memoized result that names a filtered int
  // atom re-registers it in collectTheoryAtoms, as a fresh normalization
  // would have in canonicalIntAtom.
  for (ExprRef E : DeadEntries)
    EntryOwners.erase(E);
  DeadEntries.clear();
  BridgedObjTerms = ObjTerms.size();
  BridgedMapLookups = MapLookups.size();
  BridgedMemAtoms = MemAtoms.size();
  BridgedIntAtoms = IntAtoms.size();
  LiveBridges = countBridges();

  ++BridgeCompactions;
  assert(Sat.reasonInvariantHolds() && "compaction broke a reason reference");
  return Evicted;
}

SatResult SmtSession::check(const std::vector<ExprRef> &Assumed,
                            int64_t MaxConflicts, ExprRef ActiveScope) {
  std::vector<ExprRef> ActiveSels;
  if (ActiveScope)
    ActiveSels.push_back(ActiveScope);
  return check(Assumed, MaxConflicts, ActiveSels);
}

SmtSession::ScopeId SmtSession::innermostScope(
    const std::vector<ExprRef> &ActiveScopes) const {
  // The deepest registered scope hosts the query encodings: its layer is
  // the first to die, and the query formulas of one scope are never
  // referenced by another (sibling lookups don't cross layers).
  ScopeId Best = RootScope;
  size_t BestDepth = 0;
  for (ExprRef Sel : ActiveScopes) {
    auto It = ScopeOf.find(Sel);
    if (It == ScopeOf.end())
      continue;
    size_t Depth = 0;
    for (ScopeId S = It->second; S != RootScope; S = Scopes[S].Parent)
      ++Depth;
    if (Depth > BestDepth) {
      BestDepth = Depth;
      Best = It->second;
    }
  }
  return Best;
}

void SmtSession::encodeForAudit(const std::vector<ExprRef> &Assumed,
                                const std::vector<ExprRef> &ActiveScopes) {
  if (Audit) {
    std::vector<std::string> Names;
    Names.reserve(ActiveScopes.size());
    for (ExprRef Sel : ActiveScopes)
      Names.push_back(printAbstract(Sel));
    Audit->check(std::move(Names));
  }
  Tseitin::LayerId SavedLayer = Encoder.activeLayer();
  ScopeId Host = innermostScope(ActiveScopes);
  Encoder.setActiveLayer(Scopes[Host].Layer);
  AttrScope = Host;
  for (ExprRef E : Assumed) {
    ExprRef N = normalize(E);
    ingest(N);
    Encoder.encode(N);
  }
  Encoder.setActiveLayer(SavedLayer);
}

SatResult SmtSession::check(const std::vector<ExprRef> &Assumed,
                            int64_t MaxConflicts,
                            const std::vector<ExprRef> &ActiveScopes) {
  if (Audit) {
    std::vector<std::string> Names;
    Names.reserve(ActiveScopes.size());
    for (ExprRef Sel : ActiveScopes)
      Names.push_back(printAbstract(Sel));
    Audit->check(std::move(Names));
  }
  std::vector<ExprRef> Normalized;
  std::vector<Lit> Assumptions;
  Normalized.reserve(Assumed.size());
  Assumptions.reserve(Assumed.size());
  Tseitin::LayerId SavedLayer = Encoder.activeLayer();
  ScopeId Host = innermostScope(ActiveScopes);
  Encoder.setActiveLayer(Scopes[Host].Layer);
  AttrScope = Host;
  for (ExprRef E : Assumed) {
    ExprRef N = normalize(E);
    ingest(N);
    Normalized.push_back(N);
    Assumptions.push_back(Encoder.encode(N));
  }
  Encoder.setActiveLayer(SavedLayer);

  int64_t ConflictsBefore = Sat.numConflicts();
  int64_t DecisionsBefore = Sat.numDecisions();
  SatResult R = Sat.solve(Assumptions, MaxConflicts);
  ++Checks;

  LastCoreIdx.clear();
  if (R == SatResult::Unsat) {
    std::vector<Lit> Core = Sat.unsatCore();
    // Core-minimizing restarts: re-solving under just the core either
    // confirms it (fixpoint) or returns a strictly smaller one; the
    // refutation's lemmas are retained, so each round is cheap. Bounded by
    // both a round count and the *remainder* of this check's conflict
    // budget, so a check never spends more than MaxConflicts total and
    // 'conflicts per VC' stays comparable to the configured budget.
    for (unsigned Round = 0; Round < CoreMinRounds && Core.size() > 1;
         ++Round) {
      int64_t Remaining = -1;
      if (MaxConflicts >= 0) {
        Remaining = MaxConflicts - (Sat.numConflicts() - ConflictsBefore);
        if (Remaining <= 0)
          break; // The main solve used the whole budget.
      }
      SatResult R2 = Sat.solve(Core, Remaining);
      ++CoreMinSolves;
      if (R2 != SatResult::Unsat)
        break; // Budget exhausted mid-minimization: keep the last core.
      if (Sat.unsatCore().size() >= Core.size()) {
        Core = Sat.unsatCore();
        break; // Fixpoint: the core is locally minimal.
      }
      Core = Sat.unsatCore();
    }
    // Map the minimized core back onto the caller's Assumed vector (first
    // match wins for duplicated formulas).
    for (Lit C : Core)
      for (size_t I = 0; I != Assumptions.size(); ++I)
        if (Assumptions[I] == C) {
          if (std::find(LastCoreIdx.begin(), LastCoreIdx.end(), I) ==
              LastCoreIdx.end())
            LastCoreIdx.push_back(I);
          break;
        }
    std::sort(LastCoreIdx.begin(), LastCoreIdx.end());
    // One certified verdict: the minimized core, which came from the last
    // Unsat solve above (a round that ends otherwise keeps the previous
    // core, and the solver keeps that solve's chain). Sat/Unknown checks
    // have no certificate — a countermodel is its own witness, and the
    // engine treats Unknown as a failed proof.
    if (ProofLog)
      LastProofQuery = Sat.logQueryProof(Core);
  }
  LastConflicts = Sat.numConflicts() - ConflictsBefore;
  LastDecisions = Sat.numDecisions() - DecisionsBefore;

  LastModel.clear();
  if (R == SatResult::Sat) {
    // Report only over this check's vocabulary (base + active scopes +
    // current query): a warm session's atom map also holds every earlier
    // query's and every other scope's atoms, which would drown the
    // countermodel in unrelated diagnostics. Only a Sat check reads the
    // vocabulary, so only a Sat check collects it.
    std::unordered_set<ExprRef> Vocabulary(BaseAtoms), Visited;
    for (ExprRef N : Normalized)
      collectBoolAtoms(N, Vocabulary, Visited);
    for (ExprRef ActiveScope : ActiveScopes) {
      auto It = ScopedBodies.find(ActiveScope);
      if (It != ScopedBodies.end())
        for (ExprRef Body : It->second)
          collectBoolAtoms(Body, Vocabulary, Visited);
    }
    for (ExprRef Atom : Vocabulary) {
      auto It = Encoder.atoms().find(Atom);
      if (It != Encoder.atoms().end() && Sat.modelValue(It->second))
        LastModel.push_back(printAbstract(Atom));
    }
    // The vocabulary iterates in hash (pointer) order, which varies when
    // several threads share the interning factory; sort so diagnostics
    // are stable.
    std::sort(LastModel.begin(), LastModel.end());
  }
  return R;
}

// --- One-shot facade ----------------------------------------------------------

void SmtSolver::assertFormula(ExprRef E) { Asserted.push_back(E); }

SatResult SmtSolver::check(int64_t MaxConflicts) {
  SmtSession Session(F);
  for (ExprRef E : Asserted)
    Session.assertBase(E);
  SatResult R = Session.check({}, MaxConflicts);
  LastConflicts = Session.conflicts();
  LastDecisions = Session.decisions();
  LastNumAtoms = Session.numAtoms();
  LastModel = Session.modelAtoms();
  return R;
}
