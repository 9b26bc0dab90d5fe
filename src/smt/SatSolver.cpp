//===- smt/SatSolver.cpp - CDCL propositional solver ------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "smt/SatSolver.h"

#include <algorithm>
#include <cassert>

using namespace semcomm;

namespace {
/// The proof trace speaks signed DIMACS ints; Lit::Encoded already is one.
std::vector<int> proofLits(const std::vector<Lit> &C) {
  std::vector<int> Out;
  Out.reserve(C.size());
  for (Lit L : C)
    Out.push_back(L.Encoded);
  return Out;
}
} // namespace

void SatSolver::logQueryProof(const std::vector<Lit> &Core) {
  if (Proof)
    Proof->addQuery(proofLits(Core), Clauses.size());
}

SatSolver::SatSolver() {
  // Var indices are 1-based; slot 0 is a sentinel.
  Assign.push_back(Undef);
  Level.push_back(0);
  Reason.push_back(-1);
  Activity.push_back(0.0);
  SavedPhase.push_back(0);
  IsFree.push_back(0);
  Watches.resize(2);
}

int SatSolver::addVar() {
  ++VarRequests;
  if (!FreeVars.empty()) {
    // Reuse a retired index. Its state was reset at retirement, but a
    // decision taken on a then-free var (possible: free vars are
    // unconstrained) could have re-dirtied the saved phase, so reset
    // defensively here too.
    int V = FreeVars.back();
    FreeVars.pop_back();
    IsFree[static_cast<size_t>(V)] = 0;
    assert(Assign[static_cast<size_t>(V)] == Undef &&
           "recycled a var still assigned");
    Activity[static_cast<size_t>(V)] = 0.0;
    SavedPhase[static_cast<size_t>(V)] = 0;
    Reason[static_cast<size_t>(V)] = -1;
    assert(varStateIsClean(V) && "recycled var carries stale state");
    if (numLiveVars() > PeakLiveVars)
      PeakLiveVars = numLiveVars();
    return V;
  }
  Assign.push_back(Undef);
  Level.push_back(0);
  Reason.push_back(-1);
  Activity.push_back(0.0);
  SavedPhase.push_back(0);
  IsFree.push_back(0);
  Watches.resize(Watches.size() + 2);
  if (numLiveVars() > PeakLiveVars)
    PeakLiveVars = numLiveVars();
  return numVars();
}

void SatSolver::attach(int ClauseIdx) {
  const Clause &C = Clauses[ClauseIdx];
  assert(C.Lits.size() >= 2 && "attach needs a watchable clause");
  Watches[watchIndex(C.Lits[0].negated())].push_back({ClauseIdx});
  Watches[watchIndex(C.Lits[1].negated())].push_back({ClauseIdx});
}

void SatSolver::addClause(const std::vector<Lit> &Input) {
  if (Unsatisfiable)
    return;

  // Normalize: drop duplicate literals and satisfied-at-root clauses.
  std::vector<Lit> C;
  for (Lit L : Input) {
    if (valueOf(L) == 1 && Level[L.var()] == 0)
      return; // Already true at root level.
    if (valueOf(L) == 0 && Level[L.var()] == 0)
      continue; // False at root; drop the literal.
    if (std::find(C.begin(), C.end(), L) != C.end())
      continue;
    if (std::find(C.begin(), C.end(), L.negated()) != C.end())
      return; // Tautology.
    C.push_back(L);
  }

  // Proof logging happens *after* normalization: the trace's Input clauses
  // are exactly the clauses the solver stores (or pins on the trail), so
  // later Delete records match; the normalization itself joins the trust
  // base, as the CNF stream does in standard DRAT checking.
  if (C.empty()) {
    if (Proof)
      Proof->addInput({});
    Unsatisfiable = true;
    return;
  }
  if (C.size() == 1) {
    if (Proof)
      Proof->addInput({C[0].Encoded});
    if (valueOf(C[0]) == 0) {
      Unsatisfiable = true;
      return;
    }
    if (valueOf(C[0]) == Undef)
      enqueue(C[0], -1);
    if (propagate() != -1)
      Unsatisfiable = true;
    return;
  }
  if (Proof)
    Proof->addInput(proofLits(C));

  Clauses.push_back({std::move(C), false, 0, 0.0});
  attach(static_cast<int>(Clauses.size()) - 1);
  if (Clauses.size() > PeakClauses)
    PeakClauses = Clauses.size();
}

void SatSolver::enqueue(Lit L, int ReasonIdx) {
  assert(valueOf(L) == Undef && "enqueue of an assigned literal");
  Assign[L.var()] = L.positive() ? 1 : 0;
  Level[L.var()] = currentLevel();
  Reason[L.var()] = ReasonIdx;
  Trail.push_back(L);
}

int SatSolver::propagate() {
  while (PropHead < Trail.size()) {
    Lit P = Trail[PropHead++];
    std::vector<Watcher> &Ws = Watches[watchIndex(P)];
    size_t Keep = 0;
    for (size_t I = 0; I != Ws.size(); ++I) {
      int CI = Ws[I].ClauseIdx;
      Clause &C = Clauses[CI];
      // Ensure the falsified literal sits in slot 1.
      Lit NotP = P.negated();
      if (C.Lits[0] == NotP)
        std::swap(C.Lits[0], C.Lits[1]);
      assert(C.Lits[1] == NotP && "watch list out of sync");

      if (valueOf(C.Lits[0]) == 1) {
        Ws[Keep++] = Ws[I]; // Clause already satisfied; keep the watch.
        continue;
      }
      // Look for a replacement watch.
      bool Moved = false;
      for (size_t K = 2; K != C.Lits.size(); ++K)
        if (valueOf(C.Lits[K]) != 0) {
          std::swap(C.Lits[1], C.Lits[K]);
          Watches[watchIndex(C.Lits[1].negated())].push_back({CI});
          Moved = true;
          break;
        }
      if (Moved)
        continue;

      // No replacement: clause is unit or conflicting.
      Ws[Keep++] = Ws[I];
      if (valueOf(C.Lits[0]) == 0) {
        // Conflict: restore the untouched suffix of the watch list.
        for (size_t K = I + 1; K != Ws.size(); ++K)
          Ws[Keep++] = Ws[K];
        Ws.resize(Keep);
        return CI;
      }
      enqueue(C.Lits[0], CI);
    }
    Ws.resize(Keep);
  }
  return -1;
}

void SatSolver::bumpActivity(int Var) {
  Activity[Var] += ActivityInc;
  if (Activity[Var] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    ActivityInc *= 1e-100;
  }
}

void SatSolver::bumpClauseActivity(int ClauseIdx) {
  Clause &C = Clauses[ClauseIdx];
  C.Act += ClauseActInc;
  if (C.Act > 1e100) {
    for (Clause &D : Clauses)
      D.Act *= 1e-100;
    ClauseActInc *= 1e-100;
  }
}

void SatSolver::analyze(int ConflictIdx, std::vector<Lit> &Learned,
                        int &BackLevel, int &Glue) {
  // Standard first-UIP resolution walk over the trail.
  Learned.clear();
  Learned.push_back(Lit()); // Slot for the asserting literal.
  std::vector<bool> SeenVar(Assign.size(), false);
  int Counter = 0;
  Lit P;
  bool HaveP = false;
  size_t TrailIdx = Trail.size();
  int CI = ConflictIdx;

  do {
    assert(CI != -1 && "analysis walked past a decision");
    if (Clauses[CI].Learned)
      bumpClauseActivity(CI); // A lemma useful in analysis is worth keeping.
    const Clause &C = Clauses[CI];
    for (size_t I = (HaveP ? 1 : 0); I != C.Lits.size(); ++I) {
      Lit Q = C.Lits[I];
      if (HaveP && Q == P)
        continue;
      int V = Q.var();
      if (SeenVar[V] || Level[V] == 0)
        continue;
      SeenVar[V] = true;
      bumpActivity(V);
      if (Level[V] == currentLevel())
        ++Counter;
      else
        Learned.push_back(Q);
    }
    // Pick the next trail literal to resolve on.
    while (!SeenVar[Trail[TrailIdx - 1].var()])
      --TrailIdx;
    --TrailIdx;
    P = Trail[TrailIdx];
    HaveP = true;
    SeenVar[P.var()] = false;
    CI = Reason[P.var()];
    --Counter;
  } while (Counter > 0);
  Learned[0] = P.negated();

  // Backjump level: the second-highest level in the learned clause.
  BackLevel = 0;
  size_t MaxIdx = 1;
  for (size_t I = 1; I < Learned.size(); ++I)
    if (Level[Learned[I].var()] > BackLevel) {
      BackLevel = Level[Learned[I].var()];
      MaxIdx = I;
    }
  if (Learned.size() > 1)
    std::swap(Learned[1], Learned[MaxIdx]);

  // Glue (LBD): distinct decision levels in the learned clause. Low-glue
  // clauses connect few levels and tend to stay useful, so reduceDb()
  // protects them. Counted with a generation-stamped scratch buffer so the
  // conflict hot loop never allocates.
  if (GlueStamp.size() <= static_cast<size_t>(currentLevel()))
    GlueStamp.resize(static_cast<size_t>(currentLevel()) + 1, 0);
  ++GlueStampGen;
  GlueStamp[static_cast<size_t>(currentLevel())] = GlueStampGen;
  Glue = 1;
  for (size_t I = 1; I < Learned.size(); ++I) {
    int64_t &Stamp = GlueStamp[static_cast<size_t>(Level[Learned[I].var()])];
    if (Stamp != GlueStampGen) {
      Stamp = GlueStampGen;
      ++Glue;
    }
  }
}

void SatSolver::backtrack(int ToLevel) {
  if (currentLevel() <= ToLevel)
    return;
  size_t Bound = TrailLim[ToLevel];
  for (size_t I = Trail.size(); I != Bound; --I) {
    int V = Trail[I - 1].var();
    SavedPhase[V] = Assign[V]; // Phase saving: remember the last value.
    Assign[V] = Undef;
    Reason[V] = -1;
  }
  Trail.resize(Bound);
  TrailLim.resize(ToLevel);
  PropHead = Bound;
}

int SatSolver::pickBranchVar() {
  // Free-listed vars are unconstrained and awaiting reuse: deciding on
  // them would only pad the trail (and dirty their saved phase).
  int Best = 0;
  double BestAct = -1.0;
  for (int V = 1; V <= numVars(); ++V)
    if (Assign[V] == Undef && !IsFree[static_cast<size_t>(V)] &&
        Activity[V] > BestAct) {
      Best = V;
      BestAct = Activity[V];
    }
  return Best;
}

void SatSolver::analyzeFinal(Lit Failed) {
  // The conjunction of assumptions on the trail that (with the clause
  // database) falsifies \p Failed: walk the implication graph backwards
  // from ~Failed; every decision reached is an assumption (assumptions are
  // the only decisions while they are being placed).
  AssumpCore.clear();
  AssumpCore.push_back(Failed);
  if (currentLevel() == 0)
    return;
  std::vector<bool> SeenVar(Assign.size(), false);
  SeenVar[Failed.var()] = true;
  for (size_t I = Trail.size(); I > static_cast<size_t>(TrailLim[0]); --I) {
    int V = Trail[I - 1].var();
    if (!SeenVar[V])
      continue;
    if (Reason[V] == -1) {
      // A decision reached from the failed assumption is itself an
      // assumption (possibly Failed's own negation, when the assumption
      // list is directly contradictory).
      AssumpCore.push_back(Trail[I - 1]);
    } else {
      for (Lit Q : Clauses[Reason[V]].Lits)
        if (Level[Q.var()] > 0)
          SeenVar[Q.var()] = true;
    }
    SeenVar[V] = false;
  }
}

SatResult SatSolver::solve(const std::vector<Lit> &Assumptions,
                           int64_t MaxConflicts) {
  if (&Assumptions == &AssumpCore) {
    // solve(unsatCore()) is a natural idiom; don't let the clear() below
    // empty the caller's assumption set.
    std::vector<Lit> Copy = Assumptions;
    return solve(Copy, MaxConflicts);
  }
  AssumpCore.clear();
  backtrack(0);
  if (Unsatisfiable)
    return SatResult::Unsat;
  if (propagate() != -1) {
    Unsatisfiable = true;
    return SatResult::Unsat;
  }
  maybeReduceDb();

  int64_t StartConflicts = Conflicts;
  int64_t RestartLimit = 64;
  int64_t SinceRestart = 0;

  while (true) {
    int ConflictIdx = propagate();
    if (ConflictIdx != -1) {
      ++Conflicts;
      ++SinceRestart;
      if (currentLevel() == 0) {
        Unsatisfiable = true;
        return SatResult::Unsat;
      }
      if (MaxConflicts >= 0 && Conflicts - StartConflicts > MaxConflicts) {
        backtrack(0);
        return SatResult::Unknown;
      }

      std::vector<Lit> Learned;
      int BackLevel = 0, Glue = 0;
      analyze(ConflictIdx, Learned, BackLevel, Glue);
      backtrack(BackLevel);
      if (Proof)
        Proof->addDerive(proofLits(Learned));
      if (Learned.size() == 1) {
        // Asserting unit: analyze() computed BackLevel 0, so the trail is
        // already at the root and the unit survives every future solve.
        assert(currentLevel() == 0 && "unit learned above the root");
        enqueue(Learned[0], -1);
      } else {
        Clauses.push_back({Learned, true, Glue, ClauseActInc});
        ++LearnedClauses;
        ++LearnedAlive;
        if (Clauses.size() > PeakClauses)
          PeakClauses = Clauses.size();
        int CI = static_cast<int>(Clauses.size()) - 1;
        attach(CI);
        enqueue(Learned[0], CI);
      }
      ActivityInc *= 1.05;
      ClauseActInc *= 1.001;
      continue;
    }

    if (SinceRestart >= RestartLimit) {
      SinceRestart = 0;
      RestartLimit = RestartLimit + RestartLimit / 2;
      backtrack(0);
      // Restarts are the in-search root points where the learned database
      // can be safely compacted.
      maybeReduceDb();
      continue;
    }

    if (currentLevel() < static_cast<int>(Assumptions.size())) {
      // Place the next assumption as a pseudo-decision.
      Lit P = Assumptions[currentLevel()];
      if (valueOf(P) == 0) {
        analyzeFinal(P);
        backtrack(0);
        return SatResult::Unsat;
      }
      TrailLim.push_back(static_cast<int>(Trail.size()));
      if (valueOf(P) == Undef)
        enqueue(P, -1);
      continue;
    }

    int V = pickBranchVar();
    if (V == 0) {
      // Full assignment, no conflict: snapshot the model, then leave the
      // trail at the root so the solver is immediately reusable.
      ModelVals = Assign;
      backtrack(0);
      return SatResult::Sat;
    }
    ++Decisions;
    TrailLim.push_back(static_cast<int>(Trail.size()));
    // Saved-phase polarity (negative-first for never-assigned variables).
    enqueue(Lit(V, SavedPhase[V] == 1), -1);
  }
}

bool SatSolver::modelValue(int Var) const {
  assert(Var >= 1 && Var <= numVars() && "model query out of range");
  assert(static_cast<size_t>(Var) < ModelVals.size() &&
         "no model saved for this variable");
  return ModelVals[Var] == 1;
}

void SatSolver::maybeReduceDb() {
  if (GcEnabled && LearnedAlive >= ReduceLimit) {
    reduceDb();
    ReduceLimit += ReduceLimit / 2;
  }
}

size_t SatSolver::reduceDb() {
  // Root level only: at the root the database is fully propagated, so every
  // clause is either root-satisfied or has at least two non-false literals —
  // which is exactly what rebuilding the watch lists below relies on.
  assert(currentLevel() == 0 && "reduceDb is a root-level operation");
  if (Unsatisfiable || Clauses.empty())
    return 0;

  // Clauses currently serving as the reason of an implied literal must
  // survive (conflict analysis walks Reason indices through them).
  std::vector<bool> IsReason(Clauses.size(), false);
  for (Lit L : Trail)
    if (Reason[L.var()] >= 0)
      IsReason[static_cast<size_t>(Reason[L.var()])] = true;

  // Deletion candidates: learned, not a reason, not binary, not low-glue.
  std::vector<int> Candidates;
  for (size_t I = 0; I != Clauses.size(); ++I) {
    const Clause &C = Clauses[I];
    if (C.Learned && !IsReason[I] && C.Lits.size() > 2 && C.Glue > 2)
      Candidates.push_back(static_cast<int>(I));
  }
  size_t Target = Candidates.size() / 2;
  if (Target == 0)
    return 0;

  // Drop the least active half (stable sort: equal activities drop the
  // older clause first; fully deterministic).
  std::stable_sort(Candidates.begin(), Candidates.end(),
                   [this](int A, int B) {
                     return Clauses[static_cast<size_t>(A)].Act <
                            Clauses[static_cast<size_t>(B)].Act;
                   });
  std::vector<bool> Remove(Clauses.size(), false);
  for (size_t I = 0; I != Target; ++I)
    Remove[static_cast<size_t>(Candidates[I])] = true;
  if (Proof)
    for (size_t I = 0; I != Target; ++I)
      Proof->addDelete(
          proofLits(Clauses[static_cast<size_t>(Candidates[I])].Lits));
  compactClauses(Remove);

  LearnedAlive -= static_cast<int64_t>(Target);
  ReclaimedClauses += static_cast<int64_t>(Target);
  ++DbReductions;
  assert(reasonInvariantHolds() && "reduceDb broke a reason reference");
  return Target;
}

void SatSolver::compactClauses(const std::vector<bool> &Remove) {
  // Compact the clause vector, remembering where survivors moved.
  std::vector<int> NewIdx(Clauses.size(), -1);
  size_t Out = 0;
  for (size_t I = 0; I != Clauses.size(); ++I) {
    if (Remove[I])
      continue;
    NewIdx[I] = static_cast<int>(Out);
    if (Out != I)
      Clauses[Out] = std::move(Clauses[I]);
    ++Out;
  }
  Clauses.resize(Out);

  // Remap the reasons of implied root literals (callers either protect
  // reason clauses from removal or detach the reasons first).
  for (Lit L : Trail) {
    int &R = Reason[L.var()];
    if (R >= 0) {
      assert(NewIdx[static_cast<size_t>(R)] >= 0 && "reason clause dropped");
      R = NewIdx[static_cast<size_t>(R)];
    }
  }

  // Rebuild every watch list. Watches must sit on non-false literals (or a
  // root-true one when the clause is root-satisfied with a single non-false
  // literal) so unit propagation stays complete.
  for (std::vector<Watcher> &W : Watches)
    W.clear();
  for (size_t I = 0; I != Clauses.size(); ++I) {
    Clause &C = Clauses[I];
    size_t Pos = 0;
    for (size_t K = 0; K != C.Lits.size() && Pos < 2; ++K)
      if (valueOf(C.Lits[K]) != 0)
        std::swap(C.Lits[Pos++], C.Lits[K]);
    if (Pos < 2) {
      // Root-satisfied clause with one non-false literal: that literal is
      // true and already sits in slot 0, so any second watch is inert.
      assert(valueOf(C.Lits[0]) == 1 && "unsatisfied clause became unit");
    }
    attach(static_cast<int>(I));
  }
}

size_t SatSolver::retireScopes(const std::vector<Lit> &Selectors,
                               const std::vector<int> &ScopeVars,
                               const std::vector<Lit> &ReleasableSelectors) {
  backtrack(0);
  ++ScopeRetirements;
  for (Lit Selector : Selectors)
    addClause({Selector.negated()});
  for (Lit Selector : ReleasableSelectors)
    addClause({Selector.negated()});
  if (Unsatisfiable)
    return 0; // Trivially Unsat database: nothing left worth sweeping.

  // Level-0 literals are permanently true and conflict analysis never walks
  // their reasons (analyze/analyzeFinal skip level-0 vars), so detaching
  // the root reasons makes every clause a legal deletion candidate. The
  // sweep below may evict exactly those reason clauses, so a certifying
  // run first dumps every still-implied root literal as a derived unit —
  // each is RUP at this moment, and the dump cannot repeat across
  // retirements because the reasons are detached right after.
  if (Proof)
    for (Lit L : Trail)
      if (Reason[L.var()] >= 0)
        Proof->addDerive({L.Encoded});
  for (Lit L : Trail)
    Reason[L.var()] = -1;

  // InScope: selector and scope vars, whose learned clauses are dropped.
  // Owned: scope vars only — the caller's scope-private set, whose
  // *problem* clauses (Tseitin definitions of the retired subtree's
  // formulas) are dropped too. Sound by the privacy contract: every clause
  // mentioning an owned var belongs to an assertion of the retired
  // subtree, and those assertions are vacuous once their selectors are
  // false at root.
  std::vector<bool> InScope(Assign.size(), false);
  std::vector<bool> Owned(Assign.size(), false);
  std::vector<bool> Releasable(Assign.size(), false);
  for (Lit Selector : Selectors)
    InScope[static_cast<size_t>(Selector.var())] = true;
  for (Lit Selector : ReleasableSelectors) {
    InScope[static_cast<size_t>(Selector.var())] = true;
    Releasable[static_cast<size_t>(Selector.var())] = true;
  }
  for (int V : ScopeVars) {
    InScope[static_cast<size_t>(V)] = true;
    Owned[static_cast<size_t>(V)] = true;
  }

  std::vector<bool> Remove(Clauses.size(), false);
  size_t Removed = 0;
  int64_t LearnedRemoved = 0;
  for (size_t I = 0; I != Clauses.size(); ++I) {
    const Clause &C = Clauses[I];
    bool RootSat = false, MentionsScope = false, MentionsOwned = false;
    for (Lit L : C.Lits) {
      if (valueOf(L) == 1)
        RootSat = true;
      MentionsScope = MentionsScope || InScope[static_cast<size_t>(L.var())];
      MentionsOwned = MentionsOwned || Owned[static_cast<size_t>(L.var())];
    }
    if (RootSat || MentionsOwned || (C.Learned && MentionsScope)) {
      Remove[I] = true;
      ++Removed;
      LearnedRemoved += C.Learned;
    }
  }
  if (Removed != 0) {
    if (Proof)
      for (size_t I = 0; I != Clauses.size(); ++I)
        if (Remove[I])
          Proof->addDelete(proofLits(Clauses[I].Lits));
    compactClauses(Remove);
    LearnedAlive -= LearnedRemoved;
    EvictedClauses += static_cast<int64_t>(Removed);
  }

  // Reset the search state of dead variables (a var with no occurrence
  // left cannot influence any answer, and keeping its bumped activity
  // would keep the branching heuristic exploring a dead scope), and
  // recycle the dead *owned* ones: their index joins the free list that
  // addVar() drains. Only owned vars recycle — the caller's atom maps may
  // still name other dead vars, and handing such an index out again would
  // silently alias two meanings. An owned var pinned at root (typically a
  // Tseitin wrapper definition the retirement's own unit propagation
  // forced true) is a fact about a variable nothing mentions: it is
  // compacted off the trail and recycled too. Plain retired selectors stay
  // permanently false (a surviving cache layer may still name them), but
  // *releasable* selectors — those the caller certifies will never be
  // assumed or re-encoded — follow the owned-var path: their pinned-false
  // unit is deleted from the proof, dropped from the trail, and the index
  // recycled, so a long-lived session's trail stops growing with its
  // retirement history.
  std::vector<bool> Occurs(Assign.size(), false);
  for (const Clause &C : Clauses)
    for (Lit L : C.Lits)
      Occurs[static_cast<size_t>(L.var())] = true;
  bool TrailDirty = false;
  std::vector<bool> DropFromTrail(Assign.size(), false);
  std::vector<int> RecycleLog; ///< Recycle records, after the unit deletes.
  for (int V = 1; V <= numVars(); ++V) {
    size_t S = static_cast<size_t>(V);
    if (Occurs[S] || IsFree[S])
      continue;
    bool Recyclable = RecyclingEnabled && (Owned[S] || Releasable[S]);
    if (Recyclable && Releasable[S])
      ++ReleasedSelectors;
    if (Assign[S] != Undef) {
      if (!Recyclable)
        continue; // A pinned fact that must keep holding (e.g. ~selector).
      // The pinned fact leaves the formula with its variable: log the unit
      // deletion, or the checker would (rightly) refuse to recycle an
      // index that still carries an axiom.
      if (Proof)
        Proof->addDelete({Lit(V, Assign[S] == 1).Encoded});
      Assign[S] = Undef;
      Level[S] = 0;
      DropFromTrail[S] = true;
      TrailDirty = true;
    }
    Activity[S] = 0.0;
    SavedPhase[S] = 0;
    Reason[S] = -1;
    if (Recyclable) {
      FreeVars.push_back(V);
      IsFree[S] = 1;
      ++RecycledVars;
      if (Proof)
        RecycleLog.push_back(V);
    }
  }
  // Recycle records go after every unit delete of the batch so the checker
  // rebuilds its root state once, not per variable.
  if (Proof)
    for (int V : RecycleLog)
      Proof->addRecycle(V);
  if (TrailDirty) {
    // Root level: no decision marks to maintain, and dropping a literal
    // nothing mentions cannot enable or retract any propagation.
    size_t OutT = 0;
    for (Lit L : Trail)
      if (!DropFromTrail[static_cast<size_t>(L.var())])
        Trail[OutT++] = L;
    Trail.resize(OutT);
    PropHead = OutT;
  }
  assert(reasonInvariantHolds() && "retireScopes broke a reason reference");
  return Removed;
}

bool SatSolver::varStateIsClean(int Var) const {
  size_t S = static_cast<size_t>(Var);
  if (Var < 1 || Var > numVars())
    return false;
  return Assign[S] == Undef && Activity[S] == 0.0 && SavedPhase[S] == 0 &&
         Reason[S] == -1 && Watches[2 * S].empty() &&
         Watches[2 * S + 1].empty();
}

bool SatSolver::reasonInvariantHolds() const {
  for (Lit L : Trail) {
    int R = Reason[L.var()];
    if (R < 0)
      continue;
    if (R >= static_cast<int>(Clauses.size()))
      return false;
    const Clause &C = Clauses[static_cast<size_t>(R)];
    bool Found = false;
    for (Lit Q : C.Lits)
      Found = Found || Q == L;
    if (!Found)
      return false;
  }
  return true;
}
