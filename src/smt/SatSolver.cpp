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

const std::vector<int> &SatSolver::proofLits(const std::vector<Lit> &C) {
  // The proof trace speaks signed DIMACS ints; Lit::Encoded already is one.
  ProofLits.clear();
  for (Lit L : C)
    ProofLits.push_back(L.Encoded);
  return ProofLits;
}

uint32_t SatSolver::logQueryProof(const std::vector<Lit> &Core) {
  assert(Proof && "logQueryProof without a proof trace");
  return Proof->addQuery(static_cast<int>(numClauses()), proofLits(Core),
                         CoreChain);
}

int SatSolver::rootUnitId(int Var) {
  UnitStack.push_back(Var);
  while (!UnitStack.empty()) {
    int V = UnitStack.back();
    size_t S = static_cast<size_t>(V);
    if (UnitId[S] != 0) {
      UnitStack.pop_back();
      continue;
    }
    // A root literal without a unit ID was implied at level 0: its reason's
    // other literals are root literals assigned earlier, so this recursion
    // (kept on an explicit stack) bottoms out at the trail's start.
    assert(Level[S] == 0 && Reason[S] >= 0 && "root literal without a reason");
    const Clause &R = Clauses[static_cast<size_t>(Reason[S])];
    bool Ready = true;
    for (Lit Q : R.Lits)
      if (Q.var() != V && UnitId[static_cast<size_t>(Q.var())] == 0) {
        UnitStack.push_back(Q.var());
        Ready = false;
      }
    if (!Ready)
      continue;
    UnitHints.clear();
    for (Lit Q : R.Lits)
      if (Q.var() != V)
        UnitHints.push_back(UnitId[static_cast<size_t>(Q.var())]);
    UnitHints.push_back(R.Id);
    ProofLits.assign(1, Lit(V, Assign[S] == 1).Encoded);
    UnitId[S] = Proof->addDerive(ProofLits, UnitHints);
    UnitStack.pop_back();
  }
  return UnitId[static_cast<size_t>(Var)];
}

void SatSolver::buildChain(std::vector<int> &Out) {
  Out.clear();
  for (int V : ChainRoots)
    Out.push_back(rootUnitId(V));
  Out.insert(Out.end(), WalkIds.rbegin(), WalkIds.rend());
}

void SatSolver::logRootConflict(int ConflictIdx) {
  // Every literal of the conflict clause is false at root: the units of
  // their negations make the clause itself the conflict.
  ChainRoots.clear();
  for (Lit Q : Clauses[static_cast<size_t>(ConflictIdx)].Lits)
    ChainRoots.push_back(Q.var());
  WalkIds.assign(1, Clauses[static_cast<size_t>(ConflictIdx)].Id);
  buildChain(ChainBuf);
  ProofLits.clear();
  EmptyId = Proof->addDerive(ProofLits, ChainBuf);
}

SatSolver::SatSolver() {
  // Var indices are 1-based; slot 0 is a sentinel.
  Assign.push_back(Undef);
  Level.push_back(0);
  Reason.push_back(-1);
  Activity.push_back(0.0);
  SavedPhase.push_back(0);
  IsFree.push_back(0);
  Occurs.emplace_back();
  OccCount.push_back(0);
  VarMark.push_back(0);
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
  Occurs.emplace_back();
  OccCount.push_back(0);
  VarMark.push_back(0);
  if (Proof)
    UnitId.push_back(0);
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

int SatSolver::storeClause(const std::vector<Lit> &Lits, bool Learned,
                           int Glue, double Act, int Id) {
  int CI;
  if (FreeSlots.empty()) {
    CI = static_cast<int>(Clauses.size());
    Clauses.emplace_back();
  } else {
    CI = FreeSlots.back();
    FreeSlots.pop_back();
  }
  Clause &C = Clauses[static_cast<size_t>(CI)];
  C.Lits.assign(Lits.begin(), Lits.end());
  C.Learned = Learned;
  C.Glue = Glue;
  C.Act = Act;
  C.Id = Id;
  for (Lit L : C.Lits) {
    size_t V = static_cast<size_t>(L.var());
    std::vector<Occurrence> &Os = Occurs[V];
    // Drop stale entries once they may outnumber the live ones, so a
    // list stays within about twice its count however often it churns.
    if (Os.size() >= 2 * static_cast<size_t>(OccCount[V]) + 8)
      Os.erase(std::remove_if(Os.begin(), Os.end(),
                              [this](Occurrence O) {
                                return Clauses[O.Slot].Gen != O.Gen;
                              }),
               Os.end());
    Os.push_back({static_cast<uint32_t>(CI), !L.positive(), C.Gen});
    ++OccCount[V];
  }
  attach(CI);
  if (numClauses() > PeakClauses)
    PeakClauses = numClauses();
  return CI;
}

void SatSolver::addClause(const std::vector<Lit> &Input) {
  if (Unsatisfiable)
    return;

  // Normalize: drop duplicate literals and satisfied-at-root clauses.
  std::vector<Lit> &C = AddBuf;
  C.clear();
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
  int Id = Proof ? Proof->addInput(proofLits(C)) : 0;
  if (C.empty()) {
    EmptyId = Id;
    Unsatisfiable = true;
    return;
  }
  if (C.size() == 1) {
    if (valueOf(C[0]) == 0) {
      Unsatisfiable = true;
      return;
    }
    if (valueOf(C[0]) == Undef) {
      enqueue(C[0], -1);
      if (Proof)
        UnitId[static_cast<size_t>(C[0].var())] = Id;
    }
    int ConflictIdx = propagate();
    if (ConflictIdx != -1) {
      if (Proof)
        logRootConflict(ConflictIdx);
      Unsatisfiable = true;
    }
    return;
  }

  storeClause(C, false, 0, 0.0, Id);
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
  if (Proof) {
    WalkIds.clear();
    ChainRoots.clear();
  }

  do {
    assert(CI != -1 && "analysis walked past a decision");
    if (Clauses[CI].Learned)
      bumpClauseActivity(CI); // A lemma useful in analysis is worth keeping.
    const Clause &C = Clauses[CI];
    if (Proof)
      WalkIds.push_back(C.Id);
    for (size_t I = (HaveP ? 1 : 0); I != C.Lits.size(); ++I) {
      Lit Q = C.Lits[I];
      if (HaveP && Q == P)
        continue;
      int V = Q.var();
      if (SeenVar[V])
        continue;
      if (Level[V] == 0) {
        // Skipped by the resolution, but the chain names its unit. Marking
        // it seen cannot stop the trail walk below early: root literals
        // sit beneath every current-level one.
        if (Proof) {
          SeenVar[V] = true;
          ChainRoots.push_back(V);
        }
        continue;
      }
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
  //
  // The chain walks the same graph forwards: the unit IDs of the root
  // literals it touches, the reasons of the implied literals in trail
  // order, and last the reason of ~Failed, which conflicts with Failed.
  AssumpCore.clear();
  AssumpCore.push_back(Failed);
  if (Proof) {
    WalkIds.clear();
    ChainRoots.clear();
    if (Level[Failed.var()] == 0)
      ChainRoots.push_back(Failed.var());
  }
  if (currentLevel() > 0) {
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
        const Clause &R = Clauses[Reason[V]];
        if (Proof)
          WalkIds.push_back(R.Id);
        for (Lit Q : R.Lits) {
          if (Level[Q.var()] > 0) {
            SeenVar[Q.var()] = true;
          } else if (Proof && !SeenVar[Q.var()]) {
            SeenVar[Q.var()] = true; // Root vars are never walked.
            ChainRoots.push_back(Q.var());
          }
        }
      }
      SeenVar[V] = false;
    }
  }
  if (Proof)
    buildChain(CoreChain);
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
  if (Unsatisfiable) {
    if (Proof)
      CoreChain.assign(1, EmptyId);
    return SatResult::Unsat;
  }
  int RootConflict = propagate();
  if (RootConflict != -1)
    return rootUnsat(RootConflict);
  maybeReduceDb();

  int64_t StartConflicts = Conflicts;
  int64_t RestartLimit = 64;
  int64_t SinceRestart = 0;
  std::vector<Lit> Learned;

  while (true) {
    int ConflictIdx = propagate();
    if (ConflictIdx != -1) {
      ++Conflicts;
      ++SinceRestart;
      if (currentLevel() == 0)
        return rootUnsat(ConflictIdx);
      if (MaxConflicts >= 0 && Conflicts - StartConflicts > MaxConflicts) {
        backtrack(0);
        return SatResult::Unknown;
      }

      int BackLevel = 0, Glue = 0;
      analyze(ConflictIdx, Learned, BackLevel, Glue);
      backtrack(BackLevel);
      int Id = 0;
      if (Proof) {
        buildChain(ChainBuf);
        Id = Proof->addDerive(proofLits(Learned), ChainBuf);
      }
      if (Learned.size() == 1) {
        // Asserting unit: analyze() computed BackLevel 0, so the trail is
        // already at the root and the unit survives every future solve.
        assert(currentLevel() == 0 && "unit learned above the root");
        enqueue(Learned[0], -1);
        if (Proof)
          UnitId[static_cast<size_t>(Learned[0].var())] = Id;
      } else {
        int CI = storeClause(Learned, true, Glue, ClauseActInc, Id);
        ++LearnedClauses;
        ++LearnedAlive;
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
      // can be safely reduced.
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

SatResult SatSolver::rootUnsat(int ConflictIdx) {
  if (Proof) {
    logRootConflict(ConflictIdx);
    CoreChain.assign(1, EmptyId);
  }
  Unsatisfiable = true;
  return SatResult::Unsat;
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
  assert(currentLevel() == 0 && "reduceDb is a root-level operation");
  if (Unsatisfiable || numClauses() == 0)
    return 0;

  // Clauses currently serving as the reason of an implied literal must
  // survive (conflict analysis walks Reason indices through them).
  std::vector<bool> IsReason(Clauses.size(), false);
  for (Lit L : Trail)
    if (Reason[L.var()] >= 0)
      IsReason[static_cast<size_t>(Reason[L.var()])] = true;

  // Deletion candidates: learned, not a reason, not binary, not low-glue
  // (a free slot has no literals, so it is never one).
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
  // lower slot first; fully deterministic).
  std::stable_sort(Candidates.begin(), Candidates.end(),
                   [this](int A, int B) {
                     return Clauses[static_cast<size_t>(A)].Act <
                            Clauses[static_cast<size_t>(B)].Act;
                   });
  for (size_t I = 0; I != Target; ++I) {
    Clauses[static_cast<size_t>(Candidates[I])].Doomed = true;
    Victims.push_back(Candidates[I]);
  }
  deleteVictims();

  ReclaimedClauses += static_cast<int64_t>(Target);
  ++DbReductions;
  assert(reasonInvariantHolds() && "reduceDb broke a reason reference");
  return Target;
}

void SatSolver::deleteVictims() {
  for (int CI : Victims) {
    Clause &C = Clauses[static_cast<size_t>(CI)];
    assert(C.Doomed && C.Lits.size() >= 2 && "deleting an unmarked slot");
    // Each clause sits in the watch lists of its first two literals;
    // queue each such list once, however many victims it holds.
    for (size_t K = 0; K != 2; ++K) {
      size_t W = watchIndex(C.Lits[K].negated());
      uint8_t Bit = (W & 1) ? DirtyNegWatch : DirtyPosWatch;
      uint8_t &M = VarMark[W / 2];
      if (!(M & Bit)) {
        M |= Bit;
        DirtyWatches.push_back(W);
      }
    }
    if (Proof)
      Proof->addDelete(C.Id);
    for (Lit L : C.Lits) {
      size_t V = static_cast<size_t>(L.var());
      if (--OccCount[V] != 0)
        continue;
      // Every entry left names a dead clause: clear the list, and queue
      // the var for the next retirement's dead-var reset.
      Occurs[V].clear();
      if (!(VarMark[V] & ZeroPending)) {
        VarMark[V] |= ZeroPending;
        ZeroVars.push_back(static_cast<int>(V));
      }
    }
    LearnedAlive -= C.Learned;
    C.Lits.clear(); // The next clause stored here reuses the buffer.
    C.Doomed = false;
    ++C.Gen; // Stales every occurrence entry of the slot.
    FreeSlots.push_back(CI);
  }
  // No slot is reused before the lists are filtered, so the watchers to
  // drop are exactly those naming a slot without literals; a var no live
  // clause mentions any more (a retired scope's, typically) has only such
  // watchers.
  for (size_t W : DirtyWatches) {
    VarMark[W / 2] &= static_cast<uint8_t>(
        ~((W & 1) ? DirtyNegWatch : DirtyPosWatch));
    std::vector<Watcher> &Ws = Watches[W];
    if (OccCount[W / 2] == 0) {
      Ws.clear();
      continue;
    }
    Ws.erase(std::remove_if(Ws.begin(), Ws.end(),
                            [this](Watcher X) {
                              return Clauses[static_cast<size_t>(X.ClauseIdx)]
                                  .Lits.empty();
                            }),
             Ws.end());
  }
  DirtyWatches.clear();
  Victims.clear();
}

void SatSolver::collectVictims(int Var) {
  size_t V = static_cast<size_t>(Var);
  if (VarMark[V] & MarkWalked)
    return;
  VarMark[V] |= MarkWalked;
  WalkedVars.push_back(Var);
  // The witnesses: an owned var takes every clause, a selector or scope
  // var every learned one, and a var fixed at root every clause in which
  // its literal is true.
  bool Owned = VarMark[V] & MarkOwned, InScope = VarMark[V] & MarkScope;
  uint8_t Value = Assign[V];
  std::vector<Occurrence> &Os = Occurs[V];
  RetireVisits += static_cast<int64_t>(Os.size());
  size_t Keep = 0;
  for (size_t I = 0; I != Os.size(); ++I) {
    Occurrence O = Os[I];
    Clause &C = Clauses[O.Slot];
    if (C.Gen != O.Gen)
      continue; // The slot was freed since: a stale entry.
    Os[Keep++] = O;
    if (C.Doomed)
      continue;
    bool RootSat = Value != Undef && Value == (O.Negative ? 0 : 1);
    if (Owned || RootSat || (C.Learned && InScope)) {
      C.Doomed = true;
      Victims.push_back(static_cast<int>(O.Slot));
    }
  }
  Os.resize(Keep);
}

size_t SatSolver::retireScopes(const std::vector<Lit> &Selectors,
                               const std::vector<int> &ScopeVars,
                               const std::vector<Lit> &ReleasableSelectors) {
  backtrack(0);
  ++ScopeRetirements;
  std::vector<Lit> Unit(1);
  for (Lit Selector : Selectors) {
    Unit[0] = Selector.negated();
    addClause(Unit);
  }
  for (Lit Selector : ReleasableSelectors) {
    Unit[0] = Selector.negated();
    addClause(Unit);
  }
  if (Unsatisfiable)
    return 0; // Trivially Unsat database: nothing left worth evicting.

  // Root literals are permanently true and conflict analysis never walks
  // their reasons (analyze/analyzeFinal skip level-0 vars), so detaching
  // the root reasons makes every clause a legal deletion candidate. The
  // retirement may evict exactly those reason clauses, so a certifying run
  // first derives the unit of every root literal that has none yet — in
  // trail order, so each one's antecedent units already exist; a later
  // chain can then name the unit instead of the evicted reason. Literals
  // below RetiredTrail were handled by an earlier retirement.
  assert(RetiredTrail <= Trail.size() && "root trail shrank unseen");
  if (Proof)
    for (size_t I = RetiredTrail; I != Trail.size(); ++I)
      if (UnitId[static_cast<size_t>(Trail[I].var())] == 0)
        rootUnitId(Trail[I].var());
  for (size_t I = RetiredTrail; I != Trail.size(); ++I)
    Reason[Trail[I].var()] = -1;

  // MarkScope: selector and scope vars, whose learned clauses are dropped.
  // MarkOwned: scope vars only — the caller's scope-private set, whose
  // *problem* clauses (Tseitin definitions of the retired subtree's
  // formulas) are dropped too. Sound by the privacy contract: every clause
  // mentioning an owned var belongs to an assertion of the retired
  // subtree, and those assertions are vacuous once their selectors are
  // false at root.
  for (Lit Selector : Selectors)
    VarMark[static_cast<size_t>(Selector.var())] |= MarkScope;
  for (Lit Selector : ReleasableSelectors)
    VarMark[static_cast<size_t>(Selector.var())] |= MarkScope | MarkReleasable;
  for (int V : ScopeVars)
    VarMark[static_cast<size_t>(V)] |= MarkScope | MarkOwned;

  // Every victim mentions one of these vars: a root-satisfied clause
  // holds a literal fixed since the previous retirement (which evicted
  // every root-satisfied clause of its time, and no clause is stored with
  // a root-fixed literal), and the other rules name the var outright.
  for (size_t I = RetiredTrail; I != Trail.size(); ++I)
    collectVictims(Trail[I].var());
  for (Lit Selector : Selectors)
    collectVictims(Selector.var());
  for (Lit Selector : ReleasableSelectors)
    collectVictims(Selector.var());
  for (int V : ScopeVars)
    collectVictims(V);
  size_t Removed = Victims.size();
  deleteVictims();
  EvictedClauses += static_cast<int64_t>(Removed);

  // Reset the search state of dead variables (a var with no occurrence
  // left cannot influence any answer, and keeping its bumped activity
  // would keep the branching heuristic exploring a dead scope), and
  // recycle the dead *owned* ones: their index joins the free list that
  // addVar() drains. Only owned vars recycle — the caller's atom maps may
  // still name other dead vars, and handing such an index out again would
  // silently alias two meanings. An owned var pinned at root (typically a
  // Tseitin wrapper definition the retirement's own unit propagation
  // forced true) is a fact about a variable nothing mentions: it is
  // dropped from the trail and recycled too. Plain retired selectors stay
  // permanently false (a surviving cache layer may still name them), but
  // *releasable* selectors — those the caller certifies will never be
  // assumed or re-encoded — follow the owned-var path: their pinned-false
  // unit is deleted from the proof, dropped from the trail, and the index
  // recycled, so a long-lived session's trail stops growing with its
  // retirement history.
  //
  // A var can only have gained a reset since the previous retirement by
  // losing its last occurrence (ZeroVars); scope vars and releasable
  // selectors may have had none to lose.
  auto Queue = [this](int V) {
    if (!(VarMark[static_cast<size_t>(V)] & ZeroPending)) {
      VarMark[static_cast<size_t>(V)] |= ZeroPending;
      ZeroVars.push_back(V);
    }
  };
  for (int V : ScopeVars)
    Queue(V);
  for (Lit Selector : ReleasableSelectors)
    Queue(Selector.var());
  // Dead vars that do not recycle only get their search state reset, in
  // any order; the recyclable ones are marked, and the span between the
  // lowest and the highest is scanned, so the free list gets its indices
  // in ascending order, as from a scan of every var (and without a sort,
  // whose mispredicted compares cost more than the short scan).
  int Lo = numVars() + 1, Hi = 0;
  for (int V : ZeroVars) {
    size_t S = static_cast<size_t>(V);
    uint8_t M = VarMark[S];
    VarMark[S] = M & static_cast<uint8_t>(~ZeroPending);
    if (OccCount[S] != 0 || IsFree[S])
      continue;
    if (RecyclingEnabled && (M & (MarkOwned | MarkReleasable))) {
      VarMark[S] |= MarkRecycle;
      Lo = std::min(Lo, V);
      Hi = std::max(Hi, V);
      continue;
    }
    if (Assign[S] != Undef)
      continue; // A pinned fact that must keep holding (e.g. ~selector).
    Activity[S] = 0.0;
    SavedPhase[S] = 0;
    Reason[S] = -1;
  }
  ZeroVars.clear();
  bool TrailDirty = false;
  for (int V = Lo; V <= Hi; ++V) {
    size_t S = static_cast<size_t>(V);
    if (!(VarMark[S] & MarkRecycle))
      continue;
    VarMark[S] &= static_cast<uint8_t>(~MarkRecycle);
    if (VarMark[S] & MarkReleasable)
      ++ReleasedSelectors;
    if (Assign[S] != Undef) {
      // The pinned fact leaves the formula with its variable: log the unit
      // deletion, or the checker would (rightly) refuse to recycle an
      // index that still carries an axiom.
      if (Proof) {
        assert(UnitId[S] != 0 && "root literal without a unit clause");
        Proof->addDelete(UnitId[S]);
        UnitId[S] = 0;
      }
      Assign[S] = Undef;
      Level[S] = 0;
      TrailDirty = true;
    }
    Activity[S] = 0.0;
    SavedPhase[S] = 0;
    Reason[S] = -1;
    FreeVars.push_back(V);
    IsFree[S] = 1;
    ++RecycledVars;
    if (Proof)
      Proof->addRecycle(V);
  }
  if (TrailDirty) {
    // Root level: no decision marks to maintain, and dropping a literal
    // nothing mentions cannot enable or retract any propagation. The
    // dropped literals are exactly the root entries now unassigned.
    size_t OutT = 0;
    for (Lit L : Trail)
      if (Assign[L.var()] != Undef)
        Trail[OutT++] = L;
    Trail.resize(OutT);
    PropHead = OutT;
  }
  RetiredTrail = Trail.size();
  // Every var this retirement marked was walked; keep only ZeroPending.
  for (int V : WalkedVars)
    VarMark[static_cast<size_t>(V)] &= ZeroPending;
  WalkedVars.clear();
  assert(reasonInvariantHolds() && "retireScopes broke a reason reference");
  return Removed;
}

bool SatSolver::varStateIsClean(int Var) const {
  size_t S = static_cast<size_t>(Var);
  if (Var < 1 || Var > numVars())
    return false;
  return Assign[S] == Undef && Activity[S] == 0.0 && SavedPhase[S] == 0 &&
         Reason[S] == -1 && Watches[2 * S].empty() &&
         Watches[2 * S + 1].empty() && OccCount[S] == 0 && Occurs[S].empty();
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
    if (!Found) // A free slot has no literals, so it fails here too.
      return false;
  }
  return true;
}

bool SatSolver::watchInvariantHolds() const {
  // Watchers: each names a live clause through one of its first two
  // literals, and each live clause has exactly one watcher per such list.
  std::vector<int> First(Clauses.size(), 0), Second(Clauses.size(), 0);
  for (size_t W = 0; W != Watches.size(); ++W)
    for (Watcher X : Watches[W]) {
      if (X.ClauseIdx < 0 || static_cast<size_t>(X.ClauseIdx) >= Clauses.size())
        return false;
      size_t CI = static_cast<size_t>(X.ClauseIdx);
      const Clause &C = Clauses[CI];
      if (C.Lits.size() < 2)
        return false; // A free slot is watched.
      if (W == watchIndex(C.Lits[0].negated()))
        ++First[CI];
      else if (W == watchIndex(C.Lits[1].negated()))
        ++Second[CI];
      else
        return false;
    }
  size_t Live = 0;
  for (size_t CI = 0; CI != Clauses.size(); ++CI) {
    if (Clauses[CI].Lits.empty())
      continue;
    ++Live;
    if (First[CI] != 1 || Second[CI] != 1 || Clauses[CI].Doomed)
      return false;
  }
  // Free slots: exactly the empty ones, each listed once.
  std::vector<bool> Listed(Clauses.size(), false);
  for (int CI : FreeSlots) {
    if (CI < 0 || static_cast<size_t>(CI) >= Clauses.size() ||
        Listed[static_cast<size_t>(CI)] ||
        !Clauses[static_cast<size_t>(CI)].Lits.empty())
      return false;
    Listed[static_cast<size_t>(CI)] = true;
  }
  if (Live != numClauses() || Live + FreeSlots.size() != Clauses.size())
    return false;
  // Reasons name live clauses (reasonInvariantHolds checks the literal).
  for (Lit L : Trail) {
    int R = Reason[L.var()];
    if (R >= 0 && (static_cast<size_t>(R) >= Clauses.size() ||
                   Clauses[static_cast<size_t>(R)].Lits.empty()))
      return false;
  }
  // Occurrences: each var's count and valid entries name exactly the live
  // clauses that mention it, each once.
  std::vector<int> Want(Assign.size(), 0);
  for (const Clause &C : Clauses)
    for (Lit L : C.Lits)
      ++Want[static_cast<size_t>(L.var())];
  std::vector<size_t> SeenBy(Clauses.size(), 0);
  for (size_t V = 1; V < Assign.size(); ++V) {
    if (OccCount[V] != Want[V])
      return false;
    int Valid = 0;
    for (Occurrence O : Occurs[V]) {
      if (O.Slot >= Clauses.size())
        return false;
      const Clause &C = Clauses[O.Slot];
      if (C.Gen != O.Gen)
        continue;
      if (SeenBy[O.Slot] == V)
        return false; // Listed twice.
      SeenBy[O.Slot] = V;
      Lit Want(static_cast<int>(V), !O.Negative);
      if (std::find(C.Lits.begin(), C.Lits.end(), Want) == C.Lits.end())
        return false; // The clause lacks the var, or has the other sign.
      ++Valid;
    }
    if (Valid != Want[V])
      return false;
  }
  return true;
}
