//===- commute/Synthesizer.cpp - Condition synthesis -------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "commute/Synthesizer.h"

#include "logic/Evaluator.h"
#include "logic/Simplifier.h"

#include <map>

using namespace semcomm;

namespace {

/// A scenario's atom valuation plus its commute verdict(s).
struct Bucket {
  bool SeenCommute = false;
  bool SeenConflict = false;
  std::string Sample; ///< One scenario rendering, for diagnostics.
};

} // namespace

SynthesisResult semcomm::synthesizeCondition(
    ExprFactory &F, const Family &Fam, const std::string &Op1Name,
    const std::string &Op2Name, const std::vector<ExprRef> &Atoms,
    const Scope &Bounds) {
  const Operation &Op1 = Fam.op(Op1Name);
  const Operation &Op2 = Fam.op(Op2Name);

  SynthesisResult Result;
  std::map<std::vector<bool>, Bucket> Buckets;

  for (const AbstractState &Initial : enumerateStates(Fam, Bounds)) {
    for (const ArgList &A1 : enumerateArgs(Fam, Op1, Initial, Bounds)) {
      if (!Op1.Pre(Initial, A1))
        continue;
      for (const ArgList &A2 : enumerateArgs(Fam, Op2, Initial, Bounds)) {
        // First order.
        AbstractState Mid = Initial;
        Value R1 = Op1.Apply(Mid, A1);
        if (!Op2.Pre(Mid, A2))
          continue;
        AbstractState Fin1 = Mid;
        Value R2 = Op2.Apply(Fin1, A2);
        ++Result.Scenarios;

        // Reverse order.
        bool Agrees = false;
        if (Op2.Pre(Initial, A2)) {
          AbstractState Fin2 = Initial;
          Value R2b = Op2.Apply(Fin2, A2);
          if (Op1.Pre(Fin2, A1)) {
            Value R1b = Op1.Apply(Fin2, A1);
            Agrees = Fin1 == Fin2 &&
                     (!Op1.RecordsReturn || R1 == R1b) &&
                     (!Op2.RecordsReturn || R2 == R2b);
          }
        }

        // Atom valuation (between vocabulary: s1, s2, r1 available).
        Env E;
        for (size_t I = 0; I != A1.size(); ++I)
          E.bind(Op1.ArgBaseNames[I] + "1", A1[I]);
        for (size_t I = 0; I != A2.size(); ++I)
          E.bind(Op2.ArgBaseNames[I] + "2", A2[I]);
        if (Op1.RecordsReturn)
          E.bind("r1", R1);
        E.bindState("s1", &Initial);
        E.bindState("s2", &Mid);

        std::vector<bool> Valuation;
        Valuation.reserve(Atoms.size());
        for (ExprRef Atom : Atoms)
          Valuation.push_back(evaluateBool(Atom, E));

        Bucket &B = Buckets[Valuation];
        (Agrees ? B.SeenCommute : B.SeenConflict) = true;
        if (B.Sample.empty())
          B.Sample = "state " + Initial.str();
      }
    }
  }

  // Expressibility: every valuation class must be verdict-pure.
  for (const auto &[Valuation, B] : Buckets)
    if (B.SeenCommute && B.SeenConflict) {
      Result.Expressible = false;
      Result.AmbiguityNote =
          "atom valuation cannot separate commuting from conflicting "
          "scenarios near " +
          B.Sample;
      return Result;
    }
  Result.Expressible = true;

  // Drop globally redundant atoms: an atom is redundant when merging the
  // buckets that differ only in it never mixes verdicts.
  std::vector<bool> Kept(Atoms.size(), true);
  for (size_t P = 0; P != Atoms.size(); ++P) {
    std::map<std::vector<bool>, std::pair<bool, bool>> Merged;
    for (const auto &[Valuation, B] : Buckets) {
      std::vector<bool> Projected;
      for (size_t Q = 0; Q != Atoms.size(); ++Q)
        if (Kept[Q] && Q != P)
          Projected.push_back(Valuation[Q]);
      auto &[SawC, SawX] = Merged[Projected];
      SawC |= B.SeenCommute;
      SawX |= B.SeenConflict;
    }
    bool Pure = true;
    for (const auto &[_, Verdicts] : Merged)
      Pure &= !(Verdicts.first && Verdicts.second);
    if (Pure)
      Kept[P] = false;
  }

  // DNF over the commuting (projected) valuations, with per-cube literal
  // dropping against absent or commuting neighbours.
  std::map<std::vector<bool>, std::pair<bool, bool>> Projected;
  std::vector<size_t> KeptIdx;
  for (size_t Q = 0; Q != Atoms.size(); ++Q)
    if (Kept[Q])
      KeptIdx.push_back(Q);
  for (const auto &[Valuation, B] : Buckets) {
    std::vector<bool> Proj;
    for (size_t Q : KeptIdx)
      Proj.push_back(Valuation[Q]);
    auto &[SawC, SawX] = Projected[Proj];
    SawC |= B.SeenCommute;
    SawX |= B.SeenConflict;
  }

  std::vector<ExprRef> Cubes;
  for (const auto &[Valuation, Verdicts] : Projected) {
    if (!Verdicts.first)
      continue;
    // Expand the cube into a prime implicant: a literal may be dropped
    // only if no *conflicting* valuation matches the widened cube
    // (valuations that never occurred are don't-cares).
    std::vector<bool> Fixed(KeptIdx.size(), true);
    auto CoversConflict = [&]() {
      for (const auto &[Other, OtherVerdicts] : Projected) {
        if (!OtherVerdicts.second)
          continue;
        bool Matches = true;
        for (size_t I = 0; I != KeptIdx.size() && Matches; ++I)
          Matches = !Fixed[I] || Other[I] == Valuation[I];
        if (Matches)
          return true;
      }
      return false;
    };
    for (size_t I = 0; I != KeptIdx.size(); ++I) {
      Fixed[I] = false;
      if (CoversConflict())
        Fixed[I] = true; // The drop would swallow a conflict; keep it.
    }
    std::vector<ExprRef> Literals;
    for (size_t I = 0; I != KeptIdx.size(); ++I) {
      if (!Fixed[I])
        continue;
      ExprRef Atom = Atoms[KeptIdx[I]];
      Literals.push_back(Valuation[I] ? Atom : F.lnot(Atom));
    }
    Cubes.push_back(F.conj(Literals));
  }
  Result.Condition = simplify(F, F.disj(Cubes));
  return Result;
}

std::vector<ExprRef> semcomm::defaultAtoms(ExprFactory &F, const Family &Fam,
                                           const std::string &Op1Name,
                                           const std::string &Op2Name) {
  const Operation &Op1 = Fam.op(Op1Name);
  const Operation &Op2 = Fam.op(Op2Name);
  ExprRef S1 = F.var("s1", Sort::State);

  // The pair's scalar variables, by sort.
  std::vector<ExprRef> Objs, Ints;
  auto AddArgs = [&](const Operation &Op, int Pos) {
    for (size_t I = 0; I != Op.ArgSorts.size(); ++I) {
      ExprRef V = F.var(Op.ArgBaseNames[I] + std::to_string(Pos),
                        Op.ArgSorts[I]);
      (Op.ArgSorts[I] == Sort::Obj ? Objs : Ints).push_back(V);
    }
  };
  AddArgs(Op1, 1);
  AddArgs(Op2, 2);

  std::vector<ExprRef> Atoms;
  for (size_t I = 0; I != Objs.size(); ++I)
    for (size_t J = I + 1; J != Objs.size(); ++J)
      Atoms.push_back(F.eq(Objs[I], Objs[J]));

  switch (Fam.Kind) {
  case StateKind::Set:
    for (ExprRef V : Objs)
      Atoms.push_back(F.setContains(S1, V));
    break;
  case StateKind::Map: {
    // Keys are the "k"-based variables; values the "v"-based ones.
    std::vector<ExprRef> Keys, Vals;
    for (ExprRef V : Objs)
      (V->name()[0] == 'k' ? Keys : Vals).push_back(V);
    for (ExprRef K : Keys) {
      Atoms.push_back(F.mapHasKey(S1, K));
      for (ExprRef V : Vals)
        Atoms.push_back(F.eq(F.mapGet(S1, K), V));
    }
    break;
  }
  case StateKind::Counter:
    for (ExprRef N : Ints)
      Atoms.push_back(F.eq(N, F.intConst(0)));
    break;
  case StateKind::Seq:
    // ArrayList vocabularies are pair-specific; callers supply their own.
    break;
  }

  if (Op1.RecordsReturn && Op1.HasReturn) {
    if (Op1.ReturnSort == Sort::Bool)
      Atoms.push_back(F.var("r1", Sort::Bool));
    else if (Op1.ReturnSort == Sort::Obj) {
      Atoms.push_back(F.ne(F.var("r1", Sort::Obj), F.nullConst()));
      for (ExprRef V : Objs)
        Atoms.push_back(F.eq(F.var("r1", Sort::Obj), V));
    }
  }
  return Atoms;
}
