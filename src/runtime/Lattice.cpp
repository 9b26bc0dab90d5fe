//===- runtime/Lattice.cpp - The commutativity lattice ----------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "runtime/Lattice.h"

#include "logic/Evaluator.h"
#include "logic/Simplifier.h"

using namespace semcomm;

double semcomm::acceptanceRate(const Family &Fam, const std::string &Op1Name,
                               const std::string &Op2Name, ExprRef Phi,
                               const Scope &Bounds) {
  const Operation &Op1 = Fam.op(Op1Name);
  const Operation &Op2 = Fam.op(Op2Name);
  uint64_t Total = 0, Accepted = 0;

  for (const AbstractState &Initial : enumerateStates(Fam, Bounds)) {
    for (const ArgList &A1 : enumerateArgs(Fam, Op1, Initial, Bounds)) {
      if (!Op1.Pre(Initial, A1))
        continue;
      for (const ArgList &A2 : enumerateArgs(Fam, Op2, Initial, Bounds)) {
        AbstractState Mid = Initial;
        Value R1 = Op1.Apply(Mid, A1);
        if (!Op2.Pre(Mid, A2))
          continue;
        AbstractState Fin = Mid;
        Value R2 = Op2.Apply(Fin, A2);

        Env E;
        for (size_t I = 0; I != A1.size(); ++I)
          E.bind(Op1.ArgBaseNames[I] + "1", A1[I]);
        for (size_t I = 0; I != A2.size(); ++I)
          E.bind(Op2.ArgBaseNames[I] + "2", A2[I]);
        if (Op1.RecordsReturn)
          E.bind("r1", R1);
        if (Op2.RecordsReturn)
          E.bind("r2", R2);
        E.bindState("s1", &Initial);
        E.bindState("s2", &Mid);
        E.bindState("s3", &Fin);

        ++Total;
        if (evaluateBool(Phi, E))
          ++Accepted;
      }
    }
  }
  return Total == 0 ? 0.0 : static_cast<double>(Accepted) / Total;
}

std::vector<LatticePoint>
semcomm::buildLattice(ExprFactory &F, const Catalog &C,
                      const ExhaustiveEngine &Engine, const Family &Fam,
                      const std::string &Op1, const std::string &Op2) {
  ExprRef Full = C.entry(Fam, Op1, Op2).Between;
  std::vector<ExprRef> Clauses = collectDisjuncts(Full);
  std::vector<LatticePoint> Points;

  for (unsigned Mask = 0; Mask < (1u << Clauses.size()); ++Mask) {
    std::vector<ExprRef> Kept;
    for (size_t I = 0; I != Clauses.size(); ++I)
      if (Mask & (1u << I))
        Kept.push_back(Clauses[I]);

    LatticePoint P;
    P.NumClauses = static_cast<unsigned>(Kept.size());
    P.Condition = F.disj(Kept);
    P.Sound = Engine
                  .verifyCondition(Fam, Op1, Op2, ConditionKind::Between,
                                   MethodRole::Soundness, P.Condition)
                  .Verified;
    P.Complete = Engine
                     .verifyCondition(Fam, Op1, Op2, ConditionKind::Between,
                                      MethodRole::Completeness, P.Condition)
                     .Verified;
    P.AcceptRate =
        acceptanceRate(Fam, Op1, Op2, P.Condition, Engine.scope());
    Points.push_back(P);
  }
  return Points;
}
