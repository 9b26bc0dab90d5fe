//===- logic/Simplifier.cpp - Boolean simplification & queries ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "logic/Simplifier.h"

#include <algorithm>

using namespace semcomm;

static ExprRef simplifyNary(ExprFactory &F, ExprRef E, bool IsAnd) {
  std::vector<ExprRef> Ops;
  for (ExprRef Op : E->operands())
    Ops.push_back(simplify(F, Op));

  // Deduplicate while preserving order (hash-consing makes this pointer
  // comparison sound).
  std::vector<ExprRef> Unique;
  for (ExprRef Op : Ops)
    if (std::find(Unique.begin(), Unique.end(), Op) == Unique.end())
      Unique.push_back(Op);

  // Complement law: X and ~X together collapse the whole connective.
  for (ExprRef Op : Unique) {
    ExprRef Complement = F.lnot(Op);
    if (std::find(Unique.begin(), Unique.end(), Complement) != Unique.end())
      return IsAnd ? F.falseExpr() : F.trueExpr();
  }

  return IsAnd ? F.conj(Unique) : F.disj(Unique);
}

ExprRef semcomm::simplify(ExprFactory &F, ExprRef E) {
  switch (E->kind()) {
  case ExprKind::And:
    return simplifyNary(F, E, /*IsAnd=*/true);
  case ExprKind::Or:
    return simplifyNary(F, E, /*IsAnd=*/false);
  case ExprKind::Not:
    return F.lnot(simplify(F, E->operand(0)));
  case ExprKind::Implies:
    return F.implies(simplify(F, E->operand(0)), simplify(F, E->operand(1)));
  case ExprKind::Iff:
    return F.iff(simplify(F, E->operand(0)), simplify(F, E->operand(1)));
  case ExprKind::Ite:
    return F.ite(simplify(F, E->operand(0)), simplify(F, E->operand(1)),
                 simplify(F, E->operand(2)));
  default:
    // Terms and atoms are already folded by the factory's smart
    // constructors.
    return E;
  }
}

std::vector<ExprRef> semcomm::collectDisjuncts(ExprRef E) {
  if (E->kind() == ExprKind::Or)
    return E->operands();
  return {E};
}

void semcomm::collectFreeVars(ExprRef E, std::set<std::string> &Out) {
  if (E->kind() == ExprKind::Var) {
    if (E->sort() != Sort::State)
      Out.insert(E->name());
    return;
  }
  if (E->kind() == ExprKind::Forall || E->kind() == ExprKind::Exists) {
    collectFreeVars(E->operand(0), Out);
    collectFreeVars(E->operand(1), Out);
    std::set<std::string> Body;
    collectFreeVars(E->operand(2), Body);
    Body.erase(E->name());
    Out.insert(Body.begin(), Body.end());
    return;
  }
  for (ExprRef Op : E->operands())
    collectFreeVars(Op, Out);
}

void semcomm::collectStateNames(ExprRef E, std::set<std::string> &Out) {
  if (E->kind() == ExprKind::Var && E->sort() == Sort::State) {
    Out.insert(E->name());
    return;
  }
  for (ExprRef Op : E->operands())
    collectStateNames(Op, Out);
}

ExprRef semcomm::dropS1Disjuncts(ExprFactory &F, ExprRef Between) {
  std::vector<ExprRef> Kept;
  for (ExprRef Clause : collectDisjuncts(Between)) {
    std::set<std::string> States;
    collectStateNames(Clause, States);
    if (!States.count("s1"))
      Kept.push_back(Clause);
  }
  return F.disj(Kept); // Empty disjunction folds to false.
}
