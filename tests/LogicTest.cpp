//===- tests/LogicTest.cpp - logic/ module unit tests ----------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "logic/Dsl.h"
#include "logic/Evaluator.h"
#include "logic/Printer.h"
#include "logic/Simplifier.h"
#include "spec/AbstractState.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

using namespace semcomm;

// --- Value ------------------------------------------------------------------

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::null().isNull());
  EXPECT_TRUE(Value::boolean(true).asBool());
  EXPECT_FALSE(Value::boolean(false).asBool());
  EXPECT_EQ(Value::integer(-7).asInt(), -7);
  EXPECT_EQ(Value::obj(3).objId(), 3);
  EXPECT_TRUE(Value::undef().isUndef());
}

TEST(ValueTest, SemanticEqualityTreatsUndefAsEqualToNothing) {
  EXPECT_TRUE(Value::obj(1).semanticEquals(Value::obj(1)));
  EXPECT_FALSE(Value::obj(1).semanticEquals(Value::obj(2)));
  EXPECT_FALSE(Value::obj(1).semanticEquals(Value::null()));
  // The crucial convention: undef equals nothing, not even itself, so a
  // mis-guarded out-of-range read falsifies its equality atom.
  EXPECT_FALSE(Value::undef().semanticEquals(Value::undef()));
  // Structural equality (containers) still identifies undef with itself.
  EXPECT_TRUE(Value::undef() == Value::undef());
}

TEST(ValueTest, Rendering) {
  EXPECT_EQ(Value::null().str(), "null");
  EXPECT_EQ(Value::obj(12).str(), "o12");
  EXPECT_EQ(Value::integer(5).str(), "5");
  EXPECT_EQ(Value::boolean(true).str(), "true");
}

// --- Factory ----------------------------------------------------------------

TEST(FactoryTest, HashConsingGivesPointerIdentity) {
  ExprFactory F;
  ExprRef A = F.var("v1", Sort::Obj);
  ExprRef B = F.var("v1", Sort::Obj);
  EXPECT_EQ(A, B);
  EXPECT_EQ(F.eq(A, F.var("v2", Sort::Obj)),
            F.eq(F.var("v1", Sort::Obj), F.var("v2", Sort::Obj)));
  // Different sorts are different variables.
  EXPECT_NE(F.var("r1", Sort::Bool), F.var("r1", Sort::Obj));
}

TEST(FactoryTest, ConstantFolding) {
  ExprFactory F;
  EXPECT_TRUE(F.eq(F.intConst(2), F.intConst(2))->isTrue());
  EXPECT_TRUE(F.lt(F.intConst(3), F.intConst(2))->isFalse());
  EXPECT_EQ(F.add(F.intConst(2), F.intConst(3)), F.intConst(5));
  EXPECT_EQ(F.sub(F.var("i1", Sort::Int), F.intConst(0)),
            F.var("i1", Sort::Int));
  EXPECT_TRUE(F.eq(F.nullConst(), F.nullConst())->isTrue());
}

TEST(FactoryTest, ConnectiveUnitLaws) {
  ExprFactory F;
  ExprRef A = F.var("a", Sort::Bool);
  EXPECT_EQ(F.conj({A, F.trueExpr()}), A);
  EXPECT_TRUE(F.conj({A, F.falseExpr()})->isFalse());
  EXPECT_EQ(F.disj({A, F.falseExpr()}), A);
  EXPECT_TRUE(F.disj({A, F.trueExpr()})->isTrue());
  EXPECT_EQ(F.lnot(F.lnot(A)), A);
  EXPECT_TRUE(F.conj({})->isTrue());
  EXPECT_TRUE(F.disj({})->isFalse());
}

TEST(FactoryTest, NaryFlattening) {
  ExprFactory F;
  ExprRef A = F.var("a", Sort::Bool), B = F.var("b", Sort::Bool),
          C = F.var("c", Sort::Bool);
  ExprRef Nested = F.conj({A, F.conj({B, C})});
  EXPECT_EQ(Nested->kind(), ExprKind::And);
  EXPECT_EQ(Nested->numOperands(), 3u);
}

TEST(FactoryTest, WideConnectivesFlattenPastTheInlineBuffer) {
  // 100 operands, more than conj/disj and substitute keep on the stack:
  // nested And/Or operands splice in place and unit operands drop out.
  ExprFactory F;
  constexpr int Wide = 100;
  std::vector<ExprRef> Atoms;
  for (int I = 0; I < Wide; ++I)
    Atoms.push_back(F.lt(F.var("x" + std::to_string(I), Sort::Int),
                         F.intConst(I)));
  auto ExpectOperands = [&](ExprRef E, ExprKind K) {
    ASSERT_EQ(E->kind(), K);
    ASSERT_EQ(E->numOperands(), unsigned(Wide));
    for (int I = 0; I < Wide; ++I)
      EXPECT_EQ(E->operand(I), Atoms[I]) << "operand " << I;
  };
  // Operands 10..19 and 60..89 arrive as nested connectives of the same
  // kind, with a unit between every two operands.
  for (bool IsAnd : {true, false}) {
    ExprRef Unit = IsAnd ? F.trueExpr() : F.falseExpr();
    auto Join = [&](std::vector<ExprRef> Ops) {
      return IsAnd ? F.conj(Ops) : F.disj(Ops);
    };
    std::vector<ExprRef> Ops;
    for (int I = 0; I < Wide;) {
      int Group = I == 10 ? 10 : I == 60 ? 30 : 1;
      Ops.push_back(Group == 1 ? Atoms[I]
                               : Join(std::vector<ExprRef>(
                                     Atoms.begin() + I,
                                     Atoms.begin() + I + Group)));
      Ops.push_back(Unit);
      I += Group;
    }
    ExprRef Flat = Join(Ops);
    ExpectOperands(Flat, IsAnd ? ExprKind::And : ExprKind::Or);
    // Interning the flat list directly finds the same node.
    EXPECT_EQ(Join(Atoms), Flat);
    // The absorbing constant wins however wide the list.
    Ops.push_back(IsAnd ? F.falseExpr() : F.trueExpr());
    EXPECT_EQ(Join(Ops), IsAnd ? F.falseExpr() : F.trueExpr());
  }

  // Substituting into every operand rebuilds all 100 and memoizes past
  // the table's inline slots.
  std::vector<ExprRef> Shifted;
  std::vector<Binding> Subst;
  for (int I = 0; I < Wide; ++I) {
    ExprRef X = F.var("x" + std::to_string(I), Sort::Int);
    ExprRef Y = F.var("y" + std::to_string(I), Sort::Int);
    Subst.push_back({X, Y});
    Shifted.push_back(F.lt(Y, F.intConst(I)));
  }
  ExprRef Sub = F.substitute(F.disj(Atoms), Subst);
  ASSERT_EQ(Sub->kind(), ExprKind::Or);
  ASSERT_EQ(Sub->numOperands(), unsigned(Wide));
  for (int I = 0; I < Wide; ++I)
    EXPECT_EQ(Sub->operand(I), Shifted[I]) << "operand " << I;
}

TEST(FactoryTest, SubstitutionShadowsBoundVariables) {
  ExprFactory F;
  ExprRef J = F.var("j", Sort::Int), I1 = F.var("i1", Sort::Int);
  ExprRef Body = F.eq(J, I1);
  ExprRef Q = F.forallInt("j", F.intConst(0), F.intConst(3), Body);
  ExprRef Sub = F.substitute(Q, {{J, F.intConst(9)}, {I1, F.intConst(1)}});
  // The bound j must not be replaced; i1 must be.
  ExprRef Expected = F.forallInt("j", F.intConst(0), F.intConst(3),
                                 F.eq(J, F.intConst(1)));
  EXPECT_EQ(Sub, Expected);
}

TEST(FactoryTest, SubstitutionRespectsNestedRebinding) {
  ExprFactory F;
  ExprRef J = F.var("j", Sort::Int), K = F.var("k", Sort::Int),
          I1 = F.var("i1", Sort::Int);
  ExprRef Nine = F.intConst(9), One = F.intConst(1), Three = F.intConst(3);

  // forall j in [0, i1]. j = i1 && forall j in [j, 3]. j < i1: both
  // quantifiers bind j, so no j anywhere is free; i1 is.
  ExprRef Inner = F.forallInt("j", J, Three, F.lt(J, I1));
  ExprRef Outer = F.forallInt("j", F.intConst(0), I1,
                              F.conj({F.eq(J, I1), Inner}));
  EXPECT_EQ(F.substitute(Outer, {{J, Nine}, {I1, One}}),
            F.forallInt("j", F.intConst(0), One,
                        F.conj({F.eq(J, One),
                                F.forallInt("j", J, Three, F.lt(J, One))})));

  // forall k in [j, 3]. forall j in [j, k]. j < k: the inner bounds sit
  // in the outer scope, where j is free; the inner body does not.
  ExprRef Mixed = F.forallInt(
      "k", J, Three, F.forallInt("j", J, K, F.lt(J, K)));
  EXPECT_EQ(F.substitute(Mixed, {{J, Nine}}),
            F.forallInt("k", Nine, Three,
                        F.forallInt("j", Nine, K, F.lt(J, K))));
}

TEST(FactoryTest, ShadowingQuantifierDoesNotReuseTheOuterMemo) {
  // The first conjunct is the quantifier's body, so by the time the
  // quantifier is reached the memo maps that node to j := 5. Under the
  // quantifier j is bound and the body must come back unchanged.
  ExprFactory F;
  ExprRef J = F.var("j", Sort::Int), I1 = F.var("i1", Sort::Int);
  ExprRef Body = F.lt(J, I1);
  ExprRef E = F.conj(
      {Body, F.forallInt("j", F.intConst(0), F.intConst(3), Body)});
  EXPECT_EQ(F.substitute(E, {{J, F.intConst(5)}}),
            F.conj({F.lt(F.intConst(5), I1),
                    F.forallInt("j", F.intConst(0), F.intConst(3), Body)}));
}

TEST(FactoryTest, SubstitutedValuesAreNotSubstitutedAgain) {
  // x := y + 1 and y := x swap the two variables' roles: each value is
  // taken as written, never rewritten by the other binding.
  ExprFactory F;
  ExprRef X = F.var("x", Sort::Int), Y = F.var("y", Sort::Int);
  ExprRef YPlusOne = F.add(Y, F.intConst(1));
  EXPECT_EQ(F.substitute(F.add(X, Y), {{X, YPlusOne}, {Y, X}}),
            F.add(YPlusOne, X));
  // Nor when a value is the very variable it replaces, inside a
  // connective that gets rebuilt.
  ExprRef B = F.var("b", Sort::Bool), C = F.var("c", Sort::Bool);
  EXPECT_EQ(F.substitute(F.conj({B, F.lnot(C)}), {{B, C}, {C, B}}),
            F.conj({C, F.lnot(B)}));
}

TEST(FactoryTest, ConcurrentInterningGivesOneIdentityPerStructure) {
  // The parallel symbolic driver path shares one factory across workers:
  // racing threads interning the same structures must converge on the same
  // node pointers (pointer equality stays structural equality).
  ExprFactory F;
  constexpr int NumThreads = 8, NumExprs = 200;
  std::vector<std::vector<ExprRef>> PerThread(NumThreads);
  {
    std::vector<std::thread> Threads;
    for (int T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&F, &PerThread, T] {
        std::vector<ExprRef> &Out = PerThread[T];
        for (int I = 0; I < NumExprs; ++I) {
          ExprRef V = F.var("x" + std::to_string(I % 40), Sort::Int);
          ExprRef E = F.le(F.add(V, F.intConst(I % 7)), F.intConst(I % 11));
          Out.push_back(F.disj({E, F.lnot(E)}));
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (int T = 1; T < NumThreads; ++T)
    for (int I = 0; I < NumExprs; ++I)
      ASSERT_EQ(PerThread[0][I], PerThread[T][I]) << "thread " << T
                                                  << " expr " << I;
  // And the node count reflects one allocation per distinct structure:
  // re-interning from a single thread must not add anything.
  size_t Nodes = F.numNodes();
  for (int I = 0; I < NumExprs; ++I) {
    ExprRef V = F.var("x" + std::to_string(I % 40), Sort::Int);
    ExprRef E = F.le(F.add(V, F.intConst(I % 7)), F.intConst(I % 11));
    F.disj({E, F.lnot(E)});
  }
  EXPECT_EQ(F.numNodes(), Nodes);

  // Racing inserts while the tables grow: every thread interns the same
  // fresh structures, each starting at a different offset, so identical
  // nodes are created concurrently while each shard's table is replaced
  // several times (3 * NumFresh new nodes over 16 shards that start at 64
  // slots). Lock-free lookups may probe a replaced table; they must still
  // converge on one node per structure.
  constexpr int NumFresh = 6000;
  std::vector<std::vector<ExprRef>> Fresh(
      NumThreads, std::vector<ExprRef>(NumFresh, nullptr));
  std::atomic<int> Ready{0};
  {
    std::vector<std::thread> Threads;
    for (int T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&F, &Fresh, &Ready, T] {
        Ready.fetch_add(1);
        while (Ready.load() != NumThreads)
          std::this_thread::yield();
        for (int K = 0; K < NumFresh; ++K) {
          int I = (K + T * NumFresh / NumThreads) % NumFresh;
          ExprRef V = F.var("fresh" + std::to_string(I), Sort::Int);
          Fresh[T][I] = F.lt(V, F.intConst(1000 + I));
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (int T = 1; T < NumThreads; ++T)
    for (int I = 0; I < NumFresh; ++I)
      ASSERT_EQ(Fresh[0][I], Fresh[T][I]) << "thread " << T << " fresh "
                                          << I;
  // One variable, one constant and one atom per index, nothing twice.
  EXPECT_EQ(F.numNodes(), Nodes + 3 * NumFresh);
}

TEST(FactoryTest, SubstituteIsLinearOnSharedDags) {
  // A deep, fully shared DAG: x_{k+1} = x_k + x_k. Without memoization the
  // rewrite visits 2^40 nodes; with it the call returns instantly.
  ExprFactory F;
  ExprRef X = F.var("x", Sort::Int);
  ExprRef Cur = X;
  for (int I = 0; I < 40; ++I)
    Cur = F.add(Cur, Cur);
  ExprRef Sub = F.substitute(Cur, {{X, F.var("y", Sort::Int)}});
  ExprRef Expected = F.var("y", Sort::Int);
  for (int I = 0; I < 40; ++I)
    Expected = F.add(Expected, Expected);
  EXPECT_EQ(Sub, Expected);
}

// --- Evaluator ----------------------------------------------------------------

TEST(EvaluatorTest, MembershipAndConnectives) {
  ExprFactory F;
  Vocab D(F);
  AbstractState S = AbstractState::makeSet();
  S.setInsert(Value::obj(1));
  Env E;
  E.bindState("s1", &S);
  E.bind("v1", Value::obj(1));
  E.bind("v2", Value::obj(2));

  EXPECT_TRUE(evaluateBool(D.in(D.V1, D.S1), E));
  EXPECT_FALSE(evaluateBool(D.in(D.V2, D.S1), E));
  EXPECT_TRUE(
      evaluateBool(D.disj({D.in(D.V2, D.S1), D.in(D.V1, D.S1)}), E));
  EXPECT_TRUE(evaluateBool(D.ne(D.V1, D.V2), E));
}

TEST(EvaluatorTest, ShortCircuitGuardsOutOfRangeReads) {
  ExprFactory F;
  Vocab D(F);
  AbstractState S = AbstractState::makeSeq();
  S.seqInsert(0, Value::obj(1));
  Env E;
  E.bindState("s1", &S);
  E.bind("i1", Value::integer(0));
  E.bind("v1", Value::obj(1));

  // i1 > 0 is false, so the (otherwise out-of-range) s1[i1 - 1] read is
  // never evaluated; and even unguarded, it yields undef, falsifying the
  // equality rather than aborting.
  ExprRef Guarded = D.conj(
      {D.gt(D.I1, D.c(0)), D.eq(D.at(D.S1, D.sub(D.I1, D.c(1))), D.V1)});
  EXPECT_FALSE(evaluateBool(Guarded, E));
  ExprRef Unguarded = D.eq(D.at(D.S1, D.sub(D.I1, D.c(1))), D.V1);
  EXPECT_FALSE(evaluateBool(Unguarded, E));
}

TEST(EvaluatorTest, BoundedQuantifiers) {
  ExprFactory F;
  Vocab D(F);
  AbstractState S = AbstractState::makeSeq();
  for (int I = 1; I <= 3; ++I)
    S.seqInsert(S.seqLen(), Value::obj(I));
  Env E;
  E.bindState("s1", &S);
  E.bind("v1", Value::obj(2));

  ExprRef J = F.var("j", Sort::Int);
  ExprRef Exists = F.existsInt("j", D.c(0), D.sub(D.len(D.S1), D.c(1)),
                               D.eq(D.at(D.S1, J), D.V1));
  EXPECT_TRUE(evaluateBool(Exists, E));
  ExprRef All = F.forallInt("j", D.c(0), D.sub(D.len(D.S1), D.c(1)),
                            D.eq(D.at(D.S1, J), D.V1));
  EXPECT_FALSE(evaluateBool(All, E));
  // Empty range: forall is vacuously true, exists false.
  ExprRef Empty = F.forallInt("j", D.c(3), D.c(2), F.falseExpr());
  EXPECT_TRUE(evaluateBool(Empty, E));
}

TEST(EvaluatorTest, MapAndCounterQueries) {
  ExprFactory F;
  Vocab D(F);
  AbstractState M = AbstractState::makeMap();
  M.mapPut(Value::obj(1), Value::obj(9));
  Env E;
  E.bindState("s1", &M);
  E.bind("k1", Value::obj(1));
  E.bind("k2", Value::obj(2));
  E.bind("v1", Value::obj(9));

  EXPECT_TRUE(evaluateBool(D.maps(D.S1, D.K1, D.V1), E));
  EXPECT_TRUE(evaluateBool(D.noKey(D.S1, D.K2), E));
  EXPECT_TRUE(evaluateBool(D.eq(F.mapGet(D.S1, D.K2), F.nullConst()), E));

  AbstractState C = AbstractState::makeCounter(5);
  Env E2;
  E2.bindState("s1", &C);
  EXPECT_TRUE(evaluateBool(F.eq(F.counterValue(D.S1), F.intConst(5)), E2));
}

// --- Printer -------------------------------------------------------------------

TEST(PrinterTest, PaperStyleSetRow) {
  ExprFactory F;
  Vocab D(F);
  // Table 5.2 row: v1 ~= v2 | v1 in s1, concretely
  // v1 != v2 || s1.contains(v1).
  ExprRef Phi = D.disj({D.ne(D.V1, D.V2), D.in(D.V1, D.S1)});
  EXPECT_EQ(printAbstract(Phi), "v1 ~= v2 | v1 in s1");
  EXPECT_EQ(printConcrete(Phi), "v1 != v2 || s1.contains(v1)");
}

TEST(PrinterTest, PaperStyleMapRow) {
  ExprFactory F;
  Vocab D(F);
  // Table 5.4 row: k1 ~= k2 | (k1, v2) in s1, concretely
  // k1 != k2 || s1.get(k1) == v2.
  ExprRef Phi = D.disj({D.ne(D.K1, D.K2), D.maps(D.S1, D.K1, D.V2)});
  EXPECT_EQ(printAbstract(Phi), "k1 ~= k2 | (k1, v2) in s1");
  EXPECT_EQ(printConcrete(Phi), "k1 != k2 || s1.get(k1) == v2");
  // The unmapped-key pair forms.
  EXPECT_EQ(printAbstract(D.eq(F.mapGet(D.S1, D.K1), F.nullConst())),
            "(k1, _) ~in s1");
  EXPECT_EQ(printAbstract(D.ne(F.mapGet(D.S1, D.K1), F.nullConst())),
            "(k1, _) in s1");
}

TEST(PrinterTest, PaperStyleArrayListRow) {
  ExprFactory F;
  Vocab D(F);
  ExprRef Phi =
      D.conj({D.lt(D.I1, D.I2),
              D.eq(D.at(D.S2, D.I2), D.at(D.S2, D.add(D.I2, D.c(1))))});
  EXPECT_EQ(printAbstract(Phi), "i1 < i2 & s2[i2] = s2[i2 + 1]");
  EXPECT_EQ(printConcrete(Phi), "i1 < i2 && s2.get(i2) == s2.get(i2 + 1)");
  EXPECT_EQ(printAbstract(D.lt(D.idx(D.S2, D.V2), D.c(0))),
            "idx(s2, v2) < 0");
  EXPECT_EQ(printConcrete(D.lt(D.idx(D.S2, D.V2), D.c(0))),
            "s2.indexOf(v2) < 0");
}

TEST(PrinterTest, NegationSpecialCases) {
  ExprFactory F;
  Vocab D(F);
  EXPECT_EQ(printAbstract(D.notIn(D.V1, D.S1)), "v1 ~in s1");
  EXPECT_EQ(printConcrete(D.notIn(D.V1, D.S1)), "!s1.contains(v1)");
  EXPECT_EQ(printAbstract(D.ge(D.I1, D.c(0))), "0 <= i1");
  EXPECT_EQ(printAbstract(F.lnot(D.lt(D.I1, D.I2))), "i1 >= i2");
  EXPECT_EQ(printAbstract(F.lnot(D.le(D.I1, D.I2))), "i1 > i2");
}

TEST(PrinterTest, PrecedenceParenthesization) {
  ExprFactory F;
  ExprRef A = F.var("a", Sort::Bool), B = F.var("b", Sort::Bool),
          C = F.var("c", Sort::Bool);
  EXPECT_EQ(printAbstract(F.conj({F.disj({A, B}), C})), "(a | b) & c");
  EXPECT_EQ(printAbstract(F.disj({F.conj({A, B}), C})), "a & b | c");
}

// --- Simplifier -------------------------------------------------------------------

TEST(SimplifierTest, DuplicateAndComplement) {
  ExprFactory F;
  ExprRef A = F.var("a", Sort::Bool), B = F.var("b", Sort::Bool);
  EXPECT_EQ(simplify(F, F.disj({A, B, A})), F.disj({A, B}));
  EXPECT_TRUE(simplify(F, F.conj({A, F.lnot(A)}))->isFalse());
  EXPECT_TRUE(simplify(F, F.disj({A, F.lnot(A)}))->isTrue());
}

TEST(SimplifierTest, CollectDisjunctsAndFreeVars) {
  ExprFactory F;
  Vocab D(F);
  ExprRef Phi = D.disj({D.ne(D.V1, D.V2), D.in(D.V1, D.S1)});
  EXPECT_EQ(collectDisjuncts(Phi).size(), 2u);
  EXPECT_EQ(collectDisjuncts(D.tru()).size(), 1u);

  std::set<std::string> Vars, States;
  collectFreeVars(Phi, Vars);
  collectStateNames(Phi, States);
  EXPECT_EQ(Vars, (std::set<std::string>{"v1", "v2"}));
  EXPECT_EQ(States, (std::set<std::string>{"s1"}));

  // Quantified variables are not free.
  ExprRef J = F.var("j", Sort::Int);
  ExprRef Q = F.forallInt("j", D.c(0), D.I1, F.eq(J, D.I1));
  std::set<std::string> QVars;
  collectFreeVars(Q, QVars);
  EXPECT_EQ(QVars, (std::set<std::string>{"i1"}));
}
