//===- tests/ProofTest.cpp - proof trace + checker + certification tests ---===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the certification tentpole in three layers:
///
///  * ProofTrace text-form tests (round trip, truncation, out-of-range
///    integers) and ProofChecker unit tests over hand-built hinted traces;
///  * rejection tests: corrupted, truncated, and permuted proofs, chains
///    naming deleted or unlogged clauses or ending without a conflict, a
///    core missing a literal its chain needs — and a "mutated solver" that
///    skips one deletion record — must all fail certification, pinning
///    down that the checker is not a rubber stamp;
///  * solver-integrated certification: warm SmtSessions and the symbolic
///    engines certify real catalog slices through reduceDb, scope
///    retirement, and variable recycling, and the checked verdicts agree
///    with the uncertified run.
///
//===----------------------------------------------------------------------===//

#include "commute/Condition.h"
#include "commute/SymbolicEngine.h"
#include "inverse/InverseSpec.h"
#include "inverse/SymbolicInverseEngine.h"
#include "logic/ExprFactory.h"
#include "proof/ProofChecker.h"
#include "proof/ProofTrace.h"
#include "smt/SmtSolver.h"
#include "spec/Family.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace semcomm;
using namespace semcomm::proof;

//===----------------------------------------------------------------------===//
// ProofTrace serialization
//===----------------------------------------------------------------------===//

namespace {

/// Clauses 1 = {1, 2} and 2 = {-1, 2}; clause 3 = {2} by resolution.
ProofTrace sampleTrace() {
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.addDerive({2}, {1, 2}); // Assume -2: clause 1 forces 1, clause 2 fails.
  T.addQuery(2, {-2}, {3});
  T.addDelete(1);
  T.addRecycle(3);
  return T;
}

/// Copies \p T step by step through \p Edit, which may rewrite a step in
/// place (pointing its spans at buffers that outlive the call) or return
/// false to drop it.
template <typename EditFn> ProofTrace edited(const ProofTrace &T, EditFn Edit) {
  ProofTrace Out;
  for (StepView S : T)
    if (Edit(S))
      Out.append(S);
  return Out;
}

std::string parseError(const std::string &Text) {
  std::string Error;
  EXPECT_FALSE(ProofTrace::parse(Text, &Error).has_value()) << Text;
  return Error;
}

} // namespace

TEST(ProofTraceTest, SerializeParseRoundtrip) {
  ProofTrace T = sampleTrace();
  std::string Text = T.serialize();
  EXPECT_EQ(Text, "p semcommute-proof 6\n"
                  "i 1 2 0\n"
                  "i -1 2 0\n"
                  "l 2 0 1 2 0\n"
                  "q 2 -2 0 3 0\n"
                  "d 1 0\n"
                  "r 3 0\n");
  std::string Error;
  std::optional<ProofTrace> P = ProofTrace::parse(Text, &Error);
  ASSERT_TRUE(P.has_value()) << Error;
  ASSERT_EQ(P->size(), T.size());
  EXPECT_EQ(P->numQueries(), 1u);
  EXPECT_EQ(P->numClauses(), 3);
  ProofTrace::Iterator A = T.begin(), B = P->begin();
  for (size_t I = 0; I != T.size(); ++I, ++A, ++B) {
    StepView X = *A, Y = *B;
    EXPECT_EQ(X.Kind, Y.Kind) << "step " << I;
    EXPECT_EQ(X.Lits.vec(), Y.Lits.vec()) << "step " << I;
    EXPECT_EQ(X.Hints.vec(), Y.Hints.vec()) << "step " << I;
    EXPECT_EQ(X.Id, Y.Id) << "step " << I;
    EXPECT_EQ(X.Var, Y.Var) << "step " << I;
    EXPECT_EQ(X.LiveClauses, Y.LiveClauses) << "step " << I;
  }
  EXPECT_EQ(P->serialize(), Text);
}

TEST(ProofTraceTest, TruncatedTextFailsToParse) {
  std::string Text = sampleTrace().serialize();
  // Drop the last line. The header's step count makes this a parse error
  // instead of a silently shorter proof.
  size_t LastNl = Text.find_last_of('\n', Text.size() - 2);
  ASSERT_NE(LastNl, std::string::npos);
  EXPECT_NE(parseError(Text.substr(0, LastNl + 1)).find("header declares"),
            std::string::npos);
  // Cut mid-line, garbage prefix and empty text fail too.
  EXPECT_NE(parseError(Text.substr(0, Text.size() - 2)).find("line 7"),
            std::string::npos);
  EXPECT_FALSE(ProofTrace::parse("").has_value());
  EXPECT_NE(parseError("c not a proof\n" + Text).find("line 1"),
            std::string::npos);
  // A chain without its terminator, and a step kind nobody writes.
  EXPECT_NE(parseError("p semcommute-proof 1\nl 1 0 2\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parseError("p semcommute-proof 1\nx 1 0\n").find("step kind"),
            std::string::npos);
}

TEST(ProofTraceTest, OutOfRangeIntegersAreRejected) {
  // Each value is outside its field's range; none may be narrowed into a
  // plausible one (a literal 1 or -1, variable 0, a huge live count).
  struct Case {
    const char *Line;
    const char *Field;
  };
  for (const Case &C : {Case{"i 4294967297 2 0", "field 1 (literal)"},
                        Case{"i 99999999999999999999 2 0", "field 1 (literal)"},
                        Case{"r 4294967296 0", "field 1 (variable)"},
                        Case{"q 99999999999999999999999 1 0 1 0",
                             "field 1 (count)"},
                        Case{"l 1 0 4294967296 0", "field 3 (clause ID)"},
                        Case{"d 0 0", "field 1 (clause ID)"}}) {
    std::string Error =
        parseError(std::string("p semcommute-proof 1\n") + C.Line + "\n");
    EXPECT_NE(Error.find("line 2"), std::string::npos) << C.Line << ": "
                                                        << Error;
    EXPECT_NE(Error.find(C.Field), std::string::npos) << C.Line << ": "
                                                       << Error;
  }
}

TEST(ProofTraceTest, VariablesBeyondTheTextAreRejected) {
  // A 34-byte trace naming variable 20M would have the checker size its
  // per-variable state to 20M entries; a variable index may not exceed
  // the text's literal and variable fields.
  const std::string Huge = "p semcommute-proof 1\ni 20000000 0\n";
  std::string Error = parseError(Huge);
  EXPECT_NE(Error.find("line 2: field 1 (literal): variable 20000000 "
                       "exceeds the trace's 1 literal and variable fields"),
            std::string::npos)
      << Error;
  Error = parseError("p semcommute-proof 3\ni 1 2 0\nd 1 0\nr 4 0\n");
  EXPECT_NE(Error.find("line 4: field 1 (variable): variable 4 exceeds"),
            std::string::npos)
      << Error;
  // At the bound the text parses.
  EXPECT_TRUE(
      ProofTrace::parse("p semcommute-proof 2\ni 1 -3 0\nr 3 0\n").has_value());
}

TEST(ProofTraceTest, CertifiedCatalogTraceRoundTrips) {
  // A real trace — prefix encoding, compaction, retirement and variable
  // recycling over a catalog family — stays within the variable bound and
  // survives its text form unchanged.
  ExprFactory F;
  Catalog C(F);
  SymbolicEngine Eng(F);
  std::vector<const Family *> Fams = {&setFamily()};
  CatalogPlan Plan = Eng.planCatalog(C, Fams);
  CatalogSession Sess(F, Plan, /*Budget=*/200000, /*Certify=*/true,
                      /*CompactBridges=*/true, /*CompactMinDead=*/8);
  for (const ConditionEntry &E : C.entries(setFamily())) {
    PairPlan PP = Eng.planPair(E);
    for (const MethodPlan &MP : PP.Methods) {
      SymbolicResult R;
      EXPECT_TRUE(Sess.discharge(0, PP.Key, MP, R)) << MP.Name;
    }
    Sess.retirePair(0, PP.Key);
  }
  const ProofTrace *T = Sess.session().proofTrace();
  ASSERT_NE(T, nullptr);
  EXPECT_GT(Sess.stats().RecycledVars, 0u);
  std::string Text = T->serialize();
  std::string Error;
  std::optional<ProofTrace> Back = ProofTrace::parse(Text, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->serialize(), Text);
  CheckResult R = ProofChecker().check(*Back);
  EXPECT_TRUE(R.Ok) << R.Error << R.QueryError;
  EXPECT_EQ(R.QueriesPassed, T->numQueries());
}

//===----------------------------------------------------------------------===//
// ProofChecker acceptance
//===----------------------------------------------------------------------===//

TEST(ProofCheckerTest, AcceptsResolutionDerivation) {
  ProofChecker C;
  CheckResult R = C.check(sampleTrace());
  EXPECT_TRUE(R.Ok) << R.Error << R.QueryError;
  EXPECT_EQ(R.StepsChecked, 6u);
  EXPECT_EQ(R.QueriesChecked, 1u);
  EXPECT_EQ(R.QueriesPassed, 1u);
  EXPECT_EQ(R.QueryPassed, std::vector<bool>{true});
  EXPECT_EQ(R.PeakClauses, 2u); // The derived unit is not a stored clause.
}

TEST(ProofCheckerTest, PersistentRootStateReachesLaterQueries) {
  // The unit consequences of early inputs reach a later query through its
  // chain: the core alone does not conflict without 1 -> 2 -> 3.
  ProofTrace T;
  T.addInput({1});
  T.addInput({-1, 2});
  T.addInput({-2, 3});
  T.addQuery(2, {-3}, {1, 2, 3});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_TRUE(R.Ok) << R.Error << R.QueryError;
  EXPECT_EQ(R.QueriesPassed, 1u);
}

TEST(ProofCheckerTest, DeletionShrinksStateBeforeLaterSteps) {
  // After deleting {-1, 2} the derived unit {2} may no longer name it: a
  // hint naming a deleted clause fails the trace.
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.addDelete(2);
  T.addDerive({2}, {1, 2});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deleted clause 2"), std::string::npos) << R.Error;
}

TEST(ProofCheckerTest, PruningDeletedClausesKeepsLiveOccurrences) {
  // Deleting clauses 1 and 2 leaves the clauses logged after them live
  // and reachable: the first query conflicts on {1, 4}; the second needs
  // {1, 5}, which forces 5, and 5 forces both 6 and -6. A chain whose
  // first clause is already satisfied must still fail.
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({1, 3});
  T.addInput({1, 4});
  T.addInput({1, 5});
  T.addInput({-5, 6});
  T.addInput({-5, -6});
  T.addDelete(1);
  T.addDelete(2);
  T.addQuery(4, {-1, -4}, {3});
  T.addQuery(4, {-1}, {4, 5, 6});
  T.addQuery(4, {-5}, {5, 6});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_EQ(R.QueryPassed, (std::vector<bool>{true, true, false}));
  EXPECT_NE(R.QueryError.find("query 2: hint clause 5 is satisfied"),
            std::string::npos)
      << R.QueryError;
}

//===----------------------------------------------------------------------===//
// ProofChecker rejection
//===----------------------------------------------------------------------===//

TEST(ProofCheckerTest, RejectsNonRupDerivation) {
  // A "learned" clause nothing entails (a corrupted literal): its chain's
  // only clause has two open literals.
  ProofTrace T;
  T.addInput({1, 2});
  T.addDerive({3}, {1});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not unit"), std::string::npos) << R.Error;
}

TEST(ProofCheckerTest, RejectsDeletionOfUnknownClause) {
  for (int Twice : {0, 1}) {
    ProofTrace T;
    T.addInput({1, 2});
    T.addDelete(Twice ? 1 : 2); // ID 2 was never logged.
    if (Twice)
      T.addDelete(1);
    ProofChecker C;
    CheckResult R = C.check(T);
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("does not hold"), std::string::npos) << R.Error;
  }
}

TEST(ProofCheckerTest, RejectsRecycleOfLiveVariable) {
  ProofTrace T;
  T.addInput({1, 2});
  T.addRecycle(1); // DIMACS variable 1, still in a live clause.
  EXPECT_FALSE(ProofChecker().check(T).Ok);

  ProofTrace Unit;
  Unit.addInput({3});
  Unit.addRecycle(3); // Still pinned by a unit.
  EXPECT_FALSE(ProofChecker().check(Unit).Ok);

  // Once its unit is deleted, the variable is dead and may be recycled.
  ProofTrace Dead;
  Dead.addInput({3});
  Dead.addDelete(1);
  Dead.addRecycle(3);
  CheckResult R = ProofChecker().check(Dead);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(ProofCheckerTest, RejectsQueryWithWrongLiveCount) {
  ProofTrace T = sampleTrace();
  ProofTrace Lying = edited(T, [](StepView &S) {
    if (S.Kind == StepKind::Query)
      S.LiveClauses = 7; // Solver claims 7 live clauses; checker holds 2.
    return true;
  });
  ProofChecker C;
  CheckResult R = C.check(Lying);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("live-clause mismatch"), std::string::npos);
}

TEST(ProofCheckerTest, RejectsHintNamingUnloggedClause) {
  // A chain may only name clauses logged before its step: neither a
  // future ID nor the step's own.
  for (int Hint : {4, 3, 0}) {
    ProofTrace T;
    T.addInput({1, 2});
    T.addInput({-1, 2});
    T.addDerive({2}, {1, Hint});
    ProofChecker C;
    CheckResult R = C.check(T);
    EXPECT_FALSE(R.Ok) << Hint;
    EXPECT_NE(R.Error.find("not yet logged"), std::string::npos) << R.Error;
  }
}

TEST(ProofCheckerTest, RejectsChainWithoutConflict) {
  // Every hint is unit, but the walk runs out before any clause conflicts.
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2, 3});
  T.addDerive({2}, {1, 2});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("chain ends without a conflict"), std::string::npos)
      << R.Error;
}

TEST(ProofCheckerTest, FailedQueryIsRecordedPerQuery) {
  // A core that does not conflict is a per-query failure, not a fatal
  // trace error: later queries still check, and the summary keys each
  // outcome by its query number.
  ProofTrace T;
  T.addInput({1, 2});
  T.addInput({-1, 2});
  T.addQuery(2, {3}, {1}); // Nothing constrains 3.
  T.addDerive({2}, {1, 2});
  T.addQuery(2, {-2}, {3});
  ProofChecker C;
  CheckResult R = C.check(T);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Error.empty()) << R.Error; // No fatal error.
  EXPECT_EQ(R.QueriesChecked, 2u);
  EXPECT_EQ(R.QueriesPassed, 1u);
  EXPECT_EQ(R.QueryPassed, (std::vector<bool>{false, true}));
  EXPECT_NE(R.QueryError.find("query 0"), std::string::npos) << R.QueryError;

  CertifySummary S;
  S.fold(R);
  EXPECT_FALSE(S.allPassed({0}));
  EXPECT_TRUE(S.allPassed({1}));
  EXPECT_FALSE(S.allPassed({1, 2})); // Query 2 was never checked.
  // A second fold appends: its query 0 becomes number 2.
  S.fold(R);
  EXPECT_EQ(S.QueryPassed.size(), 4u);
  EXPECT_FALSE(S.allPassed({2}));
  EXPECT_TRUE(S.allPassed({1, 3}));
}

//===----------------------------------------------------------------------===//
// Solver-integrated certification
//===----------------------------------------------------------------------===//

namespace {

/// A certifying warm session over two Unsat checks and one Sat check,
/// returning the finished summary; \p Numbers receives the Unsat checks'
/// query numbers.
const CertifySummary &runCertifiedSession(SmtSession &S, ExprFactory &F,
                                          std::vector<uint32_t> &Numbers) {
  S.enableCertification();
  ExprRef A = F.var("a", Sort::Bool);
  ExprRef B = F.var("b", Sort::Bool);
  ExprRef Cv = F.var("c", Sort::Bool);
  S.assertBase(F.implies(A, B));
  S.assertBase(F.implies(B, Cv));
  EXPECT_EQ(S.check({A, F.lnot(Cv)}), SatResult::Unsat);
  Numbers.push_back(S.lastProofQuery());
  EXPECT_EQ(S.check({A}), SatResult::Sat); // Sat checks emit no Query.
  EXPECT_EQ(S.check({F.lnot(A), A}), SatResult::Unsat);
  Numbers.push_back(S.lastProofQuery());
  return S.finishCertification();
}

/// A certifying session with one retired scope (so the trace holds Delete
/// steps) and one query before and one after the retirement.
void runRetiringSession(SmtSession &S, ExprFactory &F) {
  S.enableCertification();
  ExprRef X = F.var("x", Sort::Bool);
  ExprRef Y = F.var("y", Sort::Bool);
  S.assertBase(F.implies(X, Y));
  ExprRef Sel = F.var("__sel_scope1", Sort::Bool);
  SmtSession::ScopeId Scope =
      S.openScope(Sel, SmtSession::RootScope, /*OwnLayer=*/true);
  S.assertInScope(Scope, F.lnot(Y));
  EXPECT_EQ(S.check({Sel, X}, /*MaxConflicts=*/-1, {Sel}), SatResult::Unsat);
  S.retireScope(Scope); // Emits Delete (and possibly Recycle) steps.
  EXPECT_EQ(S.check({X, F.lnot(Y)}), SatResult::Unsat);
}

} // namespace

TEST(CertifiedSessionTest, WarmSessionQueriesAllPass) {
  ExprFactory F;
  SmtSession S(F);
  std::vector<uint32_t> Numbers;
  const CertifySummary &Sum = runCertifiedSession(S, F, Numbers);
  EXPECT_TRUE(Sum.Checked);
  EXPECT_TRUE(Sum.Ok) << Sum.Error;
  EXPECT_EQ(Sum.Queries, 2u); // Only the Unsat verdicts certify.
  EXPECT_EQ(Sum.QueriesPassed, 2u);
  EXPECT_EQ(Numbers, (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(Sum.allPassed(Numbers));
  EXPECT_FALSE(Sum.allPassed({2})); // The Sat check never logged a query.
  // Idempotent: a second finish returns the same summary.
  EXPECT_EQ(S.finishCertification().Queries, 2u);

  // The text form carries every hint: the parsed trace checks the same.
  std::string Error;
  std::optional<ProofTrace> Back =
      ProofTrace::parse(S.proofTrace()->serialize(), &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  CheckResult R = ProofChecker().check(*Back);
  EXPECT_TRUE(R.Ok) << R.Error << R.QueryError;
  EXPECT_EQ(R.StepsChecked, Sum.Steps);
}

TEST(CertifiedSessionTest, RootConflictLogsTheEmptyClause) {
  // All four clauses over {a, b}: the search learns the unit a, whose
  // propagation conflicts at the root. The empty clause is then derived
  // from the units of a and of the root-implied b, and every later Query
  // (empty core) names it.
  ProofTrace T;
  SatSolver S;
  S.setProofTrace(&T);
  int A = S.addVar(), B = S.addVar();
  for (bool PA : {true, false})
    for (bool PB : {true, false})
      S.addClause({Lit(A, PA), Lit(B, PB)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
  EXPECT_TRUE(S.unsatCore().empty());
  EXPECT_EQ(S.logQueryProof(S.unsatCore()), 0u);
  EXPECT_EQ(S.solve({Lit(A, true)}), SatResult::Unsat); // Already Unsat.
  EXPECT_EQ(S.logQueryProof(S.unsatCore()), 1u);
  size_t EmptyDerives = 0;
  for (StepView St : T)
    EmptyDerives += St.Kind == StepKind::Derive && St.Lits.size() == 0;
  EXPECT_EQ(EmptyDerives, 1u);
  CheckResult R = ProofChecker().check(T);
  EXPECT_TRUE(R.Ok) << R.Error << R.QueryError;
  EXPECT_EQ(R.QueryPassed, (std::vector<bool>{true, true}));

  // A unit input that propagates into a conflict logs it too.
  ProofTrace T2;
  SatSolver S2;
  S2.setProofTrace(&T2);
  int X = S2.addVar(), Y = S2.addVar();
  S2.addClause({Lit(X, false), Lit(Y, true)});
  S2.addClause({Lit(X, false), Lit(Y, false)});
  S2.addClause({Lit(X, true)});
  EXPECT_EQ(S2.solve(), SatResult::Unsat);
  S2.logQueryProof(S2.unsatCore());
  CheckResult R2 = ProofChecker().check(T2);
  EXPECT_TRUE(R2.Ok) << R2.Error << R2.QueryError;
}

TEST(CertifiedSessionTest, ScopeRetirementKeepsTraceCheckable) {
  // Assert-and-retire under selector scopes: the retirement's deletion
  // sweep (and the root units derived before it) must leave a trace the
  // independent checker accepts, and queries before AND after the
  // retirement must certify.
  ExprFactory F;
  SmtSession S(F);
  runRetiringSession(S, F);
  const CertifySummary &Sum = S.finishCertification();
  EXPECT_TRUE(Sum.Checked);
  EXPECT_TRUE(Sum.Ok) << Sum.Error;
  EXPECT_TRUE(Sum.allPassed({0, 1}));
}

TEST(CertifiedSessionTest, MutatedTraceSkippingOneDeletionFails) {
  // The "lying solver" case: drop a single Delete step from an otherwise
  // honest trace. The checker must notice — through the recycle liveness
  // check or the Query live-count cross-check.
  ExprFactory F;
  SmtSession S(F);
  runRetiringSession(S, F);
  ASSERT_NE(S.proofTrace(), nullptr);
  CheckResult Honest = ProofChecker().check(*S.proofTrace());
  EXPECT_TRUE(Honest.Ok) << Honest.Error << Honest.QueryError;

  bool Dropped = false;
  ProofTrace Mutated = edited(*S.proofTrace(), [&](StepView &St) {
    if (St.Kind != StepKind::Delete || Dropped)
      return true;
    Dropped = true;
    return false;
  });
  ASSERT_TRUE(Dropped) << "retirement emitted no deletions";
  CheckResult R = ProofChecker().check(Mutated);
  EXPECT_FALSE(R.Ok) << "checker accepted a trace with a skipped deletion";
}

TEST(CertifiedSessionTest, PermutedTraceFails) {
  // Move the first Delete step in front of the whole trace: it now deletes
  // a clause the checker does not hold yet, so the walk must reject the
  // reordering. A retired scope guarantees Delete steps exist.
  ExprFactory F;
  SmtSession S(F);
  runRetiringSession(S, F);
  ASSERT_NE(S.proofTrace(), nullptr);
  std::optional<StepView> Moved;
  for (StepView St : *S.proofTrace())
    if (St.Kind == StepKind::Delete && !Moved)
      Moved = St;
  ASSERT_TRUE(Moved.has_value()) << "retirement emitted no deletions";
  ProofTrace Mutated;
  Mutated.append(*Moved);
  bool Skipped = false;
  for (StepView St : *S.proofTrace()) {
    if (St.Kind == StepKind::Delete && !Skipped) {
      Skipped = true;
      continue;
    }
    Mutated.append(St);
  }
  CheckResult R = ProofChecker().check(Mutated);
  EXPECT_FALSE(R.Ok) << "checker accepted a permuted trace";
  EXPECT_NE(R.Error.find("step 0 (delete)"), std::string::npos) << R.Error;
}

TEST(CertifiedSessionTest, CorruptedCoreFailsItsQueryOnly) {
  // Corrupt one Query's core (replace it with a fresh, unconstrained
  // variable): that query must fail while the rest of the trace checks.
  ExprFactory F;
  SmtSession S(F);
  runRetiringSession(S, F);
  int MaxVar = 0;
  for (StepView St : *S.proofTrace())
    for (int L : St.Lits)
      MaxVar = std::max(MaxVar, std::abs(L));
  std::vector<int> Fresh = {MaxVar + 1};
  bool Corrupted = false;
  ProofTrace Mutated = edited(*S.proofTrace(), [&](StepView &St) {
    if (St.Kind == StepKind::Query && !Corrupted) {
      St.Lits = Fresh;
      Corrupted = true;
    }
    return true;
  });
  ASSERT_TRUE(Corrupted);
  CheckResult R = ProofChecker().check(Mutated);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Error.empty()) << R.Error; // Query failure, not fatal.
  CertifySummary Sum;
  Sum.fold(R);
  EXPECT_FALSE(Sum.allPassed({0}));
  EXPECT_TRUE(Sum.allPassed({1}));
}

TEST(CertifiedSessionTest, CoreMissingAChainLiteralFailsItsQueryOnly) {
  // The chain stays sound, but the core loses a literal the chain needs:
  // the walk then runs out before its conflict. Only that query fails.
  ExprFactory F;
  SmtSession S(F);
  runRetiringSession(S, F);
  bool Trimmed = false;
  ProofTrace Mutated = edited(*S.proofTrace(), [&](StepView &St) {
    if (St.Kind == StepKind::Query && !Trimmed) {
      EXPECT_GE(St.Lits.size(), 2u);
      St.Lits = IntSpan(St.Lits.begin(), St.Lits.size() - 1);
      Trimmed = true;
    }
    return true;
  });
  ASSERT_TRUE(Trimmed);
  CheckResult R = ProofChecker().check(Mutated);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_EQ(R.QueryPassed, (std::vector<bool>{false, true}));
  EXPECT_FALSE(R.QueryError.empty());
}

//===----------------------------------------------------------------------===//
// Engine-level certification
//===----------------------------------------------------------------------===//

TEST(CertifiedEngineTest, SharedPairCertifiesAnEntry) {
  ExprFactory F;
  Catalog C(F);
  const Family &Set = setFamily();
  const ConditionEntry &E = C.entry(Set, "add", "contains");
  SymbolicEngine Eng(F, /*SeqLenBound=*/3, /*ConflictBudget=*/200000,
                     SolveMode::SharedCatalog);
  Eng.setCertify(true);
  PairOutcome O = Eng.verifyPair(E);
  for (const SymbolicResult &R : O.Methods) {
    EXPECT_TRUE(R.Verified);
    EXPECT_TRUE(R.ProofChecked);
    EXPECT_GT(R.ProofQueries, 0u);
    EXPECT_EQ(R.ProofQueries, R.ProofQueryIds.size());
    EXPECT_GT(R.ProofClauses, 0u);
  }
}

TEST(CertifiedEngineTest, CatalogSessionCertifiesThroughRetireAndRecycle) {
  // Two families through one certifying catalog session: pair subtree
  // retirements, variable recycling and clause-DB reductions land in one
  // trace that must check out. A budget of 5 learned clauses is small
  // enough that these two families at bound 2 trigger reductions.
  ExprFactory F;
  Catalog C(F);
  SymbolicEngine Eng(F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                     SolveMode::SharedCatalog);
  Eng.setCertify(true);
  Eng.setClauseGcBudget(5);
  std::vector<const Family *> Fams = {&accumulatorFamily(), &setFamily()};
  CatalogOutcome O = Eng.verifyCatalog(C, Fams);
  EXPECT_EQ(O.failures(), 0u);
  EXPECT_TRUE(O.Certified);
  EXPECT_GT(O.Stats.RecycledVars, 0u); // Recycle steps were in the trace.
  // Clause-GC Delete steps were in the trace.
  EXPECT_GT(O.Stats.DbReductions, 0u);
  EXPECT_GT(O.Stats.ReclaimedClauses, 0u);
  uint64_t Queries = 0;
  for (const FamilyOutcome &FO : O.Families)
    for (const PairOutcome &PO : FO.Pairs)
      for (const SymbolicResult &R : PO.Methods) {
        EXPECT_TRUE(R.ProofChecked)
            << FO.Family << ": a method's certificate failed";
        EXPECT_EQ(R.ProofQueries, R.ProofQueryIds.size());
        Queries += R.ProofQueries;
      }
  EXPECT_GT(Queries, 0u);
}

TEST(CertifiedEngineTest, CertifyAgreesWithUncertifiedVerdicts) {
  ExprFactory F1;
  Catalog C1(F1);
  SymbolicEngine Plain(F1, 2, 200000, SolveMode::SharedCatalog);
  std::vector<const Family *> Fams1 = {&accumulatorFamily(), &setFamily()};
  CatalogOutcome A = Plain.verifyCatalog(C1, Fams1);

  ExprFactory F2;
  Catalog C2(F2);
  SymbolicEngine Certified(F2, 2, 200000, SolveMode::SharedCatalog);
  Certified.setCertify(true);
  std::vector<const Family *> Fams2 = {&accumulatorFamily(), &setFamily()};
  CatalogOutcome B = Certified.verifyCatalog(C2, Fams2);

  ASSERT_EQ(A.Families.size(), B.Families.size());
  for (size_t FI = 0; FI != A.Families.size(); ++FI) {
    ASSERT_EQ(A.Families[FI].Pairs.size(), B.Families[FI].Pairs.size());
    for (size_t PI = 0; PI != A.Families[FI].Pairs.size(); ++PI) {
      const PairOutcome &PA = A.Families[FI].Pairs[PI];
      const PairOutcome &PB = B.Families[FI].Pairs[PI];
      ASSERT_EQ(PA.Methods.size(), PB.Methods.size());
      for (size_t MI = 0; MI != PA.Methods.size(); ++MI)
        EXPECT_EQ(PA.Methods[MI].Verified, PB.Methods[MI].Verified);
    }
  }
  EXPECT_FALSE(A.Certified);
  EXPECT_TRUE(B.Certified);
}

TEST(CertifiedEngineTest, InversePathCertifies) {
  ExprFactory F;
  for (const InverseSpec &Spec : buildInverseSpecs()) {
    SymbolicResult R = verifyInverseSymbolic(F, Spec, /*SeqLenBound=*/2,
                                             /*ConflictBudget=*/200000,
                                             SolveMode::SharedCatalog,
                                             /*Certify=*/true);
    EXPECT_TRUE(R.Verified) << Spec.OpName;
    EXPECT_TRUE(R.ProofChecked) << Spec.OpName;
    EXPECT_EQ(R.ProofQueries, R.ProofQueryIds.size());
  }
}
