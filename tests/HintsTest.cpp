//===- tests/HintsTest.cpp - Proof-hint script tests ------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "commute/ProofHints.h"
#include "commute/SymbolicEngine.h"
#include "logic/Dsl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace semcomm;

namespace {
struct HintsFixture {
  ExprFactory F;
  Catalog C{F};
  std::vector<HintScript> Scripts = buildArrayListHintScripts(F);
};
HintsFixture &fixture() {
  static HintsFixture Fx;
  return Fx;
}
} // namespace

TEST(HintsTest, Table59Counts) {
  HintSummary S = summarizeHints(fixture().Scripts);
  // Table 5.9: 128 note + 51 assuming + 22 pickWitness = 201 commands
  // across the 57 remaining methods (§5.2.1: 12 + 8 + 20 + 17).
  EXPECT_EQ(S.Methods, 57u);
  EXPECT_EQ(S.MethodsByCategory[1], 12u);
  EXPECT_EQ(S.MethodsByCategory[2], 8u);
  EXPECT_EQ(S.MethodsByCategory[3], 20u);
  EXPECT_EQ(S.MethodsByCategory[4], 17u);
  EXPECT_EQ(S.Notes, 128u);
  EXPECT_EQ(S.Assumings, 51u);
  EXPECT_EQ(S.PickWitnesses, 22u);
  EXPECT_EQ(S.Notes + S.Assumings + S.PickWitnesses, 201u);
}

TEST(HintsTest, EveryScriptTargetsADistinctArrayListMethod) {
  HintsFixture &Fx = fixture();
  std::vector<TestingMethod> Methods =
      generateTestingMethods(Fx.C, arrayListFamily());
  std::set<std::string> Matched;
  for (const HintScript &S : Fx.Scripts) {
    int Hits = 0;
    for (const TestingMethod &M : Methods)
      if (S.matches(M)) {
        ++Hits;
        Matched.insert(M.name());
      }
    EXPECT_EQ(Hits, 1) << S.Op1Name << "," << S.Op2Name;
  }
  EXPECT_EQ(Matched.size(), 57u);
}

// "Integrated reasoning": every command's formula is machine-validated.
class ScriptValidation : public ::testing::TestWithParam<int> {};

TEST_P(ScriptValidation, ScriptIsValid) {
  HintsFixture &Fx = fixture();
  // Chunk the 57 scripts into 8 shards to keep test granularity useful.
  size_t Shard = GetParam();
  for (size_t I = Shard; I < Fx.Scripts.size(); I += 8) {
    const HintScript &S = Fx.Scripts[I];
    HintValidation V = validateScript(S, Fx.C);
    EXPECT_TRUE(V.Ok) << S.Op1Name << "," << S.Op2Name << " "
                      << conditionKindName(S.Kind) << " "
                      << methodRoleName(S.Role) << ": " << V.FailureNote;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ScriptValidation, ::testing::Range(0, 8));

TEST(HintsTest, EveryCommandCarriesADistinctLabel) {
  HintsFixture &Fx = fixture();
  std::set<std::string> Labels;
  size_t Commands = 0;
  for (const HintScript &S : Fx.Scripts)
    for (const HintCommand &C : S.Commands) {
      EXPECT_EQ(C.Label.rfind("hint:", 0), 0u) << C.Comment;
      Labels.insert(C.Label);
      ++Commands;
    }
  EXPECT_EQ(Labels.size(), Commands); // 201 distinct labels.
}

TEST(HintsTest, MinimizedForDropsUnusedLemmasAndKeepsCaseStructure) {
  HintsFixture &Fx = fixture();
  const HintScript &S = Fx.Scripts.front(); // Category 1: has all kinds.
  ASSERT_GE(S.Commands.size(), 3u);

  // Keep exactly one note's label: the minimized script retains that note
  // plus every assuming command, drops the other lemmas, and still
  // machine-validates (dropping commands can never invalidate a script).
  std::string Kept;
  for (const HintCommand &C : S.Commands)
    if (C.Kind == HintCommandKind::Note) {
      Kept = C.Label;
      break;
    }
  ASSERT_FALSE(Kept.empty());
  HintScript Min = minimizedFor(S, {Kept, "sel:unrelated", "phi"});

  size_t Assumings = 0, Notes = 0, Witnesses = 0;
  for (const HintCommand &C : Min.Commands)
    switch (C.Kind) {
    case HintCommandKind::Assuming:
      ++Assumings;
      break;
    case HintCommandKind::Note:
      EXPECT_EQ(C.Label, Kept);
      ++Notes;
      break;
    case HintCommandKind::PickWitness:
      ++Witnesses;
      break;
    }
  size_t OrigAssumings = 0;
  for (const HintCommand &C : S.Commands)
    OrigAssumings += C.Kind == HintCommandKind::Assuming;
  EXPECT_EQ(Assumings, OrigAssumings);
  EXPECT_EQ(Notes, 1u);
  EXPECT_EQ(Witnesses, 0u);
  EXPECT_LT(Min.Commands.size(), S.Commands.size());

  HintValidation V = validateScript(Min, Fx.C);
  EXPECT_TRUE(V.Ok) << V.FailureNote;

  // An empty core drops every lemma; the case skeleton survives.
  HintScript Bare = minimizedFor(S, {});
  EXPECT_EQ(Bare.Commands.size(), OrigAssumings);
}

TEST(HintsTest, AttachedHintLabelsFlowIntoCoresAndShrunkenHintsVerify) {
  // The full §5.2.1 loop, automated: attach the scripts to the symbolic
  // engine, record which hint lemmas the proofs' unsat cores actually
  // used, minimize each script to that label set, and re-verify with only
  // the shrunken hints attached. At bounded scopes the minimized cores
  // typically name *no* hint lemmas — the fully expanded VCs carry the
  // content the paper's hand-written hints supplied to the unbounded
  // prover — so this is the minimization verdict at its strongest: the
  // scripts shrink to their case skeletons and everything still verifies.
  HintsFixture &Fx = fixture();
  SymbolicEngine Eng(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                     SolveMode::SharedCatalog);
  Eng.attachHints(&Fx.Scripts);

  // A category-1 pair: soundness of add_at x indexOf needs real reasoning,
  // and its script carries several lemmas.
  const ConditionEntry &E = Fx.C.entry(arrayListFamily(), "add_at",
                                       "indexOf");
  PairOutcome WithHints = Eng.verifyPair(E);
  EXPECT_EQ(WithHints.failures(), 0u);

  // Collect the hint labels the pair's cores used.
  std::vector<std::string> CoreLabels;
  for (const SymbolicResult &R : WithHints.Methods)
    for (const std::string &L : R.CoreLabels)
      CoreLabels.push_back(L);

  // Minimize every script of this pair against the recorded cores; the
  // shrunken scripts still machine-validate and, re-attached, the pair
  // still verifies with identical verdicts.
  std::vector<HintScript> Shrunk;
  for (const HintScript &S : Fx.Scripts) {
    if (S.Op1Name != "add_at" || S.Op2Name != "indexOf")
      continue;
    HintScript Min = minimizedFor(S, CoreLabels);
    EXPECT_LE(Min.Commands.size(), S.Commands.size());
    HintValidation V = validateScript(Min, Fx.C);
    EXPECT_TRUE(V.Ok) << V.FailureNote;
    Shrunk.push_back(std::move(Min));
  }
  EXPECT_FALSE(Shrunk.empty());

  SymbolicEngine Rerun(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                       SolveMode::SharedCatalog);
  Rerun.attachHints(&Shrunk);
  PairOutcome WithShrunk = Rerun.verifyPair(E);
  ASSERT_EQ(WithShrunk.Methods.size(), WithHints.Methods.size());
  for (size_t I = 0; I != WithHints.Methods.size(); ++I)
    EXPECT_EQ(WithShrunk.Methods[I].Verified,
              WithHints.Methods[I].Verified)
        << I;

  // And hints never change a verdict: the no-hints engine agrees.
  SymbolicEngine Plain(Fx.F, /*SeqLenBound=*/2, /*ConflictBudget=*/200000,
                       SolveMode::SharedCatalog);
  PairOutcome NoHints = Plain.verifyPair(E);
  for (size_t I = 0; I != WithHints.Methods.size(); ++I)
    EXPECT_EQ(NoHints.Methods[I].Verified, WithHints.Methods[I].Verified)
        << I;
}

TEST(HintsTest, CorruptedNoteIsRejected) {
  HintsFixture &Fx = fixture();
  Vocab D(Fx.F);
  HintScript Bad = Fx.Scripts.front();
  // An invalid "lemma": the intermediate state equals the initial state at
  // i1 — false whenever add_at/remove_at actually shifts something.
  Bad.Commands.push_back(HintCommand{
      HintCommandKind::Note,
      D.eq(D.at(D.S2, D.I1), D.at(D.S1, D.I1)), "", "bogus lemma", ""});
  HintValidation V = validateScript(Bad, Fx.C);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.FailureNote.find("note"), std::string::npos);
}

TEST(HintsTest, VacuousAssumingIsRejected) {
  HintsFixture &Fx = fixture();
  Vocab D(Fx.F);
  HintScript Bad = Fx.Scripts.front();
  Bad.Commands.push_back(HintCommand{HintCommandKind::Assuming,
                                     D.lt(D.I1, D.c(0)), "",
                                     "impossible case", ""});
  HintValidation V = validateScript(Bad, Fx.C);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.FailureNote.find("vacuous"), std::string::npos);
}
