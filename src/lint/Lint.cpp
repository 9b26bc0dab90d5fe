//===- lint/Lint.cpp - Static auditor for the scope/hoist discipline --------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "commute/SymbolicEngine.h"
#include "logic/Printer.h"
#include "smt/SmtSolver.h"
#include "spec/Family.h"

#include <algorithm>

using namespace semcomm;
using namespace semcomm::lint;

//===----------------------------------------------------------------------===//
// Check registry
//===----------------------------------------------------------------------===//

const std::vector<CheckInfo> &lint::checks() {
  static const std::vector<CheckInfo> Checks = {
      {"SORT01", "formula is ill-sorted or uses one variable name at two "
                 "different sorts within one entry"},
      {"HOIST01", "catalog-common (hoisted) formula mentions a variable of "
                  "an entry that does not assert it"},
      {"SCOPE01", "Tseitin definition referenced across sibling scope "
                  "layers (not on the ancestor chain)"},
      {"SCOPE02", "scope selector name reused after it was already opened "
                  "(retired selectors never come back)"},
      {"SCOPE03", "assertion or check names a scope selector that was "
                  "already retired"},
      {"LABEL01", "assumption label empty, contains a reserved delimiter, "
                  "or duplicates another label in its check"},
  };
  return Checks;
}

//===----------------------------------------------------------------------===//
// SORT01
//===----------------------------------------------------------------------===//

std::string lint::varKey(const std::string &Name, Sort S) {
  return Name + "#" + std::to_string(static_cast<int>(S));
}

void lint::collectVars(ExprRef E, std::set<std::string> &Out) {
  if (E->kind() == ExprKind::Var) {
    Out.insert(varKey(E->name(), E->sort()));
    return;
  }
  for (ExprRef Op : E->operands())
    collectVars(Op, Out);
}

namespace {

/// Expected operand-sort shape of one node kind; Sort::Bool stands in for
/// "any" on the kinds checked specially below.
void checkNodeSorts(ExprRef E, const std::string &Where,
                    std::vector<Finding> &Out) {
  auto Bad = [&](const std::string &Msg) {
    Out.push_back({"SORT01", Where, Msg + " in " + printAbstract(E)});
  };
  auto WantOps = [&](Sort S, const char *What) {
    for (ExprRef Op : E->operands())
      if (Op->sort() != S)
        Bad(std::string(What) + " operand has sort " +
            sortName(Op->sort()) + ", expected " + sortName(S));
  };
  auto WantSort = [&](Sort S) {
    if (E->sort() != S)
      Bad(std::string("node sort is ") + sortName(E->sort()) +
          ", expected " + sortName(S));
  };

  switch (E->kind()) {
  case ExprKind::ConstBool:
    WantSort(Sort::Bool);
    break;
  case ExprKind::ConstInt:
    WantSort(Sort::Int);
    break;
  case ExprKind::ConstNull:
    WantSort(Sort::Obj);
    break;
  case ExprKind::Var:
    break; // Any sort; cross-occurrence coherence is checked separately.
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Neg:
    WantOps(Sort::Int, "arithmetic");
    WantSort(Sort::Int);
    break;
  case ExprKind::Eq:
    if (E->operand(0)->sort() != E->operand(1)->sort())
      Bad(std::string("equality between sorts ") +
          sortName(E->operand(0)->sort()) + " and " +
          sortName(E->operand(1)->sort()));
    WantSort(Sort::Bool);
    break;
  case ExprKind::Lt:
  case ExprKind::Le:
    WantOps(Sort::Int, "comparison");
    WantSort(Sort::Bool);
    break;
  case ExprKind::Not:
  case ExprKind::And:
  case ExprKind::Or:
  case ExprKind::Implies:
  case ExprKind::Iff:
    WantOps(Sort::Bool, "connective");
    WantSort(Sort::Bool);
    break;
  case ExprKind::Ite:
    if (E->operand(0)->sort() != Sort::Bool)
      Bad("ite condition is not boolean");
    if (E->operand(1)->sort() != E->operand(2)->sort() ||
        E->operand(1)->sort() != E->sort())
      Bad("ite branch sorts disagree");
    break;
  case ExprKind::SetContains:
  case ExprKind::MapHasKey:
    if (E->operand(0)->sort() != Sort::State)
      Bad("state query over a non-state operand");
    if (E->operand(1)->sort() != Sort::Obj)
      Bad("state query key/element is not an object");
    WantSort(Sort::Bool);
    break;
  case ExprKind::MapGet:
    if (E->operand(0)->sort() != Sort::State)
      Bad("state query over a non-state operand");
    if (E->operand(1)->sort() != Sort::Obj)
      Bad("map key is not an object");
    WantSort(Sort::Obj);
    break;
  case ExprKind::SeqAt:
    if (E->operand(0)->sort() != Sort::State)
      Bad("state query over a non-state operand");
    if (E->operand(1)->sort() != Sort::Int)
      Bad("sequence index is not an integer");
    WantSort(Sort::Obj);
    break;
  case ExprKind::SeqIndexOf:
  case ExprKind::SeqLastIndexOf:
    if (E->operand(0)->sort() != Sort::State)
      Bad("state query over a non-state operand");
    if (E->operand(1)->sort() != Sort::Obj)
      Bad("sequence element is not an object");
    WantSort(Sort::Int);
    break;
  case ExprKind::SeqLen:
  case ExprKind::StateSize:
  case ExprKind::CounterValue:
    if (E->operand(0)->sort() != Sort::State)
      Bad("state query over a non-state operand");
    WantSort(Sort::Int);
    break;
  case ExprKind::Forall:
  case ExprKind::Exists:
    if (E->operand(0)->sort() != Sort::Int ||
        E->operand(1)->sort() != Sort::Int)
      Bad("quantifier bounds are not integers");
    if (E->operand(2)->sort() != Sort::Bool)
      Bad("quantifier body is not boolean");
    WantSort(Sort::Bool);
    break;
  }
}

void checkSortsRec(ExprRef E, const std::string &Where,
                   std::set<ExprRef> &Visited, std::vector<Finding> &Out) {
  if (!Visited.insert(E).second)
    return; // Hash-consed DAG: each node once.
  checkNodeSorts(E, Where, Out);
  for (ExprRef Op : E->operands())
    checkSortsRec(Op, Where, Visited, Out);
}

/// Records every (name -> sort) occurrence of the Var leaves of \p E.
void collectVarSorts(ExprRef E, std::map<std::string, std::set<Sort>> &Out,
                     std::set<ExprRef> &Visited) {
  if (!Visited.insert(E).second)
    return;
  if (E->kind() == ExprKind::Var)
    Out[E->name()].insert(E->sort());
  for (ExprRef Op : E->operands())
    collectVarSorts(Op, Out, Visited);
}

} // namespace

void lint::checkFormulaSorts(ExprRef E, const std::string &Where,
                             std::vector<Finding> &Out) {
  std::set<ExprRef> Visited;
  checkSortsRec(E, Where, Visited, Out);
}

std::vector<Finding>
lint::checkVocabularyCoherence(const std::vector<ExprRef> &Formulas,
                               const std::string &Where) {
  std::vector<Finding> Out;
  std::map<std::string, std::set<Sort>> Sorts;
  std::set<ExprRef> Visited;
  for (ExprRef E : Formulas)
    collectVarSorts(E, Sorts, Visited);
  for (const auto &[Name, SortSet] : Sorts) {
    if (SortSet.size() < 2)
      continue;
    std::string List;
    for (Sort S : SortSet)
      List += std::string(List.empty() ? "" : ", ") + sortName(S);
    Out.push_back({"SORT01", Where,
                   "variable \"" + Name + "\" is used at sorts {" + List +
                       "} within one vocabulary; varKey-based disjointness "
                       "reasoning would treat these as different variables"});
  }
  return Out;
}

std::vector<Finding>
lint::checkCatalogSorts(const Catalog &C,
                        const std::vector<const Family *> &Fams) {
  std::vector<Finding> Out;
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : C.entries(*Fam)) {
      std::string Where = Fam->Name + " " + E.pairName();
      std::vector<ExprRef> Conds;
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After}) {
        ExprRef Phi = E.get(K);
        if (!Phi)
          continue;
        Conds.push_back(Phi);
        checkFormulaSorts(
            Phi, Where + " " + conditionKindName(K), Out);
      }
      std::vector<Finding> Coherence = checkVocabularyCoherence(Conds, Where);
      Out.insert(Out.end(), Coherence.begin(), Coherence.end());
    }
  return Out;
}

//===----------------------------------------------------------------------===//
// HOIST01
//===----------------------------------------------------------------------===//

std::vector<Finding>
lint::checkHoistRule(const std::vector<ExprRef> &CatalogCommon,
                     const std::vector<HoistEntry> &Entries) {
  std::vector<Finding> Out;
  for (ExprRef G : CatalogCommon) {
    std::set<std::string> GVars;
    collectVars(G, GVars);
    for (const HoistEntry &E : Entries) {
      if (E.Common.count(G))
        continue; // The entry asserts it itself; the hoist changes nothing.
      std::string Overlap;
      for (const std::string &V : GVars)
        if (E.Vars.count(V))
          Overlap += (Overlap.empty() ? "" : ", ") + V;
      if (Overlap.empty())
        continue; // Vacuous for this entry: no shared variable.
      Out.push_back(
          {"HOIST01", E.Name,
           "hoisted formula " + printAbstract(G) +
               " mentions entry-local variable(s) {" + Overlap +
               "} but is not in the entry's own Common prefix; hoisting "
               "it to the session root could change this entry's verdict"});
    }
  }
  return Out;
}

std::vector<Finding>
lint::checkCatalogHoisting(const SymbolicEngine &Eng, const Catalog &C,
                           const std::vector<const Family *> &Fams) {
  CatalogPlan CP = Eng.planCatalog(C, Fams);
  std::vector<HoistEntry> Entries;
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : C.entries(*Fam)) {
      HoistEntry HE;
      HE.Name = Fam->Name + " " + E.pairName();
      // Variables from the *materialized* plans — deliberately not the
      // planner's entryVocabulary() approximation, so this cross-checks
      // the approximation instead of re-executing it.
      for (const MethodPlan &MP : Eng.planPair(E).Methods) {
        for (ExprRef Com : MP.Common) {
          HE.Common.insert(Com);
          collectVars(Com, HE.Vars);
        }
        for (const TaggedAssumption &A : MP.Scoped)
          collectVars(A.E, HE.Vars);
        for (const VcSplit &S : MP.Splits)
          for (const TaggedAssumption &A : S.Assumed)
            collectVars(A.E, HE.Vars);
      }
      Entries.push_back(std::move(HE));
    }
  return checkHoistRule(CP.CatalogCommon, Entries);
}

//===----------------------------------------------------------------------===//
// SCOPE01/02/03
//===----------------------------------------------------------------------===//

bool AuditAnalyzer::onAncestorChain(unsigned Found, unsigned Active) const {
  unsigned L = Active;
  for (;;) {
    if (L == Found)
      return true;
    if (L == 0)
      return false;
    auto It = LayerParent.find(L);
    if (It == LayerParent.end())
      return false; // Unknown layer: cannot be an ancestor.
    L = It->second;
  }
}

void AuditAnalyzer::feed(const audit::Event &E) {
  ++Events;
  switch (E.Kind) {
  case audit::EventKind::OpenScope:
    if (!Opened.insert(E.Scope).second)
      Findings.push_back(
          {"SCOPE02", E.Scope,
           "scope selector name reused; retired selectors are permanently "
           "false, so a re-opened scope must use a fresh epoch-suffixed "
           "name"});
    break;
  case audit::EventKind::Assert:
    if (Retired.count(E.Scope))
      Findings.push_back({"SCOPE03", E.Scope,
                          "assertion into a scope that was already retired"});
    break;
  case audit::EventKind::Check:
    for (const std::string &S : E.Scopes)
      if (Retired.count(S))
        Findings.push_back(
            {"SCOPE03", S, "check activated a scope that was already "
                           "retired; its selector is pinned false"});
    break;
  case audit::EventKind::Retire:
    Retired.insert(E.Scope);
    break;
  case audit::EventKind::PushLayer:
    LayerParent[E.Layer] = E.ActiveLayer;
    break;
  case audit::EventKind::DropLayer:
    DroppedLayers.insert(E.Layer);
    break;
  case audit::EventKind::Define:
    break; // Creation sites carry no cross-layer obligation.
  case audit::EventKind::Reference:
    if (!onAncestorChain(E.Layer, E.ActiveLayer))
      Findings.push_back(
          {"SCOPE01",
           "layer " + std::to_string(E.Layer) + " from layer " +
               std::to_string(E.ActiveLayer),
           "Tseitin definition referenced outside its layer's subtree; "
           "the definition may be evicted with its owning scope and the "
           "reference would dangle"});
    break;
  }
}

void AuditAnalyzer::drain(audit::Log &L) {
  for (const audit::Event &E : L.Events)
    feed(E);
  L.Events.clear();
}

std::vector<Finding> lint::checkAuditLog(const audit::Log &L) {
  AuditAnalyzer A;
  for (const audit::Event &E : L.Events)
    A.feed(E);
  return A.takeFindings();
}

//===----------------------------------------------------------------------===//
// LABEL01
//===----------------------------------------------------------------------===//

std::vector<Finding> lint::checkPlanLabels(const std::string &Where,
                                           const MethodPlan &MP) {
  std::vector<Finding> Out;
  auto BadShape = [&](const std::string &Label, const std::string &Ctx) {
    if (Label.empty()) {
      Out.push_back({"LABEL01", Where, Ctx + ": empty assumption label"});
      return;
    }
    if (Label.find(';') != std::string::npos ||
        Label.find('|') != std::string::npos)
      Out.push_back({"LABEL01", Where,
                     Ctx + ": label \"" + Label +
                         "\" contains a reserved delimiter (';' joins "
                         "countermodel atoms, '|' joins proof-tag "
                         "components)"});
  };

  for (const TaggedAssumption &A : MP.Scoped)
    BadShape(A.Label, "scoped prefix");

  for (size_t SI = 0; SI != MP.Splits.size(); ++SI) {
    const std::string Ctx = "split " + std::to_string(SI);
    // One check's core is attributed over the method selector's label
    // (the plan name) plus the split's assumption labels; a duplicate in
    // that namespace makes the attribution ambiguous.
    std::set<std::string> Seen{MP.Name};
    for (const TaggedAssumption &A : MP.Splits[SI].Assumed) {
      BadShape(A.Label, Ctx);
      if (!A.Label.empty() && !Seen.insert(A.Label).second)
        Out.push_back({"LABEL01", Where,
                       Ctx + ": duplicate assumption label \"" + A.Label +
                           "\" makes unsat-core attribution ambiguous"});
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Whole-catalog lint
//===----------------------------------------------------------------------===//

LintResult lint::lintCatalog(ExprFactory &F, int SeqLenBound,
                             const std::vector<std::string> &FamilyNames) {
  LintResult R;
  Catalog C(F);
  std::vector<const Family *> Fams;
  for (const Family *Fam : allFamilies())
    if (FamilyNames.empty() ||
        std::find(FamilyNames.begin(), FamilyNames.end(), Fam->Name) !=
            FamilyNames.end())
      Fams.push_back(Fam);

  auto Append = [&R](std::vector<Finding> Fs) {
    R.Findings.insert(R.Findings.end(),
                      std::make_move_iterator(Fs.begin()),
                      std::make_move_iterator(Fs.end()));
  };

  // 1. Sorts and vocabulary of every condition.
  Append(checkCatalogSorts(C, Fams));
  for (const Family *Fam : Fams) {
    R.EntriesChecked += C.entries(*Fam).size();
    for (const ConditionEntry &E : C.entries(*Fam))
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After})
        R.FormulasChecked += E.get(K) != nullptr;
  }

  // 2. The catalog-common hoisting rule, against materialized plans. The
  //    conflict budget is irrelevant: the lint never solves.
  SymbolicEngine Eng(F, SeqLenBound, /*ConflictBudget=*/1,
                     SolveMode::SharedCatalog);
  CatalogPlan CP = Eng.planCatalog(C, Fams);
  R.HoistedChecked = CP.CatalogCommon.size();
  Append(checkCatalogHoisting(Eng, C, Fams));

  // 3+4. Label checks per materialized method plan, and a structural
  // replay of the catalog-session script through a real (audited,
  // non-solving) SmtSession: catalog-common at the root, one layer-owning
  // scope per family, one per pair, method scopes sharing their pair's
  // layer, every split encoded under its selector path, each pair subtree
  // retired after its methods and every family scope left open to the end
  // of the session, exactly as the production CatalogSession does. The
  // analyzer drains the event stream per pair so the log never holds more
  // than one pair's encoder traffic.
  audit::Log Log;
  AuditAnalyzer Analyzer;
  SmtSession Session(F);
  Session.setAuditLog(&Log);
  std::set<ExprRef> CatalogBase;
  for (ExprRef E : CP.CatalogCommon) {
    Session.assertBase(E);
    CatalogBase.insert(E);
  }
  for (size_t FI = 0; FI != Fams.size(); ++FI) {
    const FamilyPlan &FP = CP.Families[FI];
    ExprRef FamSel = F.var("__lint_f:" + FP.FamilyName, Sort::Bool);
    SmtSession::ScopeId FamScope =
        Session.openScope(FamSel, SmtSession::RootScope, /*OwnLayer=*/true);
    std::set<ExprRef> FamilyBase = CatalogBase;
    for (ExprRef E : FP.FamilyCommon)
      if (FamilyBase.insert(E).second)
        Session.assertInScope(FamScope, E);

    for (const ConditionEntry &E : C.entries(*Fams[FI])) {
      PairPlan PP = Eng.planPair(E);
      std::string PairWhere = FP.FamilyName + " " + PP.Key;
      ExprRef PairSel = F.var("__lint_p:" + PairWhere, Sort::Bool);
      SmtSession::ScopeId PairScope =
          Session.openScope(PairSel, FamScope, /*OwnLayer=*/true);
      std::set<ExprRef> PairBase;
      for (const MethodPlan &MP : PP.Methods) {
        Append(checkPlanLabels(PairWhere + " " + MP.Name, MP));
        ++R.MethodsChecked;

        ExprRef MSel =
            F.var("__lint_m:" + PairWhere + ":" + MP.Name, Sort::Bool);
        SmtSession::ScopeId MScope =
            Session.openScope(MSel, PairScope, /*OwnLayer=*/false);
        for (ExprRef Com : MP.Common)
          if (!FamilyBase.count(Com) && PairBase.insert(Com).second)
            Session.assertInScope(PairScope, Com);
        for (const TaggedAssumption &A : MP.Scoped)
          Session.assertInScope(MScope, A.E);

        std::vector<ExprRef> Sels{FamSel, PairSel, MSel};
        std::vector<ExprRef> Assumed;
        for (const VcSplit &S : MP.Splits) {
          Assumed.clear();
          for (const TaggedAssumption &A : S.Assumed)
            Assumed.push_back(A.E);
          Session.encodeForAudit(Assumed, Sels);
        }
      }
      Session.retireScope(PairScope);
      Analyzer.drain(Log);
    }
  }
  Analyzer.drain(Log);
  R.AuditEvents = Analyzer.eventsSeen();
  Append(Analyzer.takeFindings());
  return R;
}

//===----------------------------------------------------------------------===//
// Seeded violations
//===----------------------------------------------------------------------===//

const char *lint::seededViolationName(SeededViolation V) {
  switch (V) {
  case SeededViolation::IllSorted:
    return "ill-sorted";
  case SeededViolation::MisHoisted:
    return "mis-hoisted";
  case SeededViolation::CrossSiblingReference:
    return "cross-sibling-reference";
  case SeededViolation::ReusedSelector:
    return "reused-selector";
  case SeededViolation::UseAfterRetire:
    return "use-after-retire";
  case SeededViolation::DuplicateLabel:
    return "duplicate-label";
  }
  return "<invalid>";
}

const std::vector<SeededViolation> &lint::allSeededViolations() {
  static const std::vector<SeededViolation> All = {
      SeededViolation::IllSorted,
      SeededViolation::MisHoisted,
      SeededViolation::CrossSiblingReference,
      SeededViolation::ReusedSelector,
      SeededViolation::UseAfterRetire,
      SeededViolation::DuplicateLabel,
  };
  return All;
}

bool lint::parseSeededViolation(const std::string &Name, SeededViolation &V) {
  for (SeededViolation S : allSeededViolations())
    if (Name == seededViolationName(S)) {
      V = S;
      return true;
    }
  return false;
}

std::vector<Finding> lint::seededViolationFindings(ExprFactory &F,
                                                   SeededViolation V) {
  switch (V) {
  case SeededViolation::IllSorted: {
    // "v1" at Int in one condition, at Obj in another — each factory-legal
    // alone, jointly an entry-vocabulary violation.
    std::vector<ExprRef> Formulas = {
        F.eq(F.var("v1", Sort::Int), F.intConst(0)),
        F.eq(F.var("v1", Sort::Obj), F.nullConst()),
    };
    return checkVocabularyCoherence(Formulas, "lint fixture entry");
  }
  case SeededViolation::MisHoisted: {
    // A hoisted formula over "x" and an entry whose plans mention "x"
    // without asserting the formula themselves.
    ExprRef G = F.lnot(F.eq(F.var("x", Sort::Obj), F.nullConst()));
    HoistEntry E;
    E.Name = "lint fixture entry";
    E.Vars.insert(varKey("x", Sort::Obj));
    return checkHoistRule({G}, {E});
  }
  case SeededViolation::CrossSiblingReference: {
    // Layers 1 and 2 are siblings under the root; a definition created in
    // 1 is referenced while 2 is active.
    audit::Log L;
    L.pushLayer(1, 0);
    L.pushLayer(2, 0);
    L.define(1);
    L.reference(/*FoundLayer=*/1, /*ActiveLayer=*/2);
    return checkAuditLog(L);
  }
  case SeededViolation::ReusedSelector: {
    audit::Log L;
    L.openScope("__sel_m@fix:p");
    L.retire("__sel_m@fix:p");
    L.openScope("__sel_m@fix:p"); // Same name, no epoch suffix.
    return checkAuditLog(L);
  }
  case SeededViolation::UseAfterRetire: {
    audit::Log L;
    L.openScope("__sel_m@fix:p");
    L.retire("__sel_m@fix:p");
    L.check({"__sel_m@fix:p"});
    return checkAuditLog(L);
  }
  case SeededViolation::DuplicateLabel: {
    MethodPlan MP;
    MP.Name = "fixture_method";
    VcSplit S;
    ExprRef A = F.eq(F.var("v1", Sort::Obj), F.nullConst());
    S.Assumed.push_back({A, "h1"});
    S.Assumed.push_back({F.lnot(A), "h1"}); // Duplicate label.
    MP.Splits.push_back(std::move(S));
    return checkPlanLabels("lint fixture method", MP);
  }
  }
  return {};
}
