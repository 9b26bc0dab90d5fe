//===- commute/SessionPool.cpp - Catalog and one-shot solver sessions -------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "commute/SessionPool.h"

#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace semcomm;

namespace {

/// Discharges every split of \p Plan under a fixed selector-assumption
/// prefix — the shared tail of the catalog and one-shot paths, so the
/// split loop, core-label recording, countermodel assembly, and the
/// Unsupported-trump rule cannot drift between the warm path and its
/// oracle. \p SessionForSplit returns the session each split runs on
/// (one-shot opens one per split); \p Sels/\p SelLabels are the selector
/// assumptions prepended to every split; \p PeakRetained, when set, tracks
/// the retained-clause high-water mark across checks.
bool dischargeSplits(const MethodPlan &Plan, int64_t Budget,
                     const std::vector<ExprRef> &Sels,
                     const std::vector<std::string> &SelLabels,
                     uint64_t *PeakRetained,
                     const std::function<SmtSession &()> &SessionForSplit,
                     SymbolicResult &R) {
  auto AddCoreLabel = [&R](const std::string &L) {
    if (std::find(R.CoreLabels.begin(), R.CoreLabels.end(), L) ==
        R.CoreLabels.end())
      R.CoreLabels.push_back(L);
  };

  bool Ok = true;
  size_t FailedAt = Plan.Splits.size();
  std::vector<ExprRef> Assumed = Sels;
  for (size_t SI = 0; SI != Plan.Splits.size(); ++SI) {
    const VcSplit &Split = Plan.Splits[SI];
    SmtSession &Session = SessionForSplit();

    Assumed.resize(Sels.size());
    for (const TaggedAssumption &A : Split.Assumed)
      Assumed.push_back(A.E);

    SatResult Out = Session.check(Assumed, Budget, Sels);
    R.SatConflicts += Session.conflicts();
    R.MaxVcConflicts = std::max(R.MaxVcConflicts, Session.conflicts());
    ++R.NumVcs;
    if (PeakRetained) {
      R.RetainedClauses = Session.retainedClauses();
      *PeakRetained = std::max(
          *PeakRetained, static_cast<uint64_t>(Session.retainedClauses()));
    }

    if (Out == SatResult::Unsat) {
      // Assumed is the selectors, then the split's assumptions.
      for (size_t I : Session.lastCoreAssumptionIndices())
        AddCoreLabel(I < Sels.size() ? SelLabels[I]
                                     : Split.Assumed[I - Sels.size()].Label);
      if (Session.certifying()) {
        // An Unsat verdict is a claim — record the certificate the checker
        // must later confirm for this method.
        R.ProofQueryIds.push_back(Session.lastProofQuery());
        ++R.ProofQueries;
      }
      continue;
    }

    R.LastOutcome = Out;
    std::string Atoms;
    for (const std::string &A : Session.modelAtoms())
      if (A.rfind("__sel_", 0) != 0 && A.rfind("__pair_", 0) != 0 &&
          A.rfind("__fam_", 0) != 0)
        Atoms += A + "; "; // Selectors are plumbing, not state.
    R.Countermodel = Split.Label.empty() ? Atoms : Split.Label + ": " + Atoms;
    Ok = false;
    FailedAt = SI;
    break;
  }

  // An out-of-fragment atom trumps whatever the truncated final split said
  // (the lowering replaced the atom by a free variable, so that split's
  // verdict is meaningless).
  if (Plan.Unsupported && (Ok || FailedAt + 1 == Plan.Splits.size())) {
    R.Countermodel = Plan.UnsupportedNote;
    Ok = false;
  }
  return Ok;
}

} // namespace

void semcomm::stampCertification(const proof::CertifySummary &S,
                                 SymbolicResult &R) {
  R.ProofClauses = S.PeakClauses;
  R.ProofChecked = S.Error.empty() && S.allPassed(R.ProofQueryIds);
}

const char *semcomm::solveModeName(SolveMode M) {
  return M == SolveMode::OneShot ? "oneshot" : "shared-catalog";
}

bool semcomm::dischargeOneShot(ExprFactory &F, const MethodPlan &Plan,
                               int64_t Budget, int64_t GcBudget, bool Certify,
                               SymbolicResult &R) {
  std::unique_ptr<SmtSession> Session;
  proof::CertifySummary Cert;
  size_t Unfolded = R.ProofQueryIds.size(); ///< First query of Session.
  // Folds a finished split's session into the method's totals. Its trace
  // dies with it, so the trace is checked here, split by split; the fold
  // appends its queries, so their numbers shift past those already held.
  auto Close = [&] {
    if (!Session)
      return;
    R.DbReductions += static_cast<uint64_t>(Session->dbReductions());
    R.ReclaimedClauses += static_cast<uint64_t>(Session->reclaimedClauses());
    if (Certify) {
      auto Offset = static_cast<uint32_t>(Cert.QueryPassed.size());
      for (size_t I = Unfolded; I != R.ProofQueryIds.size(); ++I)
        R.ProofQueryIds[I] += Offset;
      Unfolded = R.ProofQueryIds.size();
      Cert.fold(Session->finishCertification());
    }
  };
  bool Ok = dischargeSplits(
      Plan, Budget, /*Sels=*/{}, /*SelLabels=*/{}, /*PeakRetained=*/nullptr,
      [&]() -> SmtSession & {
        Close();
        Session = std::make_unique<SmtSession>(F);
        if (Certify)
          Session->enableCertification();
        if (GcBudget > 0)
          Session->solver().setClauseGcLimit(GcBudget);
        for (ExprRef C : Plan.Common)
          Session->assertBase(C);
        for (const TaggedAssumption &S : Plan.Scoped)
          Session->assertBase(S.E);
        return *Session;
      },
      R);
  Close();
  if (Certify)
    stampCertification(Cert, R);
  return Ok;
}

bool semcomm::dischargeAlone(ExprFactory &F, const MethodPlan &Plan,
                             SolveMode Mode, const std::string &Family,
                             const std::string &Pair, int64_t Budget,
                             int64_t GcBudget, bool Certify,
                             SymbolicResult &R) {
  if (Mode == SolveMode::OneShot)
    return dischargeOneShot(F, Plan, Budget, GcBudget, Certify, R);
  CatalogPlan CP;
  CP.Families.push_back({Family, {}});
  CatalogSession Sess(F, CP, Budget, Certify);
  Sess.configureClauseGc(GcBudget);
  bool Ok = Sess.discharge(0, Pair, Plan, R);
  if (Certify)
    stampCertification(Sess.finishCertification(), R);
  return Ok;
}

//===----------------------------------------------------------------------===//
// CatalogSession
//===----------------------------------------------------------------------===//

CatalogSession::CatalogSession(ExprFactory &F, const CatalogPlan &Plan,
                               int64_t Budget, bool Certify,
                               bool CompactBridges, size_t CompactMinDead)
    : F(F), Plan(Plan), Budget(Budget), Session(F),
      Tiers(Plan.Families.size()) {
  // Certification must switch on before the first assertion reaches the
  // solver — the proof's Input steps have to cover the whole database.
  if (Certify)
    Session.enableCertification();
  // Bridge compaction likewise: owner attribution has to see every
  // assertion from the first one.
  if (CompactBridges)
    Session.enableBridgeCompaction(CompactMinDead);
  for (ExprRef C : Plan.CatalogCommon)
    if (CatalogBase.insert(C).second) {
      Session.assertBase(C);
      ++Stats.PrefixAsserts;
    }
}

void CatalogSession::configureClauseGc(int64_t FirstLimit) {
  if (FirstLimit > 0)
    Session.solver().setClauseGcLimit(FirstLimit);
}

CatalogSession::FamilyTier &CatalogSession::ensureFamily(size_t FamIdx) {
  assert(FamIdx < Tiers.size() && "family index outside the catalog plan");
  FamilyTier &Tier = Tiers[FamIdx];
  if (Tier.Sel)
    return Tier;
  const FamilyPlan &FP = Plan.Families[FamIdx];
  Tier.Sel = F.var("__fam_" + FP.FamilyName, Sort::Bool);
  Tier.Scope =
      Session.openScope(Tier.Sel, SmtSession::RootScope, /*OwnLayer=*/true);
  ++SelectorCount;
  ++Stats.FamiliesOpened;
  // Family-common prefix: formulas already catalog base are reuses; the
  // remainder is asserted once under the family selector.
  for (ExprRef C : FP.FamilyCommon) {
    if (CatalogBase.count(C)) {
      ++Stats.PrefixReuses;
      continue;
    }
    if (Tier.FamilyBase.insert(C).second) {
      Session.assertInScope(Tier.Scope, C);
      ++Stats.PrefixAsserts;
    }
  }
  return Tier;
}

CatalogSession::PairScope &CatalogSession::ensurePair(size_t FamIdx,
                                                      const std::string &Key) {
  FamilyTier &Tier = Tiers[FamIdx];
  auto It = Tier.LivePairs.find(Key);
  if (It != Tier.LivePairs.end())
    return It->second;
  // A retired key re-opens under a fresh selector name: its old selector
  // is permanently false, so reusing it would vacuously "verify"
  // everything discharged under it.
  unsigned Epoch = Tier.PairEpochs[Key]++;
  std::string SelName =
      "__pair_" + Plan.Families[FamIdx].FamilyName + ":" + Key;
  if (Epoch > 0)
    SelName += "#" + std::to_string(Epoch);
  PairScope &PS = Tier.LivePairs[Key];
  PS.Sel = F.var(SelName, Sort::Bool);
  // The pair scope owns a Tseitin layer: its formulas' definition vars
  // retire — and their indices recycle — with the scope.
  PS.Scope = Session.openScope(PS.Sel, Tier.Scope, /*OwnLayer=*/true);
  ++SelectorCount;
  ++Stats.PairsOpened;
  return PS;
}

bool CatalogSession::discharge(size_t FamIdx, const std::string &PairKey,
                               const MethodPlan &MPlan, SymbolicResult &R) {
  Stopwatch Timer;
  FamilyTier &Tier = ensureFamily(FamIdx);
  PairScope &PS = ensurePair(FamIdx, PairKey);
  const std::string &FamName = Plan.Families[FamIdx].FamilyName;

  // Pair-common prefix: formulas already in an outer base (catalog- or
  // family-common) are reuses; the remainder is asserted once under the
  // pair selector.
  for (ExprRef C : MPlan.Common) {
    if (CatalogBase.count(C) || Tier.FamilyBase.count(C)) {
      ++Stats.PrefixReuses;
      continue;
    }
    if (PS.AssertedCommon.insert(C).second) {
      Session.assertInScope(PS.Scope, C);
      ++Stats.PrefixAsserts;
    } else {
      ++Stats.PrefixReuses;
    }
  }

  // Method selector, nested under the pair's. The fingerprint is the
  // plan's prefix content: two *different* plans sharing a name (e.g. a
  // mutated entry whose methods keep the original names) get distinct
  // selectors instead of the second being proved against the first's
  // prefix. Method scopes share the pair's Tseitin layer — they retire
  // only with the pair.
  std::vector<ExprRef> Fingerprint = MPlan.Common;
  Fingerprint.push_back(nullptr); // Separator: Common vs Scoped.
  for (const TaggedAssumption &S : MPlan.Scoped)
    Fingerprint.push_back(S.E);
  std::vector<MethodSelector> &Entries = PS.Methods[MPlan.Name];
  ExprRef MSel = nullptr;
  for (const MethodSelector &E : Entries)
    if (E.Fingerprint == Fingerprint)
      MSel = E.Sel;
  if (!MSel) {
    std::string SelName =
        "__sel_" + MPlan.Name + "@" + FamName + ":" + PairKey;
    unsigned Epoch = Tier.PairEpochs[PairKey] - 1;
    if (Epoch > 0)
      SelName += "#e" + std::to_string(Epoch);
    if (!Entries.empty())
      SelName += "#" + std::to_string(Entries.size());
    MSel = F.var(SelName, Sort::Bool);
    Entries.push_back({std::move(Fingerprint), MSel});
    ++SelectorCount;
    SmtSession::ScopeId MScope =
        Session.openScope(MSel, PS.Scope, /*OwnLayer=*/false);
    for (const TaggedAssumption &S : MPlan.Scoped)
      Session.assertInScope(MScope, S.E);
  }

  std::vector<ExprRef> Sels = {Tier.Sel, PS.Sel, MSel};
  std::vector<std::string> SelLabels = {"fam:" + FamName, "pair:" + PairKey,
                                        "sel:" + MPlan.Name};

  int64_t RedBefore = Session.dbReductions();
  int64_t RecBefore = Session.reclaimedClauses();
  bool Ok = dischargeSplits(
      MPlan, Budget, Sels, SelLabels, &Stats.PeakRetainedClauses,
      [this]() -> SmtSession & { return Session; }, R);
  R.DbReductions += static_cast<uint64_t>(Session.dbReductions() - RedBefore);
  R.ReclaimedClauses +=
      static_cast<uint64_t>(Session.reclaimedClauses() - RecBefore);
  R.Millis += Timer.millis();
  return Ok;
}

size_t CatalogSession::retirePair(size_t FamIdx, const std::string &PairKey) {
  FamilyTier &Tier = Tiers[FamIdx];
  auto It = Tier.LivePairs.find(PairKey);
  if (It == Tier.LivePairs.end())
    return 0;
  size_t Evicted = Session.retireScope(It->second.Scope);
  Tier.LivePairs.erase(It);
  ++Stats.PairsRetired;
  Stats.EvictedClauses += Evicted;
  return Evicted;
}

CatalogSessionStats CatalogSession::stats() const {
  CatalogSessionStats S = Stats;
  S.Checks = Session.numChecks();
  S.Conflicts = Session.totalConflicts();
  S.DbReductions = static_cast<uint64_t>(Session.dbReductions());
  S.ReclaimedClauses = static_cast<uint64_t>(Session.reclaimedClauses());
  S.RecycledVars = static_cast<uint64_t>(Session.recycledVars());
  S.PeakLiveVars = static_cast<uint64_t>(Session.peakLiveVars());
  S.PeakLiveClauses = static_cast<uint64_t>(Session.peakClauses());
  S.VarRequests = static_cast<uint64_t>(Session.varRequests());
  S.BridgeCompactions = static_cast<uint64_t>(Session.bridgeCompactions());
  S.ReleasedAtomVars = static_cast<uint64_t>(Session.releasedAtomVars());
  S.ReleasedSelectors = static_cast<uint64_t>(Session.releasedSelectors());
  S.LiveBridges = static_cast<uint64_t>(Session.liveBridges());
  S.PeakLiveBridges = static_cast<uint64_t>(Session.peakLiveBridges());
  return S;
}
