//===- proof/ProofChecker.cpp - Independent hinted proof checker -----------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "proof/ProofChecker.h"

#include <algorithm>
#include <climits>
#include <cstdlib>

using namespace semcomm;
using namespace semcomm::proof;

bool ProofChecker::admit(IntSpan Lits) {
  for (int L : Lits) {
    if (L == 0 || L == INT_MIN)
      return false;
    size_t V = static_cast<size_t>(std::abs(L));
    if (V >= Value.size()) {
      Value.resize(V + 1, 0);
      Occurrences.resize(V + 1, 0);
    }
  }
  return true;
}

int8_t ProofChecker::valueOf(int L) const {
  int8_t A = Value[static_cast<size_t>(std::abs(L))];
  return L > 0 ? A : static_cast<int8_t>(-A);
}

bool ProofChecker::assign(int L) {
  int8_t V = valueOf(L);
  if (V == 0) {
    Value[static_cast<size_t>(std::abs(L))] = L > 0 ? 1 : -1;
    Assigned.push_back(std::abs(L));
  }
  return V >= 0;
}

std::string ProofChecker::refute(IntSpan Lits, int Sign, IntSpan Hints) {
  std::string Why = walk(Lits, Sign, Hints);
  for (int V : Assigned)
    Value[static_cast<size_t>(V)] = 0;
  Assigned.clear();
  return Why;
}

std::string ProofChecker::walk(IntSpan Lits, int Sign, IntSpan Hints) {
  for (int L : Lits)
    if (!assign(Sign * L))
      return ""; // The assumptions contradict each other.
  for (int Id : Hints) {
    if (Id < 1 || static_cast<size_t>(Id) >= Table.size())
      return "hint names clause " + std::to_string(Id) + ", not yet logged";
    const Entry &C = Table[static_cast<size_t>(Id)];
    if (!C.Alive)
      return "hint names deleted clause " + std::to_string(Id);
    int Open = 0;
    for (int L : C.Lits) {
      int8_t V = valueOf(L);
      if (V > 0)
        return "hint clause " + std::to_string(Id) + " is satisfied";
      if (V == 0) {
        if (Open != 0 && Open != L)
          return "hint clause " + std::to_string(Id) + " is not unit";
        Open = L;
      }
    }
    if (Open == 0)
      return ""; // Conflict.
    assign(Open);
  }
  return "chain ends without a conflict";
}

void ProofChecker::addClause(IntSpan Lits) {
  Table.push_back({Lits, true});
  for (int L : Lits)
    ++Occurrences[static_cast<size_t>(std::abs(L))];
  if (Lits.size() >= 2)
    ++AliveClauses;
}

CheckResult ProofChecker::check(const ProofTrace &Trace) {
  CheckResult R;
  auto Fatal = [&](StepKind K, const std::string &Msg) {
    R.Error = "step " + std::to_string(R.StepsChecked - 1) + " (" +
              stepKindName(K) + "): " + Msg;
    R.Ok = false;
    // Every query of the trace keeps its number, unchecked ones failed.
    R.QueryPassed.resize(Trace.numQueries(), false);
    return R;
  };

  for (const StepView &S : Trace) {
    ++R.StepsChecked;
    switch (S.Kind) {
    case StepKind::Input:
    case StepKind::Derive: {
      if (!admit(S.Lits))
        return Fatal(S.Kind, "malformed literal");
      if (S.Kind == StepKind::Derive) {
        std::string Why = refute(S.Lits, -1, S.Hints);
        if (!Why.empty())
          return Fatal(S.Kind, Why);
      }
      addClause(S.Lits);
      R.PeakClauses = std::max(R.PeakClauses, AliveClauses);
      break;
    }
    case StepKind::Delete: {
      if (S.Id < 1 || static_cast<size_t>(S.Id) >= Table.size() ||
          !Table[static_cast<size_t>(S.Id)].Alive)
        return Fatal(S.Kind, "deletion of clause " + std::to_string(S.Id) +
                                 ", which the checker does not hold");
      Entry &C = Table[static_cast<size_t>(S.Id)];
      C.Alive = false;
      for (int L : C.Lits)
        --Occurrences[static_cast<size_t>(std::abs(L))];
      if (C.Lits.size() >= 2)
        --AliveClauses;
      break;
    }
    case StepKind::Recycle: {
      if (S.Var < 1)
        return Fatal(S.Kind, "malformed variable");
      if (static_cast<size_t>(S.Var) < Occurrences.size() &&
          Occurrences[static_cast<size_t>(S.Var)] != 0)
        return Fatal(S.Kind, "recycled variable " + std::to_string(S.Var) +
                                 " still occurs in a live clause or unit");
      break;
    }
    case StepKind::Query: {
      ++R.QueriesChecked;
      if (static_cast<size_t>(S.LiveClauses) != AliveClauses) {
        // A live-count mismatch means the solver dropped or added a clause
        // without logging it; nothing after this point is trustworthy.
        return Fatal(S.Kind, "live-clause mismatch: solver reports " +
                                 std::to_string(S.LiveClauses) +
                                 ", checker holds " +
                                 std::to_string(AliveClauses));
      }
      if (!admit(S.Lits))
        return Fatal(S.Kind, "malformed literal");
      // Not fatal: the failure is attributed to this query alone and
      // checking continues, so sibling queries still certify. R.Error
      // stays reserved for trace-wide trust failures.
      std::string Why = refute(S.Lits, 1, S.Hints);
      R.QueryPassed.push_back(Why.empty());
      if (Why.empty())
        ++R.QueriesPassed;
      else if (R.QueryError.empty())
        R.QueryError = "query " + std::to_string(R.QueriesChecked - 1) +
                       ": " + Why;
      break;
    }
    }
  }
  R.Ok = R.QueriesPassed == R.QueriesChecked;
  return R;
}

void CertifySummary::fold(const CheckResult &R) {
  Checked = true;
  Ok = Ok && R.Ok;
  Steps += R.StepsChecked;
  Queries += R.QueriesChecked;
  QueriesPassed += R.QueriesPassed;
  PeakClauses = std::max(PeakClauses, static_cast<uint64_t>(R.PeakClauses));
  if (Error.empty() && !R.Error.empty())
    Error = R.Error;
  QueryPassed.insert(QueryPassed.end(), R.QueryPassed.begin(),
                     R.QueryPassed.end());
}

void CertifySummary::fold(const CertifySummary &O) {
  if (!O.Checked)
    return;
  Checked = true;
  Ok = Ok && O.Ok;
  Steps += O.Steps;
  Queries += O.Queries;
  QueriesPassed += O.QueriesPassed;
  PeakClauses = std::max(PeakClauses, O.PeakClauses);
  if (Error.empty() && !O.Error.empty())
    Error = O.Error;
  QueryPassed.insert(QueryPassed.end(), O.QueryPassed.begin(),
                     O.QueryPassed.end());
}

bool CertifySummary::allPassed(const std::vector<uint32_t> &Ids) const {
  if (!Checked)
    return false;
  for (uint32_t Id : Ids)
    if (Id >= QueryPassed.size() || !QueryPassed[Id])
      return false;
  return true;
}
