//===- proof/ProofTrace.cpp - Hinted solver proof log -----------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "proof/ProofTrace.h"

#include <cassert>
#include <cerrno>
#include <climits>
#include <cstdlib>

using namespace semcomm;
using namespace semcomm::proof;

// Arena layout, one step after another, each opening with its kind:
//   Input   K n lits[n]
//   Derive  K n lits[n] m hints[m]
//   Delete  K id
//   Recycle K var
//   Query   K live n core[n] m hints[m]

const char *proof::stepKindName(StepKind K) {
  switch (K) {
  case StepKind::Input:
    return "input";
  case StepKind::Derive:
    return "derive";
  case StepKind::Delete:
    return "delete";
  case StepKind::Recycle:
    return "recycle";
  case StepKind::Query:
    return "query";
  }
  return "?";
}

void ProofTrace::pushSpan(IntSpan S) {
  Arena.push_back(static_cast<int>(S.size()));
  Arena.insert(Arena.end(), S.begin(), S.end());
}

int ProofTrace::append(const StepView &S) {
  Arena.push_back(static_cast<int>(S.Kind));
  ++Steps;
  switch (S.Kind) {
  case StepKind::Input:
  case StepKind::Derive:
    pushSpan(S.Lits);
    if (S.Kind == StepKind::Derive)
      pushSpan(S.Hints);
    assert(Clauses < INT_MAX && "clause IDs exhausted");
    return ++Clauses;
  case StepKind::Delete:
    Arena.push_back(S.Id);
    return 0;
  case StepKind::Recycle:
    Arena.push_back(S.Var);
    return 0;
  case StepKind::Query:
    Arena.push_back(S.LiveClauses);
    pushSpan(S.Lits);
    pushSpan(S.Hints);
    return static_cast<int>(Queries++);
  }
  return 0;
}

const int *ProofTrace::Iterator::decode(StepView &S) const {
  S.Kind = static_cast<StepKind>(P[0]);
  const int *Q = P + 1;
  auto Span = [&Q] {
    IntSpan Out(Q + 1, static_cast<size_t>(Q[0]));
    Q = Out.end();
    return Out;
  };
  switch (S.Kind) {
  case StepKind::Input:
    S.Lits = Span();
    break;
  case StepKind::Derive:
    S.Lits = Span();
    S.Hints = Span();
    break;
  case StepKind::Delete:
    S.Id = *Q++;
    break;
  case StepKind::Recycle:
    S.Var = *Q++;
    break;
  case StepKind::Query:
    S.LiveClauses = *Q++;
    S.Lits = Span();
    S.Hints = Span();
    break;
  }
  return Q;
}

std::string ProofTrace::serialize() const {
  std::string Out = "p semcommute-proof " + std::to_string(Steps) + "\n";
  auto Ints = [&Out](IntSpan S) {
    for (int V : S)
      Out += ' ' + std::to_string(V);
    Out += " 0";
  };
  for (const StepView &S : *this) {
    switch (S.Kind) {
    case StepKind::Input:
      Out += 'i';
      Ints(S.Lits);
      break;
    case StepKind::Derive:
      Out += 'l';
      Ints(S.Lits);
      Ints(S.Hints);
      break;
    case StepKind::Delete:
      Out += "d " + std::to_string(S.Id) + " 0";
      break;
    case StepKind::Recycle:
      Out += "r " + std::to_string(S.Var) + " 0";
      break;
    case StepKind::Query:
      Out += "q " + std::to_string(S.LiveClauses);
      Ints(S.Lits);
      Ints(S.Hints);
      break;
    }
    Out += '\n';
  }
  return Out;
}

namespace {

/// Splits \p Line on single spaces (the only separator serialize() emits).
std::vector<std::string> tokens(const std::string &Line) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= Line.size()) {
    size_t Sp = Line.find(' ', Start);
    if (Sp == std::string::npos) {
      if (Start < Line.size())
        Out.push_back(Line.substr(Start));
      break;
    }
    if (Sp > Start)
      Out.push_back(Line.substr(Start, Sp - Start));
    Start = Sp + 1;
  }
  return Out;
}

/// The integer fields of the text form, by value range.
enum class Field { Literal, Id, Var, Count };

/// The variables a text's literal and variable fields name. A checker
/// sizes its per-variable state by the largest, and every variable of a
/// real trace occurs in some clause, so parse() refuses a largest variable
/// above the count of those fields: a tiny text cannot demand gigabytes.
struct VarTally {
  uint64_t Fields = 0;
  long long Max = 0;
  /// Where Max was first read: its line and "field N (kind)".
  size_t Line = 0;
  std::string Where;
};

/// Reads line \p Line's fields front to back, from token \p Pos on,
/// counting its literal and variable fields into \p Vars; the first
/// failure sticks. Field numbers count the line's tokens from 0.
class LineReader {
public:
  LineReader(std::vector<std::string> Toks, size_t Pos, size_t Line,
             VarTally &Vars)
      : Toks(std::move(Toks)), Pos(Pos), Line(Line), Vars(Vars) {}

  /// One integer of field \p F, rejecting anything outside its range
  /// (strtoll's ERANGE included) rather than narrowing it.
  int next(Field F) {
    if (!Error.empty())
      return 0;
    if (Pos == Toks.size()) {
      fail(F, "missing");
      return 0;
    }
    const std::string &S = Toks[Pos];
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(S.c_str(), &End, 10);
    bool Ok = End != S.c_str() && *End == '\0' && errno != ERANGE;
    switch (F) {
    case Field::Literal:
      Ok = Ok && V != 0 && V >= -INT_MAX && V <= INT_MAX;
      break;
    case Field::Id:
    case Field::Var:
      Ok = Ok && V >= 1 && V <= INT_MAX;
      break;
    case Field::Count:
      Ok = Ok && V >= 0 && V <= INT_MAX;
      break;
    }
    if (!Ok) {
      fail(F, "'" + S + "' is not an integer in range");
      return 0;
    }
    if (F == Field::Literal || F == Field::Var) {
      ++Vars.Fields;
      if (std::llabs(V) > Vars.Max) {
        Vars.Max = std::llabs(V);
        Vars.Line = Line;
        Vars.Where = where(F);
      }
    }
    ++Pos;
    return static_cast<int>(V);
  }
  /// `<values of field F> 0` into \p Out.
  void list(Field F, std::vector<int> &Out) {
    Out.clear();
    while (Error.empty() && Pos < Toks.size() && Toks[Pos] != "0")
      Out.push_back(next(F));
    zero(F);
  }
  /// The `0` that ends a step or a list of field \p F.
  void zero(Field F) {
    if (Error.empty() && (Pos == Toks.size() || Toks[Pos] != "0"))
      fail(F, "missing the 0 terminator");
    ++Pos;
  }
  /// Empty when every token was read and valid, otherwise why not.
  std::string finish() const {
    if (Error.empty() && Pos != Toks.size())
      return "trailing tokens after the step";
    return Error;
  }

private:
  /// "field <Pos> (<kind>)".
  std::string where(Field F) const {
    static const char *const Names[] = {"literal", "clause ID", "variable",
                                        "count"};
    return "field " + std::to_string(Pos) + " (" +
           Names[static_cast<int>(F)] + ")";
  }
  void fail(Field F, const std::string &Why) { Error = where(F) + ": " + Why; }

  std::vector<std::string> Toks;
  size_t Pos;
  size_t Line;
  VarTally &Vars;
  std::string Error;
};

} // namespace

std::optional<ProofTrace> ProofTrace::parse(const std::string &Text,
                                            std::string *Error) {
  ProofTrace T;
  size_t Pos = 0, LineNo = 0;
  int Declared = -1;
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = "line " + std::to_string(LineNo) + ": " + Why;
    return std::nullopt;
  };
  std::vector<int> Lits, Hints;
  VarTally Vars;
  while (Pos < Text.size()) {
    ++LineNo;
    size_t Nl = Text.find('\n', Pos);
    // Every serialized line ends in '\n'; a missing terminator means the
    // file was truncated mid-line.
    if (Nl == std::string::npos)
      return Fail("truncated mid-line");
    std::vector<std::string> Toks = tokens(Text.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
    const std::string Kind = Toks.empty() ? "" : Toks[0];
    bool Header = LineNo == 1;
    if (Header && (Toks.size() < 2 || Kind != "p" ||
                   Toks[1] != "semcommute-proof"))
      return Fail("expected the header 'p semcommute-proof <steps>'");
    LineReader R(std::move(Toks), Header ? 2 : 1, LineNo, Vars);
    StepView S;
    if (Header) {
      Declared = R.next(Field::Count);
    } else if (Kind == "i") {
      S.Kind = StepKind::Input;
      R.list(Field::Literal, Lits);
    } else if (Kind == "l") {
      S.Kind = StepKind::Derive;
      R.list(Field::Literal, Lits);
      R.list(Field::Id, Hints);
    } else if (Kind == "d") {
      S.Kind = StepKind::Delete;
      S.Id = R.next(Field::Id);
      R.zero(Field::Id);
    } else if (Kind == "r") {
      S.Kind = StepKind::Recycle;
      S.Var = R.next(Field::Var);
      R.zero(Field::Var);
    } else if (Kind == "q") {
      S.Kind = StepKind::Query;
      S.LiveClauses = R.next(Field::Count);
      R.list(Field::Literal, Lits);
      R.list(Field::Id, Hints);
    } else {
      return Fail("unknown step kind '" + Kind + "'");
    }
    std::string Why = R.finish();
    if (!Why.empty())
      return Fail(Why);
    if (Header)
      continue;
    S.Lits = Lits;
    S.Hints = Hints;
    T.append(S);
  }
  if (Declared < 0)
    return Fail("missing header");
  if (static_cast<size_t>(Declared) != T.size())
    return Fail("header declares " + std::to_string(Declared) +
                " steps, found " + std::to_string(T.size()));
  if (static_cast<uint64_t>(Vars.Max) > Vars.Fields) {
    LineNo = Vars.Line;
    return Fail(Vars.Where + ": variable " + std::to_string(Vars.Max) +
                " exceeds the trace's " + std::to_string(Vars.Fields) +
                " literal and variable fields");
  }
  return T;
}
