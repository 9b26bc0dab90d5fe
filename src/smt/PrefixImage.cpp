//===- smt/PrefixImage.cpp - Pre-encoded catalog prefix image ----------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "smt/PrefixImage.h"

#include "logic/Printer.h"

#include <string>

using namespace semcomm;

namespace {

void appendInts(std::string &Out, const char *Tag,
                const std::vector<int> &Vals) {
  Out += Tag;
  Out += ' ';
  Out += std::to_string(Vals.size());
  for (int V : Vals) {
    Out += ' ';
    Out += std::to_string(V);
  }
  Out += '\n';
}

void appendExprInts(std::string &Out, const char *Tag, char Row,
                    const std::vector<std::pair<ExprRef, int>> &Entries) {
  Out += Tag;
  Out += ' ';
  Out += std::to_string(Entries.size());
  Out += '\n';
  for (const auto &[E, V] : Entries) {
    Out += Row;
    Out += ' ';
    Out += std::to_string(V);
    Out += ' ';
    Out += printAbstract(E);
    Out += '\n';
  }
}

void appendExprs(std::string &Out, const char *Tag, char Row,
                 const std::vector<ExprRef> &Entries) {
  Out += Tag;
  Out += ' ';
  Out += std::to_string(Entries.size());
  Out += '\n';
  for (ExprRef E : Entries) {
    Out += Row;
    Out += ' ';
    Out += printAbstract(E);
    Out += '\n';
  }
}

} // namespace

std::string PrefixImage::serialize() const {
  std::string Out;
  Out += "semcommute-prefix-image 1\n";
  Out += "vars " + std::to_string(NumVars) + "\n";
  Out += "clauses " + std::to_string(Clauses.size()) + "\n";
  for (const std::vector<int> &C : Clauses)
    appendInts(Out, "c", C);
  appendInts(Out, "units", Units);
  appendExprInts(Out, "atoms", 'a', Atoms);
  appendExprInts(Out, "rootdefs", 'd', RootDefs);
  appendInts(Out, "rootowned", RootOwned);
  appendExprs(Out, "objterms", 't', ObjTerms);
  appendExprs(Out, "mematoms", 'm', MemAtoms);
  Out += "intatoms " + std::to_string(IntAtoms.size()) + "\n";
  for (const IntAtomEntry &A : IntAtoms) {
    Out += "i ";
    Out += A.IsEq ? '1' : '0';
    Out += ' ';
    Out += std::to_string(A.C);
    Out += '\t';
    Out += A.Signature;
    Out += '\t';
    Out += printAbstract(A.Atom);
    Out += '\n';
  }
  appendExprs(Out, "baseatoms", 'b', BaseAtoms);
  Out += "livebridges " + std::to_string(LiveBridges) + "\n";
  return Out;
}
