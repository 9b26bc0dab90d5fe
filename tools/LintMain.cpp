//===- tools/LintMain.cpp - The semcommute-lint CLI -------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static auditor for the catalog's logic IR and session scripts — no SAT
/// search, machine-readable findings, nonzero exit on violation:
///
///   semcommute-lint                      # lint the shipped catalog
///   semcommute-lint --families Set,Map   # restrict to families
///   semcommute-lint --json               # findings as JSON on stdout
///   semcommute-lint --list-checks        # diagnostic codes
///   semcommute-lint --seed-violation ill-sorted   # CI fixture runs
///
/// Exit status: 0 clean, 1 findings reported, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "logic/ExprFactory.h"
#include "spec/Family.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace semcomm;

namespace {

void printUsage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: semcommute-lint [options]\n"
      "\n"
      "Statically audits the commutativity-condition catalog and the\n"
      "catalog-session discipline without running the solver: formula\n"
      "sorts and vocabulary, the catalog-common hoisting rule, Tseitin\n"
      "scope ownership, selector lifecycle, and assumption labels.\n"
      "\n"
      "options:\n"
      "  --families A,B,...    lint only the named families\n"
      "                        (all, Accumulator, Set, Map, ArrayList)\n"
      "  --seq-bound N         ArrayList case-split bound, a positive\n"
      "                        integer (default 3)\n"
      "  --json                emit findings as JSON on stdout\n"
      "  --list-checks         print the diagnostic codes and exit\n"
      "  --seed-violation K    run the seeded-violation fixture K instead\n"
      "                        of the catalog (CI uses this to prove the\n"
      "                        lint still rejects known-bad inputs)\n"
      "  --help                this text\n");
  std::fprintf(Out, "\nseeded violations:");
  for (lint::SeededViolation V : lint::allSeededViolations())
    std::fprintf(Out, " %s", lint::seededViolationName(V));
  std::fprintf(Out, "\n");
}

void renderFindings(const std::vector<lint::Finding> &Findings, bool Json) {
  if (Json) {
    json::Value Doc = json::Value::array();
    for (const lint::Finding &F : Findings) {
      json::Value Obj = json::Value::object();
      Obj.set("code", json::Value::string(F.Code));
      Obj.set("where", json::Value::string(F.Where));
      Obj.set("message", json::Value::string(F.Message));
      Doc.push(std::move(Obj));
    }
    std::printf("%s\n", Doc.dump(2).c_str());
    return;
  }
  for (const lint::Finding &F : Findings)
    std::printf("%s: %s: %s\n", F.Code.c_str(), F.Where.c_str(),
                F.Message.c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> FamilyNames;
  int SeqLenBound = 3;
  bool Json = false;
  bool HaveSeed = false;
  lint::SeededViolation Seed = lint::SeededViolation::IllSorted;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "semcommute-lint: %s requires a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout);
      return 0;
    }
    if (Arg == "--list-checks") {
      for (const lint::CheckInfo &C : lint::checks())
        std::printf("%s  %s\n", C.Code, C.Summary);
      return 0;
    }
    if (Arg == "--families") {
      FamilyNames = splitCommas(NextValue("--families"));
      // "all" mirrors semcommute-verify: lint every family (the default).
      if (FamilyNames.size() == 1 && FamilyNames[0] == "all")
        FamilyNames.clear();
      continue;
    }
    if (Arg == "--seq-bound") {
      // A bound below 1 would leave no ArrayList split to audit.
      SeqLenBound = static_cast<int>(
          parseIntFlag("--seq-bound", NextValue("--seq-bound"), 1, INT_MAX));
      continue;
    }
    if (Arg == "--json") {
      Json = true;
      continue;
    }
    if (Arg == "--seed-violation") {
      std::string Name = NextValue("--seed-violation");
      if (!lint::parseSeededViolation(Name, Seed)) {
        std::fprintf(stderr,
                     "semcommute-lint: unknown seeded violation '%s'\n",
                     Name.c_str());
        return 2;
      }
      HaveSeed = true;
      continue;
    }
    std::fprintf(stderr, "semcommute-lint: unknown option '%s'\n",
                 Arg.c_str());
    printUsage(stderr);
    return 2;
  }

  // Validate family names before doing any work.
  for (const std::string &Name : FamilyNames) {
    bool Known = false;
    for (const Family *Fam : allFamilies())
      Known = Known || Fam->Name == Name;
    if (!Known) {
      std::fprintf(stderr, "semcommute-lint: unknown family '%s'\n",
                   Name.c_str());
      return 2;
    }
  }

  ExprFactory F;

  if (HaveSeed) {
    std::vector<lint::Finding> Findings =
        lint::seededViolationFindings(F, Seed);
    renderFindings(Findings, Json);
    if (!Json)
      std::fprintf(stderr, "semcommute-lint: seeded fixture '%s': %zu "
                           "finding(s)\n",
                   lint::seededViolationName(Seed), Findings.size());
    return Findings.empty() ? 0 : 1;
  }

  lint::LintResult R = lint::lintCatalog(F, SeqLenBound, FamilyNames);
  renderFindings(R.Findings, Json);
  if (!Json)
    std::fprintf(stderr,
                 "semcommute-lint: %llu entries, %llu formulas, %llu hoisted "
                 "prefixes, %llu method plans, %llu session events audited: "
                 "%zu finding(s)\n",
                 static_cast<unsigned long long>(R.EntriesChecked),
                 static_cast<unsigned long long>(R.FormulasChecked),
                 static_cast<unsigned long long>(R.HoistedChecked),
                 static_cast<unsigned long long>(R.MethodsChecked),
                 static_cast<unsigned long long>(R.AuditEvents),
                 R.Findings.size());
  return R.Findings.empty() ? 0 : 1;
}
