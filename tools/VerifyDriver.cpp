//===- tools/VerifyDriver.cpp - semcommute-verify CLI ------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// Verifies the complete commutativity-condition catalog (765 conditions,
// 1530 generated testing methods counted the paper's way) and the inverse
// catalog (Table 5.10) in parallel, then prints per-family timings and
// optionally writes a JSON report:
//
//   semcommute-verify --families all --threads 8 --json report.json
//
//===----------------------------------------------------------------------===//

#include "DriverCore.h"

#include "support/CommandLine.h"
#include "support/ThreadPool.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace semcomm;
using namespace semcomm::driver;

namespace {

void printUsage(const char *Argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Verifies the full commutativity-condition and inverse catalogs.\n"
      "\n"
      "options:\n"
      "  --families LIST   comma-separated families to verify: all (default),\n"
      "                    Accumulator, Set, Map, ArrayList\n"
      "  --engine E        engine for both catalogs (commutativity and\n"
      "                    Table 5.10 inverses): exhaustive (default),\n"
      "                    symbolic, or both\n"
      "  --seq-bound N     ArrayList case-split bound for the symbolic\n"
      "                    engine (default: 3); requires --engine\n"
      "                    symbolic or both\n"
      "  --solve-mode M    symbolic session strategy: shared-catalog\n"
      "                    (default; one warm verification-service shard\n"
      "                    for the whole catalog at --threads 1; at\n"
      "                    --threads N, K = min(N, pairs) shards, shard k\n"
      "                    verifying entries k, k+K, k+2K, ... of every\n"
      "                    family; pair retirement + variable recycling)\n"
      "                    or oneshot (a cold session per VC, the reference\n"
      "                    oracle); requires --engine symbolic or both\n"
      "  --certify         certified verdicts: every symbolic session logs\n"
      "                    a hinted proof trace and the independent checker\n"
      "                    walks it in-process; job rows gain\n"
      "                    proof_queries/proof_clauses/proof_checked;\n"
      "                    requires --engine symbolic or both\n"

      "  --threads N       worker threads (default: hardware concurrency;\n"
      "                    must be positive)\n"
      "  --no-commute      skip the commutativity-condition catalog\n"
      "  --no-inverse      skip the inverse catalog (Table 5.10)\n"
      "  --list            print the job list without verifying\n"
      "  --json FILE       write the JSON report to FILE ('-' for stdout)\n"
      "  --failures-only   print only failing jobs, not every verdict\n"
      "  --quiet           print only the summary table\n"
      "  --help            this message\n"
      "\n"
      "exit status: 0 when every job verifies, 1 otherwise; 2 on usage\n"
      "errors.\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  DriverOptions Opts;
  Opts.Threads = ThreadPool::hardwareThreads();
  bool ListOnly = false, Quiet = false, FailuresOnly = false;
  bool SeqBoundSet = false, SolveModeSet = false;
  std::string JsonPath;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--help" || Arg == "-h") {
      printUsage(argv[0]);
      return 0;
    } else if (Arg == "--families") {
      Opts.Families = splitCommas(needValue("--families"));
    } else if (Arg == "--engine") {
      std::string E = needValue("--engine");
      if (E == "exhaustive") {
        Opts.Engine = EngineKind::Exhaustive;
      } else if (E == "symbolic") {
        Opts.Engine = EngineKind::Symbolic;
      } else if (E == "both") {
        Opts.Engine = EngineKind::Both;
      } else {
        std::fprintf(stderr,
                     "unknown engine '%s' (expected exhaustive, symbolic or "
                     "both)\n",
                     E.c_str());
        return 2;
      }
    } else if (Arg == "--seq-bound") {
      // A bound below 1 would make every ArrayList split vacuous and
      // "verify" the family with zero VCs.
      Opts.SymbolicSeqLenBound = static_cast<int>(
          parseIntFlag("--seq-bound", needValue("--seq-bound"), 1, INT_MAX));
      SeqBoundSet = true;
    } else if (Arg == "--solve-mode") {
      std::string M = needValue("--solve-mode");
      if (M == solveModeName(SolveMode::SharedCatalog)) {
        Opts.SymbolicMode = SolveMode::SharedCatalog;
      } else if (M == solveModeName(SolveMode::OneShot)) {
        Opts.SymbolicMode = SolveMode::OneShot;
      } else {
        std::fprintf(stderr,
                     "unknown solve mode '%s' (expected shared-catalog or "
                     "oneshot)\n",
                     M.c_str());
        return 2;
      }
      SolveModeSet = true;
    } else if (Arg == "--certify") {
      Opts.Certify = true;
    } else if (Arg == "--threads") {
      // Threads=0 used to be silently promoted to 1; reject it instead of
      // guessing what the caller meant.
      Opts.Threads = static_cast<unsigned>(
          parseIntFlag("--threads", needValue("--threads"), 1, UINT_MAX));
    } else if (Arg == "--no-commute") {
      Opts.Commutativity = false;
    } else if (Arg == "--no-inverse") {
      Opts.Inverses = false;
    } else if (Arg == "--list") {
      ListOnly = true;
    } else if (Arg == "--json") {
      JsonPath = needValue("--json");
    } else if (Arg == "--failures-only") {
      FailuresOnly = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      printUsage(argv[0]);
      return 2;
    }
  }

  // Reject incoherent combinations up front instead of silently ignoring
  // half of them (flag order must not matter, so this runs post-parse).
  if (SeqBoundSet && Opts.Engine == EngineKind::Exhaustive) {
    std::fprintf(stderr, "--seq-bound only applies to the symbolic engine; "
                         "pass --engine symbolic or both\n");
    return 2;
  }
  if (SolveModeSet && Opts.Engine == EngineKind::Exhaustive) {
    std::fprintf(stderr, "--solve-mode only applies to the symbolic "
                         "engine; pass --engine symbolic or both\n");
    return 2;
  }
  if (Opts.Certify && Opts.Engine == EngineKind::Exhaustive) {
    std::fprintf(stderr, "--certify only applies to the symbolic engine "
                         "(exhaustive jobs have no proof traces); pass "
                         "--engine symbolic or both\n");
    return 2;
  }
  if (!Opts.Commutativity && !Opts.Inverses) {
    std::fprintf(stderr, "--no-commute together with --no-inverse leaves "
                         "nothing to verify\n");
    return 2;
  }

  std::string Error;
  if (resolveFamilies(Opts.Families, Error).empty() && !Error.empty()) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 2;
  }

  ExprFactory F;
  Catalog C(F);

  if (ListOnly) {
    for (const JobRecord &J : enumerateJobs(C, Opts))
      std::printf("%s\n", J.key().c_str());
    return 0;
  }

  Report R = runFullCatalog(C, Opts);
  if (!R.Error.empty()) {
    std::fprintf(stderr, "%s\n", R.Error.c_str());
    return 2;
  }

  if (!Quiet)
    for (const JobRecord &J : R.Results) {
      if (FailuresOnly && J.Verified)
        continue;
      std::printf("[%s] %-60s %s\n", J.Verified ? "ok" : "FAIL",
                  J.key().c_str(), J.Verified ? "" : J.Note.c_str());
    }

  std::printf("%s", renderSummary(R).c_str());

  if (!JsonPath.empty()) {
    std::string Doc = R.toJson().dump(2);
    Doc += '\n';
    if (JsonPath == "-") {
      std::fwrite(Doc.data(), 1, Doc.size(), stdout);
    } else {
      std::FILE *Out = std::fopen(JsonPath.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     JsonPath.c_str());
        return 2;
      }
      std::fwrite(Doc.data(), 1, Doc.size(), Out);
      std::fclose(Out);
      std::printf("JSON report written to %s\n", JsonPath.c_str());
    }
  }

  return R.failures() == 0 ? 0 : 1;
}
