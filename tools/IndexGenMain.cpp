//===- tools/IndexGenMain.cpp - The semcommute-indexgen CLI ----------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline generator for the compiled commutativity index: compiles every
/// catalog condition to bitmap/bytecode form, always proves the image
/// round-trips (serialize -> parse -> re-serialize, byte-identical), and
/// optionally fuzz-cross-checks the compiled programs against the tree
/// interpreter before writing anything:
///
///   semcommute-indexgen --out index.scidx            # generate + write
///   semcommute-indexgen --selfcheck 64 --threads 8   # fuzz, no output file
///   semcommute-indexgen --json                       # stats as JSON
///
/// Exit status: 0 success, 1 self-check failure (mismatch, unsupported
/// slot, or round-trip break), 2 usage/IO error.
///
//===----------------------------------------------------------------------===//

#include "index/CommutativityIndex.h"
#include "index/IndexFuzz.h"

#include "logic/ExprFactory.h"
#include "support/CommandLine.h"
#include "support/Json.h"
#include "support/Timing.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

using namespace semcomm;
using namespace semcomm::index;

namespace {

void printUsage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: semcommute-indexgen [options]\n"
      "\n"
      "Compiles the 765-condition catalog into the commutativity index\n"
      "(constant bitmaps + branch-free bytecode), verifies the image\n"
      "round-trips through the serializer, and optionally cross-checks\n"
      "every compiled program against the reference interpreter.\n"
      "\n"
      "options:\n"
      "  --out FILE       write the serialized index image to FILE\n"
      "  --selfcheck N    fuzz N random environments per condition slot\n"
      "                   against the interpreter (0 disables; default 16)\n"
      "  --threads N      self-check worker threads, 1..256 (default 1)\n"
      "  --seed S         self-check RNG seed, a non-negative integer\n"
      "                   (default 12441)\n"
      "  --json           print generation statistics as JSON on stdout\n"
      "  --quiet          suppress the human-readable summary\n"
      "  --help           this text\n"
      "\n"
      "Integer values must be whole decimal strings inside the flag's\n"
      "range; anything else exits with status 2.\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string OutFile;
  unsigned SelfCheck = 16;
  unsigned Threads = 1;
  uint64_t Seed = 12441;
  bool Json = false;
  bool Quiet = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "semcommute-indexgen: %s requires a value\n",
                     Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout);
      return 0;
    }
    if (Arg == "--out") {
      OutFile = NextValue("--out");
      continue;
    }
    if (Arg == "--selfcheck") {
      SelfCheck = static_cast<unsigned>(
          parseIntFlag("--selfcheck", NextValue("--selfcheck"), 0, UINT_MAX));
      continue;
    }
    if (Arg == "--threads") {
      Threads = static_cast<unsigned>(parseIntFlag(
          "--threads", NextValue("--threads"), 1, MaxThreadCount));
      continue;
    }
    if (Arg == "--seed") {
      Seed = static_cast<uint64_t>(
          parseIntFlag("--seed", NextValue("--seed"), 0));
      continue;
    }
    if (Arg == "--json") {
      Json = true;
      continue;
    }
    if (Arg == "--quiet") {
      Quiet = true;
      continue;
    }
    std::fprintf(stderr, "semcommute-indexgen: unknown option '%s'\n",
                 Arg.c_str());
    printUsage(stderr);
    return 2;
  }

  ExprFactory F;
  Catalog Cat(F);

  Stopwatch CompileTimer;
  CommutativityIndex Idx = CommutativityIndex::compile(Cat);
  double CompileMs = CompileTimer.millis();
  IndexStats Stats = Idx.stats();

  // The round-trip proof is not optional: an image that does not reload
  // identically must never be shipped.
  Stopwatch RoundTripTimer;
  std::string Image = Idx.serialize();
  std::optional<CommutativityIndex> Reloaded = CommutativityIndex::parse(Image);
  bool RoundTripOk = Reloaded && *Reloaded == Idx &&
                     Reloaded->serialize() == Image;
  double RoundTripMs = RoundTripTimer.millis();

  FuzzReport Fuzz;
  double FuzzMs = 0;
  if (SelfCheck > 0) {
    Stopwatch FuzzTimer;
    // Cross-check the *reloaded* index, so the fuzz covers the serializer
    // too, not just the compiler.
    Fuzz = crossCheck(Cat, RoundTripOk ? *Reloaded : Idx, Seed, SelfCheck,
                      Threads);
    FuzzMs = FuzzTimer.millis();
  }

  bool Ok = RoundTripOk && Fuzz.clean();

  if (Ok && !OutFile.empty()) {
    std::ofstream Out(OutFile, std::ios::binary);
    if (!Out || !(Out << Image) || !Out.flush()) {
      std::fprintf(stderr, "semcommute-indexgen: cannot write '%s'\n",
                   OutFile.c_str());
      return 2;
    }
  }

  if (Json) {
    json::Value Doc = json::Value::object();
    Doc.set("paper_conditions", json::Value::integer(Stats.PaperConditions));
    Doc.set("total_slots", json::Value::integer(Stats.TotalSlots));
    Doc.set("programs", json::Value::integer(Stats.Programs));
    Doc.set("constants", json::Value::integer(Stats.Constants));
    Doc.set("fallbacks", json::Value::integer(Stats.Fallbacks));
    Doc.set("constant_fraction", json::Value::number(Stats.constantFraction()));
    Doc.set("max_regs", json::Value::integer(Stats.MaxRegs));
    Doc.set("total_instructions",
            json::Value::integer(Stats.TotalInstructions));
    Doc.set("image_bytes", json::Value::integer(
                               static_cast<int64_t>(Image.size())));
    Doc.set("compile_ms", json::Value::number(CompileMs));
    Doc.set("round_trip_ok", json::Value::boolean(RoundTripOk));
    Doc.set("round_trip_ms", json::Value::number(RoundTripMs));
    json::Value FuzzDoc = json::Value::object();
    FuzzDoc.set("trials_per_condition", json::Value::integer(SelfCheck));
    FuzzDoc.set("threads", json::Value::integer(Threads));
    FuzzDoc.set("seed", json::Value::integer(static_cast<int64_t>(Seed)));
    FuzzDoc.set("trials", json::Value::integer(
                              static_cast<int64_t>(Fuzz.Trials)));
    FuzzDoc.set("program_trials",
                json::Value::integer(
                    static_cast<int64_t>(Fuzz.ProgramsChecked)));
    FuzzDoc.set("constant_trials",
                json::Value::integer(
                    static_cast<int64_t>(Fuzz.ConstantsChecked)));
    FuzzDoc.set("unsupported_slots",
                json::Value::integer(
                    static_cast<int64_t>(Fuzz.UnsupportedSlots)));
    FuzzDoc.set("mismatches", json::Value::integer(
                                  static_cast<int64_t>(Fuzz.Mismatches)));
    FuzzDoc.set("elapsed_ms", json::Value::number(FuzzMs));
    Doc.set("selfcheck", std::move(FuzzDoc));
    Doc.set("ok", json::Value::boolean(Ok));
    std::printf("%s\n", Doc.dump(2).c_str());
  }

  if (!Quiet) {
    std::fprintf(stderr,
                 "semcommute-indexgen: %u paper conditions -> %u slots "
                 "(%u programs, %u constant [%.1f%%], %u fallbacks), "
                 "%u instructions, max %u regs, %zu-byte image, "
                 "compiled in %.2f ms\n",
                 Stats.PaperConditions, Stats.TotalSlots, Stats.Programs,
                 Stats.Constants, 100.0 * Stats.constantFraction(),
                 Stats.Fallbacks, Stats.TotalInstructions, Stats.MaxRegs,
                 Image.size(), CompileMs);
    std::fprintf(stderr, "semcommute-indexgen: round-trip %s (%.2f ms)\n",
                 RoundTripOk ? "ok" : "FAILED", RoundTripMs);
    if (SelfCheck > 0) {
      std::fprintf(stderr,
                   "semcommute-indexgen: self-check %llu trials "
                   "(%llu program, %llu constant) on %u thread(s): "
                   "%llu mismatches, %llu unsupported slots (%.2f ms)\n",
                   static_cast<unsigned long long>(Fuzz.Trials),
                   static_cast<unsigned long long>(Fuzz.ProgramsChecked),
                   static_cast<unsigned long long>(Fuzz.ConstantsChecked),
                   Threads,
                   static_cast<unsigned long long>(Fuzz.Mismatches),
                   static_cast<unsigned long long>(Fuzz.UnsupportedSlots),
                   FuzzMs);
      for (const std::string &Diag : Fuzz.Diagnostics)
        std::fprintf(stderr, "semcommute-indexgen:   mismatch: %s\n",
                     Diag.c_str());
    }
    if (Ok && !OutFile.empty())
      std::fprintf(stderr, "semcommute-indexgen: wrote '%s'\n",
                   OutFile.c_str());
  }

  return Ok ? 0 : 1;
}
