//===- support/CommandLine.h - Flag-value parsing for the CLIs --*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flag-value rules the four CLIs (semcommute-verify, -serve, -lint
/// and -indexgen) share: an integer flag takes a whole decimal string
/// inside its range, and a list flag takes comma-separated names.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SUPPORT_COMMANDLINE_H
#define SEMCOMM_SUPPORT_COMMANDLINE_H

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace semcomm {

/// The largest value a --threads or --shards flag accepts. Each thread is
/// an OS thread and each shard a warm solver session, started without a
/// further cap, so a typo like `--threads 100000` must fail as a usage
/// error rather than ask the system for that many.
constexpr long MaxThreadCount = 256;

/// Parses \p Val, the value of \p Flag, as a whole-string decimal integer
/// in [\p Min, \p Max]; \p Max guards the narrower type the value is
/// stored in. Anything else — trailing text, a value `long` cannot hold,
/// a value outside the range — is a usage error: a one-line message
/// naming the flag and the value goes to stderr and the process exits
/// with status 2.
inline long parseIntFlag(const char *Flag, const char *Val, long Min,
                         long Max = LONG_MAX) {
  char *End = nullptr;
  errno = 0;
  long N = std::strtol(Val, &End, 10);
  if (End != Val && *End == '\0' && errno != ERANGE && N >= Min && N <= Max)
    return N;
  std::string Want = Min > 0 ? "a positive integer" : "an integer";
  if (Max != LONG_MAX)
    Want += " no larger than " + std::to_string(Max);
  std::fprintf(stderr, "%s wants %s, got '%s'\n", Flag, Want.c_str(), Val);
  std::exit(2);
}

/// Splits \p S at commas, dropping empty pieces ("a,,b," -> {a, b}).
inline std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t Comma = S.find(',', Start);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Start)
      Out.push_back(S.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

} // namespace semcomm

#endif // SEMCOMM_SUPPORT_COMMANDLINE_H
