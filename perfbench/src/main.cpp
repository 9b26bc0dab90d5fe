//===- perfbench/src/main.cpp - End-to-end benchmark driver ---------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// One process drives one workload through the public entry points of its
// layer and prints a run header, one line per metric, and, as the last
// line, the JSON result:
//
//   semcommute-perfbench --workload serve_stream --seed 3 --seconds 10 \
//       --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// first repeats the untraced loop for half the time (the tracing-overhead
// baseline), then records spans around every layer call for the other
// half and reports the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct WorkloadInfo {
  const char *Name;
  const char *Why;
};

const WorkloadInfo Workloads[] = {
    {"catalog_certify",
     "the paper's product: all 1028 jobs certified at 4 threads; prefix "
     "encoding, CDCL solving and RUP checking dominate"},
    {"serve_stream",
     "warm sharded serving of Zipf-skewed 64-request windows: routing, "
     "prefix batching, shard fan-out and compaction"},
    {"txn_low",
     "speculative HashTable txns over 8192 keys / 32 shards: admission "
     "queries and dispatch dominate, conflicts are rare"},
    {"txn_high",
     "the same executor over 48 keys / 4 shards: wound-wait, waiting and "
     "inverse rollback dominate; the honest target is serial speed"},
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--tiny] [--corrupt-expectation] "
               "[--trace-out FILE]\n"
               "workloads: catalog_certify serve_stream txn_low txn_high\n",
               Argv0);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto value = [&]() -> const char * {
      if (I + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--workload") {
      O.Workload = value();
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(value(), nullptr, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::atof(value());
    } else if (Arg == "--trace") {
      O.Trace = std::atoi(value()) != 0;
    } else if (Arg == "--trace-out") {
      O.TraceOut = value();
    } else if (Arg == "--tiny") {
      O.Tiny = true;
    } else if (Arg == "--corrupt-expectation") {
      O.CorruptExpectation = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!HaveWorkload || !(O.Seconds > 0)) {
    usage(argv[0]);
    return 2;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "cpus=%u compiler=%s build_type=%s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  for (const WorkloadInfo &W : Workloads)
    std::printf("# why %s: %s\n", W.Name, W.Why);
  std::fflush(stdout);

  double StealAtStart = hostStealMs();
  Result R;
  if (O.Workload == "catalog_certify") {
    R = runCatalogCertify(O);
  } else if (O.Workload == "serve_stream") {
    R = runServeStream(O);
  } else if (O.Workload == "txn_low" || O.Workload == "txn_high") {
    R = runTxn(O, O.Workload == "txn_high");
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", O.Workload.c_str());
    usage(argv[0]);
    return 2;
  }

  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  // Time the hypervisor took from this machine's CPUs while the run went
  // on: the usual cause of a run that reads far slower than its neighbours.
  std::printf("# host steal during the run: %.0f ms of CPU time\n",
              hostStealMs() - StealAtStart);
  std::printf("# error_share %.6g (%llu failed of %llu attempted)\n",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const Metric &M : R.Metrics)
    std::printf("metric %-36s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
