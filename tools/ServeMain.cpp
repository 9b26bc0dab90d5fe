//===- tools/ServeMain.cpp - semcommute-serve CLI ----------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// The warm catalog verification service loop: submits (family, pair,
// condition-kind) requests to the sharded front-end, ShardedVerifyService,
// whose warm sessions share one catalog plan and one pair plan store and
// serve prefix-batched pair groups, with bridge compaction and selector
// release keeping every session bounded across arbitrarily many catalog
// passes. By default it runs one shard on one thread, the single warm
// session:
//
//   semcommute-serve --families all --passes 3 --assert-plateau
//   semcommute-serve --requests 10000 --seed 7 --check-verdicts
//
// --threads N (or --shards N) serves from N shards, each encoding the
// catalog prefix itself; each drain places its pair groups on the shards
// by plan cost and drains them on the caller's thread plus a pool:
//
//   semcommute-serve --threads 4 --requests 10000 --check-verdicts
//
//===----------------------------------------------------------------------===//

#include "DriverCore.h"

#include "service/ShardedVerifyService.h"
#include "support/CommandLine.h"
#include "support/Timing.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace semcomm;
using namespace semcomm::service;

namespace {

void printUsage(const char *Argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Serves commutativity verification requests from warm catalog\n"
      "sessions behind one front-end: one session by default, N with\n"
      "--shards (bridge compaction + selector release keep each bounded).\n"
      "\n"
      "request stream (pick one):\n"
      "  --passes N        N full catalog passes: every entry x kind of\n"
      "                    every served family, in catalog order, one\n"
      "                    drain per pass (default: 1 pass)\n"
      "  --requests N      N random requests drawn with --seed, drained\n"
      "                    every --drain-every\n"
      "\n"
      "options:\n"
      "  --families LIST   comma-separated families to serve: all\n"
      "                    (default), Accumulator, Set, Map, ArrayList\n"
      "  --seed S          RNG seed for --requests (default: 1)\n"
      "  --drain-every K   drain the random stream every K requests\n"
      "                    (default: 64)\n"
      "  --seq-bound N     ArrayList case-split bound (default: 3)\n"
      "  --budget N        per-VC CDCL conflict budget (default: 200000)\n"
      "  --no-compact      disable bridge compaction\n"
      "  --certify         hinted proof logging + independent checking\n"
      "                    of every Unsat verdict the service produces\n"
      "\n"
      "sharding (ShardedVerifyService):\n"
      "  --threads N       threads that drain (default: 1): the caller's\n"
      "                    plus a pool of min(N, shards) - 1 workers\n"
      "  --shards N        warm sessions behind the front-end (default:\n"
      "                    --threads, so one session by default); each\n"
      "                    drain places whole pair groups on shards by\n"
      "                    plan cost, largest first onto the least loaded\n"
      "\n"
      "checks and output:\n"
      "  --check-verdicts  re-verify the served families in-process with\n"
      "                    SymbolicEngine::verifyCatalog (one catalog\n"
      "                    session, every pair retired, no compaction)\n"
      "                    and fail on any verdict mismatch\n"
      "  --assert-plateau  with --passes >= 3: fail unless pass 3's peak\n"
      "                    live vars/clauses/bridges are <= 1.05x pass 2's\n"
      "  --snapshot FILE   write the service image (counters, verdict log,\n"
      "                    per-shard config and counters) to FILE on exit\n"
      "  --reload FILE     restore a service image before serving\n"
      "  --json FILE       write service statistics to FILE ('-' stdout)\n"
      "  --quiet           print only the final summary line\n"
      "  --help            this message\n"
      "\n"
      "exit status: 0 on success; 1 on verification failure or a failed\n"
      "check; 2 on usage errors.\n",
      Argv0);
}

/// One catalog pass worth of requests: every entry x kind of every family.
std::vector<ServiceRequest>
catalogPassRequests(const Catalog &C, const std::vector<const Family *> &Fams) {
  std::vector<ServiceRequest> Reqs;
  for (const Family *Fam : Fams)
    for (const ConditionEntry &E : C.entries(*Fam))
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After})
        Reqs.push_back({Fam->Name, E.op1().Name, E.op2().Name, K});
  return Reqs;
}

struct PassPeaks {
  uint64_t Requests = 0;
  double Millis = 0;
  uint64_t PeakLiveVars = 0;
  uint64_t PeakLiveClauses = 0;
  uint64_t PeakLiveBridges = 0;
};

PassPeaks peaksOf(const ServiceStats &S, uint64_t Requests, double Millis) {
  PassPeaks P;
  P.Requests = Requests;
  P.Millis = Millis;
  P.PeakLiveVars = S.Session.PeakLiveVars;
  P.PeakLiveClauses = S.Session.PeakLiveClauses;
  P.PeakLiveBridges = S.Session.PeakLiveBridges;
  return P;
}

/// The front-end's counters and the session counters the report prints,
/// summed over its shards (each shard's peaks plateau individually, so the
/// total footprint plateaus). With one shard these are that shard's own.
ServiceStats totals(const ShardedServiceStats &SS) {
  ServiceStats Sum;
  Sum.Requests = SS.Requests;
  Sum.Drains = SS.Drains;
  Sum.ServeMillis = SS.ServeMillis;
  for (const ShardStats &Sh : SS.Shards) {
    Sum.PairGroups += Sh.Stats.PairGroups;
    Sum.BatchedReuses += Sh.Stats.BatchedReuses;
    Sum.MethodsDischarged += Sh.Stats.MethodsDischarged;
    Sum.PlansBuilt += Sh.Stats.PlansBuilt;
    Sum.RetireMillis += Sh.Stats.RetireMillis;
    const CatalogSessionStats &In = Sh.Stats.Session;
    CatalogSessionStats &Out = Sum.Session;
    Out.PairsOpened += In.PairsOpened;
    Out.PairsRetired += In.PairsRetired;
    Out.PrefixAsserts += In.PrefixAsserts;
    Out.PrefixReuses += In.PrefixReuses;
    Out.EvictedClauses += In.EvictedClauses;
    Out.PeakRetainedClauses += In.PeakRetainedClauses;
    Out.RecycledVars += In.RecycledVars;
    Out.PeakLiveVars += In.PeakLiveVars;
    Out.PeakLiveClauses += In.PeakLiveClauses;
    Out.VarRequests += In.VarRequests;
    Out.BridgeCompactions += In.BridgeCompactions;
    Out.ReleasedAtomVars += In.ReleasedAtomVars;
    Out.ReleasedSelectors += In.ReleasedSelectors;
    Out.LiveBridges += In.LiveBridges;
    Out.PeakLiveBridges += In.PeakLiveBridges;
  }
  return Sum;
}

/// The shards' serving time summed (each shard's busy_millis).
double shardBusyMillis(const ShardedServiceStats &SS) {
  double Busy = 0;
  for (const ShardStats &Sh : SS.Shards)
    Busy += Sh.Stats.ServeMillis;
  return Busy;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> FamilyNames;
  ShardedServiceConfig SCfg;
  ServiceConfig &Cfg = SCfg.Base;
  long Passes = 1;
  long RandomRequests = -1;
  unsigned Seed = 1;
  long DrainEvery = 64;
  bool CheckVerdicts = false, AssertPlateau = false, Quiet = false;
  std::string SnapshotPath, ReloadPath, JsonPath;
  unsigned ShardCount = 0; // Default: one shard per worker thread.

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
      FamilyNames = splitCommas(needValue("--families"));
    } else if (Arg == "--passes") {
      Passes = parseIntFlag("--passes", needValue("--passes"), 1);
    } else if (Arg == "--requests") {
      RandomRequests = parseIntFlag("--requests", needValue("--requests"), 1);
    } else if (Arg == "--seed") {
      Seed = static_cast<unsigned>(
          parseIntFlag("--seed", needValue("--seed"), LONG_MIN));
    } else if (Arg == "--drain-every") {
      DrainEvery =
          parseIntFlag("--drain-every", needValue("--drain-every"), 1);
    } else if (Arg == "--seq-bound") {
      // A bound below 1 would make every ArrayList split vacuous and
      // "verify" the family with zero VCs.
      Cfg.SeqLenBound = static_cast<int>(
          parseIntFlag("--seq-bound", needValue("--seq-bound"), 1, INT_MAX));
    } else if (Arg == "--budget") {
      Cfg.ConflictBudget =
          parseIntFlag("--budget", needValue("--budget"), LONG_MIN);
    } else if (Arg == "--no-compact") {
      Cfg.CompactBridges = false;
    } else if (Arg == "--certify") {
      Cfg.Certify = true;
    } else if (Arg == "--threads") {
      SCfg.Threads = static_cast<unsigned>(
          parseIntFlag("--threads", needValue("--threads"), 1, UINT_MAX));
    } else if (Arg == "--shards") {
      ShardCount = static_cast<unsigned>(
          parseIntFlag("--shards", needValue("--shards"), 1, UINT_MAX));
    } else if (Arg == "--check-verdicts") {
      CheckVerdicts = true;
    } else if (Arg == "--assert-plateau") {
      AssertPlateau = true;
    } else if (Arg == "--snapshot") {
      SnapshotPath = needValue("--snapshot");
    } else if (Arg == "--reload") {
      ReloadPath = needValue("--reload");
    } else if (Arg == "--json") {
      JsonPath = needValue("--json");
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", Arg.c_str());
      return 2;
    }
  }
  if (AssertPlateau && (RandomRequests >= 0 || Passes < 3)) {
    std::fprintf(stderr, "--assert-plateau requires --passes >= 3\n");
    return 2;
  }

  std::string Error;
  std::vector<const Family *> Fams =
      driver::resolveFamilies(FamilyNames, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 2;
  }

  ExprFactory F;
  Catalog C(F);
  SCfg.Shards = ShardCount ? ShardCount : SCfg.Threads;
  ShardedVerifyService Svc(C, Fams, SCfg);
  if (!Quiet && (SCfg.Shards > 1 || SCfg.Threads > 1))
    std::printf("sharded: %u shards, %u threads\n", SCfg.Shards,
                SCfg.Threads);

  if (!ReloadPath.empty()) {
    std::ifstream In(ReloadPath);
    if (!In) {
      std::fprintf(stderr, "cannot read %s\n", ReloadPath.c_str());
      return 2;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::optional<json::Value> Image = json::Value::parse(Buf.str());
    if (!Image || !Svc.restore(*Image, Error)) {
      std::fprintf(stderr, "reload failed: %s\n",
                   Error.empty() ? "unparsable snapshot" : Error.c_str());
      return 2;
    }
    if (!Quiet)
      std::printf("reloaded %zu verdicts from %s\n", Svc.log().size(),
                  ReloadPath.c_str());
  }
  size_t RestoredVerdicts = Svc.log().size();
  // What the restored shard images had counted, so that the summary line
  // reports this run alone.
  ServiceStats Restored = totals(Svc.stats());
  double RestoredBusy = shardBusyMillis(Svc.stats());

  std::vector<PassPeaks> PassStats;
  Stopwatch Total;

  if (RandomRequests >= 0) {
    // Random request stream, drained in fixed-size windows.
    std::vector<ServiceRequest> Universe = catalogPassRequests(C, Fams);
    if (Universe.empty()) {
      std::fprintf(stderr, "no catalog entries to serve\n");
      return 2;
    }
    std::mt19937 Rng(Seed);
    std::uniform_int_distribution<size_t> Pick(0, Universe.size() - 1);
    Stopwatch Window;
    uint64_t Submitted = 0;
    Svc.resetPeakStats();
    for (long R = 0; R != RandomRequests; ++R) {
      if (!Svc.submit(Universe[Pick(Rng)], Error)) {
        std::fprintf(stderr, "submit failed: %s\n", Error.c_str());
        return 2;
      }
      ++Submitted;
      if (Svc.pending() >= static_cast<size_t>(DrainEvery))
        Svc.drain();
    }
    Svc.drain();
    PassStats.push_back(peaksOf(totals(Svc.stats()), Submitted, Window.millis()));
  } else {
    // Full catalog passes: one drain per pass; per-pass peaks restart so
    // the plateau criterion compares passes, not the cumulative maximum.
    std::vector<ServiceRequest> PassReqs = catalogPassRequests(C, Fams);
    for (long P = 0; P != Passes; ++P) {
      Stopwatch PassTimer;
      Svc.resetPeakStats();
      for (const ServiceRequest &R : PassReqs)
        if (!Svc.submit(R, Error)) {
          std::fprintf(stderr, "submit failed: %s\n", Error.c_str());
          return 2;
        }
      Svc.drain();
      PassStats.push_back(
          peaksOf(totals(Svc.stats()), PassReqs.size(), PassTimer.millis()));
      if (!Quiet)
        std::printf("pass %ld: %zu requests, %.1f ms, peak live "
                    "vars=%llu clauses=%llu bridges=%llu\n",
                    P + 1, PassReqs.size(), PassStats.back().Millis,
                    (unsigned long long)PassStats.back().PeakLiveVars,
                    (unsigned long long)PassStats.back().PeakLiveClauses,
                    (unsigned long long)PassStats.back().PeakLiveBridges);
    }
  }
  double TotalMillis = Total.millis();

  int Exit = 0;
  ServiceStats S = totals(Svc.stats());

  // Every served request must have verified both of its testing methods
  // (the catalog is the paper's: everything verifies).
  uint64_t Failed = 0;
  for (const ServiceVerdict &V : Svc.log())
    Failed += !V.verified();
  if (Failed) {
    std::fprintf(stderr, "%llu of %zu requests failed verification\n",
                 (unsigned long long)Failed, Svc.log().size());
    Exit = 1;
  }

  if (AssertPlateau && PassStats.size() >= 3) {
    const PassPeaks &P2 = PassStats[PassStats.size() - 2];
    const PassPeaks &P3 = PassStats[PassStats.size() - 1];
    auto Bounded = [](uint64_t Late, uint64_t Early) {
      return static_cast<double>(Late) <=
             1.05 * static_cast<double>(Early);
    };
    if (!Bounded(P3.PeakLiveVars, P2.PeakLiveVars) ||
        !Bounded(P3.PeakLiveClauses, P2.PeakLiveClauses) ||
        !Bounded(P3.PeakLiveBridges, P2.PeakLiveBridges)) {
      std::fprintf(stderr,
                   "plateau violated: pass %zu peaks vars=%llu "
                   "clauses=%llu bridges=%llu vs pass %zu vars=%llu "
                   "clauses=%llu bridges=%llu\n",
                   PassStats.size(), (unsigned long long)P3.PeakLiveVars,
                   (unsigned long long)P3.PeakLiveClauses,
                   (unsigned long long)P3.PeakLiveBridges,
                   PassStats.size() - 1, (unsigned long long)P2.PeakLiveVars,
                   (unsigned long long)P2.PeakLiveClauses,
                   (unsigned long long)P2.PeakLiveBridges);
      Exit = 1;
    } else if (!Quiet) {
      std::printf("plateau holds: pass %zu within 1.05x of pass %zu\n",
                  PassStats.size(), PassStats.size() - 1);
    }
  }

  bool CertOk = true;
  if (Cfg.Certify) {
    proof::CertifySummary Cert = Svc.finishCertification();
    CertOk = Cert.Checked && Cert.Ok;
    if (!CertOk) {
      std::fprintf(stderr, "certification failed: %s\n",
                   Cert.Error.empty() ? "checker rejected the trace"
                                      : Cert.Error.c_str());
      Exit = 1;
    } else if (!Quiet) {
      std::printf("certified: %llu queries, %llu proof steps\n",
                  (unsigned long long)Cert.Queries,
                  (unsigned long long)Cert.Steps);
    }
  }

  if (CheckVerdicts) {
    // Independent reference: SymbolicEngine::verifyCatalog over the same
    // families, in a catalog session of its own that retires every pair
    // and family and never compacts. Verdicts must agree on every
    // (family, pair, kind) the service served.
    SymbolicEngine Ref(C.factory(), Cfg.SeqLenBound, Cfg.ConflictBudget,
                       SolveMode::SharedCatalog);
    CatalogOutcome Out = Ref.verifyCatalog(C, Fams);
    std::map<std::string, std::pair<bool, bool>> RefVerdicts;
    for (const FamilyOutcome &FO : Out.Families)
      for (size_t PI = 0; PI != FO.PairKeys.size(); ++PI)
        for (size_t K = 0; K != 3; ++K) {
          const std::vector<SymbolicResult> &Ms = FO.Pairs[PI].Methods;
          RefVerdicts[FO.Family + "|" + FO.PairKeys[PI] + "|" +
                      std::to_string(K)] = {Ms[2 * K].Verified,
                                            Ms[2 * K + 1].Verified};
        }
    uint64_t Mismatches = 0;
    for (const ServiceVerdict &V : Svc.log()) {
      std::string Key = V.Req.Family + "|" + V.Req.Op1 + "," + V.Req.Op2 +
                        "|" +
                        std::to_string(static_cast<size_t>(V.Req.Kind));
      auto It = RefVerdicts.find(Key);
      if (It == RefVerdicts.end() || It->second.first != V.Sound ||
          It->second.second != V.Complete) {
        std::fprintf(stderr, "verdict mismatch: %s %s,%s %s\n",
                     V.Req.Family.c_str(), V.Req.Op1.c_str(),
                     V.Req.Op2.c_str(), serviceKindName(V.Req.Kind));
        ++Mismatches;
      }
    }
    if (Mismatches) {
      std::fprintf(stderr,
                   "%llu verdict mismatches against the verifyCatalog "
                   "reference\n",
                   (unsigned long long)Mismatches);
      Exit = 1;
    } else if (!Quiet) {
      std::printf("verdicts match the verifyCatalog reference (%zu "
                  "requests)\n",
                  Svc.log().size());
    }
  }

  if (!SnapshotPath.empty()) {
    std::ofstream OutFile(SnapshotPath);
    if (!OutFile) {
      std::fprintf(stderr, "cannot write %s\n", SnapshotPath.c_str());
      return 2;
    }
    OutFile << Svc.snapshot().dump(2) << "\n";
  }

  if (!JsonPath.empty()) {
    json::Value J = Svc.snapshot();
    // The stats report extends the image with the session's solver
    // accounting and the per-pass peaks (the log stays: it is the
    // snapshot's payload and harmless in a stats file).
    json::Value Sess = json::Value::object();
    auto SetU = [&Sess](const char *K, uint64_t V) {
      Sess.set(K, json::Value::integer(static_cast<int64_t>(V)));
    };
    SetU("pair_groups", S.PairGroups);
    SetU("batched_reuses", S.BatchedReuses);
    SetU("plans_built", S.PlansBuilt);
    SetU("pairs_opened", S.Session.PairsOpened);
    SetU("pairs_retired", S.Session.PairsRetired);
    SetU("prefix_asserts", S.Session.PrefixAsserts);
    SetU("prefix_reuses", S.Session.PrefixReuses);
    SetU("evicted_clauses", S.Session.EvictedClauses);
    SetU("recycled_vars", S.Session.RecycledVars);
    SetU("peak_live_vars", S.Session.PeakLiveVars);
    SetU("peak_live_clauses", S.Session.PeakLiveClauses);
    SetU("var_requests", S.Session.VarRequests);
    SetU("bridge_compactions", S.Session.BridgeCompactions);
    SetU("released_atom_vars", S.Session.ReleasedAtomVars);
    SetU("released_selectors", S.Session.ReleasedSelectors);
    SetU("live_bridges", S.Session.LiveBridges);
    SetU("peak_live_bridges", S.Session.PeakLiveBridges);
    J.set("session", std::move(Sess));
    json::Value PassArr = json::Value::array();
    for (const PassPeaks &P : PassStats) {
      json::Value Row = json::Value::object();
      Row.set("requests",
              json::Value::integer(static_cast<int64_t>(P.Requests)));
      Row.set("millis", json::Value::number(P.Millis));
      Row.set("peak_live_vars",
              json::Value::integer(static_cast<int64_t>(P.PeakLiveVars)));
      Row.set("peak_live_clauses", json::Value::integer(
                                       static_cast<int64_t>(P.PeakLiveClauses)));
      Row.set("peak_live_bridges", json::Value::integer(
                                       static_cast<int64_t>(P.PeakLiveBridges)));
      PassArr.push(std::move(Row));
    }
    J.set("pass_stats", std::move(PassArr));
    // The front-end's numbers: warm-up decomposition, critical path and
    // the per-shard serving accounting.
    J.set("sharded_service", Svc.statsJson());
    uint64_t ServedNow = Svc.log().size() - RestoredVerdicts;
    // Expression nodes interned over the process lifetime: selectors
    // are epoch-named, so a warm loop grows the shared factory by at
    // least one node per selector it opens.
    J.set("factory_nodes", json::Value::integer(static_cast<int64_t>(
                               F.numNodes())));
    J.set("wall_millis", json::Value::number(TotalMillis));
    J.set("requests_per_sec",
          json::Value::number(TotalMillis > 0
                                  ? 1e3 * static_cast<double>(ServedNow) /
                                        TotalMillis
                                  : 0));
    std::string Text = J.dump(2) + "\n";
    if (JsonPath == "-") {
      std::fwrite(Text.data(), 1, Text.size(), stdout);
    } else {
      std::ofstream OutFile(JsonPath);
      if (!OutFile) {
        std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
        return 2;
      }
      OutFile << Text;
    }
  }

  // This run's counts: the request count and the pair groups and reuses
  // exclude a reloaded image's. Compactions, released selectors and
  // retirement time are never restored, so they count this process
  // already; the shards' busy time is restored, so it is a delta too.
  uint64_t ServedNow = Svc.log().size() - RestoredVerdicts;
  std::printf("served %llu requests in %.1f ms (%.1f req/s): %s; "
              "%llu pair groups, %llu batched reuses, %llu compactions, "
              "%llu selectors released; retire %.1f ms of %.1f ms shard "
              "busy\n",
              (unsigned long long)ServedNow, TotalMillis,
              TotalMillis > 0 ? 1e3 * (double)ServedNow / TotalMillis : 0.0,
              Exit == 0 ? "OK" : "FAILED",
              (unsigned long long)(S.PairGroups - Restored.PairGroups),
              (unsigned long long)(S.BatchedReuses - Restored.BatchedReuses),
              (unsigned long long)S.Session.BridgeCompactions,
              (unsigned long long)S.Session.ReleasedSelectors,
              S.RetireMillis, shardBusyMillis(Svc.stats()) - RestoredBusy);
  return Exit;
}
