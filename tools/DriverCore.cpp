//===- tools/DriverCore.cpp - Full-catalog verification driver ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "DriverCore.h"

#include "commute/ExhaustiveEngine.h"
#include "commute/SymbolicEngine.h"
#include "inverse/InverseVerifier.h"
#include "inverse/SymbolicInverseEngine.h"
#include "service/VerifyService.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>

using namespace semcomm;
using namespace semcomm::driver;

//===----------------------------------------------------------------------===//
// Job enumeration
//===----------------------------------------------------------------------===//

const char *driver::engineKindName(EngineKind E) {
  switch (E) {
  case EngineKind::Exhaustive:
    return "exhaustive";
  case EngineKind::Symbolic:
    return "symbolic";
  case EngineKind::Both:
    return "both";
  }
  return "exhaustive";
}

std::vector<const Family *>
driver::resolveFamilies(const std::vector<std::string> &Names,
                        std::string &Error) {
  Error.clear();
  std::vector<const Family *> All = allFamilies();
  if (Names.empty())
    return All;
  for (const std::string &N : Names)
    if (N == "all")
      return All;

  std::vector<const Family *> Picked;
  for (const Family *F : All) {
    bool Wanted = false;
    for (const std::string &N : Names)
      Wanted = Wanted || N == F->Name;
    if (Wanted)
      Picked.push_back(F);
  }
  for (const std::string &N : Names) {
    bool Known = false;
    for (const Family *F : All)
      Known = Known || N == F->Name;
    if (!Known) {
      Error = "unknown family '" + N +
              "' (expected all, Accumulator, Set, Map or ArrayList)";
      return {};
    }
  }
  return Picked;
}

std::vector<JobRecord> driver::enumerateJobs(const Catalog &C,
                                             const DriverOptions &Opts) {
  std::string Error;
  std::vector<const Family *> Fams = resolveFamilies(Opts.Families, Error);

  std::vector<EngineKind> Engines;
  if (Opts.Engine == EngineKind::Both)
    Engines = {EngineKind::Exhaustive, EngineKind::Symbolic};
  else
    Engines = {Opts.Engine};

  std::vector<JobRecord> Jobs;
  for (const Family *Fam : Fams) {
    if (Opts.Commutativity)
      for (EngineKind Eng : Engines)
        for (const ConditionEntry &E : C.entries(*Fam))
          for (ConditionKind K : {ConditionKind::Before,
                                  ConditionKind::Between,
                                  ConditionKind::After})
            for (MethodRole R :
                 {MethodRole::Soundness, MethodRole::Completeness}) {
              JobRecord J;
              J.Family = Fam->Name;
              J.Category = "commutativity";
              J.Engine = engineKindName(Eng);
              J.Op1 = E.op1().Name;
              J.Op2 = E.op2().Name;
              J.Kind = conditionKindName(K);
              J.Role = methodRoleName(R);
              Jobs.push_back(std::move(J));
            }
    if (Opts.Inverses)
      for (EngineKind Eng : Engines)
        for (const InverseSpec &S : buildInverseSpecs())
          if (S.Fam == Fam) {
            JobRecord J;
            J.Family = Fam->Name;
            J.Category = "inverse";
            J.Engine = engineKindName(Eng);
            J.Op1 = S.OpName;
            Jobs.push_back(std::move(J));
          }
  }
  return Jobs;
}

//===----------------------------------------------------------------------===//
// Parallel execution
//===----------------------------------------------------------------------===//

namespace {

/// Everything a worker needs to execute one job without touching shared
/// mutable state (exhaustive) or through anything but the thread-safe
/// factory (symbolic). Conditions and inverse specs are resolved up front,
/// on the main thread, so workers only evaluate.
struct PreparedJob {
  // Commutativity payload.
  const Family *Fam = nullptr;
  const ConditionEntry *Entry = nullptr;
  ConditionKind Kind = ConditionKind::Before;
  MethodRole Role = MethodRole::Soundness;
  bool Symbolic = false;
  // Inverse payload (Inverse != nullptr selects it).
  const InverseSpec *Inverse = nullptr;
};

/// Copies a symbolic method result into its job record.
void fillSymbolicRecord(const SymbolicResult &R, JobRecord &Out) {
  Out.Verified = R.Verified;
  Out.Scenarios = R.NumVcs;
  Out.Vcs = R.NumVcs;
  Out.Conflicts = R.SatConflicts;
  Out.MaxVcConflicts = R.MaxVcConflicts;
  Out.RetainedClauses = R.RetainedClauses;
  Out.DbReductions = R.DbReductions;
  Out.ReclaimedClauses = R.ReclaimedClauses;
  std::string Core;
  for (const std::string &L : R.CoreLabels)
    Core += (Core.empty() ? "" : ";") + L;
  Out.ProofCore = std::move(Core);
  Out.ProofQueries = R.ProofQueries;
  Out.ProofClauses = R.ProofClauses;
  Out.ProofChecked = R.ProofChecked;
  if (!R.Verified)
    Out.Note = R.Countermodel;
}

void runJob(const ExhaustiveEngine &Engine, const Catalog &C,
            const DriverOptions &Opts, const PreparedJob &P, JobRecord &Out) {
  Stopwatch Timer;
  if (P.Inverse && P.Symbolic) {
    SymbolicResult R =
        verifyInverseSymbolic(C.factory(), *P.Inverse,
                              Opts.SymbolicSeqLenBound,
                              Opts.SymbolicConflictBudget, Opts.SymbolicMode,
                              Opts.Certify);
    fillSymbolicRecord(R, Out);
  } else if (P.Inverse) {
    InverseVerifyResult R = verifyInverse(*P.Inverse, Opts.Bounds);
    Out.Verified = R.Verified;
    Out.Scenarios = R.ScenariosChecked;
    Out.Note = R.FailureNote;
  } else if (P.Symbolic) {
    assert(Opts.SymbolicMode == SolveMode::OneShot &&
           "warm symbolic commutativity jobs run in catalog shards");
    SymbolicEngine Sym(C.factory(), Opts.SymbolicSeqLenBound,
                       Opts.SymbolicConflictBudget, SolveMode::OneShot);
    Sym.setCertify(Opts.Certify);
    TestingMethod M;
    M.Entry = P.Entry;
    M.Kind = P.Kind;
    M.Role = P.Role;
    fillSymbolicRecord(Sym.verify(M), Out);
  } else {
    VerifyResult R =
        Engine.verifyCondition(*P.Fam, P.Entry->op1().Name,
                               P.Entry->op2().Name, P.Kind, P.Role,
                               P.Entry->get(P.Kind));
    Out.Verified = R.Verified;
    Out.Scenarios = R.ScenariosChecked;
    if (R.CE)
      Out.Note = R.CE->str();
  }
  Out.Millis = Timer.millis();
}

/// Per catalog entry, its six job indices in (kind x role) order.
using JobsByEntry = std::map<const ConditionEntry *, std::vector<size_t>>;

/// The unit of work of the warm path, one shard's whole life on one pool
/// worker: a VerifyService over the shared plan \p Plan is handed entries
/// \p Shard, \p Shard + \p NumShards, ... of every family, each with its
/// three condition kinds, in catalog order, so one prefix-batched drain
/// discharges every entry's six methods in (kind x role) order against one
/// pair scope. The service keeps no pair plans: each entry's plan is built
/// for its group and dropped once the pair's scope retires, so the shard
/// holds one pair plan at a time. The shard then checks its own proof
/// trace, fills the entries' job rows (\p JobsOf) and its stats row, and
/// is destroyed before the task ends.
void runShard(const Catalog &C, const DriverOptions &Opts,
              const std::vector<const Family *> &Fams, const CatalogPlan &Plan,
              const JobsByEntry &JobsOf, unsigned Shard, unsigned NumShards,
              std::vector<JobRecord> &Jobs, CatalogStats &Stats) {
  Stopwatch Timer;
  service::ServiceConfig Cfg;
  Cfg.Certify = Opts.Certify;
  Cfg.SeqLenBound = Opts.SymbolicSeqLenBound;
  Cfg.ConflictBudget = Opts.SymbolicConflictBudget;
  service::VerifyService Svc(C, Fams, Cfg, &Plan);

  std::vector<const std::vector<size_t> *> Served; // Per entry, in order.
  std::string Error;
  for (const Family *Fam : Fams) {
    const std::vector<ConditionEntry> &All = C.entries(*Fam);
    if (Shard >= All.size())
      continue; // The shard holds none of this family's entries.
    for (size_t I = Shard; I < All.size(); I += NumShards) {
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After}) {
        bool Queued = Svc.submit(
            {Fam->Name, All[I].op1().Name, All[I].op2().Name, K}, Error);
        assert(Queued && "a catalog entry the service does not serve");
        (void)Queued;
      }
      Served.push_back(&JobsOf.at(&All[I]));
    }
    Stats.FamilyNames += (Stats.FamilyNames.empty() ? "" : ",") + Fam->Name;
    ++Stats.Families;
  }

  std::vector<SymbolicResult> Methods;
  Svc.drain(&Methods);
  assert(Methods.size() == 6 * Served.size() &&
         "drain out of sync with the submitted entries");
  if (Opts.Certify) {
    Stopwatch CheckTimer;
    const proof::CertifySummary &Cert = Svc.finishCertification();
    Stats.ProofCheckMillis = CheckTimer.millis();
    for (SymbolicResult &R : Methods)
      stampCertification(Cert, R);
  }
  for (size_t P = 0; P != Served.size(); ++P)
    for (size_t M = 0; M != 6; ++M) {
      const SymbolicResult &R = Methods[6 * P + M];
      JobRecord &J = Jobs[(*Served[P])[M]];
      fillSymbolicRecord(R, J);
      J.Millis = R.Millis;
      Stats.Vcs += R.NumVcs;
    }

  service::ServiceStats SS = Svc.stats();
  static_cast<CatalogSessionStats &>(Stats) = SS.Session;
  Stats.Pairs = static_cast<unsigned>(Served.size());
  Stats.Methods = static_cast<unsigned>(Methods.size());
  Stats.PairPlanMillis = SS.PairPlanMillis;
  Stats.RetireMillis = SS.RetireMillis;
  Stats.Millis = Timer.millis();
}

} // namespace

Report driver::runFullCatalog(const Catalog &C, const DriverOptions &Opts) {
  std::string Error;
  std::vector<const Family *> Fams = resolveFamilies(Opts.Families, Error);
  if (!Error.empty()) {
    Report R;
    R.Threads = Opts.Threads == 0 ? 1 : Opts.Threads;
    R.Bounds = Opts.Bounds;
    R.Error = Error;
    return R;
  }

  // Force every lazily built singleton now, while single-threaded: family
  // definitions and the inverse-spec table. The catalog itself was built by
  // the caller; after this point workers only read.
  std::vector<InverseSpec> Inverses = buildInverseSpecs();

  std::vector<JobRecord> Jobs = enumerateJobs(C, Opts);
  std::vector<PreparedJob> Prepared(Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    JobRecord &J = Jobs[I];
    PreparedJob &P = Prepared[I];
    for (const Family *F : Fams)
      if (F->Name == J.Family)
        P.Fam = F;
    P.Symbolic = J.Engine == engineKindName(EngineKind::Symbolic);
    if (J.Category == "inverse") {
      for (const InverseSpec &S : Inverses)
        if (S.Fam == P.Fam && S.OpName == J.Op1)
          P.Inverse = &S;
    } else {
      P.Entry = &C.entry(*P.Fam, J.Op1, J.Op2);
      for (ConditionKind K : {ConditionKind::Before, ConditionKind::Between,
                              ConditionKind::After})
        if (J.Kind == conditionKindName(K))
          P.Kind = K;
      P.Role = J.Role == methodRoleName(MethodRole::Soundness)
                   ? MethodRole::Soundness
                   : MethodRole::Completeness;
    }
  }

  // Warm path: the symbolic commutativity jobs run on K = min(threads,
  // selected pairs) VerifyService shards over one shared catalog plan.
  // Shard k serves entries k, k + K, k + 2K, ... of every family, so the
  // shard layout — and with it every statistic — is a function of the
  // options alone; at one thread it is a single whole-catalog shard.
  // Enumeration emits each entry's six jobs contiguously in (kind x role)
  // order.
  unsigned Threads = Opts.Threads == 0 ? 1 : Opts.Threads;
  bool Warm = Opts.SymbolicMode == SolveMode::SharedCatalog;
  JobsByEntry JobsOf;
  if (Warm)
    for (size_t I = 0; I != Jobs.size(); ++I)
      if (Prepared[I].Symbolic && !Prepared[I].Inverse)
        JobsOf[Prepared[I].Entry].push_back(I);
  unsigned NumShards =
      static_cast<unsigned>(std::min<size_t>(Threads, JobsOf.size()));
  std::vector<CatalogStats> Shards(NumShards);
  CatalogPlan Plan;
  double CatalogPlanMillis = 0;

  ExhaustiveEngine Engine(Opts.Bounds);
  Stopwatch Wall;
  {
    ThreadPool Pool(Threads);
    for (size_t I = 0; I != Jobs.size(); ++I) {
      if (Warm && Prepared[I].Symbolic && !Prepared[I].Inverse)
        continue; // Runs inside its shard.
      Pool.submit([&Engine, &C, &Opts, &Prepared, &Jobs, I] {
        runJob(Engine, C, Opts, Prepared[I], Jobs[I]);
      });
    }
    // The shards share one plan; build it while the pool starts on the
    // jobs above.
    if (NumShards != 0) {
      Stopwatch PlanTimer;
      Plan = SymbolicEngine(C.factory(), Opts.SymbolicSeqLenBound)
                 .planCatalog(C, Fams);
      CatalogPlanMillis = PlanTimer.millis();
    }
    for (unsigned S = 0; S != NumShards; ++S)
      Pool.submit([&C, &Opts, &Fams, &Plan, &JobsOf, &Jobs, &Shards, S,
                   NumShards] {
        runShard(C, Opts, Fams, Plan, JobsOf, S, NumShards, Jobs, Shards[S]);
      });
    Pool.wait();
  }

  Report R;
  R.Threads = Threads;
  R.WallMillis = Wall.millis();
  R.Certified = Opts.Certify;
  R.Bounds = Opts.Bounds;
  R.Results = std::move(Jobs);
  R.CatalogSessions = std::move(Shards);
  R.CatalogPlanMillis = CatalogPlanMillis;

  for (const Family *Fam : Fams) {
    FamilySummary S;
    S.Family = Fam->Name;
    if (Opts.Commutativity)
      S.PaperConditions = static_cast<unsigned>(
          C.entries(*Fam).size() * 3 * Fam->StructureNames.size());
    for (const JobRecord &J : R.Results)
      if (J.Family == Fam->Name) {
        ++S.Jobs;
        if (!J.Verified)
          ++S.Failures;
        S.JobMillis += J.Millis;
        S.Scenarios += J.Scenarios;
        S.Vcs += J.Vcs;
        S.Conflicts += J.Conflicts;
        S.RetainedClauses = std::max(S.RetainedClauses, J.RetainedClauses);
        S.DbReductions += J.DbReductions;
        S.ReclaimedClauses += J.ReclaimedClauses;
      }
    R.Families.push_back(std::move(S));
  }
  return R;
}

unsigned Report::failures() const {
  if (!Error.empty())
    return 1;
  unsigned N = 0;
  for (const JobRecord &J : Results)
    if (!J.Verified)
      ++N;
  return N;
}

bool Report::sameVerdicts(const Report &O) const {
  if (Error != O.Error || Results.size() != O.Results.size())
    return false;
  for (size_t I = 0; I != Results.size(); ++I)
    if (Results[I].key() != O.Results[I].key() ||
        Results[I].Verified != O.Results[I].Verified ||
        Results[I].Scenarios != O.Results[I].Scenarios)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// JSON report
//===----------------------------------------------------------------------===//

json::Value Report::toJson() const {
  json::Value Root = json::Value::object();
  Root.set("tool", json::Value::string("semcommute-verify"));
  Root.set("threads", json::Value::integer(Threads));
  Root.set("wall_ms", json::Value::number(WallMillis));
  Root.set("catalog_plan_ms", json::Value::number(CatalogPlanMillis));
  if (Certified)
    Root.set("certify", json::Value::boolean(true));
  if (!Error.empty())
    Root.set("error", json::Value::string(Error));

  json::Value ScopeObj = json::Value::object();
  ScopeObj.set("set_universe", json::Value::integer(Bounds.SetUniverse));
  ScopeObj.set("map_keys", json::Value::integer(Bounds.MapKeys));
  ScopeObj.set("map_vals", json::Value::integer(Bounds.MapVals));
  ScopeObj.set("seq_vals", json::Value::integer(Bounds.SeqVals));
  ScopeObj.set("max_seq_len", json::Value::integer(Bounds.MaxSeqLen));
  ScopeObj.set("counter_range", json::Value::integer(Bounds.CounterRange));
  Root.set("scope", std::move(ScopeObj));

  json::Value FamArr = json::Value::array();
  for (const FamilySummary &S : Families) {
    json::Value F = json::Value::object();
    F.set("family", json::Value::string(S.Family));
    F.set("jobs", json::Value::integer(S.Jobs));
    F.set("failures", json::Value::integer(S.Failures));
    F.set("paper_conditions", json::Value::integer(S.PaperConditions));
    F.set("job_ms", json::Value::number(S.JobMillis));
    F.set("scenarios", json::Value::integer(
                           static_cast<int64_t>(S.Scenarios)));
    F.set("vcs", json::Value::integer(static_cast<int64_t>(S.Vcs)));
    F.set("sat_conflicts", json::Value::integer(S.Conflicts));
    F.set("retained_clauses", json::Value::integer(
                                  static_cast<int64_t>(S.RetainedClauses)));
    F.set("db_reductions", json::Value::integer(
                               static_cast<int64_t>(S.DbReductions)));
    F.set("reclaimed_clauses",
          json::Value::integer(static_cast<int64_t>(S.ReclaimedClauses)));
    FamArr.push(std::move(F));
  }
  Root.set("families", std::move(FamArr));

  if (!CatalogSessions.empty()) {
    json::Value CatArr = json::Value::array();
    for (const CatalogStats &S : CatalogSessions) {
      json::Value V = json::Value::object();
      V.set("family_names", json::Value::string(S.FamilyNames));
      V.set("families", json::Value::integer(S.Families));
      V.set("pairs", json::Value::integer(S.Pairs));
      V.set("methods", json::Value::integer(S.Methods));
      V.set("vcs", json::Value::integer(static_cast<int64_t>(S.Vcs)));
      V.set("checks", json::Value::integer(static_cast<int64_t>(S.Checks)));
      V.set("sat_conflicts", json::Value::integer(S.Conflicts));
      V.set("prefix_asserts",
            json::Value::integer(static_cast<int64_t>(S.PrefixAsserts)));
      V.set("prefix_reuses",
            json::Value::integer(static_cast<int64_t>(S.PrefixReuses)));
      V.set("pair_evictions",
            json::Value::integer(static_cast<int64_t>(S.PairsRetired)));
      V.set("evicted_clauses",
            json::Value::integer(static_cast<int64_t>(S.EvictedClauses)));
      V.set("recycled_vars",
            json::Value::integer(static_cast<int64_t>(S.RecycledVars)));
      V.set("peak_live_vars",
            json::Value::integer(static_cast<int64_t>(S.PeakLiveVars)));
      V.set("peak_live_clauses",
            json::Value::integer(static_cast<int64_t>(S.PeakLiveClauses)));
      V.set("var_requests",
            json::Value::integer(static_cast<int64_t>(S.VarRequests)));
      V.set("peak_retained_clauses",
            json::Value::integer(
                static_cast<int64_t>(S.PeakRetainedClauses)));
      V.set("pair_plan_ms", json::Value::number(S.PairPlanMillis));
      V.set("retire_ms", json::Value::number(S.RetireMillis));
      V.set("proof_check_ms", json::Value::number(S.ProofCheckMillis));
      V.set("ms", json::Value::number(S.Millis));
      CatArr.push(std::move(V));
    }
    Root.set("catalog_stats", std::move(CatArr));
  }

  json::Value ResArr = json::Value::array();
  for (const JobRecord &J : Results) {
    json::Value R = json::Value::object();
    R.set("family", json::Value::string(J.Family));
    R.set("category", json::Value::string(J.Category));
    R.set("engine", json::Value::string(J.Engine));
    R.set("op1", json::Value::string(J.Op1));
    R.set("op2", json::Value::string(J.Op2));
    R.set("kind", json::Value::string(J.Kind));
    R.set("role", json::Value::string(J.Role));
    R.set("verified", json::Value::boolean(J.Verified));
    R.set("scenarios",
          json::Value::integer(static_cast<int64_t>(J.Scenarios)));
    R.set("ms", json::Value::number(J.Millis));
    if (J.Vcs != 0) {
      // Solver statistics only exist on the symbolic path.
      R.set("vcs", json::Value::integer(static_cast<int64_t>(J.Vcs)));
      R.set("sat_conflicts", json::Value::integer(J.Conflicts));
      R.set("max_vc_conflicts", json::Value::integer(J.MaxVcConflicts));
      R.set("retained_clauses",
            json::Value::integer(static_cast<int64_t>(J.RetainedClauses)));
      R.set("db_reductions",
            json::Value::integer(static_cast<int64_t>(J.DbReductions)));
      R.set("reclaimed_clauses",
            json::Value::integer(static_cast<int64_t>(J.ReclaimedClauses)));
      if (!J.ProofCore.empty())
        R.set("proof_core", json::Value::string(J.ProofCore));
      if (Certified) {
        R.set("proof_queries",
              json::Value::integer(static_cast<int64_t>(J.ProofQueries)));
        R.set("proof_clauses",
              json::Value::integer(static_cast<int64_t>(J.ProofClauses)));
        R.set("proof_checked", json::Value::boolean(J.ProofChecked));
      }
    }
    if (!J.Note.empty())
      R.set("note", json::Value::string(J.Note));
    ResArr.push(std::move(R));
  }
  Root.set("results", std::move(ResArr));
  return Root;
}

//===----------------------------------------------------------------------===//
// Summary rendering
//===----------------------------------------------------------------------===//

std::string driver::renderSummary(const Report &R) {
  if (!R.Error.empty())
    return "error: " + R.Error + "\n";
  char Buf[256];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf),
                "%-12s %8s %10s %14s %12s %10s\n", "family", "jobs",
                "failures", "conditions", "scenarios", "job ms");
  Out += Buf;
  unsigned TotalJobs = 0, TotalFailures = 0, TotalConds = 0;
  uint64_t TotalScenarios = 0;
  double TotalMillis = 0;
  for (const FamilySummary &S : R.Families) {
    std::snprintf(Buf, sizeof(Buf), "%-12s %8u %10u %14u %12llu %10.1f\n",
                  S.Family.c_str(), S.Jobs, S.Failures, S.PaperConditions,
                  static_cast<unsigned long long>(S.Scenarios), S.JobMillis);
    Out += Buf;
    TotalJobs += S.Jobs;
    TotalFailures += S.Failures;
    TotalConds += S.PaperConditions;
    TotalScenarios += S.Scenarios;
    TotalMillis += S.JobMillis;
  }
  std::snprintf(Buf, sizeof(Buf), "%-12s %8u %10u %14u %12llu %10.1f\n",
                "total", TotalJobs, TotalFailures, TotalConds,
                static_cast<unsigned long long>(TotalScenarios), TotalMillis);
  Out += Buf;
  uint64_t TotalVcs = 0, PeakRetained = 0, TotalReductions = 0,
           TotalReclaimed = 0;
  int64_t TotalConflicts = 0;
  for (const FamilySummary &S : R.Families) {
    TotalVcs += S.Vcs;
    TotalConflicts += S.Conflicts;
    PeakRetained = std::max(PeakRetained, S.RetainedClauses);
    TotalReductions += S.DbReductions;
    TotalReclaimed += S.ReclaimedClauses;
  }
  if (TotalVcs != 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "symbolic path: %llu VCs discharged, %lld CDCL "
                  "conflicts, peak %llu retained clauses\n",
                  static_cast<unsigned long long>(TotalVcs),
                  static_cast<long long>(TotalConflicts),
                  static_cast<unsigned long long>(PeakRetained));
    Out += Buf;
    if (!R.CatalogSessions.empty()) {
      uint64_t Recycled = 0, PeakVars = 0, Demand = 0, PeakCls = 0;
      double PlanMs = 0, RetireMs = 0;
      for (const CatalogStats &S : R.CatalogSessions) {
        PlanMs += S.PairPlanMillis;
        RetireMs += S.RetireMillis;
        Recycled += S.RecycledVars;
        PeakVars = std::max(PeakVars, S.PeakLiveVars);
        PeakCls = std::max(PeakCls, S.PeakLiveClauses);
        Demand += S.VarRequests;
      }
      std::snprintf(Buf, sizeof(Buf),
                    "catalog sessions: %zu sessions, %.1f ms catalog plan, "
                    "%.1f ms pair planning, %.1f ms pair retirement, %llu "
                    "vars recycled (peak %llu live of %llu requested), peak "
                    "%llu live clauses\n",
                    R.CatalogSessions.size(), R.CatalogPlanMillis, PlanMs,
                    RetireMs,
                    static_cast<unsigned long long>(Recycled),
                    static_cast<unsigned long long>(PeakVars),
                    static_cast<unsigned long long>(Demand),
                    static_cast<unsigned long long>(PeakCls));
      Out += Buf;
    }
  }
  if (R.Certified) {
    size_t CertJobs = 0, CertOk = 0;
    uint64_t CertQueries = 0, CertPeak = 0;
    double CheckMs = 0;
    for (const CatalogStats &S : R.CatalogSessions)
      CheckMs += S.ProofCheckMillis;
    for (const JobRecord &J : R.Results) {
      if (J.Engine != engineKindName(EngineKind::Symbolic))
        continue;
      ++CertJobs;
      CertOk += J.ProofChecked;
      CertQueries += J.ProofQueries;
      CertPeak = std::max(CertPeak, J.ProofClauses);
    }
    std::snprintf(Buf, sizeof(Buf),
                  "certified: %zu/%zu symbolic jobs proof-checked, %llu "
                  "certificates, peak %llu checker clauses, %.1f ms proof "
                  "checking\n",
                  CertOk, CertJobs,
                  static_cast<unsigned long long>(CertQueries),
                  static_cast<unsigned long long>(CertPeak), CheckMs);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "wall time %.1f ms on %u thread%s; %u verification "
                "failure%s\n",
                R.WallMillis, R.Threads, R.Threads == 1 ? "" : "s",
                TotalFailures, TotalFailures == 1 ? "" : "s");
  Out += Buf;
  return Out;
}
