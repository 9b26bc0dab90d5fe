//===- perfbench/src/CatalogWorkload.cpp - catalog_certify workload -------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
// One iteration is one driver::runFullCatalog call over all four families
// (1028 jobs: 765 paper conditions as 1020 testing methods, plus the 8
// Table 5.10 inverses) with the symbolic engine, shared-catalog sessions,
// certification on and 4 threads. Sessions are fresh every iteration; the
// catalog and its expression factory are built, and warmed by one full
// pass, during set-up. The input is fixed, so the seed is unused.
//
// The traced phase adds, per iteration, the component calls that split the
// verdict into layers: SymbolicEngine::planCatalog (commute),
// verifyCatalog with certification off (smt) and on (proof), and the 8
// verifyInverseSymbolic calls (inverse).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "DriverCore.h"
#include "commute/SymbolicEngine.h"
#include "inverse/InverseSpec.h"
#include "inverse/SymbolicInverseEngine.h"

#include <algorithm>
#include <memory>

using namespace semcomm;

namespace perfbench {
namespace {

constexpr int SeqLenBound = 3;
constexpr int64_t ConflictBudget = 200000;

/// Jobs of \p Rep that are missing, out of place, or whose verdict or
/// certificate differs from the expectation (every job verified and
/// proof-checked; with \p Corrupt, job 0 is expected to fail).
uint64_t failedJobs(const driver::Report &Rep,
                    const std::vector<std::string> &ExpectedKeys,
                    bool Corrupt) {
  if (!Rep.Error.empty())
    return ExpectedKeys.size();
  uint64_t Failed = 0;
  for (size_t I = 0; I != ExpectedKeys.size(); ++I) {
    if (I >= Rep.Results.size() || Rep.Results[I].key() != ExpectedKeys[I]) {
      ++Failed;
      continue;
    }
    const driver::JobRecord &J = Rep.Results[I];
    bool Expected = !(Corrupt && I == 0);
    Failed += (J.Verified && J.ProofChecked) != Expected;
  }
  return Failed;
}

struct Counts {
  uint64_t Vcs = 0, Conflicts = 0, PeakLiveVars = 0, PeakLiveClauses = 0;
  uint64_t Certificates = 0, PeakCheckerClauses = 0;
  bool operator==(const Counts &O) const {
    return Vcs == O.Vcs && Conflicts == O.Conflicts &&
           PeakLiveVars == O.PeakLiveVars &&
           PeakLiveClauses == O.PeakLiveClauses &&
           Certificates == O.Certificates &&
           PeakCheckerClauses == O.PeakCheckerClauses;
  }
};

Counts countsOf(const driver::Report &Rep) {
  Counts C;
  for (const driver::JobRecord &J : Rep.Results) {
    C.Vcs += J.Vcs;
    C.Conflicts += static_cast<uint64_t>(J.Conflicts);
    C.Certificates += J.ProofQueries;
    C.PeakCheckerClauses = std::max(C.PeakCheckerClauses, J.ProofClauses);
  }
  for (const driver::CatalogStats &S : Rep.CatalogSessions) {
    C.PeakLiveVars = std::max(C.PeakLiveVars, S.PeakLiveVars);
    C.PeakLiveClauses = std::max(C.PeakLiveClauses, S.PeakLiveClauses);
  }
  return C;
}

} // namespace

Result runCatalogCertify(const Options &O) {
  Result R;
  driver::DriverOptions Opts;
  Opts.Threads = 4;
  Opts.Engine = driver::EngineKind::Symbolic;
  Opts.SymbolicMode = SolveMode::SharedCatalog;
  Opts.SymbolicSeqLenBound = SeqLenBound;
  Opts.SymbolicConflictBudget = ConflictBudget;
  Opts.Certify = true;

  std::string Error;
  std::vector<const Family *> Fams = driver::resolveFamilies({}, Error);
  std::vector<InverseSpec> Inverses = buildInverseSpecs();

  // Set-up: a fresh factory and catalog, then one warm pass that interns
  // the catalog's expressions.
  std::unique_ptr<ExprFactory> F;
  std::unique_ptr<Catalog> C;
  std::vector<std::string> ExpectedKeys;
  std::vector<double> SetupSeconds = timeSetups([&] {
    C.reset();
    F = std::make_unique<ExprFactory>();
    C = std::make_unique<Catalog>(*F);
    driver::Report Warm = driver::runFullCatalog(*C, Opts);
    if (ExpectedKeys.empty())
      for (const driver::JobRecord &J : driver::enumerateJobs(*C, Opts))
        ExpectedKeys.push_back(J.key());
    R.Attempted += ExpectedKeys.size();
    R.Failed += failedJobs(Warm, ExpectedKeys, O.CorruptExpectation);
  });

  Tracer T;
  std::vector<driver::Report> TracedReports;
  double RssMb = 0;

  // One closed-loop phase of at least 3 iterations; returns per-call ms.
  auto phase = [&](double Seconds, bool Components) {
    std::vector<double> Lat;
    auto PhaseSpan = T.span("bench.traced_phase", 0);
    Clock::time_point Start = Clock::now();
    for (uint64_t It = 0;
         It < 3 || msBetween(Start, Clock::now()) < Seconds * 1e3; ++It) {
      auto IterSpan = T.span("bench.iteration", It);
      driver::Report Rep;
      Clock::time_point C0 = Clock::now();
      {
        auto S = T.span("tools.runFullCatalog", It);
        Rep = driver::runFullCatalog(*C, Opts);
      }
      Lat.push_back(msBetween(C0, Clock::now()));
      R.Attempted += ExpectedKeys.size();
      R.Failed += failedJobs(Rep, ExpectedKeys, O.CorruptExpectation);
      if (It + 1 == 3)
        RssMb = peakRssMb();
      if (!Components)
        continue;
      TracedReports.push_back(std::move(Rep));
      {
        auto S = T.span("commute.planCatalog", It);
        SymbolicEngine Eng(*F, SeqLenBound, ConflictBudget,
                           SolveMode::SharedCatalog);
        CatalogPlan Plan = Eng.planCatalog(*C, Fams);
        (void)Plan;
      }
      for (bool Certify : {false, true}) {
        auto S = T.span(Certify ? "proof.verifyCatalog" : "smt.verifyCatalog",
                        It);
        SymbolicEngine Eng(*F, SeqLenBound, ConflictBudget,
                           SolveMode::SharedCatalog);
        Eng.setCertify(Certify);
        CatalogOutcome Out = Eng.verifyCatalog(*C, Fams);
        for (const FamilyOutcome &FO : Out.Families)
          for (const PairOutcome &PO : FO.Pairs)
            R.Attempted += PO.Methods.size();
        R.Failed += Out.failures();
      }
      for (const InverseSpec &Spec : Inverses) {
        auto S = T.span("inverse.verifyInverseSymbolic", It);
        SymbolicResult Res =
            verifyInverseSymbolic(*F, Spec, SeqLenBound, ConflictBudget,
                                  SolveMode::SharedCatalog, /*Certify=*/true);
        ++R.Attempted;
        R.Failed += !(Res.Verified && Res.ProofChecked);
      }
    }
    return Lat;
  };

  if (!O.Trace) {
    std::vector<double> CallMs = phase(O.Seconds, false);
    double Busy = 0;
    for (double Ms : CallMs)
      Busy += Ms / 1e3;
    addSetup(SetupSeconds, R);
    addEndToEnd(CallMs, double(ExpectedKeys.size()) * CallMs.size(), Busy,
                RssMb,
                "certified catalog verification (1028 jobs)", R);
    return R;
  }

  std::vector<double> Untraced = phase(O.Seconds / 2, false);
  T.setOn(true);
  std::vector<double> Traced = phase(O.Seconds / 2, true);
  T.setOn(false);

  addSelfTimes(T, R);
  addTraceOverhead(Untraced, Traced, "runFullCatalog call", R);

  // tools: per-family job time and the share the largest family holds of
  // the call's wall time (the critical path of the family fan-out).
  std::map<std::string, std::vector<double>> FamilyMs;
  std::vector<double> CriticalShare;
  for (size_t I = 0; I != TracedReports.size(); ++I) {
    double Largest = 0;
    for (const driver::FamilySummary &FS : TracedReports[I].Families) {
      FamilyMs[FS.Family].push_back(FS.JobMillis);
      Largest = std::max(Largest, FS.JobMillis);
    }
    CriticalShare.push_back(Largest / Traced[I]);
  }
  for (const auto &[Family, Ms] : FamilyMs)
    R.add("tools.family_ms." + Family, median(Ms), "ms");
  R.add("tools.critical_path_share", median(CriticalShare), "share");

  double PlanMs = median(T.durations("commute.planCatalog"));
  double SolveMs = median(T.durations("smt.verifyCatalog"));
  double CertMs = median(T.durations("proof.verifyCatalog"));
  R.add("commute.plan_ms", PlanMs, "ms");
  R.add("smt.solve_ms", SolveMs, "ms");
  R.add("proof.overhead_ms", CertMs - SolveMs, "ms");
  R.add("inverse.verify_ms",
        median(T.sumsPerId("inverse.verifyInverseSymbolic")), "ms");

  Counts First = countsOf(TracedReports.front());
  size_t Differing = 0;
  for (const driver::Report &Rep : TracedReports)
    Differing += !(countsOf(Rep) == First);
  R.add("smt.vcs", double(First.Vcs), "count");
  R.add("smt.conflicts", double(First.Conflicts), "count");
  R.add("smt.peak_live_vars", double(First.PeakLiveVars), "count");
  R.add("smt.peak_live_clauses", double(First.PeakLiveClauses), "count");
  R.add("proof.certificates", double(First.Certificates), "count");
  R.add("proof.peak_checker_clauses", double(First.PeakCheckerClauses),
        "count");
  R.note("catalog counts: " + std::to_string(Differing) + " of " +
         std::to_string(TracedReports.size()) +
         " traced iterations differ from the first");

  if (!O.TraceOut.empty() && !T.write(O.TraceOut))
    R.note("could not write " + O.TraceOut);
  return R;
}

} // namespace perfbench
