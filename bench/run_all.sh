#!/usr/bin/env sh
# Builds the bench binaries and runs every one, collecting stdout into
# bench-results/<name>.txt. Google-Benchmark microbenches emit JSON
# (--benchmark_format/--benchmark_out) next to the text, and the whole run
# is aggregated into one machine-readable baseline, BENCH_semcommute.json,
# at the repo root: per-bench wall time + status, every BENCH_JSON line the
# plain benches print (e.g. perf_engine_scaling's session-mode comparison),
# the Google-Benchmark entries, and a driver-level solver-stat snapshot
# (per-family conflicts, peak retained clauses, clause-GC reclaim counts
# from a full symbolic `semcommute-verify` run) so conflict-count
# regressions are caught like wall-time regressions. Commit the baseline to
# track the perf trajectory across PRs.
#
# usage: bench/run_all.sh [build-dir] [results-dir] [baseline-json]
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
RESULTS_DIR=${2:-"$REPO_ROOT/bench-results"}
BASELINE_JSON=${3:-"$REPO_ROOT/BENCH_semcommute.json"}

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DSEMCOMM_BUILD_BENCHES=ON
cmake --build "$BUILD_DIR" -j

mkdir -p "$RESULTS_DIR"
TIMINGS_TSV="$RESULTS_DIR/timings.tsv"
: > "$TIMINGS_TSV"

PLAIN_BENCHES="
fig_2_1_hashset_spec
fig_2_2_testing_methods
fig_2_3_2_4_inverse_methods
fig_3_templates
fig_4_1_abstract_vs_concrete
perf_dynamic_check
perf_engine_scaling
perf_lattice_ablation
perf_speculation
table_5_01_accumulator
table_5_02_set_before
table_5_03_set_between
table_5_04_map_before
table_5_05_map_after
table_5_06_arraylist_between
table_5_07_arraylist_after
table_5_08_verification_times
table_5_09_proof_commands
table_5_10_inverses
tr_full_catalog
"

GOOGLE_BENCHES="
perf_inverse_vs_snapshot
perf_sat_solver
"

failures=0

record() { # name seconds status
  printf '%s\t%s\t%s\n' "$1" "$2" "$3" >> "$TIMINGS_TSV"
}

# Per-bench extra arguments. perf_speculation's full grid costs ~3 min of
# wall time; the default aggregation run uses a calibrated 250k-op budget
# (~17 s) that still exercises every grid cell, and SEMCOMM_BENCH_FULL=1
# restores the full-resolution grid. perf_engine_scaling gets the same
# treatment: its full sweep (exhaustive scope 5, symbolic bound 4, six GC
# budget points) costs ~24 s; --quick trims it to ~5 s while emitting
# every BENCH_JSON metric name.
bench_args() { # name
  case "$1" in
    perf_engine_scaling)
      [ "${SEMCOMM_BENCH_FULL:-0}" = "1" ] || echo "--quick" ;;
    perf_speculation)
      [ "${SEMCOMM_BENCH_FULL:-0}" = "1" ] || echo "--ops 250000" ;;
  esac
}

now() { # fractional seconds; %N is GNU-only, so keep this POSIX-portable
  python3 -c 'import time; print(f"{time.time():.3f}")'
}

for bench in $PLAIN_BENCHES; do
  bin="$BUILD_DIR/$bench"
  if [ ! -x "$bin" ]; then
    echo "MISSING $bench (not built?)"
    record "$bench" 0 missing
    failures=$((failures + 1))
    continue
  fi
  echo "== $bench"
  start=$(now)
  # shellcheck disable=SC2046 # bench_args emits space-separated flags
  if "$bin" $(bench_args "$bench") > "$RESULTS_DIR/$bench.txt" 2>&1
  then status=ok; else
    status=failed
    echo "FAILED  $bench (see $RESULTS_DIR/$bench.txt)"
    failures=$((failures + 1))
  fi
  end=$(now)
  record "$bench" "$(awk "BEGIN{printf \"%.3f\", $end - $start}")" "$status"
done

for bench in $GOOGLE_BENCHES; do
  bin="$BUILD_DIR/$bench"
  if [ ! -x "$bin" ]; then
    echo "SKIP    $bench (Google Benchmark not available)"
    record "$bench" 0 skipped
    continue
  fi
  echo "== $bench"
  start=$(now)
  if "$bin" --benchmark_out="$RESULTS_DIR/$bench.json" \
            --benchmark_out_format=json \
            > "$RESULTS_DIR/$bench.txt" 2>&1
  then status=ok; else
    status=failed
    echo "FAILED  $bench (see $RESULTS_DIR/$bench.txt)"
    failures=$((failures + 1))
  fi
  end=$(now)
  record "$bench" "$(awk "BEGIN{printf \"%.3f\", $end - $start}")" "$status"
done

# Driver-level solver-stat snapshot: a full symbolic run of the catalog,
# whose per-family conflict / retained-clause / clause-GC numbers join the
# committed baseline alongside the wall-time metrics.
DRIVER_BIN="$BUILD_DIR/semcommute-verify"
DRIVER_JSON="$RESULTS_DIR/driver_solver_stats.json"
if [ -x "$DRIVER_BIN" ]; then
  echo "== semcommute-verify (symbolic solver-stat snapshot)"
  start=$(now)
  if "$DRIVER_BIN" --families all --engine symbolic --quiet \
       --json "$DRIVER_JSON" > "$RESULTS_DIR/driver_solver_stats.txt" 2>&1
  then status=ok; else
    status=failed
    echo "FAILED  semcommute-verify (see $RESULTS_DIR/driver_solver_stats.txt)"
    failures=$((failures + 1))
  fi
  end=$(now)
  record "driver_solver_stats" \
    "$(awk "BEGIN{printf \"%.3f\", $end - $start}")" "$status"
else
  echo "MISSING semcommute-verify (not built?)"
  record "driver_solver_stats" 0 missing
  failures=$((failures + 1))
fi

# Catalog-tier snapshot: one warm solver for the whole catalog
# (--solve-mode shared-catalog at one thread), whose subtree-retirement /
# variable-recycling / peak-liveness counters join the baseline so
# catalog-session regressions (unbounded variable growth, lost prefix
# amortization) are caught like wall-time ones.
CATALOG_JSON="$RESULTS_DIR/driver_catalog_stats.json"
if [ -x "$DRIVER_BIN" ]; then
  echo "== semcommute-verify (shared-catalog session snapshot)"
  start=$(now)
  if "$DRIVER_BIN" --families all --engine symbolic \
       --solve-mode shared-catalog --threads 1 --quiet \
       --json "$CATALOG_JSON" > "$RESULTS_DIR/driver_catalog_stats.txt" 2>&1
  then status=ok; else
    status=failed
    echo "FAILED  semcommute-verify shared-catalog (see $RESULTS_DIR/driver_catalog_stats.txt)"
    failures=$((failures + 1))
  fi
  end=$(now)
  record "driver_catalog_stats" \
    "$(awk "BEGIN{printf \"%.3f\", $end - $start}")" "$status"
else
  record "driver_catalog_stats" 0 missing
fi

# Certification snapshot: the same one-thread shared-catalog run with
# --certify, so the baseline records the cost of proof logging + the
# in-process proof check relative to the uncertified run directly above
# (certify_overhead_x) alongside the certificate counts.
CERTIFY_JSON="$RESULTS_DIR/driver_certify_stats.json"
if [ -x "$DRIVER_BIN" ]; then
  echo "== semcommute-verify (certified shared-catalog snapshot)"
  start=$(now)
  if "$DRIVER_BIN" --families all --engine symbolic \
       --solve-mode shared-catalog --threads 1 --certify --quiet \
       --json "$CERTIFY_JSON" > "$RESULTS_DIR/driver_certify_stats.txt" 2>&1
  then status=ok; else
    status=failed
    echo "FAILED  semcommute-verify certify (see $RESULTS_DIR/driver_certify_stats.txt)"
    failures=$((failures + 1))
  fi
  end=$(now)
  record "driver_certify_stats" \
    "$(awk "BEGIN{printf \"%.3f\", $end - $start}")" "$status"
else
  record "driver_certify_stats" 0 missing
fi

# Service-loop snapshot: a 3-pass full-catalog semcommute-serve run on the
# one-shard front-end (serve_batched) whose request rate and per-pass live
# peaks join the baseline as service_stats, so serving regressions (a
# warm session that stops plateauing) are caught like wall-time ones.
SERVE_BIN="$BUILD_DIR/semcommute-serve"
if [ -x "$SERVE_BIN" ]; then
  name=serve_batched
  echo "== semcommute-serve ($name)"
  start=$(now)
  if "$SERVE_BIN" --families all --passes 3 \
       --json "$RESULTS_DIR/$name.json" --quiet \
       > "$RESULTS_DIR/$name.txt" 2>&1
  then status=ok; else
    status=failed
    echo "FAILED  semcommute-serve $name (see $RESULTS_DIR/$name.txt)"
    failures=$((failures + 1))
  fi
  end=$(now)
  record "$name" "$(awk "BEGIN{printf \"%.3f\", $end - $start}")" "$status"
else
  echo "MISSING semcommute-serve (not built?)"
  record serve_batched 0 missing
  failures=$((failures + 1))
fi

# Sharded-service snapshots: the same 3-pass full-catalog workload through
# the sharded front-end (4 shards over one shared plan, each encoding the
# catalog prefix itself) at 1/2/4/8 drain threads. Their aggregate request
# rates and warm-up decomposition (the shared plan, plan + shard 0, and the
# average later shard) join the baseline as sharded_service_stats;
# serve_batched above is the one-shard baseline the scaling ratios are
# taken against.
if [ -x "$SERVE_BIN" ]; then
  for threads in 1 2 4 8; do
    name="serve_sharded_t$threads"
    echo "== semcommute-serve ($name)"
    start=$(now)
    if "$SERVE_BIN" --families all --passes 3 --shards 4 \
         --threads "$threads" \
         --json "$RESULTS_DIR/$name.json" --quiet \
         > "$RESULTS_DIR/$name.txt" 2>&1
    then status=ok; else
      status=failed
      echo "FAILED  semcommute-serve $name (see $RESULTS_DIR/$name.txt)"
      failures=$((failures + 1))
    fi
    end=$(now)
    record "$name" "$(awk "BEGIN{printf \"%.3f\", $end - $start}")" "$status"
  done
else
  for threads in 1 2 4 8; do
    record "serve_sharded_t$threads" 0 missing
  done
fi

python3 - "$RESULTS_DIR" "$TIMINGS_TSV" "$BASELINE_JSON" <<'EOF'
import json, os, sys

results_dir, timings_tsv, out_path = sys.argv[1:4]

benches = []
with open(timings_tsv) as f:
    for line in f:
        name, seconds, status = line.rstrip("\n").split("\t")
        benches.append({"name": name, "seconds": float(seconds),
                        "status": status})

# Only the benches this run actually executed (recorded in timings.tsv)
# are scanned, so stale outputs of renamed or removed benches never leak
# into the committed baseline.
ran = [b["name"] for b in benches if b["status"] == "ok"]

# BENCH_JSON lines printed by the plain benches (machine-readable metrics
# such as perf_engine_scaling's one-shot-vs-incremental comparison).
inline_metrics = []
for name in ran:
    path = os.path.join(results_dir, name + ".txt")
    if not os.path.exists(path):
        continue
    with open(path) as f:
        for line in f:
            if line.startswith("BENCH_JSON "):
                try:
                    inline_metrics.append(json.loads(line[len("BENCH_JSON "):]))
                except json.JSONDecodeError:
                    pass

google = {}
for name in ran:
    path = os.path.join(results_dir, name + ".json")
    if not os.path.exists(path):
        continue
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError:
            continue
    rows = [{k: b.get(k) for k in
             ("name", "real_time", "cpu_time", "time_unit", "iterations")}
            for b in doc.get("benchmarks", [])]
    if rows:
        google[name] = rows

# Driver-level solver statistics: per-family conflict / retained-clause /
# clause-GC counters plus the catalog-session aggregates, so the committed
# baseline catches solver-behavior regressions (conflict blowups, unbounded
# clause retention), not just wall-time ones.
driver_stats = None
driver_path = os.path.join(results_dir, "driver_solver_stats.json")
if os.path.exists(driver_path):
    try:
        with open(driver_path) as f:
            report = json.load(f)
    except json.JSONDecodeError:
        report = None
    if report:
        fams = [{k: fam.get(k) for k in
                 ("family", "jobs", "vcs", "sat_conflicts",
                  "retained_clauses", "db_reductions", "reclaimed_clauses")}
                for fam in report.get("families", [])]
        sessions = report.get("catalog_stats", [])
        driver_stats = {
            "engine": "symbolic",
            "families": fams,
            "catalog_sessions": {
                "sessions": len(sessions),
                "pairs": sum(s.get("pairs", 0) for s in sessions),
                "checks": sum(s.get("checks", 0) for s in sessions),
                "sat_conflicts": sum(s.get("sat_conflicts", 0)
                                     for s in sessions),
                "peak_retained_clauses": max(
                    (s.get("peak_retained_clauses", 0) for s in sessions),
                    default=0),
            },
        }

# Catalog-session statistics from the shared-catalog snapshot run: the
# single one-thread session's prefix/retirement/recycling counters.
catalog_stats = None
catalog_path = os.path.join(results_dir, "driver_catalog_stats.json")
if os.path.exists(catalog_path):
    try:
        with open(catalog_path) as f:
            report = json.load(f)
    except json.JSONDecodeError:
        report = None
    if report:
        catalog_stats = {
            "engine": "symbolic",
            "mode": "shared-catalog",
            "sessions": report.get("catalog_stats", []),
        }

# Certification statistics from the --certify snapshot: certificate and
# checker-database counts, whether every proof checked, and the wall-time
# ratio against the uncertified shared-catalog run (certify_overhead_x).
certify_stats = None
certify_path = os.path.join(results_dir, "driver_certify_stats.json")
if os.path.exists(certify_path):
    try:
        with open(certify_path) as f:
            report = json.load(f)
    except json.JSONDecodeError:
        report = None
    if report and report.get("certify"):
        sym = [r for r in report.get("results", [])
               if r.get("engine") == "symbolic"]
        plain_wall = None
        if catalog_stats is not None:
            try:
                with open(catalog_path) as f:
                    plain_wall = json.load(f).get("wall_ms")
            except (json.JSONDecodeError, OSError):
                pass
        wall = report.get("wall_ms")
        certify_stats = {
            "engine": "symbolic",
            "mode": "shared-catalog",
            "jobs": len(sym),
            "jobs_proof_checked": sum(1 for r in sym
                                      if r.get("proof_checked")),
            "proof_queries": sum(r.get("proof_queries", 0) for r in sym),
            "peak_proof_clauses": max((r.get("proof_clauses", 0)
                                       for r in sym), default=0),
            "wall_ms": wall,
            "certify_overhead_x": (round(wall / plain_wall, 3)
                                   if wall and plain_wall else None),
        }

# Compiled commutativity-index statistics from perf_dynamic_check's
# index_summary line: the interpreted-vs-indexed-vs-constant-bitmap
# speedups and the compiled image shape, so index regressions (lost
# constant coverage, a slowed VM) are caught like wall-time ones.
index_stats = None
for m in inline_metrics:
    if (m.get("bench") == "perf_dynamic_check"
            and m.get("metric") == "index_summary"):
        index_stats = {k: v for k, v in m.items()
                       if k not in ("bench", "metric")}

# Speculative-executor statistics from perf_speculation: the summary line
# (gatekeeper indexed-vs-interpreted ratios from the scheduler-interleaved
# replay cells, thread-scaling factors, storm undone-op counts) plus the
# full grid rows as curves, so executor regressions (a slowed gatekeeper,
# an abort storm that stops converging) are caught like wall-time ones.
speculation_stats = None
spec_rows = [m for m in inline_metrics
             if (m.get("bench") == "perf_speculation"
                 and m.get("metric") == "speculation_grid")]
for m in inline_metrics:
    if (m.get("bench") == "perf_speculation"
            and m.get("metric") == "speculation_summary"):
        speculation_stats = {k: v for k, v in m.items()
                             if k not in ("bench", "metric")}
if speculation_stats is not None and spec_rows:
    speculation_stats["grid"] = [
        {k: v for k, v in row.items() if k not in ("bench", "metric")}
        for row in spec_rows]

# Verification-service statistics from the one-shard semcommute-serve
# snapshot run: the request rate, pair groups and batched reuses, live
# peaks, released selectors, and how many passes the run needed before its
# live peaks plateaued (successive passes within 1.05x).
def load_serve(name):
    path = os.path.join(results_dir, name + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError:
        return None

service_stats = None
serve_batched = load_serve("serve_batched")
if serve_batched:
    def live_peaks(doc):
        sess = doc.get("session", {})
        return {k: sess.get("peak_live_" + k)
                for k in ("vars", "clauses", "bridges")}
    passes = serve_batched.get("pass_stats", [])
    passes_to_plateau = None
    for i in range(1, len(passes)):
        prev, cur = passes[i - 1], passes[i]
        if all(cur.get("peak_live_" + k, 0)
               <= 1.05 * max(prev.get("peak_live_" + k, 0), 1)
               for k in ("vars", "clauses", "bridges")):
            passes_to_plateau = i + 1
            break
    sess = serve_batched.get("session", {})
    service_stats = {
        "passes": len(passes),
        "requests": sum(p.get("requests", 0) for p in passes),
        "req_per_sec_batched": serve_batched.get("requests_per_sec"),
        "pair_groups": sess.get("pair_groups"),
        "batched_reuses": sess.get("batched_reuses"),
        "released_selectors": sess.get("released_selectors"),
        "peaks": live_peaks(serve_batched),
        "passes_to_plateau": passes_to_plateau,
    }

# Sharded-service statistics from the serve_sharded_t{1,2,4,8} runs: the
# warm-up decomposition (the shared plan, plan + shard 0, and the average
# construction of shards 1..3 over that plan), the aggregate request rate
# at each thread count with its ratio over the one-shard serve_batched
# baseline. The host CPU count is
# recorded because the thread-scaling ratios are meaningless without it
# (a 1-CPU container pins them at ~1x).
sharded_service_stats = None
sharded_runs = {}
for threads in (1, 2, 4, 8):
    doc_t = load_serve(f"serve_sharded_t{threads}")
    if doc_t and doc_t.get("sharded_service"):
        sharded_runs[threads] = doc_t
if sharded_runs:
    base_rps = (serve_batched or {}).get("requests_per_sec")
    first = next(iter(sharded_runs.values()))["sharded_service"]
    per_thread = []
    for threads, doc_t in sorted(sharded_runs.items()):
        rps = doc_t.get("requests_per_sec")
        per_thread.append({
            "threads": threads,
            "req_per_sec": rps,
            "speedup_vs_single_x": (round(rps / base_rps, 3)
                                    if rps and base_rps else None),
        })
    sharded_service_stats = {
        "shards": first.get("shards"),
        "cpus": first.get("cpus"),
        "plan_millis": first.get("plan_millis"),
        "warmup_scratch_millis": first.get("warmup_scratch_millis"),
        "warmup_import_millis_avg": first.get("warmup_import_millis_avg"),
        "req_per_sec_single_session": base_rps,
        "per_thread": per_thread,
    }

doc = {
    "schema": 10,
    "tool": "bench/run_all.sh",
    "benches": benches,
    "inline_metrics": inline_metrics,
    "google_benchmarks": google,
    "driver_solver_stats": driver_stats,
    "driver_catalog_stats": catalog_stats,
    "driver_certify_stats": certify_stats,
    "index_stats": index_stats,
    "speculation_stats": speculation_stats,
    "service_stats": service_stats,
    "sharded_service_stats": sharded_service_stats,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"baseline written to {out_path}")
EOF

echo "bench outputs collected in $RESULTS_DIR"
exit "$([ "$failures" -eq 0 ] && echo 0 || echo 1)"
