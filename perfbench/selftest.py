#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

Usage, from the root of a checkout (builds like run.py on first use):

    python3 perfbench/selftest.py [workload ...]

For every workload (default: all in BENCHMARK.json) it checks that

  * an untraced run reports every end-to-end metric with its unit, is
    correct, and fails nothing;
  * a traced run reports every per-layer metric with its unit and its layer
    self times reconcile with the traced wall time within 5%;
  * the deterministic counts repeat exactly across two traced runs at one
    seed (parallel executor counters are not deterministic and are not
    compared);
  * a run with a deliberately corrupted expectation reports failures, so
    error_share = failed / attempted rises above 0.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "1"

# Counts that must repeat exactly across two runs at one seed.
DETERMINISTIC_ON = {
    "catalog_certify": ["smt.vcs", "smt.conflicts", "proof.certificates"],
    "serve_stream": ["service.batch_reuse_share"] + [
        "service.shard_requests.%d" % s for s in range(4)],
}


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", SECONDS, "--trace",
           str(trace), "--tiny"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd),
                                                    proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(result, wanted, what):
    errors = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            errors.append("%s: missing %s" % (what, m["name"]))
        elif got["unit"] != m["unit"]:
            errors.append("%s: %s has unit %s, want %s"
                          % (what, m["name"], got["unit"], m["unit"]))
    return errors


def check_workload(spec, workload):
    errors = []
    plain = run(workload, 0)
    errors += check_metrics(plain, spec["end_to_end"], workload + " trace 0")
    if not plain["correct"] or plain["failed"] != 0:
        errors.append("%s: untraced run not correct (%d of %d failed)"
                      % (workload, plain["failed"], plain["attempted"]))

    traced = [run(workload, 1) for _ in range(2)]
    for t in traced:
        errors += check_metrics(t, spec["per_layer"], workload + " trace 1")
        if not t["correct"]:
            errors.append("%s: traced run not correct" % workload)
        share = t["metrics"]["bench.attributed_share"]["value"]
        if share < 0.95:
            errors.append("%s: layer self times cover only %.3f of the "
                          "traced wall time" % (workload, share))
    for name in DETERMINISTIC_ON.get(workload, []):
        a, b = (t["metrics"][name]["value"] for t in traced)
        if a != b:
            errors.append("%s: %s differs across runs at seed %d: %r vs %r"
                          % (workload, name, SEED, a, b))

    corrupt = run(workload, 0, "--corrupt-expectation")
    if corrupt["correct"] or corrupt["failed"] == 0:
        errors.append("%s: a corrupted expectation did not raise "
                      "error_share above 0" % workload)
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    errors = []
    for w in workloads:
        found = check_workload(spec, w)
        print("%-16s %s" % (w, "ok" if not found else "FAILED"))
        errors += found
    for e in errors:
        print("  " + e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
