#!/usr/bin/env python3
"""Builds and runs the SemCommute end-to-end benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which pulls in the
library through the repository's own CMakeLists.txt) into the directory
named by CARGO_TARGET_DIR, or .bench_build by default. Every run then
executes one workload for S seconds and prints the run header, one line
per metric, and as its last line a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics; a per-layer metric of a layer the workload does not call reads 0.
A traced run also writes its spans to <build dir>/traces/.

Extra flags for the smoke test (perfbench/selftest.py): --tiny and
--corrupt-expectation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "semcommute-perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", BINARY,
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-expectation", action="store_true")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build(build_dir)

    cmd = [os.path.join(build_dir, BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line in the benchmark's output")

    # Keep exactly the metrics BENCHMARK.json names for this kind of run.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    for name in sorted(set(measured) - set(metrics)):
        lines.insert(-1, "# also measured: %s %.6g %s"
                     % (name, measured[name]["value"],
                        measured[name]["unit"]))
    result["metrics"] = metrics
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
