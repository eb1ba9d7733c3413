#!/usr/bin/env python3
"""Repository benchmark: builds the program from this checkout and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and the run's temporary files to .bench_work. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the end-to-end metrics with --trace 0, the per-layer metrics of
the traced run with --trace 1. The exit code is 0 only when every output was
checked correct. `--workload all` runs the four workloads one after another,
each in its own process, and prefixes each metric with its workload's name.
--selftest runs the statistics self-tests and checks that a corrupted
reference makes every workload exit nonzero.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["solve_1m", "solve_small", "serve_mix", "cluster_1m"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    for need in ("src/CMakeLists.txt", "tools/f3d_cluster.cpp",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout of the repository"
                 % need)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "llp_perfbench", "perfbench_selftest"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    return build_dir


def run_workload(build_dir, extra):
    """Runs llp_perfbench, echoing its output; returns (code, result)."""
    cmd = [os.path.join(build_dir, "llp_perfbench")] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return proc.returncode or 5, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return proc.returncode or 5, None
    return proc.returncode, result


def selftest(build_dir):
    ok = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                        cwd=ROOT).returncode == 0
    for workload in WORKLOADS:
        code, result = run_workload(build_dir, [
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--inject-wrong"])
        caught = code != 0 and result is not None and not result["correct"]
        print("selftest: corrupted reference on %s -> exit %d (%s)"
              % (workload, code, "caught" if caught else "NOT CAUGHT"))
        ok = ok and caught
    # A clean run must pass and print exactly the metrics BENCHMARK.json
    # declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = run_workload(build_dir, [
            "--workload", "solve_small", "--seed", "1", "--seconds", "1",
            "--trace", trace])
        clean = code == 0 and result is not None and result["correct"]
        names = [m["name"] for m in declared[key]]
        same = clean and sorted(result["metrics"]) == sorted(names)
        print("selftest: clean solve_small --trace %s -> exit %d (%s)"
              % (trace, code, "ok" if same else "FAILED"))
        ok = ok and same
    print("selftest: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build_dir = build()
    if args.selftest:
        return selftest(build_dir)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads:
        code, result = run_workload(build_dir, [
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace])
        if result is None:
            fail("%s printed no result line (exit %d)" % (workload, code),
                 code or 5)
        worst = worst or code
        if len(workloads) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst if worst else (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
