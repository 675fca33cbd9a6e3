#!/usr/bin/env python3
"""Builds and runs the pollux-cpp performance benchmark.

    python3 perfbench/run.py --workload <name|name,name|all> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the benchmark
(perfbench/CMakeLists.txt, which compiles the repository's libraries from
src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only rebuild what changed. Build output goes to standard error.

For each workload the benchmark's report is printed, followed by one JSON line
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; a per-layer metric the workload does not exercise reads 0. The exit
status is 0 when every workload ran and passed its correctness checks, 1 when
a check failed or the benchmark broke, and 2 when the benchmark cannot be built
(for example outside a pollux-cpp checkout).

--selftest builds and runs the unit tests of the benchmark's own statistics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no pollux-cpp sources under {ROOT}; run from a repository checkout", 2)
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}", 2)
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited with {done.returncode}", 2)
    return os.path.join(out, target)


def run_workload(binary, spec, workload, args):
    tmp = os.path.join(build_dir(), "run-tmp", workload)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp-dir", tmp]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return False
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {workload} exited with {done.returncode} and no result",
              file=sys.stderr)
        return False
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, idle = {}, []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        measured = result["metrics"].get(name)
        if measured is None:
            if not args.trace:
                print(f"perfbench: {workload} did not measure {name}", file=sys.stderr)
                return False
            idle.append(name)
            measured = {"value": 0, "unit": unit}
        if measured["unit"] != unit:
            print(f"perfbench: {name} measured in {measured['unit']}, BENCHMARK.json says {unit}",
                  file=sys.stderr)
            return False
        metrics[name] = {"value": measured["value"], "unit": unit}
    if idle:
        print(f"  not exercised by {workload} (reported as 0): {', '.join(idle)}")
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        sys.exit(subprocess.run([test], timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; choose from {', '.join(known)} or all")

    binary = build("perfbench")
    ok = True
    for workload in workloads:
        ok = run_workload(binary, spec, workload, args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
