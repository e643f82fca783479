#!/usr/bin/env python3
"""Builds the newsdiff end-to-end benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0

The first call configures and compiles perfbench/ (the newsdiff libraries
plus the benchmark driver) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr; stdout is one JSON line,
the driver's result with its metrics checked against BENCHMARK.json. A
failed build or driver exits non-zero and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_read", "ingest_refresh", "offline_refresh")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    src = os.path.join(BENCH_DIR, os.pardir, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        print("perfbench: newsdiff sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                   "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def complete(result, trace):
    """Checks the driver's metrics against BENCHMARK.json.

    Every end-to-end metric must be present in an untraced run. A traced
    run reports the per-layer metrics of the layers its workload exercises;
    the others did no work in it and are reported as 0.
    """
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            raise ValueError("unexpected metric %s [%s]" % (name, metric["unit"]))
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise ValueError("missing end-to-end metrics: " + ", ".join(missing))
    result["metrics"] = {
        name: metrics.get(name, {"value": 0, "unit": unit})
        for name, unit in units.items()}
    return result


def main():
    args = parse_args()
    binary = build()
    if binary is None:
        return 2
    run = subprocess.run([binary, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", repr(args.seconds),
                          "--trace", str(args.trace)],
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = complete(json.loads(lines[-1]), args.trace)
    except (IndexError, KeyError, ValueError) as e:
        print("perfbench: bad driver output: %s" % e, file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
