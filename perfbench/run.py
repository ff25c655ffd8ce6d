#!/usr/bin/env python3
"""Run one workload of the PRIMA benchmark and print its result.

    python3 perfbench/run.py --workload mmo_inproc --seed 1 --seconds 10 --trace 0

Builds the kernel and the benchmark program from source (optimized) into the
directory named by $CARGO_TARGET_DIR, or .bench_build, at the root of the
checkout; runs the arithmetic self-tests; runs the workload in one process;
and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. A failed audit or op exits non-zero.
See perfbench/NOTES.md for the workloads and every metric's definition.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mmo_inproc", "mmo_wire", "cad_spill")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the kernel, benchmark program and self-tests."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j2"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "prima.h")):
        log("perfbench: the PRIMA sources (src/) are not in this checkout")
        return 2
    units = metric_units(args.trace)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("perfbench: arithmetic self-tests failed")
        return 1

    cmd = [os.path.join(build_dir, "prima_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, args.workload + ".csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: prima_perfbench printed nothing (exit %d)" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])
    if proc.returncode != 0 or not raw.get("correct"):
        log("perfbench: %s failed: %s" % (args.workload, raw.get("error", "exit %d" % proc.returncode)))
        return 1
    missing = sorted(set(units) - set(raw["metrics"]))
    if missing:
        log("perfbench: prima_perfbench did not report " + ", ".join(missing))
        return 1

    print(json.dumps({"workload": args.workload, "build_type": raw["build_type"],
                      "config": raw["config"], "counts": raw["counts"]}))
    for name, unit in units.items():
        print("%-40s %16.6f %s" % (name, raw["metrics"][name], unit))
    print("ops attempted %d, failed %d" % (raw["attempted"], raw["failed"]))
    result = {
        "correct": True,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
