#!/usr/bin/env python3
"""Repository benchmark for the fcc simulator.

Builds the benchmark binary (perfbench/CMakeLists.txt, into .bench_build/)
from the sources in this checkout, then runs one workload in its own
process and prints its metrics. The last stdout line is the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 they are the per-layer ones, and the span file plus the per-layer
self-time table land in perfbench/out/.

    python3 perfbench/run.py --workload flagship_serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

--workload all runs every workload untraced and traced (one process each),
prints a summary, and checks that simulated values agree exactly across
trace modes.

Exit status is nonzero on a build failure, a failed correctness check, or a
simulated-value mismatch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "fcc_perfbench"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ["flagship_serial", "serve_planned"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines, result)."""
    env = dict(os.environ)
    env.pop("FCC_SWEEP_THREADS", None)  # no sweep fan-out inside a workload
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, lines[:-1] if result else lines, result


def sim_values(lines):
    """Parses the binary's 'sim name=value ...' line."""
    for line in lines:
        if line.startswith("sim"):
            return dict(kv.split("=", 1) for kv in line.split()[1:])
    return {}


def conform(result, trace, end_to_end, per_layer):
    """Checks the metric names against BENCHMARK.json. Per-layer metrics a
    workload does not exercise (e.g. plan.* on the flagship) read 0."""
    metrics = result["metrics"]
    wanted = per_layer if trace else end_to_end
    unknown = sorted(set(metrics) - set(wanted))
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    absent = [name for name in wanted if name not in metrics]
    if absent and not trace:
        raise ValueError(f"end-to-end metrics not reported: {absent}")
    for name in absent:
        metrics[name] = {"value": 0, "unit": wanted[name]}
    for name, m in metrics.items():
        if m["unit"] != wanted[name]:
            raise ValueError(f"{name}: unit {m['unit']} != {wanted[name]}")
    ordered = {name: metrics[name] for name in wanted}
    result["metrics"] = ordered
    return absent


def run_one(args, end_to_end, per_layer):
    code, lines, result = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace)
    print("\n".join(lines), flush=True)
    if result is None:
        log("perfbench: the benchmark binary printed no result")
        return 1
    try:
        absent = conform(result, args.trace, end_to_end, per_layer)
    except ValueError as e:
        log(f"perfbench: {e}")
        return 1
    if absent:
        print(f"not exercised by {args.workload} (reported as 0): "
              + " ".join(absent))
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


def run_all(args, end_to_end, per_layer):
    ok = True
    sims = {}
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_workload(workload, args.seed,
                                               args.seconds, trace)
            print(f"== {workload} --trace {trace}")
            print("\n".join(lines), flush=True)
            try:
                if result is None or code != 0 or not result["correct"]:
                    raise ValueError("failed")
                conform(result, trace, end_to_end, per_layer)
            except ValueError as e:
                log(f"perfbench: {workload} --trace {trace}: {e}")
                ok = False
                continue
            sims[(workload, trace)] = sim_values(lines)
            if not trace:
                rows.append((workload, result["metrics"]))

    def same(a, b, what):
        nonlocal ok
        if a in sims and b in sims and sims[a] != sims[b]:
            diff = {k: (sims[a].get(k), sims[b].get(k))
                    for k in set(sims[a]) | set(sims[b])
                    if sims[a].get(k) != sims[b].get(k)}
            log(f"perfbench: simulated values differ ({what}): {diff}")
            ok = False

    for workload in WORKLOADS:
        same((workload, 0), (workload, 1), f"{workload} untraced vs traced")

    print("\nworkload           " + " ".join(f"{n:>14}" for n in end_to_end))
    for workload, metrics in rows:
        print(f"{workload:<18} " + " ".join(
            f"{metrics[n]['value']:>14.6g}" for n in end_to_end))
    print("units              " + " ".join(
        f"{u:>14}" for u in end_to_end.values()))
    print("simulated values identical across trace modes" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    try:
        end_to_end, per_layer = load_spec()
    except (OSError, ValueError, KeyError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload == "all":
        return run_all(args, end_to_end, per_layer)
    return run_one(args, end_to_end, per_layer)


if __name__ == "__main__":
    sys.exit(main())
