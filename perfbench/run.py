#!/usr/bin/env python3
"""Run one workload of the simulator benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_sim (CMake, Release) from the checkout's sources into
.bench_build/, runs the workload in its own single-threaded process,
checks its outputs, prints every metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_sim")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build perfbench_sim; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_sim",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def load_json(name):
    with open(os.path.join(ROOT, name) if name == "BENCHMARK.json"
              else os.path.join(HERE, name)) as f:
        return json.load(f)


def declared(bench, trace):
    """Declared metrics of a run mode: name -> unit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def run_sim(workload, seed, seconds, trace):
    """Run perfbench_sim; its parsed last line, or None on failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-out",
                os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: perfbench_sim exited with code %d" % done.returncode)
        return None
    return json.loads(lines[-1])


def evaluate(bench, pinned, out, trace):
    """Turn perfbench_sim's report into the benchmark result."""
    want = declared(bench, trace)
    attempted = out["checks"]
    failed = out["failed"]
    metrics = {}
    for name, m in out["metrics"].items():
        attempted += 1
        if name not in want or m["unit"] != want[name] or \
                not math.isfinite(m["value"]):
            failed += 1
            log("perfbench: undeclared or malformed metric %s" % name)
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    for name, unit in want.items():
        if name in metrics:
            continue
        if trace:
            # A layer this workload does not run reports zero.
            metrics[name] = {"value": 0, "unit": unit}
        else:
            attempted += 1
            failed += 1
            log("perfbench: end-to-end metric %s missing" % name)
    if not trace:
        for name, m in metrics.items():
            attempted += 1
            if m["value"] <= 0:
                failed += 1
                log("perfbench: end-to-end metric %s is not positive" % name)
    ref = pinned.get(out["workload"], {}).get(str(out["seed"]))
    if ref is not None:
        attempted += 1
        if ref != out["digest"]:
            failed += 1
            log("perfbench: digest %s differs from the pinned %s"
                % (out["digest"], ref))
    ordered = {n: metrics[n] for n in want}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": ordered}


def moves(table, name):
    """What a per-layer metric should move (longest matching key)."""
    best = ""
    for key in table:
        if (name == key or name.startswith(key + ".") or
                name.startswith(key + "_")) and len(key) > len(best):
            best = key
    return table.get(best, "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json("BENCHMARK.json")
    pinned = load_json("digests.json")
    about = load_json("workloads.json")
    # BENCHMARK.json lists the gated workloads; workloads.json also
    # has grid_fig11, which runs only by hand.
    names = list(about["workloads"])
    if args.workload not in names:
        log("perfbench: unknown workload %s (have %s)"
            % (args.workload, ", ".join(names)))
        return 2
    if not build():
        return 2
    out = run_sim(args.workload, args.seed, args.seconds, args.trace == 1)
    if out is None:
        return 1
    result = evaluate(bench, pinned, out, args.trace == 1)

    print("workload %s  seed %d  trace %d  digest %s  requests/pass %d"
          % (args.workload, args.seed, args.trace, out["digest"],
             out["requests"]))
    w = about["workloads"][args.workload]
    print("  input: %s; %s loop" % (w["input"], w["loop"]))
    for name, m in result["metrics"].items():
        line = "  %-36s %18.6f %-6s" % (name, m["value"], m["unit"])
        if args.trace == 1:
            line += "  moves " + moves(about["moves"], name)
        print(line)
    print("  %-36s %18d of verify_checks %d"
          % ("verify_failed", result["failed"], result["attempted"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
