#!/usr/bin/env python3
"""Steadiness report for the benchmark described by BENCHMARK.json.

Runs each workload N times, each time with another seed, and prints for
every metric its median, quartiles, min and max, and the spread (distance
between the quartiles as a share of the median) next to the metric's bound.
With --sets 2 it runs everything twice and compares the two medians, the
way a regression check compares a parent and a change.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads keyswitch
    python3 perfbench/steady.py --sets 2 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = spec[kind]

    medians = {}
    ok = True
    for s in range(args.sets):
        for workload in workloads:
            values = {m["name"]: [] for m in metrics}
            ratios, walls = [], []
            for i in range(args.runs):
                seed = args.seed0 + 1000 * s + i
                result, wall = run_once(spec, workload, seed, seconds, args.trace)
                walls.append(wall)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                if not args.trace:
                    ratios.append(result["metrics"]["call_cpu_p90_ms"]["value"]
                                  / result["metrics"]["call_cpu_p50_ms"]["value"])
            print(f"\n== set {s + 1} · {workload} · {args.runs} runs of {seconds} s "
                  f"(wall per run {statistics.median(walls):.1f} s)")
            print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} "
                  f"{'max':>14} {'spread':>8} {'bound':>6}")
            for m in metrics:
                st = summarize(values[m["name"]])
                bound = m.get("bound")
                flag = ""
                if bound is not None and m["name"] != "setup_s":
                    flag = "ok" if st["spread"] < bound / 3 else ("wide" if st["spread"] <= bound else "OVER")
                    ok &= st["spread"] <= bound
                print(f"{m['name']:<28} {st['median']:>14.6g} {st['q1']:>14.6g} {st['q3']:>14.6g} "
                      f"{st['min']:>14.6g} {st['max']:>14.6g} {100 * st['spread']:>7.2f}% "
                      f"{'' if bound is None else bound:>6} {flag}")
                medians.setdefault((workload, m["name"]), []).append((st["median"], m))
            if ratios:
                print(f"{'median p90/p50':<28} {statistics.median(ratios):>14.4f}")

    if args.sets > 1:
        print("\n== second set vs first (worse by at most the bound?)")
        for (workload, name), meds in medians.items():
            (first, m), (second, _) = meds[0], meds[1]
            if "bound" not in m:
                continue
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= worse <= m["bound"]
            print(f"{workload:<14} {name:<16} {first:>14.6g} -> {second:>14.6g} "
                  f"worse by {100 * worse:+.2f}% (bound {100 * m['bound']:.0f}%) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
