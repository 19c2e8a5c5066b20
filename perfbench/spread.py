#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median of the runs and the distance between their first and
third quartiles as a share of that median (`statistics.quantiles(values,
n=4)`), next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads cold-mixed,big-nodes --seeds 1-10

Run it from the repository root. It builds the benchmark on first use.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                print(proc.stdout[-4000:], proc.stderr[-4000:], sep="\n")
                sys.exit(1)
            runs.append(result["metrics"])
            steal = [line.split(":")[1].strip() for line in proc.stdout.splitlines()
                     if "cpu steal" in line]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + (f" (steal {steal[0]})" if steal else ""), flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<26} {'median':>14} {'IQR/median':>11} {'bound':>7}")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            shown = "-" if bound is None else f"{bound:.2f}"
            print(f"  {name:<26} {med:>14.6g} {spread:>11.4f} {shown:>7}")
        print()
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
