#!/usr/bin/env python3
"""Calibration: run BENCHMARK.json's command over several seeds and report,
per workload and end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) that the regression bounds are
derived from.

    python3 benchmark/calibrate.py [--runs 10] [--first-seed 1] [--trace 0]

Run it from the repository root. It prints one table; README.md's calibration
record is two such tables from the same commit.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--dump", help="also write every run's values to this JSON file")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    names = [m["name"] for m in spec[kind]]
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    print(f"| workload | metric | median | q1 | q3 | spread | bound | wall s |")
    print(f"|---|---|---|---|---|---|---|---|")
    worst = {}
    raw = {}
    for wl in workloads:
        samples = {n: [] for n in names}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t0)
            if p.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{' '.join(cmd)}: correct={res['correct']} failed={res['failed']}")
            for n in names:
                samples[n].append(res["metrics"][n]["value"])
        raw[wl] = samples
        for n in names:
            v = samples[n]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            worst[n] = max(worst.get(n, 0.0), spread)
            b = "" if bounds[n] is None else f"{bounds[n]:.2f}"
            print(f"| {wl} | {n} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.1f} % | {b} | {statistics.median(walls):.1f} |")
    if args.dump:
        json.dump(raw, open(args.dump, "w"))
    print()
    print("widest spread per metric:")
    for n in names:
        print(f"  {n}: {100 * worst[n]:.1f} %")


if __name__ == "__main__":
    main()
