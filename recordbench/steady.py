#!/usr/bin/env python3
"""Steadiness mode: repeat workloads over seeds and print each metric's spread.

    python3 recordbench/steady.py [--workloads checkpoint,serve] [--runs 10]
        [--sets 1] [--seconds S]

Run from the repository root. The runs of a set use seeds 1..runs; a
second set repeats the same seeds. For every end-to-end metric the table
shows the median of the first set's runs and the spread of each set: the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. The bounds in BENCHMARK.json are set from these spreads:
every spread must stay within its metric's bound, and one above a third of
the bound is flagged with `!`. With two sets it also shows how far the
second set's median moved from the first's, in the direction that is worse,
against the bound, and compares the share of failed operations of the two
sets. Exits non-zero when a spread or a drift exceeds its bound, an output
was wrong, or the failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"steady.py: {' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = [[run_once(workload, seed, args.seconds) for seed in range(1, args.runs + 1)]
                for _ in range(args.sets)]
        print(f"\n== {workload}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        for s, results in enumerate(sets):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            print(f"set {s + 1}: correct={correct} attempted={attempted} failed={failed}")
            ok &= correct
        if len(sets) == 2:
            shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
            print(f"failed share: {shares[0]:.6g} vs {shares[1]:.6g}")
            ok &= shares[0] == shares[1]
        print(f"{'metric':20s} {'median':>14s} {'spread':>17s} {'bound':>6s} {'drift':>8s}")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in s]) for s in sets]
            spreads = [spr for _, spr in stats]
            ok &= max(spreads) <= bound
            drift = ""
            if len(sets) == 2:
                (med, _), (med2, _) = stats
                worse = (med2 - med) if spec["better"] == "lower" else (med - med2)
                drift = f"{worse / abs(med):+.4f}"
                ok &= worse / abs(med) <= bound
            flag = " !" if max(spreads) > bound / 3 else ""
            shown = " / ".join(f"{spr:.4f}" for spr in spreads)
            print(f"{name:20s} {stats[0][0]:14.6g} {shown:>17s} {bound:6.3f} {drift:>8s}{flag}")
    print("\nsteady" if ok else "\nNOT steady (a spread or drift exceeds its bound)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
