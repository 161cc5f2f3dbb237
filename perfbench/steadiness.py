#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10] [--sets 2]
                                    [--seconds 10] [--seed-base 1000]

Runs every workload --runs times per set, each run with its own seed, for
--sets independent sets of the same code. For each metric it prints the
median, first and third quartile (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median per set, the drift of the median from set 1 to
each later set, and the bound this implies next to the bound recorded in
BENCHMARK.json:

    implied = max(3 x largest spread, 2 x largest worsening drift)

A bound holds when every spread is below a third of it and no set's
median is worse than set 1's by more than it (setup_s is judged on drift
only). The share of failed operations must be identical in every set.
Exits non-zero when a bound or the failure share does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True

    for workload in args.workloads.split(","):
        sets = []  # per set: {metric: [values]}, failed share
        for s in range(args.sets):
            values = {name: [] for name in metrics}
            attempted = failed = 0
            for i in range(args.runs):
                seed = args.seed_base + 1000 * s + i
                r = run_once(workload, seed, args.seconds)
                attempted += r["attempted"]
                failed += r["failed"]
                for name in metrics:
                    values[name].append(r["metrics"][name]["value"])
                print(f"  {workload} set {s + 1} seed {seed}: " +
                      " ".join(f"{n}={values[n][-1]:.6g}" for n in metrics),
                      flush=True)
            sets.append((values, failed / attempted if attempted else 0.0))

        print(f"\n== {workload}: {args.runs} runs x {args.sets} sets")
        print(f"{'metric':16s} {'set':>3s} {'median':>14s} {'Q1':>14s} {'Q3':>14s} "
              f"{'spread':>8s} {'drift':>8s} {'implied':>8s} {'bound':>6s}")
        for name, m in metrics.items():
            lower_better = m["better"] == "lower"
            base = statistics.median(sets[0][0][name])
            spreads, worsening = [], []
            rows = []
            for k, (values, _) in enumerate(sets):
                med, q1, q3, spread = summary(values[name])
                drift = (med - base) / base if base else 0.0
                spreads.append(spread)
                worsening.append(max(0.0, drift if lower_better else -drift))
                rows.append((k + 1, med, q1, q3, spread, drift))
            judged = [] if name == "setup_s" else spreads
            implied = max([3 * x for x in judged] + [2 * x for x in worsening])
            holds = (all(x < m["bound"] / 3 for x in judged) and
                     all(x <= m["bound"] for x in worsening))
            ok = ok and holds
            for k, med, q1, q3, spread, drift in rows:
                tail = (f"{implied:8.3f} {m['bound']:6.2f}{'' if holds else '  FAIL'}"
                        if k == len(rows) else "")
                print(f"{name:16s} {k:3d} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.3f} {drift:+8.3f} {tail}")
        shares = [share for _, share in sets]
        same = all(x == shares[0] for x in shares)
        ok = ok and same
        print(f"failed share per set: {shares}{'' if same else '  FAIL'}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
