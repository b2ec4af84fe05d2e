"""Steadiness check: are the benchmark's end-to-end figures repeatable?

    python3 bench/steady.py [--workload NAME ...] [--seconds S]

For each workload it makes two sets of ten runs of bench/run.py on the
same code, every run with its own seed: seeds 1-10, then 1001-1010.  For
each end-to-end metric it prints the median, the spread (distance between
the first and third quartile as a share of the median) against the
metric's bound in BENCHMARK.json, and how far the second set's median
moved from the first set's, in the metric's worse direction.  It also
requires every run to be correct and the share of failed operations to be
the same in every run.  Exit status is 1 when a spread exceeds its bound,
a median moves by more than its bound, or a run is wrong; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETS, RUNS = 2, 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload or names:
        sets = []
        for k in range(SETS):
            seeds = [1 + 1000 * k + i for i in range(RUNS)]
            results = []
            for seed in seeds:
                r = one_run(workload, seed, args.seconds)
                results.append(r)
                print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']} " + " ".join(
                          f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()), flush=True)
            sets.append(results)
        runs = [r for s in sets for r in s]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if not all(r["correct"] for r in runs) or len(shares) != 1:
            ok = False
            print(f"{workload}: WRONG outputs or uneven failed share {sorted(map(str, shares))}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            medians, spreads = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            worst = max(spreads)
            shift = sign * (medians[1] / medians[0] - 1)
            status = "steady" if worst < bound / 3 else "within bound" if worst <= bound else "TOO WIDE"
            if worst > bound:
                ok = False
            if shift > bound:
                ok = False
                status += ", MEDIAN MOVED"
            print(f"{workload:15s} {name:12s} median {' / '.join(f'{m:.4g}' for m in medians)} "
                  f"{metric['unit']}  spread {' / '.join(f'{x:.3f}' for x in spreads)}  "
                  f"worse by {shift:+.3f}  "
                  f"bound {bound}: {status}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
