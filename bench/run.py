"""Benchmark for epk: one workload per run, timed end to end or per layer.

    python3 bench/run.py --workload check-session|update-chain
                         --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; `epk` is imported from `src/`
and need not be installed.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (setup_s, ops_per_s, op_p50_ms,
peak_rss_mb).  With --trace 1 they are the per-layer ones, per traced
round, from a window whose rounds alternate untraced and traced; the
difference between the two kinds of round is tracing.overhead_pct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# Set-up runs in two blocks, one before the timed loop and one after it,
# so that its median does not rest on one moment of the machine's other
# load.  Each block repeats set-up at least SETUP_REPEATS times and until
# SETUP_SECONDS have passed, at most SETUP_MAX times.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 3, 2.5, 50
# Python salts str hashes per process, which reorders the program's sets
# and dicts and moved the median check-session query by about 10% from
# one process to the next.  Runs use one fixed salt, so that they differ
# only by their inputs.
HASH_SEED = "0"


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "epk", "__init__.py")):
        sys.exit(f"bench: no epk sources under {src}; run from a source checkout")
    sys.path[:0] = [src, BENCH]
    import epk
    if not os.path.abspath(epk.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported epk from {epk.__file__}, not from {src}")


def set_up(make, seed: int, work: str, times: list):
    """One block of set-up repetitions, each timed into `times`.  Every
    repetition starts from nothing: the previous one's state is dropped
    before the next is built.  Returns the last one."""
    wl, first = None, len(times)
    while len(times) - first < SETUP_MAX and (
            len(times) - first < SETUP_REPEATS or sum(times[first:]) < SETUP_SECONDS):
        wl = None
        t = perf_counter()
        wl = make()
        wl.setup(seed, work)
        times.append(perf_counter() - t)
    return wl


def measure(ops, seconds: float, tracer=None):
    """Run whole rounds of `ops` in a closed loop, one caller, for about
    `seconds`: the loop stops before a round that would end more than
    half a round late.  With a tracer, the rounds alternate untraced and
    traced, starting and ending untraced, so that each traced round lies
    between two untraced ones and meets the same load from the rest of
    the machine."""
    from workloads import Raised
    outcomes = [dict() for _ in ops]
    latencies, round_s, traced = [], [], []
    start = perf_counter()
    while True:
        on = tracer is not None and len(round_s) % 2 == 1
        if on:
            tracer.install()
        try:
            round_start = perf_counter()
            for k, op in enumerate(ops):
                t = perf_counter()
                try:
                    out = op()
                except (Exception, SystemExit) as e:  # an escaped error is the op's outcome
                    out = Raised(e)
                latencies.append(perf_counter() - t)
                seen = outcomes[k]
                seen[out] = seen.get(out, 0) + 1
            round_s.append(perf_counter() - round_start)
        finally:
            if on:
                tracer.uninstall()
        traced.append(on)
        if tracer is not None and (on or len(round_s) < 3):
            continue
        step = round_s[-1] if tracer is None else round_s[-1] + round_s[-2]
        if perf_counter() - start + step / 2 >= seconds:
            break
    return {"outcomes": outcomes, "latencies": latencies, "round_s": round_s, "traced": traced,
            "attempted": len(ops) * len(round_s)}


def judge(wl, run):
    """Count failed operations and collect wrong outputs."""
    from workloads import FAILED, OK
    failed, problems = 0, []
    for k, seen in enumerate(run["outcomes"]):
        for out, n in seen.items():
            verdict = wl.judge(k, out)
            if verdict == FAILED:
                failed += n
            elif verdict != OK:
                problems.append(verdict)
    return failed, problems + wl.final_checks()


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    _import_program()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    make = WORKLOADS[args.workload]
    try:
        setup_times = []
        wl = set_up(make, args.seed, work, setup_times)
        ops = wl.ops()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        run = measure(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, problems = judge(wl, run)
        print(f"{args.workload} seed {args.seed}: {wl.describe()}", file=sys.stderr)
        # Set-up is deterministic in the seed: repeating it after the loop
        # rewrites the same inputs.
        wl = ops = None
        set_up(make, args.seed, work, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems[:20]:
        print(f"WRONG: {p}", file=sys.stderr)
    rounds = run["round_s"]
    n_ops = len(run["outcomes"])
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (statistics.median(n_ops / s for s in rounds), "1/s"),
            "op_p50_ms": (statistics.median(run["latencies"]) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from tracing import metric_names
        # Each traced round against the mean of the untraced rounds on
        # either side, which cancels a steady drift in the machine's speed.
        ratios = [2 * rounds[k] / (rounds[k - 1] + rounds[k + 1])
                  for k, on in enumerate(run["traced"]) if on]
        values = tracer.metrics(len(ratios))
        values["tracing.overhead_pct"] = (statistics.median(ratios) - 1) * 100
        metrics = {name: (values[name], unit) for name, unit in metric_names()}
        trace_path = os.path.join(work_root, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    print(f"{len(setup_times)} set-ups: " + " ".join(f"{t:.3f}" for t in setup_times) + " s",
          file=sys.stderr)
    print(f"{len(rounds)} rounds of {n_ops} ops: " + " ".join(
        f"{t:.2f}{'T' if on else ''}" for t, on in zip(rounds, run["traced"])) + " s", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
