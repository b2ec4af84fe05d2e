"""The benchmark judges its own runs: `bench/run.py` counts a run correct
only when every outcome of every operation passes its workload's `judge`
and `final_checks` finds nothing wrong.  One round of each workload is
run here as `run.py` runs it, so that a change which the benchmark would
find wrong fails here first."""

import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


@pytest.fixture
def bench(monkeypatch):
    """`bench/run.py` as a module, with `bench/` on the import path as
    `run.py` puts it."""
    monkeypatch.syspath_prepend(BENCH)
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_one_round_of_each_workload_is_judged_correct(bench, tmp_path):
    import workloads
    for name, make in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = make()
        wl.setup(2024, str(work))
        # No time to spend: exactly one round, each escaped error a `Raised`.
        result = bench.measure(wl.ops(), 0)
        assert len(result["round_s"]) == 1
        wrong = [(k, verdict) for k, seen in enumerate(result["outcomes"]) for out in seen
                 if (verdict := wl.judge(k, out)) != workloads.OK]
        assert (name, wrong, wl.final_checks()) == (name, [], [])
