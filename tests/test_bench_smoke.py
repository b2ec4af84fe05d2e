"""The benchmark judges its own runs: `bench/run.py` counts a run correct
only when every outcome of every operation passes its workload's `judge`
and `final_checks` finds nothing wrong.  One round of each workload is
run here as `run.py` runs it, so that a change which the benchmark would
find wrong fails here first."""

import run
import workloads


def test_one_round_of_each_workload_is_judged_correct(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = make()
        wl.setup(2024, str(work))
        # No time to spend: exactly one round, each escaped error a `Raised`.
        result = run.measure(wl.ops(), 0)
        assert len(result["round_s"]) == 1
        wrong = [(k, verdict) for k, seen in enumerate(result["outcomes"]) for out in seen
                 if (verdict := wl.judge(k, out)) != workloads.OK]
        assert (name, wrong, wl.final_checks()) == (name, [], [])
