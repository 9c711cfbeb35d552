"""The benchmark runs end to end on this checkout.

A refactor that breaks what `bench/run.py` calls fails here, in the test
suite, rather than only when the benchmark is run.  Each workload runs its
first round whole and then stops, with one set-up sample.
"""

import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench_run(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", [BENCH] + sys.path)  # restored, with what run.py adds to it
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return run


@pytest.mark.parametrize("workload", ["audit", "residual", "oracle"])
def test_workload_runs_its_first_round_without_failures(bench_run, workload):
    res = bench_run.run(workload, seed=3, seconds=0.01, trace=False, setup_repeats=1)
    first_round = bench_run.load(workload, 3)[2][0]
    assert res["failed"] == 0, res["report"]["failures"]
    assert res["attempted"] >= len(first_round)
