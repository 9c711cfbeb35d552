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


# the per-layer metrics a traced run reads as 0 on this code: a layer the workload
# never enters, or a name the library no longer calls
ZERO_METRICS = {
    "audit": {
        "finite.characterize_us_per_sample", "finite.densify_us_per_row", "finite.rejected",
        "finite.rows_planned", "finite.rref_bytes_computed", "finite.rref_ms",
        "finite.subsample_share", "finite.verify_ns_per_row",
        "mappings.evals_computed", "mappings.residual_us_per_tuple", "mappings.twisted_us_per_tuple",
    },
    "oracle": {
        "algebra.norm_eval_us", "algebra.unitary_us",
        "finite.characterize_us_per_sample",
        "harness.self_ms", "harness.validate_ms",
        "mappings.eval_us_per_point", "mappings.evals_computed", "mappings.residual_us_per_tuple",
        "mappings.twisted_us_per_tuple",
        "stability.bound_us_per_probe", "stability.converged_ratio", "stability.covariance_ms",
        "stability.fit_ms", "stability.iterate_us_per_probe", "stability.iterations_per_probe",
        "stability.stabilize_self_ms",
    },
    "residual": {
        "algebra.norm_eval_us",
        "finite.densify_us_per_row", "finite.rejected", "finite.rows_planned",
        "finite.rref_bytes_computed", "finite.rref_ms", "finite.subsample_share",
        "finite.verify_ns_per_row",
        "harness.self_ms", "harness.validate_ms",
        "mappings.evals_computed", "mappings.residual_us_per_tuple", "mappings.twisted_us_per_tuple",
        "stability.bound_us_per_probe", "stability.converged_ratio", "stability.covariance_ms",
        "stability.fit_ms", "stability.iterate_us_per_probe", "stability.iterations_per_probe",
        "stability.stabilize_self_ms",
    },
}


@pytest.mark.parametrize("workload", sorted(ZERO_METRICS))
def test_traced_run_reads_zero_on_exactly_the_pinned_metrics(bench_run, workload):
    # a renamed or no longer called wrapped name turns a metric to 0 without failing the run
    res = bench_run.run(workload, seed=3, seconds=0.01, trace=True, setup_repeats=1)
    zeros = {name for name, (value, _) in res["metrics"].items()
             if value == 0 and name != "trace.overhead_ratio"}
    assert res["failed"] == 0
    assert zeros == ZERO_METRICS[workload]
