"""Self-tests of the benchmark (run with `python3 -m pytest bench/tests`)."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_program()

import audit  # noqa: E402
import core  # noqa: E402
import oracle  # noqa: E402
import residual  # noqa: E402

WORKLOADS = {"audit": audit, "oracle": oracle, "residual": residual}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _digest(wl, seed):
    return core.sha256_json([[op.id, op.kind, op.params] for rnd in wl.generate(seed) for op in rnd])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    assert _digest(wl, 7) == _digest(wl, 7)
    assert _digest(wl, 7) != _digest(wl, 8)


def test_benchmark_json_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.fixture(scope="module")
def smoke():
    """One short untraced and one short traced run of every workload."""
    return {(name, trace): run.run(name, seed=3, seconds=0.01, trace=trace, setup_repeats=1)
            for name in sorted(WORKLOADS) for trace in (False, True)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_and_emits_every_metric(smoke, name, trace):
    res = smoke[(name, trace)]
    assert res["failed"] == 0, res["report"]["failures"]
    assert res["attempted"] >= len(WORKLOADS[name].generate(3)[0])
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: unit for k, (_, unit) in res["metrics"].items()}
    for value, _ in res["metrics"].values():
        assert isinstance(value, (int, float))


def test_end_to_end_values_are_positive(smoke):
    for name in WORKLOADS:
        for value, _ in smoke[(name, False)]["metrics"].values():
            assert value > 0


def test_traced_self_times_add_up_to_wall(smoke):
    for name in WORKLOADS:
        t = smoke[(name, True)]["report"]["trace"]
        assert t["self_sum_s"] == pytest.approx(t["traced_wall_s"], rel=1e-9)
        assert all(v >= 0.0 for v in t["self_s"].values())
    # the audit cost shares are disjoint parts of the traced wall time
    shares = smoke[("audit", True)]["report"]["trace"]["cost_shares"]
    assert min(shares.values()) >= 0.0 and sum(shares.values()) == pytest.approx(1.0)


def test_crashing_op_is_counted_and_the_run_goes_on(tmp_path):
    class Ctx:
        outdir = str(tmp_path)

    crash = audit.known_defects(3)[0]
    ok = audit.generate(3)[0][1]
    outcomes, _, rounds = core.measure(audit, [[crash, ok]], Ctx, rounds=1)
    assert rounds == 1
    assert outcomes[0].error.startswith("ValueError")
    assert outcomes[1].error is None and outcomes[1].work > 0


def test_setup_samples_spread_over_the_loop_and_ignore_the_bytecode_env(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert "PYTHONDONTWRITEBYTECODE" not in run.setup_env()
    taken = []
    monkeypatch.setattr(run, "setup_once", lambda *a: taken.append(a) or 0.5)
    sampler = run.SetupSampler("residual", 3, repeats=4, seconds=8.0)
    assert len(taken) == 1 and sampler.times == []  # the untimed priming run
    for elapsed in (0.1, 1.0, 2.5, 3.9, 4.0, 5.0):
        sampler(elapsed)
    assert len(sampler.times) == 3  # due at 0, 2 and 4 s
    assert sampler.finish() == [0.5] * 4


def test_known_defects_raise_failed_ratio(smoke):
    report = smoke[("audit", False)]["report"]
    assert len(report["known_defects"]) == 6
    assert report["failed_ratio"] > 0.0
    assert report["end_to_end"]["failed_ratio"]["value"] == report["failed_ratio"]


def test_tail_is_the_order_statistic_with_ten_beyond():
    values = list(range(100))
    value, pct = core.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(90.0)


@pytest.mark.parametrize("kind", ["deadzone", "covariance"])
def test_a_dropped_row_fails_the_check(tmp_path, kind):
    class Ctx:
        outdir = str(tmp_path)

    op = next(op for op in audit.generate(3)[0] if op.kind == kind)
    res = audit.execute(op, Ctx)
    audit.check(op, res, Ctx)
    res.rows = res.rows[:-1]
    with pytest.raises(core.CheckFailed):
        audit.check(op, res, Ctx)
