import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

import quadstab as qs
import quadstab.harness as h


def test_config_schema_published():
    schema = h.config_schema()
    assert schema["type"] == "object"
    assert "name" in schema["required"]
    # the published copy is detached from the module constant
    schema["required"] = []
    assert "name" in h.SCENARIO_SCHEMA["required"]


def test_validate_config_reports_paths():
    with pytest.raises(h.ScenarioValidationError) as err:
        h.validate_config({"kind": "oracle"})
    assert "name" in str(err.value)
    with pytest.raises(h.ScenarioValidationError) as err:
        h.validate_config({"name": "x", "kind": "nope"})
    assert err.value.path == "kind"
    cfg = h.preset_config("power-forward")
    del cfg["mapping"]
    with pytest.raises(h.ScenarioValidationError):
        h.validate_config(cfg)
    cfg2 = h.preset_config("power-forward")
    cfg2["stability"]["tol"] = -1.0
    with pytest.raises(h.ScenarioValidationError) as err:
        h.validate_config(cfg2)
    assert "stability.tol" in str(err.value)


def test_preset_registry():
    presets = h.list_presets()
    assert len(presets) >= 12
    assert all(desc for _, desc in presets)
    assert "open-problem-deadzone" in dict(presets)
    with pytest.raises(KeyError):
        h.preset_config("nope")


def test_all_presets_pass_or_expected_rejection(tmp_path):
    for name, _ in h.list_presets():
        res = h.run_preset(name, outdir=str(tmp_path))
        assert res.exit_code in (h.EXIT_OK, h.EXIT_EXPECTED_REJECTION), (name, res.exit_code)
        for row in res.rows:
            assert row.status in ("pass", "rejected-open-problem", "rejected-divergent"), name
        assert os.path.exists(res.csv_path)


def test_presets_not_flaky_across_seeds(tmp_path):
    # same terminal status under 20 different seeds
    for name, _ in h.list_presets():
        codes = {h.run_preset(name, seed=seed, write_csv=False).exit_code
                 for seed in range(20)}
        assert len(codes) == 1, (name, codes)


def test_oracle_preset_summary():
    res = h.run_preset("oracle-fe3-fe1", write_csv=False)
    assert res.summary["text"] == "spaces equal, dim 1"
    assert res.exit_code == h.EXIT_OK


def test_deadzone_preset(tmp_path):
    res = h.run_preset("open-problem-deadzone", outdir=str(tmp_path))
    assert res.exit_code == h.EXIT_EXPECTED_REJECTION
    denoms = [e["denominator"] for e in res.summary["sweep"]]
    assert min(denoms) < 0.0 or 0.0 in denoms
    assert max(denoms) > 0.0
    assert res.summary["crosses_zero"]
    statuses = {r.status for r in res.rows}
    assert statuses == {"pass", "rejected-open-problem"}
    # K >= 4 rows are the rejected ones
    for row in res.rows:
        K = float(row.probe)
        assert (row.status == "rejected-open-problem") == (K >= 4.0)


def test_a_deadzone_bound_out_of_range_is_no_pass():
    # a finite theta of 1e308 overflows the closed form: its row has bound inf and fails
    cfg = _edit("open-problem-deadzone", ("theta", 1e308), ("K_sweep", [3.0]), ("expected_status", None))
    res = h.run_scenario(cfg, write_csv=False)
    assert [(r.status, r.bound) for r in res.rows] == [(h.STATUS_FAIL, float("inf"))]
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    assert res.summary["text"] == ("denominator does not cross zero in this sweep; "
                                   "bound out of floating-point range at K = 3.0")


@pytest.mark.parametrize("norm", [{"kind": "lp_quasi", "dim": 2, "p": 0.001},
                                  {"kind": "weighted", "dim": 2, "weights": [1e308, 1.0]}],
                         ids=["lp-tiny-p", "weighted-huge"])
@pytest.mark.parametrize("expect, text", [("pass", "identity violated, residual nan"),
                                          ("witness", "witness residual nan is not finite")])
def test_a_non_finite_identity_residual_fails_the_run(norm, expect, text):
    # the squared norms overflow: the identity does not "hold", and a witness
    # whose residual is not finite is no witness
    cfg = _edit("inner-product-pass", ("norm", norm), ("expect", expect))
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, write_csv=False)
    assert [r.status for r in res.rows] == [h.STATUS_FAIL]
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    assert res.summary["text"] == text


def test_determinism_byte_identical_csv(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    res_a = h.run_preset("power-forward", outdir=str(a))
    res_b = h.run_preset("power-forward", outdir=str(b))
    with open(res_a.csv_path, "rb") as fa, open(res_b.csv_path, "rb") as fb:
        assert fa.read() == fb.read()


def test_csv_headers_and_format(tmp_path):
    res = h.run_preset("power-forward", outdir=str(tmp_path))
    with open(res.csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(h.RESULT_HEADERS)
    assert len(lines) == 1 + len(res.rows)


def test_emit_plotdata(tmp_path):
    res = h.run_preset("power-forward", outdir=str(tmp_path), write_csv=False)
    text = h.emit_plotdata(res.rows)
    lines = text.splitlines()
    assert lines[0] == "norm_x,deviation,bound"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    bounds = [float(line.split(",")[2]) for line in lines[1:]]
    assert xs == sorted(xs)
    # power budget with r = 1: the bound column is proportional to norm_x
    ratios = [b / x for b, x in zip(bounds, xs) if x > 1e-9]
    assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)
    # single-row emission has exactly one data line
    single = h.emit_plotdata(res.rows[:1])
    assert len(single.splitlines()) == 2
    with pytest.raises(ValueError):
        h.emit_plotdata([])


def test_plotdata_stable_across_runs(tmp_path):
    r1 = h.run_preset("power-forward", write_csv=False)
    r2 = h.run_preset("power-forward", write_csv=False)
    assert h.emit_plotdata(r1.rows) == h.emit_plotdata(r2.rows)


def test_exit_code_bound_violation():
    # an explicitly too-small budget makes probes fail: exit code 3
    cfg = h.preset_config("power-forward")
    cfg["name"] = "undersized"
    cfg["control"] = {"variant": "power", "epsilon": 1e-9, "r": 1.0}
    cfg["stability"]["probes"] = {"count": 10, "box": 10.0}
    res = h.run_scenario(cfg, write_csv=False)
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    assert any(r.status == "fail" for r in res.rows)


def test_rejected_divergent_scenario():
    cfg = h.preset_config("power-forward")
    cfg["name"] = "wrong-direction"
    cfg["control"] = {"variant": "power", "epsilon": 1.0, "r": 3.0}
    res = h.run_scenario(cfg, write_csv=False)
    # r = 3 forward diverges (backward would converge): unexpected rejection
    assert res.rows[0].status == "rejected-divergent"
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    cfg["expected_status"] = "rejected-divergent"
    res2 = h.run_scenario(cfg, write_csv=False)
    assert res2.exit_code == h.EXIT_EXPECTED_REJECTION


def test_bound_equality_grid_validated_and_dead_zone_rejected():
    cfg = h.preset_config("k1-equals-p1")
    cfg["grid"]["n"] = [2]
    with pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path.startswith("grid.n")
    cfg = h.preset_config("k1-equals-p1")
    cfg["grid"]["r"] = [1.0, 2.0]
    res = h.run_scenario(cfg, write_csv=False)
    statuses = {row.probe: row.status for row in res.rows}
    assert statuses["n=3|r=1.0|x=0.5"] == "pass"
    assert statuses["n=3|r=2.0|x=0.5"] == "rejected-open-problem"
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    cfg["expected_status"] = "rejected-open-problem"
    assert h.run_scenario(cfg, write_csv=False).exit_code == h.EXIT_EXPECTED_REJECTION


def test_run_scenario_rejects_malformed(tmp_path):
    with pytest.raises(h.ScenarioValidationError):
        h.run_scenario({"name": "x"}, outdir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(h.OUTDIR_ENV, str(tmp_path))
    res = h.run_preset("oracle-fe3-fe1")
    assert res.csv_path.startswith(str(tmp_path))
    assert os.path.exists(res.csv_path)


def test_cli_list(capsys):
    assert h.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "power-forward" in out
    assert "open-problem-deadzone" in out


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    cfg = h.preset_config("oracle-fe2-fe1")
    cfg_path.write_text(json.dumps(cfg))
    assert h.main(["run", str(cfg_path), "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "spaces equal" in out

    # the shipped example scenario runs clean through the CLI
    example = os.path.join(os.path.dirname(__file__), "..", "demos", "example_scenario.json")
    assert h.main(["run", example, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "example-forward-run.csv").exists()

    # nested output paths are created
    nested = h.preset_config("oracle-fe2-fe1")
    nested["output"] = {"results_csv": "deep/dir/out.csv"}
    nested_path = tmp_path / "nested.json"
    nested_path.write_text(json.dumps(nested))
    assert h.main(["run", str(nested_path), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "deep" / "dir" / "out.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "kind": "stability"}))
    assert h.main(["run", str(bad), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION
    assert not (tmp_path / "x.csv").exists()

    assert h.main(["run", str(tmp_path / "missing.json")]) == h.EXIT_VALIDATION


@pytest.mark.parametrize("section, key", [("control", "epsilonn"), (None, "seeed")])
def test_an_unknown_config_key_is_refused_by_name(section, key, tmp_path, capsys):
    cfg = h.preset_config("power-forward")
    (cfg[section] if section else cfg)[key] = 5
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    assert h.main(["run", str(path), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{section or '<root>'}: " in err and repr(key) in err
    assert not (tmp_path / "power-forward.csv").exists()


def test_cli_preset(tmp_path, capsys):
    assert h.main(["preset", "open-problem-deadzone", "--outdir", str(tmp_path)]) == 4
    capsys.readouterr()
    assert h.main(["preset", "no-such-preset"]) == h.EXIT_VALIDATION


def test_cli_oracle(capsys):
    assert h.main(["oracle", "fe3:3", "fe1", "--q", "5", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert "spaces equal, dim 1" in out
    # the command runs the oracle scenario, so it prints that scenario's summary
    assert out.splitlines() == [h.run_preset("oracle-fe3-fe1", write_csv=False).summary["text"]]
    # inadmissible modulus: q = 5 divides an obstruction factor for n = 4
    assert h.main(["oracle", "fe3:4", "fe1", "--q", "5", "--d", "1"]) == h.EXIT_VALIDATION
    capsys.readouterr()
    # a = 0 gives fe1's space back: the comparison exits 0
    assert h.main(["oracle", "fe1", "fe3_0:0", "--q", "5", "--d", "1"]) == 0
    capsys.readouterr()
    # 5^6 = 15625 columns is over the dense-elimination cap
    assert h.main(["oracle", "fe1", "fe1", "--q", "5", "--d", "6"]) == h.EXIT_VALIDATION
    assert "group: dense elimination capped" in capsys.readouterr().err


def test_cli_plotdata(tmp_path, capsys):
    res = h.run_preset("power-forward", outdir=str(tmp_path))
    out_csv = tmp_path / "plot.csv"
    assert h.main(["plotdata", res.csv_path, "-o", str(out_csv)]) == 0
    capsys.readouterr()
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "norm_x,deviation,bound"
    assert len(lines) == 1 + len(res.rows)
    # stdout mode
    assert h.main(["plotdata", res.csv_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "norm_x,deviation,bound"
    assert h.main(["plotdata", str(tmp_path / "nope.csv")]) == h.EXIT_VALIDATION


def test_fitted_control_recorded_in_summary():
    res = h.run_preset("power-forward", write_csv=False)
    ctl = res.summary["control"]
    assert ctl["variant"] == "power"
    assert ctl["epsilon"] > 0.0


def test_constant_quasinorm_preset_bound_value():
    res = h.run_preset("constant-quasinorm", write_csv=False)
    assert res.exit_code == 0
    theta = res.summary["control"]["theta"]
    expect = 5.0 * 2.0 * theta / (3.0 * 2.0)  # (n+2) K theta / (n [(n-1)^2 - K])
    for row in res.rows:
        assert row.bound == pytest.approx(expect, rel=1e-9)
        assert row.deviation <= row.bound + 1e-9


def test_preset_config_returns_independent_copies():
    cfg = h.preset_config("power-forward")
    assert cfg["name"] == "power-forward"
    cfg["stability"]["probes"]["count"] = 1
    cfg["mapping"]["base"]["coefficients"][0][0] = 9.0
    fresh = h.preset_config("power-forward")
    assert fresh["stability"]["probes"]["count"] == 100
    assert fresh["mapping"]["base"]["coefficients"] == [[1.0]]
    assert h.preset_config("pnorm-p1")["mapping"]["base"]["coefficients"] == [[1.0]]


def test_non_finite_fit_is_a_control_error(tmp_path):
    # the odd bump overflows on this box, so no finite epsilon can be fitted
    cfg = h.preset_config("power-forward")
    cfg["control"]["fit_box"] = 1e200
    with np.errstate(all="ignore"), pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == "control"
    assert "non-finite residual at sample 0" in str(err.value)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert h.main(["run", str(path), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION


def test_non_finite_check_with_given_control_warns_and_runs():
    cfg = h.preset_config("power-forward")
    cfg["control"] = {"variant": "power", "epsilon": 1.0, "r": 1.0}
    cfg["mapping"] = {"family": "monomial", "degree": 400}
    cfg["stability"]["probes"] = {"count": 3, "box": 1.0}
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, write_csv=False)
    assert len(res.rows) == 3
    assert any("cannot be checked: non-finite residual" in w for w in res.summary["warnings"])


def test_stability_summary_keeps_each_warning_once():
    # without errstate numpy warns on every overflowing evaluation (over 200
    # times here); the summary keeps each message once, in first-seen order
    cfg = h.preset_config("power-forward")
    cfg["control"] = {"variant": "power", "epsilon": 1.0, "r": 1.0}
    cfg["mapping"] = {"family": "monomial", "degree": 400}
    cfg["stability"]["probes"] = {"count": 3, "box": 1.0}
    warned = h.run_scenario(cfg, write_csv=False).summary["warnings"]
    assert any("cannot be checked: non-finite residual" in w for w in warned)
    assert any("overflow" in w for w in warned)
    assert len(warned) == len(set(warned))


def test_failed_probes_give_their_reasons_in_the_summary_only(tmp_path):
    # a given constant budget cannot hold x^400: every iterate overflows at some m
    cfg = h.preset_config("power-forward")
    cfg["control"] = {"variant": "constant", "theta": 1.0}
    cfg["mapping"] = {"family": "monomial", "degree": 400}
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, outdir=str(tmp_path))
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    assert res.summary["text"] == f"0/{len(res.rows)} probes within bound"
    failures = res.summary["failures"]
    assert sum(failures.values()) == len(res.rows)
    assert all(reason.startswith("non-finite iterate at m=") for reason in failures)
    with open(res.csv_path) as fh:
        assert "non-finite" not in fh.read()
    assert "failures" not in h.run_preset("power-forward", outdir=str(tmp_path)).summary


def test_non_finite_covariance_deviation_fails():
    # the iterates of x^50 overflow, and inf - inf is NaN
    cfg = {"name": "cov-overflow", "kind": "covariance", "seed": 0, "n": 3,
           "mapping": {"family": "monomial", "degree": 50},
           "probes": {"count": 3, "box": 3.0}, "unitaries": 10}
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, write_csv=False)
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    [row] = res.rows
    assert row.status == h.STATUS_FAIL
    assert not np.isfinite(row.deviation)
    assert not np.isfinite(res.summary["max_relative_deviation"])
    assert "non-finite" in res.summary["text"]


def test_listed_probe_of_wrong_dimension_is_a_validation_error():
    cfg = h.preset_config("power-forward")
    cfg["stability"]["probes"] = [[1.0], [1.0, 2.0]]
    with pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == "stability.probes.1"


def test_covariance_probe_of_wrong_dimension_is_a_validation_error():
    cfg = h.preset_config("unitary-covariance")
    cfg["probes"] = [[1.0, 2.0]]
    with pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == "probes.0"


def test_codomain_norm_of_wrong_dimension_is_a_validation_error():
    cfg = h.preset_config("power-forward")
    cfg["norm"] = {"kind": "euclidean", "dim": 2}
    with pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == "norm.dim"


def test_covariance_with_non_finite_residuals_is_a_mapping_error():
    cfg = h.preset_config("unitary-covariance")
    cfg["mapping"] = {"family": "monomial", "degree": 400}
    cfg["probes"] = {"count": 2, "box": 1.0}
    with np.errstate(all="ignore"), pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == "mapping"


def test_backward_covariance_is_rejected_divergent():
    cfg = h.preset_config("unitary-covariance")
    cfg["stability"]["direction"] = "backward"
    res = h.run_scenario(cfg, write_csv=False)
    assert [r.status for r in res.rows] == ["rejected-divergent"]
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    cfg["expected_status"] = "rejected-divergent"
    assert h.run_scenario(cfg, write_csv=False).exit_code == h.EXIT_EXPECTED_REJECTION


def test_over_cap_group_is_a_group_error_without_building_rows(tmp_path, capsys):
    # 101^2 = 10201 columns is over the dense-elimination cap; the cap is
    # checked before any constraint row or substitution tuple is built.
    # 5^100000 has more digits than an int may print, so the cap must be
    # decided without forming q^d; a prime q over the cap is refused before
    # its O(sqrt q) primality test
    for group in ({"q": 101, "d": 2}, {"q": 5, "d": 100000}, {"q": 10**13 + 37, "d": 1}):
        cfg = {"name": "big", "kind": "dimension", "equation": {"id": "fe1"},
               "group": group, "expected_dim": 3}
        with pytest.raises(h.ScenarioValidationError) as err:
            h.run_scenario(cfg, write_csv=False)
        assert err.value.path == "group"
        assert "capped" in str(err.value)
        oracle = {"name": "big-oracle", "kind": "oracle", "equation_a": {"id": "fe2"},
                  "equation_b": {"id": "fe1"}, "group": group}
        with pytest.raises(h.ScenarioValidationError) as err:
            h.run_scenario(oracle, write_csv=False)
        assert err.value.path == "group"
        assert "capped" in str(err.value)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert h.main(["run", str(path), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION
        assert h.main(["oracle", "fe2", "fe1", "--q", str(group["q"]),
                       "--d", str(group["d"])]) == h.EXIT_VALIDATION
        err_text = capsys.readouterr().err
        assert err_text.count("group: dense elimination capped") == 2
        assert f"{group['q']}^{group['d']}" in err_text


@pytest.mark.parametrize("preset,nest", [
    ("power-forward", lambda t: t),
    ("power-forward", lambda t: {"family": "perturbed", "base": {"family": "monomial", "degree": 2},
                                 "bump": {"family": "scaled", "inner": t, "factor": 0.1}}),
    ("unitary-covariance", lambda t: {"family": "sum", "parts": [{"family": "sine"}, t]}),
], ids=["stability-top", "stability-nested", "covariance-sum"])
def test_tabulated_mapping_is_refused_by_real_runs(preset, nest, tmp_path, capsys):
    # a table over GF(q) is no mapping family, at any depth, in the library or on the command line
    table = {"family": "tabulated", "table": [0, 1, 4, 4, 1], "q": 5}
    cfg = h.preset_config(preset)
    cfg["mapping"] = nest(table)
    message = "mapping: unknown or non-serializable mapping family 'tabulated'"
    with pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == "mapping"
    assert str(err.value) == message
    path = tmp_path / "tabulated.json"
    path.write_text(json.dumps(cfg))
    assert h.main(["run", str(path), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


def _edit(preset, *path_value):
    """A preset config with each (dotted path, value) pair set; a value of None drops the field."""
    cfg = h.preset_config(preset)
    for path, value in path_value:
        *keys, last = path.split(".")
        node = cfg
        for k in keys:
            node = node[k]
        if value is None:
            del node[last]
        else:
            node[last] = value
    return cfg


# schema-valid configs that ended in an uncaught exception; each now exits 2 on
# the named field
_REFUSED = {
    "power-r-2000-backward": (_edit("power-forward", ("control", {"variant": "power", "epsilon": 1.0,
                                                                   "r": 2000.0}),
                                    ("stability.direction", "backward"),
                                    ("stability.probes", {"count": 2})), "control"),
    "grid-large-exponent": (_edit("k1-equals-p1", ("grid.n", [314424]), ("grid.r", [221.3])), "grid"),
    "backward-cosine": (_edit("power-forward", ("mapping", {"family": "cosine"}),
                              ("control", {"variant": "power", "epsilon": 1.0, "r": 3.0}),
                              ("stability.direction", "backward")), "stability.direction"),
    "witness-empty": (_edit("inner-product-fail", ("witness", {})), "witness"),
    "witness-x-length": (_edit("inner-product-fail", ("witness.x", [1.0, 0.0, 0.0])), "witness"),
    "deadzone-huge-n": (_edit("open-problem-deadzone", ("n", 10**400)), "n"),
    "stability-box": (_edit("power-forward", ("stability.probes", {"count": 2, "box": 1e308})),
                      "stability.probes"),
    "covariance-box": (_edit("unitary-covariance", ("probes", {"count": 2, "box": 1e308})), "probes"),
    "stability-p": (_edit("power-forward", ("norm", {"kind": "lp_quasi", "p": 1e-9, "dim": 1})),
                    "norm"),
    "covariance-p": (_edit("unitary-covariance", ("norm", {"kind": "lp_quasi", "p": 1e-9, "dim": 1})),
                     "norm"),
    "inner-product-p": (_edit("inner-product-pass", ("norm", {"kind": "lp_quasi", "p": 1e-9, "dim": 2})),
                        "norm"),
    "covariance-stability-probes": (_edit("unitary-covariance", ("stability.probes", {"count": 2})),
                                    "stability.probes"),
    # integers beyond double range in number fields
    "deadzone-huge-theta": (_edit("open-problem-deadzone", ("theta", 10**400)), "theta"),
    "deadzone-huge-K": (_edit("open-problem-deadzone", ("K_sweep", [4.0, 10**400])), "K_sweep.1"),
    "bound-equality-huge-tol": (_edit("k1-equals-p1", ("tol", 10**400)), "tol"),
    "covariance-huge-tol": (_edit("unitary-covariance", ("tol", 10**400)), "tol"),
    # a domain norm that cannot measure f's arguments, with a fitted and a given epsilon
    "domain-norm-dim-fitted": (_edit("power-forward", ("domain_norm", {"kind": "euclidean", "dim": 2})),
                               "domain_norm"),
    "domain-norm-dim-given": (_edit("power-forward", ("domain_norm", {"kind": "euclidean", "dim": 2}),
                                    ("control", {"variant": "power", "epsilon": 1.0, "r": 1.0}),
                                    ("stability.probes", {"count": 2})), "domain_norm"),
    # an fe3 arity over the term-list cap, refused before any term exists
    "oracle-fe3-arity": (_edit("oracle-fe3-fe1", ("equation_a.n", 65)), "equation_a"),
    "dimension-fe3-arity": (_edit("fe1-dimension", ("equation", {"id": "fe3", "n": 65})), "equation"),
    "covariance-fe3-arity": (_edit("unitary-covariance", ("n", 65)), "n"),
    # norm sections that ran with a field unread: a dim that the weights fall short of,
    # and a p or weights that the kind does not read
    "norm-weights-short-of-dim": (_edit("inner-product-pass", ("norm", {
        "kind": "weighted", "dim": 3, "weights": [1.0, 2.0]})), "norm"),
    "norm-p-on-euclidean": (_edit("power-forward", ("norm", {"kind": "euclidean", "dim": 1, "p": 0.5}),
                                  ("stability.bound_mode", "p")), "norm"),
    "norm-weights-on-l1": (_edit("inner-product-fail", ("norm", {
        "kind": "l1", "dim": 2, "weights": [1.0, 1.0]})), "norm"),
    "domain-norm-p-on-l1": (_edit("power-forward", ("domain_norm", {"kind": "l1", "dim": 1, "p": 0.5})),
                            "domain_norm"),
    # a weight that json reads as NaN made every norm NaN, and the identity "held";
    # the config's finiteness walk names the weight itself
    "norm-weight-nan": (_edit("inner-product-pass", ("norm", {
        "kind": "weighted", "dim": 2, "weights": [1.0, float("nan")]})), "norm.weights.1"),
    # numbers that json reads as NaN or Infinity, which ran: an infinite tolerance passed
    # every probe or row whatever its deviation, and a non-finite theta or K passed a
    # dead-zone row with bound nan or inf, or marked it rejected-open-problem
    "stability-tol-inf": (_edit("power-forward", ("mapping", {"family": "monomial", "degree": 3}),
                                ("control", {"variant": "power", "epsilon": 1e-6, "r": 1.0}),
                                ("stability.tol", float("inf"))), "stability.tol"),
    "bound-equality-tol-inf": (_edit("k1-equals-p1", ("tol", float("inf"))), "tol"),
    "covariance-tol-inf": (_edit("unitary-covariance", ("tol", float("inf"))), "tol"),
    "deadzone-theta-nan": (_edit("open-problem-deadzone", ("theta", float("nan")), ("K_sweep", [3.0]),
                                 ("expected_status", None)), "theta"),
    "deadzone-theta-inf": (_edit("open-problem-deadzone", ("theta", float("inf")), ("K_sweep", [3.0]),
                                 ("expected_status", None)), "theta"),
    "deadzone-K-nan": (_edit("open-problem-deadzone", ("K_sweep", [3.0, float("nan")])), "K_sweep.1"),
    # a part, base, bump or inner that is not an object, which the schema does not type:
    # building it ended in an AttributeError
    "mapping-sum-part-number": (_edit("power-forward", ("mapping", {"family": "sum", "parts": [1]})),
                                "mapping"),
    "mapping-perturbed-base-string": (_edit("power-forward", ("mapping", {
        "family": "perturbed", "base": "x", "bump": {"family": "sine"}})), "mapping"),
    "mapping-stack-parts-string": (_edit("power-forward", ("mapping", {"family": "stack", "parts": "ab"})),
                                   "mapping"),
    "mapping-scaled-inner-list": (_edit("power-forward", ("mapping", {
        "family": "scaled", "inner": [1], "factor": 1.0})), "mapping"),
    "covariance-mapping-sum-part-number": (_edit("unitary-covariance", ("mapping", {
        "family": "sum", "parts": [{"family": "matrix_square", "k": 2}, 1]})), "mapping"),
}

# the rows above whose norm section ran with a field unread
UNREAD_NORM_FIELDS = ["norm-weights-short-of-dim", "norm-p-on-euclidean", "norm-weights-on-l1",
                      "domain-norm-p-on-l1"]
# the rows above refused for a number that is not finite
NON_FINITE_NUMBERS = ["norm-weight-nan", "stability-tol-inf", "bound-equality-tol-inf",
                      "covariance-tol-inf", "deadzone-theta-nan", "deadzone-theta-inf", "deadzone-K-nan"]
# the rows above whose mapping section holds a part that is not an object
NON_OBJECT_MAPPINGS = ["mapping-sum-part-number", "mapping-perturbed-base-string",
                       "mapping-stack-parts-string", "mapping-scaled-inner-list",
                       "covariance-mapping-sum-part-number"]


@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_schema_valid_config_is_refused_on_its_field(name, tmp_path):
    cfg, path = _REFUSED[name]
    with np.errstate(all="ignore"), pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == path
    if isinstance(err.value.__cause__, OverflowError):
        assert "out of floating-point range" in str(err.value)
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert h.main(["run", str(file), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION


def test_unsettled_series_in_bound_equality_is_a_rejected_row():
    cfg = _edit("k1-equals-p1", ("grid.r", [1e-300]), ("grid.norm_x", [1e308]))
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, write_csv=False)
    assert [r.status for r in res.rows] == ["rejected-divergent"] * 3
    assert res.exit_code == h.EXIT_BOUND_VIOLATION


def test_covariance_honours_bound_mode():
    # K = 2^3 = 8 >= (n-1)^2 puts a constant budget in the quasi-norm dead
    # zone; the p-norm route at p = 1/4 converges
    quasi = _edit("unitary-covariance", ("norm", {"kind": "lp_quasi", "p": 0.25, "dim": 1}))
    assert [r.status for r in h.run_scenario(quasi, write_csv=False).rows] == ["rejected-open-problem"]
    p_mode = _edit("unitary-covariance", ("norm", {"kind": "lp_quasi", "p": 0.25, "dim": 1}),
                   ("stability.bound_mode", "p"))
    res = h.run_scenario(p_mode, write_csv=False)
    assert [r.status for r in res.rows] == ["pass"]
    assert res.exit_code == h.EXIT_OK


@pytest.mark.parametrize("domain", [qs.Domain(2), qs.Domain(2, complex_scalars=True), qs.Domain(1, k=2)])
def test_drawn_probes_are_the_stream_of_per_probe_draws(domain, monkeypatch):
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append((seed, default_rng(seed))) or made[-1][1])
    probes = h._probes_from_config({"count": 7, "box": 2.5}, 11, domain, "probes")
    (seed, used), = made
    rng = default_rng(seed)
    want = [domain.random(rng, box=2.5) for _ in range(7)]
    assert len(probes) == len(want)
    for got, ref in zip(probes, want):
        assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
        assert got.tobytes() == ref.tobytes()
    assert used.random() == rng.random()  # the stream goes on in step


def test_worst_margin_keeps_a_nan_margin_whatever_the_probe_order():
    # a given constant budget on x^400: 35 probes end with a NaN margin and 65 with -inf
    cfg = h.preset_config("power-forward")
    cfg["control"] = {"variant": "constant", "theta": 1.0}
    cfg["mapping"] = {"family": "monomial", "degree": 400}
    probes = h._probes_from_config(cfg["stability"]["probes"], cfg["seed"], qs.Domain(1), "probes")
    summaries = []
    for order in (probes, probes[::-1]):
        cfg["stability"]["probes"] = [p.tolist() for p in order]
        with np.errstate(all="ignore"):
            res = h.run_scenario(cfg, write_csv=False)
        margins = np.array([r.margin for r in res.rows])
        assert (np.isnan(margins).sum(), np.isneginf(margins).sum()) == (35, 65)
        summaries.append(res.summary["worst_margin"])
    assert all(np.isnan(worst) for worst in summaries)


def test_schema_kinds_come_from_the_runner_table():
    schema = h.config_schema()
    kinds = list(h._KINDS)
    assert schema["properties"]["kind"]["enum"] == kinds
    assert [block["if"]["properties"]["kind"]["const"] for block in schema["allOf"]] == kinds
    assert [block["then"]["required"] for block in schema["allOf"]] == [s for _, s in h._KINDS.values()]
    assert schema["properties"]["norm"]["properties"]["kind"]["enum"] == list(qs.algebra._KINDS)
    # the control variants have one owner too, the one list ControlFunction accepts
    variants = schema["properties"]["control"]["properties"]["variant"]["enum"]
    assert variants == list(qs.stability.CONTROL_VARIANTS)
    # and the equation ids, the ones EquationSpec accepts
    assert schema["properties"]["equation"]["properties"]["id"]["enum"] == list(qs.equations.EQUATION_IDS)


# the published schema, byte for byte; the norm kind enum follows the order of algebra._KINDS
PUBLISHED_SCHEMA_SHA256 = "0e702bbdb0748be70300bc1d6ed1ae0bde76f26e2349c4a533b507dff9263f30"


def test_published_schema_is_unchanged():
    text = json.dumps(h.config_schema(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PUBLISHED_SCHEMA_SHA256


def test_every_row_carries_the_run_name(tmp_path):
    cfg = h.preset_config("open-problem-deadzone")
    cfg["name"] = "sweep"
    res = h.run_scenario(cfg, outdir=str(tmp_path))
    assert len(res.rows) == len(cfg["K_sweep"])
    assert {row.scenario for row in res.rows} == {"sweep"}
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["sweep"] * len(cfg["K_sweep"])


def test_power_fit_with_an_overflowing_weight_is_a_control_error(tmp_path):
    # sine stays bounded on a 1e200 box, but the Euclidean norm of its points overflows
    cfg = {"name": "sine-overflow", "kind": "stability", "equation": {"id": "fe3", "n": 3},
           "norm": {"kind": "euclidean", "dim": 1}, "mapping": {"family": "sine", "d": 2},
           "control": {"variant": "power", "epsilon": None, "r": 1.0, "fit_box": 1e200},
           "stability": {"probes": {"count": 5}}}
    with np.errstate(all="ignore"), pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    assert err.value.path == "control"
    assert "no usable weight" in str(err.value)
    path = tmp_path / "sine-overflow.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert h.main(["run", str(path), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION


@pytest.mark.parametrize("entries", ["[[NaN]]", "[[Infinity]]", "[[1.0], [-Infinity]]"])
@pytest.mark.parametrize("preset, key", [("power-forward", "stability.probes"),
                                         ("unitary-covariance", "probes")])
def test_non_finite_probe_entries_are_refused_on_their_probe(entries, preset, key):
    # the config's finiteness walk names the entry inside the last probe
    cfg = h.preset_config(preset)
    probes = json.loads(entries)  # json reads NaN and Infinity
    if preset == "unitary-covariance":  # points of M_2(C), written as their 4 entries
        probes = [[[v[0], 0.0], [0.0, 1.0]] for v in probes]
    section, _, field = key.rpartition(".")
    (cfg[section] if section else cfg)[field] = probes
    with pytest.raises(h.ScenarioValidationError) as err:
        h.run_scenario(cfg, write_csv=False)
    entry = ".0" if preset == "power-forward" else ".0.0"
    assert err.value.path == f"{key}.{len(probes) - 1}{entry}"
    assert "number must be finite" in str(err.value)


@pytest.mark.parametrize("preset, key", [("power-forward", "stability.probes"),
                                         ("unitary-covariance", "probes")])
def test_an_oversized_probe_count_is_refused_before_any_draw(preset, key, tmp_path, capsys,
                                                             monkeypatch):
    cfg = h.preset_config(preset)
    section, _, field = key.rpartition(".")
    probes = (cfg[section] if section else cfg)[field]
    probes["count"] = 10_000
    h.validate_config(cfg)  # the cap itself is allowed
    probes["count"] = 10**13  # about 73 TiB of points
    monkeypatch.setattr(qs.algebra, "_draw_points", lambda *args: pytest.fail("probes were drawn"))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert h.main(["run", str(path), "--outdir", str(tmp_path)]) == h.EXIT_VALIDATION
    assert f"{key}.count" in capsys.readouterr().err


def test_a_finite_probe_whose_run_overflows_fails_and_is_not_refused():
    cfg = h.preset_config("power-forward")
    cfg["stability"]["probes"] = [[1e300]]
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, write_csv=False)
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    assert [r.status for r in res.rows] == ["fail"]


def test_a_probe_whose_power_weight_overflows_fails_and_is_not_refused():
    # |1e120|^3 is out of floating-point range: that probe's bound is inf, and the run goes on
    cfg = h.preset_config("power-backward")
    cfg["stability"]["probes"] = [[1e120], [1.0]]
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, write_csv=False)
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    assert [r.status for r in res.rows] == ["fail", "pass"]
    assert res.rows[0].bound == np.inf


def test_bound_equality_reports_a_non_finite_disagreement():
    # eps = 1e308 overflows every closed form, so their disagreement is NaN; a series
    # whose sum overflows stops at once and is rejected, as it was at the term cap
    cfg = h.preset_config("k1-equals-p1")
    cfg["grid"]["epsilon"] = 1e308
    with np.errstate(all="ignore"):
        res = h.run_scenario(cfg, write_csv=False)
    assert res.exit_code == h.EXIT_BOUND_VIOLATION
    assert Counter(r.status for r in res.rows) == {"fail": 25, "rejected-divergent": 29}
    assert all(np.isnan(r.deviation) for r in res.rows if r.status == "fail")
    assert np.isnan(res.summary["worst"])
    assert res.summary["text"] == "worst relative disagreement nan"
