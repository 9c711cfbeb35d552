"""Experiment harness: JSON scenario configs, preset table, CSV results, CLI.

Presets are data: `PRESETS` maps each name to (description, config), and
`preset_config` returns a deep copy with the name filled in.

Scenario kinds:
  stability       direct-method run with bound audit per probe
  oracle          compare two equations' solution spaces over (Z/q)^d
  dimension       nullspace dimension check for one equation
  inner_product   squared-norm identity probe (pass, or recorded witness)
  covariance      unitary covariance of the stabilized limit
  deadzone        sweep the constant-budget denominator across zero
  bound_equality  closed-form/series agreement between the K=1 and p=1 routes

`_KINDS` maps each kind to its runner and the sections it requires; the
schema's kind enum and its `allOf` are built from it.  A runner returns its
rows and summary, and `run_scenario` writes the run's name on every row.

Runs are deterministic given (config, seed); result CSVs are byte-identical
across repeat runs.  Exit codes: 0 all rows pass, 2 validation error,
3 bound violation or unexpected failure, 4 expected rejections only.
Every refusal passes one boundary, `_at(path)`: an error raised while
building or running what the field at `path` describes exits 2 naming that
field, and a series that diverges passes through to become a rejected-* row.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np
import jsonschema

from . import algebra, finite
from .equations import EQUATION_IDS, EquationSpec, parse_equation
from .mappings import Mapping, mapping_from_config
from .stability import (
    CONTROL_VARIANTS,
    ControlFunction,
    DivergenceError,
    OpenProblemError,
    StabilityConfig,
    _check_origin,
    closed_form_bounds,
    constant,
    fit_constant_level,
    fit_power_amplitude,
    power,
    series_bound_forward,
    series_bound_forward_p,
    series_bound_backward,
    series_bound_backward_p,
    stabilize,
    verify_unitary_covariance,
)

PLOTDATA_HEADER = "norm_x,deviation,bound"

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_REJECTED_DIVERGENT = "rejected-divergent"
STATUS_REJECTED_OPEN_PROBLEM = "rejected-open-problem"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BOUND_VIOLATION = 3
EXIT_EXPECTED_REJECTION = 4

OUTDIR_ENV = "QUADSTAB_OUTDIR"


class ScenarioValidationError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_NORM_SCHEMA = {
    "type": "object",
    "required": ["kind", "dim"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(algebra._KINDS)},
        "dim": {"type": "integer", "minimum": 1},
        "p": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "weights": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
}

_EQUATION_SCHEMA = {
    "type": "object",
    "required": ["id"],
    "additionalProperties": False,
    "properties": {
        "id": {"enum": list(EQUATION_IDS)},
        "n": {"type": "integer", "minimum": 3},
        "a": {"type": "integer"},
    },
}

_GROUP_SCHEMA = {
    "type": "object",
    "required": ["q", "d"],
    "additionalProperties": False,
    "properties": {
        "q": {"type": "integer", "minimum": 5},
        "d": {"type": "integer", "minimum": 1},
    },
}

# a list of probes, or `count` drawn ones; minItems binds only the list and the rest only the
# object, so an error names its own field, and the count cap refuses before any draw
_PROBES_SCHEMA = {
    "type": ["array", "object"],
    "minItems": 1,
    "required": ["count"],
    "additionalProperties": False,
    "properties": {
        "count": {"type": "integer", "minimum": 1, "maximum": 10_000},
        "box": {"type": "number", "exclusiveMinimum": 0},
    },
}


# ---------------------------------------------------------------------------
# config -> objects


@contextlib.contextmanager
def _at(path: str):
    """Raise ScenarioValidationError(path) for a config error; DivergenceError and
    OpenProblemError, both ValueErrors, pass through for the runners' rejected-* rows."""
    try:
        yield
    except (ScenarioValidationError, DivergenceError):
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        why = (f"value out of floating-point range ({e})" if isinstance(e, OverflowError)
               else f"missing field {e}" if isinstance(e, KeyError) else str(e))
        raise ScenarioValidationError(path, why) from e


def _equation(config: dict, key: str) -> EquationSpec:
    """The equation section at `key`; every refusal names `key`."""
    with _at(key):
        c = config[key]
        return EquationSpec(c["id"], n=c.get("n"), a=c.get("a"))


def _norm(config: dict, key: str) -> algebra.QuasiNormSpec:
    """The norm section at `key`, read by QuasiNormSpec, which refuses a field its kind
    does not read; every refusal names `key`."""
    with _at(key):
        c = config[key]
        weights = tuple(float(w) for w in c.get("weights", ()))
        return algebra.QuasiNormSpec(c["kind"], c["dim"], p=float(c.get("p", 1.0)),
                                     weights=weights or None)


def _mapping_from_config(cfg: dict, path: str) -> tuple[Mapping, object]:
    """The mapping f and its value f(0), evaluated once per run."""
    with _at(path):
        f = mapping_from_config(cfg)
        return f, f(f.domain.zero())


def _probes_from_config(cfg, seed: int, domain, path: str) -> tuple:
    if isinstance(cfg, list):
        zero = domain.zero()
        probes = []
        for i, p in enumerate(cfg):
            with _at(f"{path}.{i}"):
                p = np.asarray(p, dtype=float)
                if p.size != zero.size:
                    raise ValueError(f"probe has {p.size} entries, domain points have shape {zero.shape}")
                probes.append(p.reshape(zero.shape))
        return tuple(probes)
    rng = np.random.default_rng([int(seed), 161803])
    with _at(path):
        box = float(cfg.get("box", 10.0))  # one block draw, the stream of `count` domain.random calls
        return tuple(algebra._draw_points(rng, domain.shape, domain.complex_scalars or domain.matrix,
                                          int(cfg["count"]), box))


def _control_from_config(cfg: dict, f: Mapping, st: StabilityConfig, seed: int) -> ControlFunction:
    variant = cfg["variant"]
    trials = int(cfg.get("fit_trials", 400))
    box = float(cfg.get("fit_box", 10.0))
    r = float(cfg.get("r", 1.0))
    level = cfg.get("epsilon" if variant == "power" else "theta")
    if level is None:  # a sampled residual that is not finite leaves nothing to fit
        level = (fit_power_amplitude(f, st.n, r, trials=trials, seed=seed, box=box,
                                     domain_norm=st.domain_norm, codomain=st.norm_spec)
                 if variant == "power" else
                 fit_constant_level(f, st.n, trials=trials, seed=seed, box=box, codomain=st.norm_spec))
    return power(float(level), r, norm=st.domain_norm) if variant == "power" else constant(float(level))


def _stability_config(config: dict, n: int, norm_spec, probes: tuple, m_max: int, tol: float,
                      domain_norm=None) -> StabilityConfig:
    """The `stability` section as a StabilityConfig; m_max and tol default per scenario kind."""
    st = config.get("stability", {})
    with _at("stability"):
        return StabilityConfig(
            n=n, norm_spec=norm_spec, probes=probes, domain_norm=domain_norm,
            direction=st.get("direction", "forward"), m_max=int(st.get("m_max", m_max)),
            tol=float(st.get("tol", tol)), bound_mode=st.get("bound_mode", "quasi"))


# ---------------------------------------------------------------------------
# result rows


@dataclass(kw_only=True)
class ResultRow:
    """One CSV row; a column a runner leaves out is written empty (0 for iterations).

    `run_scenario` writes the run's name into `scenario` on every row.
    """

    scenario: str = ""
    probe: str
    norm_x: float | None = None
    q_estimate: str = ""
    deviation: float | None = None
    bound: float | None = None
    margin: float | None = None
    iterations: int = 0
    status: str


RESULT_HEADERS = [f.name for f in fields(ResultRow)]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _fmt_value(v) -> str:
    arr = np.asarray(v)
    fmt = (lambda t: repr(complex(t)).strip("()")) if np.iscomplexobj(arr) else (lambda t: repr(float(t)))
    return "|".join(map(fmt, arr.reshape(-1).tolist()))


@dataclass
class RunResult:
    name: str
    rows: list[ResultRow]
    summary: dict
    exit_code: int
    csv_path: str | None = None


def _rejected(probe: str, err: DivergenceError, q_estimate: str = "") -> ResultRow:
    status = (STATUS_REJECTED_OPEN_PROBLEM if isinstance(err, OpenProblemError)
              else STATUS_REJECTED_DIVERGENT)
    return ResultRow(probe=probe, q_estimate=q_estimate, status=status)


def _exit_code(rows: list[ResultRow], expected_status: str | None) -> int:
    failed = [r for r in rows if r.status == STATUS_FAIL]
    rejected = [r for r in rows if r.status.startswith("rejected-")]
    unexpected = [r for r in rejected if r.status != expected_status]
    if failed or unexpected:
        return EXIT_BOUND_VIOLATION
    if rejected:
        return EXIT_EXPECTED_REJECTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# scenario runners


def _run_stability(config: dict) -> tuple[list[ResultRow], dict]:
    seed = int(config.get("seed", 0))
    eq = _equation(config, "equation")
    if eq.id != "fe3":
        raise ScenarioValidationError("equation.id", "stability scenarios run on fe3")
    norm_spec = _norm(config, "norm")
    domain_norm_spec = _norm(config, "domain_norm") if "domain_norm" in config else None
    f, f0 = _mapping_from_config(config["mapping"], "mapping")
    with _at("norm.dim"):  # the codomain norm must measure f's values
        algebra.codomain_norm(norm_spec, f0)
    with _at("domain_norm"):  # the domain norm must measure f's arguments (None: any point)
        algebra.norm_eval(domain_norm_spec, f.domain.zero())
    st = config["stability"]
    with _at("stability.direction"):
        _check_origin(f0, st.get("direction", "forward"))
    probes = _probes_from_config(st.get("probes", {"count": 20}), seed, f.domain, "stability.probes")
    cfg = _stability_config(config, eq.n, norm_spec, probes, 40, 1e-9, domain_norm_spec)
    with _at("control"):
        phi = _control_from_config(config["control"], f, cfg, seed)
    try:
        with _at("control"), warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            report = stabilize(f, phi, cfg)
    except DivergenceError as e:
        return [_rejected("-", e)], {"text": f"rejected: {e}", "control": phi.summary()}
    caught = list(dict.fromkeys(str(w.message) for w in wlist))  # each message once
    rows = [
        ResultRow(
            probe=_fmt_value(p.probe),
            norm_x=p.norm_x,
            q_estimate=_fmt_value(p.q_estimate),
            deviation=p.deviation,
            bound=p.bound,
            margin=p.margin,
            iterations=p.iterations,
            status=p.status,
        )
        for p in report.probes
    ]
    n_pass = sum(1 for r in rows if r.status == STATUS_PASS)
    summary = {
        "text": f"{n_pass}/{len(rows)} probes within bound",
        "control": phi.summary(),
        "worst_margin": report.worst_margin,
    }
    if failures := Counter(p.reason for p in report.probes if p.reason is not None):
        summary["failures"] = dict(failures)
    if caught:
        summary["warnings"] = caught
    return rows, summary


def _run_oracle(config: dict) -> tuple[list[ResultRow], dict]:
    eqs = [_equation(config, key) for key in ("equation_a", "equation_b")]
    with _at("group"):  # not a prime >= 5, inadmissible, or over the column cap
        cmp = finite.spaces_equal(*eqs, finite.GroupSpec(int(config["group"]["q"]),
                                                         int(config["group"]["d"])))
    status = STATUS_PASS if cmp.equal else STATUS_FAIL
    if cmp.equal:
        text = f"spaces equal, dim {cmp.dim_left}"
    else:
        text = (f"spaces differ: dims {cmp.dim_left} vs {cmp.dim_right}"
                + (f", certificate on side {cmp.side}" if cmp.side else ""))
    row = ResultRow(probe="-", q_estimate=f"dim={cmp.dim_left}", status=status)
    return [row], {"text": text, "dim_left": cmp.dim_left, "dim_right": cmp.dim_right}


def _run_dimension(config: dict) -> tuple[list[ResultRow], dict]:
    eq = _equation(config, "equation")
    expected = int(config["expected_dim"])
    with _at("group"):  # not a prime >= 5, inadmissible, or over the column cap
        group = finite.GroupSpec(int(config["group"]["q"]), int(config["group"]["d"]))
        dim = len(finite.nullspace_basis(finite.enumerate_constraints(eq, group)))
    status = STATUS_PASS if dim == expected else STATUS_FAIL
    row = ResultRow(probe="-", q_estimate=f"dim={dim}", status=status)
    return [row], {"text": f"nullspace dim {dim}, expected {expected}", "dim": dim}


def _run_inner_product(config: dict) -> tuple[list[ResultRow], dict]:
    seed = int(config.get("seed", 0))
    spec = _norm(config, "norm")
    mode = config["mode"]
    param = int(config["param"])
    trials = int(config.get("trials", 10000))
    expect = config.get("expect", "pass")
    with _at("mode"):
        result = finite.inner_product_characterization(spec, mode, param, trials=trials, seed=seed)
    if expect == "pass":
        ok = result.passed
        text = ("identity holds on all samples" if ok
                else f"identity violated, residual {result.witness_residual}")
    else:  # a witness whose residual is not finite is no witness
        r = result.witness_residual
        ok = not result.passed and math.isfinite(r)
        if ok and "witness" in config:
            want = config["witness"]
            wx, wy = result.witness[0], result.witness[1]
            with _at("witness"):
                ok = (np.allclose(wx, want["x"]) and np.allclose(wy, want["y"])
                      and abs(r - want["residual"]) <= 1e-9)
        text = ("expected a witness but the identity held" if result.passed
                else f"witness found, residual {r}" if math.isfinite(r)
                else f"witness residual {r} is not finite")
    probe = "-"
    deviation = result.sup_residual
    if result.witness is not None:
        probe = ";".join(_fmt_value(p) for p in result.witness[:2])
        deviation = abs(result.witness_residual)
    row = ResultRow(probe=probe, deviation=deviation, status=STATUS_PASS if ok else STATUS_FAIL)
    return [row], {"text": text, "sup_residual": result.sup_residual}


def _run_covariance(config: dict) -> tuple[list[ResultRow], dict]:
    seed = int(config.get("seed", 0))
    f, f0 = _mapping_from_config(config["mapping"], "mapping")
    with _at("n"):  # the fitted budget samples fe3's terms, whose arity is capped
        n = EquationSpec("fe3", n=int(config["n"])).n
    probes = _probes_from_config(config["probes"], seed, f.domain, "probes")
    if "probes" in config.get("stability", {}):
        raise ScenarioValidationError("stability.probes", "covariance reads the top-level probes")
    norm_spec = _norm(config, "norm") if "norm" in config else algebra.euclidean(1)
    with _at("norm.dim"):  # the codomain norm must measure f's values
        algebra.codomain_norm(norm_spec, f0)
    cfg = _stability_config(config, n, norm_spec, probes, 25, 1e-10)
    with _at("tol"):
        tol = float(config.get("tol", 1e-6))
    try:
        with _at("mapping"):  # a non-finite residual while fitting the constant budget
            rep = verify_unitary_covariance(f, cfg, unitary_count=int(config.get("unitaries", 100)),
                                            seed=seed, tol=tol)
    except DivergenceError as e:
        return [_rejected(f"{len(probes)} probes", e)], {"text": f"rejected: {e}"}
    row = ResultRow(probe=f"{len(probes)} probes", deviation=rep.max_relative_deviation, bound=tol,
                    margin=tol - rep.max_relative_deviation, iterations=rep.iterations_used,
                    status=STATUS_PASS if rep.passed else STATUS_FAIL)
    finite = "" if math.isfinite(rep.max_relative_deviation) else " (non-finite)"
    text = (f"max relative covariance deviation {rep.max_relative_deviation:.3e}{finite} over "
            f"{rep.unitary_count} unitaries (tol {tol:g})")
    return [row], {"text": text, "max_relative_deviation": rep.max_relative_deviation}


def _run_deadzone(config: dict) -> tuple[list[ResultRow], dict]:
    n = int(config["n"])
    with _at("theta"):
        theta = float(config["theta"])
    with _at("n"):
        top = float((n - 1) ** 2)
    rows = []
    sweep = []
    for i, K in enumerate(config["K_sweep"]):
        with _at(f"K_sweep.{i}"):
            K = float(K)
        denom = top - K
        entry = {"K": K, "denominator": denom, "bound": None}
        try:
            bound = closed_form_bounds(n, "constant", "forward", K=K, theta=theta)
            entry["bound"] = bound
            rows.append(ResultRow(probe=_fmt(K), q_estimate=f"denominator={_fmt(denom)}", bound=bound,
                                  status=STATUS_PASS if math.isfinite(bound) else STATUS_FAIL))
        except DivergenceError as e:
            rows.append(_rejected(_fmt(K), e, f"denominator={_fmt(denom)}"))
        sweep.append(entry)
    denoms = [e["denominator"] for e in sweep]
    crossing = (min(denoms) <= 0.0) and (max(denoms) > 0.0)
    text = ("denominator (n-1)^2 - K crosses zero across the sweep" if crossing
            else "denominator does not cross zero in this sweep")
    if overflowed := [r.probe for r in rows if r.status == STATUS_FAIL]:
        text += f"; bound out of floating-point range at K = {', '.join(overflowed)}"
    return rows, {"text": text, "sweep": sweep, "crosses_zero": crossing}


def _run_bound_equality(config: dict) -> tuple[list[ResultRow], dict]:
    grid = config["grid"]
    with _at("tol"):
        tol = float(config.get("tol", 1e-12))
    rows = []
    with _at("grid"):  # a power or a term out of floating-point range
        epsilon = float(grid.get("epsilon", 1.0))
        series_tol = float(grid.get("series_tol", 1e-15))
        for n in grid.get("n", [3, 4, 5]):
            for r in grid.get("r", [0.5, 1.0, 1.5, 2.5, 3.0, 4.0]):
                direction = "forward" if r < 2.0 else "backward"
                for norm_x in grid.get("norm_x", [0.5, 1.0, 2.0]):
                    label = f"n={n}|r={_fmt(float(r))}|x={_fmt(float(norm_x))}"
                    phi = power(epsilon, r)
                    x = np.array([norm_x])
                    try:  # the dead zone r = 2, or a series that does not settle
                        b_quasi = closed_form_bounds(n, "power", direction, norm_x=norm_x,
                                                     K=1.0, epsilon=epsilon, r=r)
                        b_p = closed_form_bounds(n, "power", direction, norm_x=norm_x,
                                                 p=1.0, epsilon=epsilon, r=r)
                        if direction == "forward":
                            s_quasi = series_bound_forward(phi, n, 1.0, x, series_tol)
                            s_p = series_bound_forward_p(phi, n, 1.0, x, series_tol)
                        else:
                            s_quasi = series_bound_backward(phi, n, 1.0, x, series_tol)
                            s_p = series_bound_backward_p(phi, n, 1.0, x, series_tol)
                        if not (math.isfinite(s_quasi) and math.isfinite(s_p)):
                            raise DivergenceError("series sum out of floating-point range")
                    except DivergenceError as e:
                        rows.append(_rejected(label, e))
                        continue
                    scale = max(abs(b_quasi), abs(b_p), 1e-300)
                    rel = max(abs(b_quasi - b_p), abs(s_quasi - s_p)) / scale
                    rows.append(ResultRow(
                        probe=label, norm_x=float(norm_x), q_estimate=_fmt(b_quasi),
                        deviation=rel, bound=tol, margin=tol - rel,
                        status=STATUS_PASS if rel <= tol else STATUS_FAIL))
    # np.max keeps a NaN, where max(0.0, nan) drops it; a rejected row has no deviation
    worst = float(np.max([r.deviation for r in rows if r.deviation is not None], initial=0.0))
    return rows, {"text": f"worst relative disagreement {worst:.3e}", "worst": worst}


# ---------------------------------------------------------------------------
# scenario kinds and the published schema


# scenario kind -> (runner, sections it requires); the schema's kind enum and allOf come from here
_KINDS = {
    "stability": (_run_stability, ["equation", "norm", "mapping", "control", "stability"]),
    "oracle": (_run_oracle, ["equation_a", "equation_b", "group"]),
    "dimension": (_run_dimension, ["equation", "group", "expected_dim"]),
    "inner_product": (_run_inner_product, ["norm", "mode", "param"]),
    "covariance": (_run_covariance, ["mapping", "n", "probes"]),
    "deadzone": (_run_deadzone, ["n", "theta", "K_sweep"]),
    "bound_equality": (_run_bound_equality, ["grid"]),
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "quadstab scenario",
    "type": "object",
    "required": ["name", "kind"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "kind": {"enum": list(_KINDS)},
        "seed": {"type": "integer", "minimum": 0},
        "expected_status": {"enum": [STATUS_REJECTED_DIVERGENT, STATUS_REJECTED_OPEN_PROBLEM]},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"results_csv": {"type": "string", "minLength": 1}},
        },
        "equation": _EQUATION_SCHEMA,
        "equation_a": _EQUATION_SCHEMA,
        "equation_b": _EQUATION_SCHEMA,
        "group": _GROUP_SCHEMA,
        "expected_dim": {"type": "integer", "minimum": 0},
        "norm": _NORM_SCHEMA,
        "domain_norm": _NORM_SCHEMA,
        "mapping": {"type": "object", "required": ["family"]},
        "control": {
            "type": "object",
            "required": ["variant"],
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": list(CONTROL_VARIANTS)},
                "epsilon": {"type": ["number", "null"], "minimum": 0},
                "r": {"type": "number", "exclusiveMinimum": 0},
                "theta": {"type": ["number", "null"], "minimum": 0},
                "fit_trials": {"type": "integer", "minimum": 1},
                "fit_box": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        # open to unknown keys: the audit benchmark still sends `series_tol`, a field
        # that is gone; it closes when that benchmark config changes (ROADMAP item 1)
        "stability": {
            "type": "object",
            "properties": {
                "direction": {"enum": ["forward", "backward"]},
                "m_max": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "bound_mode": {"enum": ["quasi", "p"]},
                "probes": _PROBES_SCHEMA,
            },
        },
        "mode": {"enum": ["b", "c"]},
        "param": {"type": "integer"},
        "trials": {"type": "integer", "minimum": 1},
        "expect": {"enum": ["pass", "witness"]},
        "witness": {"type": "object"},
        "n": {"type": "integer", "minimum": 3},
        "unitaries": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "probes": _PROBES_SCHEMA,
        "theta": {"type": "number", "minimum": 0},
        "K_sweep": {"type": "array", "items": {"type": "number", "minimum": 1}, "minItems": 1},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "array", "items": {"type": "integer", "minimum": 3}, "minItems": 1},
                "r": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                      "minItems": 1},
                "norm_x": {"type": "array", "items": {"type": "number", "minimum": 0},
                           "minItems": 1},
                "epsilon": {"type": "number", "minimum": 0},
                "series_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
    "allOf": [{"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
               "then": {"required": sections}} for kind, (_, sections) in _KINDS.items()],
}

_VALIDATOR = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def config_schema() -> dict:
    """The published JSON schema for scenario configs."""
    return json.loads(json.dumps(SCENARIO_SCHEMA))


def _non_finite(node, path: str):
    """The dotted path of the first NaN or infinite float under `node` (json reads both), or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if (found := _non_finite(value, f"{path}.{key}" if path else str(key))) is not None:
            return found
    return None


def validate_config(config: dict) -> None:
    """Check the config against the schema, then refuse any number in it that is not finite."""
    errors = sorted(_VALIDATOR.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ScenarioValidationError(path, err.message)
    if (path := _non_finite(config, "")) is not None:
        raise ScenarioValidationError(path, "number must be finite")


def _write_atomic(path: str, text: str) -> None:
    """Write text through a temporary file in the target directory, then rename it."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, rows: list[ResultRow]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_HEADERS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, h)) for h in RESULT_HEADERS])
    _write_atomic(path, buf.getvalue())


def run_scenario(config: dict, outdir: str | None = None, write_csv: bool = True) -> RunResult:
    """Validate and execute one scenario; deterministic given (config, seed)."""
    validate_config(config)
    runner, _ = _KINDS[config["kind"]]
    rows, summary = runner(config)
    for row in rows:
        row.scenario = config["name"]
    exit_code = _exit_code(rows, config.get("expected_status"))
    csv_path = None
    if write_csv:
        filename = config.get("output", {}).get("results_csv", f"{config['name']}.csv")
        csv_path = os.path.join(outdir or os.environ.get(OUTDIR_ENV, "."), filename)
        _write_csv(csv_path, rows)
    return RunResult(config["name"], rows, summary, exit_code, csv_path)


def emit_plotdata(rows: list[ResultRow], path: str | None = None) -> str:
    """CSV of (norm_x, deviation, bound) triples, sorted by norm_x."""
    usable = [r for r in rows
              if r.norm_x is not None and r.deviation is not None and r.bound is not None]
    if not usable:
        raise ValueError("no plottable rows")
    usable.sort(key=lambda r: r.norm_x)
    lines = [PLOTDATA_HEADER]
    lines += [f"{_fmt(r.norm_x)},{_fmt(r.deviation)},{_fmt(r.bound)}" for r in usable]
    text = "\n".join(lines) + "\n"
    if path is not None:
        _write_atomic(path, text)
    return text


# ---------------------------------------------------------------------------
# preset table


def _fe3_stability(seed, norm, mapping, control, direction, bound_mode, probe_count) -> dict:
    """Skeleton of the direct-method presets: fe3 with n = 3 on a scalar domain."""
    return {
        "kind": "stability", "seed": seed, "equation": {"id": "fe3", "n": 3}, "norm": norm,
        "domain_norm": {"kind": "euclidean", "dim": 1}, "mapping": mapping, "control": control,
        "stability": {"direction": direction, "m_max": 40, "tol": 1e-9, "bound_mode": bound_mode,
                      "probes": {"count": probe_count, "box": 10.0}},
    }


_SQUARE = {"family": "quadratic_form", "coefficients": [[1.0]]}
_SQUARES = {"family": "stack", "parts": [
    _SQUARE, {"family": "quadratic_form", "coefficients": [[2.0]]}]}
_SQUARE_ODD_BUMP = {"family": "perturbed", "base": _SQUARE, "bump": {"family": "odd_growth"},
                    "amplitude": 0.05}


def _fitted_power(r: float) -> dict:
    return {"variant": "power", "epsilon": None, "r": r, "fit_trials": 400}


# name -> (description, config without "name"); preset_config hands out deep copies
PRESETS: dict[str, tuple[str, dict]] = {
    "oracle-fe2-fe1": (
        "three-point centroid identity and the quadratic equation cut the same space over F_7",
        {"kind": "oracle", "seed": 1, "equation_a": {"id": "fe2"}, "equation_b": {"id": "fe1"},
         "group": {"q": 7, "d": 1}}),
    "oracle-fe3-fe1": (
        "n-point centroid equation (n=3) matches the quadratic equation over F_5, dim 1",
        {"kind": "oracle", "seed": 1, "equation_a": {"id": "fe3", "n": 3},
         "equation_b": {"id": "fe1"}, "group": {"q": 5, "d": 1}}),
    "oracle-fe3_0-fe1": (
        "shifted two-variable equation (a=2) matches the quadratic equation over F_7",
        {"kind": "oracle", "seed": 1, "equation_a": {"id": "fe3_0", "a": 2},
         "equation_b": {"id": "fe1"}, "group": {"q": 7, "d": 1}}),
    "fe1-dimension": (
        "quadratic solution space over F_7^2 has dimension d(d+1)/2 = 3",
        {"kind": "dimension", "seed": 1, "equation": {"id": "fe1"}, "group": {"q": 7, "d": 2},
         "expected_dim": 3}),
    "inner-product-pass": (
        "Euclidean plane satisfies the shifted squared-norm identity (a=2)",
        {"kind": "inner_product", "seed": 3, "norm": {"kind": "euclidean", "dim": 2},
         "mode": "b", "param": 2, "trials": 4000, "expect": "pass"}),
    "inner-product-centroid": (
        "Euclidean 3-space satisfies the centroid squared-norm identity (n=3)",
        {"kind": "inner_product", "seed": 3, "norm": {"kind": "euclidean", "dim": 3},
         "mode": "c", "param": 3, "trials": 4000, "expect": "pass"}),
    "inner-product-fail": (
        "l1 plane violates the shifted identity with witness e1, e2 and residual 4",
        {"kind": "inner_product", "seed": 3, "norm": {"kind": "l1", "dim": 2}, "mode": "b",
         "param": 2, "trials": 4000, "expect": "witness",
         "witness": {"x": [1.0, 0.0], "y": [0.0, 1.0], "residual": 4.0}}),
    "power-forward": (
        "forward scheme with power budget r=1: deviation under (n+2)K eps |x|^r / (n[(n-1)^2-K(n-1)^r])",
        _fe3_stability(11, {"kind": "euclidean", "dim": 1}, _SQUARE_ODD_BUMP, _fitted_power(1.0),
                       "forward", "quasi", 100)),
    "power-backward": (
        "backward scheme with power budget r=3: deviation under the mirrored closed form",
        _fe3_stability(12, {"kind": "euclidean", "dim": 1},
                       {"family": "perturbed", "base": _SQUARE,
                        "bump": {"family": "monomial", "degree": 3}, "amplitude": 0.01},
                       _fitted_power(3.0), "backward", "quasi", 100)),
    "constant-quasinorm": (
        "constant budget in the l^{1/2} quasi-norm plane (K=2): deviation under 5 theta / 3",
        _fe3_stability(13, {"kind": "lp_quasi", "p": 0.5, "dim": 2},
                       {"family": "perturbed", "base": _SQUARES, "amplitude": 1.0,
                        "bump": {"family": "stack", "parts": [
                            {"family": "scaled", "factor": 0.05, "inner": {"family": "sine"}},
                            {"family": "scaled", "factor": 0.08, "inner": {"family": "cosine"}}]}},
                       {"variant": "constant",
                        "theta": float(12.0 * (np.sqrt(0.05) + np.sqrt(0.08)) ** 2)},
                       "forward", "quasi", 60)),
    "pnorm-p1": (
        "p-norm route at p=1 reproduces the K=1 run",
        _fe3_stability(14, {"kind": "euclidean", "dim": 1}, _SQUARE_ODD_BUMP, _fitted_power(1.0),
                       "forward", "p", 100)),
    "pnorm-phalf": (
        "p-norm route at p=1/2 in the l^{1/2} plane with power budget r=1",
        _fe3_stability(15, {"kind": "lp_quasi", "p": 0.5, "dim": 2},
                       {"family": "perturbed", "base": _SQUARES, "amplitude": 0.04,
                        "bump": {"family": "stack", "parts": [
                            {"family": "scaled", "factor": 1.0, "inner": {"family": "odd_growth"}},
                            {"family": "scaled", "factor": -0.5,
                             "inner": {"family": "odd_growth"}}]}},
                       _fitted_power(1.0), "forward", "p", 60)),
    "k1-equals-p1": (
        "closed forms and series agree between K=1 and p=1 on a parameter grid",
        {"kind": "bound_equality", "seed": 0,
         "grid": {"n": [3, 4, 5], "r": [0.5, 1.0, 1.5, 2.5, 3.0, 4.0],
                  "norm_x": [0.5, 1.0, 2.0], "epsilon": 1.0, "series_tol": 1e-15},
         "tol": 1e-12}),
    "unitary-covariance": (
        "stabilized limit of a perturbed matrix square is unitarily covariant on M_2(C)",
        {"kind": "covariance", "seed": 5, "n": 3,
         "mapping": {"family": "perturbed", "base": {"family": "matrix_square", "k": 2},
                     "bump": {"family": "matrix_sine_bump", "h_real": [[1.0, 0.3], [0.3, -0.5]]},
                     "amplitude": 0.1},
         "unitaries": 100, "tol": 1e-6, "probes": {"count": 3, "box": 3.0},
         "stability": {"m_max": 25, "tol": 1e-10}}),
    "open-problem-deadzone": (
        "constant-budget denominator (n-1)^2 - K crosses zero; K >= (n-1)^2 is rejected",
        {"kind": "deadzone", "seed": 0, "n": 3, "theta": 1.0,
         "K_sweep": [3.0, 3.5, 3.9, 4.0, 4.5, 5.0],
         "expected_status": STATUS_REJECTED_OPEN_PROBLEM}),
}


def list_presets() -> list[tuple[str, str]]:
    """Registered preset names with one-line descriptions."""
    return [(name, desc) for name, (desc, _) in PRESETS.items()]


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; try `quadstab list`")
    return {"name": name, **copy.deepcopy(PRESETS[name][1])}


def run_preset(name: str, outdir: str | None = None, seed: int | None = None,
               write_csv: bool = True) -> RunResult:
    config = preset_config(name)
    if seed is not None:
        config["seed"] = int(seed)
    return run_scenario(config, outdir=outdir, write_csv=write_csv)


# ---------------------------------------------------------------------------
# CLI


def _print_result(res: RunResult) -> None:
    print(f"[{res.name}] {res.summary.get('text', '')}")
    counts = Counter(row.status for row in res.rows)
    print("rows: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    if res.csv_path:
        print(f"results: {res.csv_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadstab",
        description="quadratic functional equation laboratory: stability bounds and finite-field oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config (JSON)")
    p_run.add_argument("config")
    p_run.add_argument("--outdir", default=None)

    p_preset = sub.add_parser("preset", help="run a named preset experiment")
    p_preset.add_argument("name")
    p_preset.add_argument("--outdir", default=None)
    p_preset.add_argument("--seed", type=int, default=None)

    sub.add_parser("list", help="list preset experiments")

    p_oracle = sub.add_parser("oracle", help="compare two equations' solution spaces over F_q^d")
    p_oracle.add_argument("eq1", help="fe1 | fe2 | fe3[:n] | fe3_0[:a]")
    p_oracle.add_argument("eq2", help="fe1 | fe2 | fe3[:n] | fe3_0[:a]")
    p_oracle.add_argument("--q", type=int, required=True)
    p_oracle.add_argument("--d", type=int, default=1)

    p_plot = sub.add_parser("plotdata", help="extract (norm_x, deviation, bound) from a results CSV")
    p_plot.add_argument("results_csv")
    p_plot.add_argument("-o", "--output", default=None)

    args = parser.parse_args(argv)

    if args.command in ("run", "preset", "oracle"):
        try:
            if args.command == "run":
                with open(args.config) as fh:
                    config = json.load(fh)
                res = run_scenario(config, outdir=args.outdir)
            elif args.command == "preset":
                res = run_preset(args.name, outdir=args.outdir, seed=args.seed)
            else:  # the shorthand becomes an `oracle` scenario
                config = {"name": "oracle", "kind": "oracle", "group": {"q": args.q, "d": args.d}}
                for key, text in (("equation_a", args.eq1), ("equation_b", args.eq2)):
                    with _at(key):
                        eq = parse_equation(text)
                    config[key] = {k: v for k, v in vars(eq).items() if v is not None}
                res = run_scenario(config, write_csv=False)
        except (OSError, json.JSONDecodeError, KeyError, ScenarioValidationError) as e:
            # an unreadable config or results path, an unknown preset, or a refused config
            print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
            return EXIT_VALIDATION
        if args.command == "oracle":
            print(res.summary["text"])
        else:
            _print_result(res)
        return res.exit_code

    if args.command == "list":
        for name, desc in list_presets():
            print(f"{name:24s} {desc}")
        return EXIT_OK

    if args.command == "plotdata":
        try:
            with open(args.results_csv, newline="") as fh:  # an empty cell reads as None
                rows = [ResultRow(scenario=rec.get("scenario", ""), probe=rec.get("probe", ""),
                                  status=rec.get("status", ""),
                                  **{k: float(rec[k]) if rec.get(k) else None
                                     for k in ("norm_x", "deviation", "bound")})
                        for rec in csv.DictReader(fh)]
            text = emit_plotdata(rows, path=args.output)
        except (OSError, ValueError, KeyError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_VALIDATION
        if args.output is None:
            sys.stdout.write(text)
        else:
            print(f"plot data: {args.output}")
        return EXIT_OK

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return EXIT_VALIDATION  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
